"""Host speed calibration.

The shared virtual machines this benchmark runs on change speed by up to
about 1.5x, for seconds to tens of seconds at a time, and a run's median
then depends on how much of the run fell in each state.  To take that
out, the benchmark times a fixed reference loop beside the work and
scales every reported time by it:

    reported = measured * REFERENCE_S / reference loop time

so a reported time reads as the time on a host where one reference loop
takes REFERENCE_S.  The loop is plain interpreter work of the kind the
package does (list and bytearray indexing, dict updates, a breadth-first
search over a fixed graph) and does not touch the package.

The reference loop must run while the work runs: a loop timed only before
and after a pass of seconds did not follow the pass's speed.  So, during
passes, a Sampler runs one loop from a SIGALRM handler every INTERVAL_S
of wall time, keeps its own time out of the measured time, and scales a
pass by the median loop time during it.  Set-up lasts a tenth of a second,
too short for the timer: it is scaled by calibrate() run just before and
just after it, in the same process.

Only the standard library is imported, so a worker can calibrate before
it starts its set-up clock.
"""

import signal
import time

# About one reference loop's time on the 2-vCPU host where the benchmark
# was written (1.5 to 3 ms there).  A constant: only the ratio to it matters.
REFERENCE_S = 0.0025
REPEATS = 7  # loops per calibrate(); the median is taken
INTERVAL_S = 0.05  # wall time between the Sampler's loops

_NV = 500
_DEG = 6


def _graph() -> list:
    state = 12345
    rows = []
    for _ in range(_NV):
        row = []
        for _ in range(_DEG):
            state = (state * 1103515245 + 12345) % 2147483648
            row.append(state % _NV)
        rows.append(row)
    return rows


_NEIGHBORS = _graph()


def reference_loop() -> int:
    """Breadth-first searches from a few starts; returns a checksum."""
    total = 0
    for source in range(0, _NV, 50):
        seen = bytearray(_NV)
        depth = {source: 0}
        queue = [source]
        seen[source] = 1
        for v in queue:
            d = depth[v] + 1
            for w in _NEIGHBORS[v]:
                if not seen[w]:
                    seen[w] = 1
                    depth[w] = d
                    queue.append(w)
        total += len(queue) + sum(depth.values())
    return total


def _timed_loop() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def _median(values: list) -> float:
    values = sorted(values)
    return values[len(values) // 2]


def calibrate() -> float:
    """Median time of REPEATS reference loops, after one unmeasured loop."""
    reference_loop()
    return _median([_timed_loop() for _ in range(REPEATS)])


def scale(before: float, after: float) -> float:
    """Factor for a time measured between two calibrations."""
    return REFERENCE_S / ((before + after) / 2)


class Sampler:
    """Times one reference loop every INTERVAL_S of wall time while
    started, from a SIGALRM handler in the main thread."""

    def __init__(self):
        self.loops = []  # reference loop times, in order
        self.spent = 0.0  # time inside the handler so far

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        self.loops.append(_timed_loop())
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> float:
        """perf_counter minus the time spent in the handler."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:
                return now - spent

    def mark(self) -> int:
        return len(self.loops)

    def scale_since(self, mark: int) -> float:
        """Scale for the time since mark(): REFERENCE_S over the median
        loop since then, or over one loop run now if none ran."""
        loops = self.loops[mark:] or [_timed_loop()]
        return REFERENCE_S / _median(loops)
