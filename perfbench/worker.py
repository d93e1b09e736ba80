"""One benchmark process: set up a workload, time its passes, and print one
JSON document on stdout.  run.py starts it; it is not meant to be run by
hand.

--mode setup  only sets up, and reports the set-up time.
--mode run    sets up, runs passes for --seconds, then reports timings,
              gate results and (with --trace 1) per-layer metrics.

Set-up time starts before kneserlab is imported, so it covers the import,
input generation and pre-building.  Reported times are scaled by the host
speed (see speed.py); the unscaled ones are reported too, under names
that start with wall_.
"""

import time

import speed

CAL_START = speed.calibrate()
T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from functools import partial  # noqa: E402

# Share of a workload's pass time that the kernel probe gets.
PROBE_SHARE = 0.25
MAX_FAILURES_SHOWN = 10


def run_passes(run_pass, state, seconds: float, result: dict, label: str,
               after_pass=None, sampler=None):
    """Run passes until `seconds` have elapsed (at least one pass), calling
    after_pass(total pass time so far) after each; its time is not counted.
    Returns (time, result, scale) of each pass.  With a running sampler,
    the time excludes the sampler's reference loops and scale is its
    speed scale over the pass; otherwise the time is wall time, scale 1.

    Every pass after the first must reproduce the first pass's signature,
    and each pass of a later call must reproduce result["signature"]; a
    difference counts as a failed operation."""
    clock = sampler.clock if sampler else time.perf_counter
    passes = []
    busy = 0.0
    while not passes or busy < seconds:
        gc.collect()
        first = sampler.mark() if sampler else 0
        t0 = clock()
        try:
            res = run_pass(state)
        except Exception:
            dt = clock() - t0
            _fail(result, f"{label} pass raised:\n{traceback.format_exc()}")
            res = None
        else:
            dt = clock() - t0
            _record(res, result, label, len(passes))
        passes.append((dt, res, sampler.scale_since(first) if sampler else 1.0))
        busy += dt
        if after_pass is not None:
            after_pass(busy)
    return passes


def _record(res, result: dict, label: str, index: int):
    result["attempted"] += res.attempted
    for what in res.failures:
        _fail(result, what, attempted=False)
    ref = result.setdefault("signature", res.signature)
    if res.signature is not ref:
        result["attempted"] += 1
        if res.signature != ref:
            _fail(result, f"{label} pass {index}: results differ"
                          " from the first pass", attempted=False)


def _fail(result: dict, what: str, attempted: bool = True):
    if attempted:
        result["attempted"] += 1
    result["failed"] += 1
    if len(result["failures"]) < MAX_FAILURES_SHOWN:
        result["failures"].append(what)
    print(f"failed: {what}", file=sys.stderr)


class Probe:
    """The kernel probe, for workloads that never search: short hamilton
    passes run between the workload's passes, taking PROBE_SHARE of their
    time.  Spread over the whole run like the passes, its samples see the
    same machine as they do.  It uses the default seed's tie seeds
    whatever the workload seed, so that it is the same instrument on
    every run."""

    def __init__(self, workloads, size: str, sampler):
        self.run_pass = partial(workloads.hamilton_pass, clock=sampler.clock)
        self.sampler = sampler
        self.state = workloads.hamilton_setup(
            0, "probe" if size == "full" else size)
        self.result = {"attempted": 0, "failed": 0, "failures": []}
        self.passes = []
        self.busy = 0.0

    def keep_up(self, workload_s: float):
        while not self.passes or self.busy < PROBE_SHARE * workload_s:
            done = run_passes(self.run_pass, self.state, 0.0, self.result,
                              "probe", sampler=self.sampler)
            self.passes += done
            self.busy += sum(dt for dt, _res, _scale in done)

    def merge_into(self, result: dict):
        for key in ("attempted", "failed"):
            result[key] += self.result[key]
        room = MAX_FAILURES_SHOWN - len(result["failures"])
        result["failures"] += self.result["failures"][:max(room, 0)]


def _search_rates(passes) -> tuple[list, list]:
    ok = [(res, scale) for _dt, res, scale in passes if res is not None]
    return ([res.nodes / (res.search_s * scale) for res, scale in ok
             if res.search_s > 0],
            [res.pipeline_s * scale for res, scale in ok])


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=["setup", "run"], required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "smoke"], default="full")
    p.add_argument("--spans-out", default=None)
    args = p.parse_args(argv)

    import workloads as W
    from kneserlab import hamilton as ham

    wl = W.WORKLOADS[args.workload]
    state = wl.setup(args.seed, args.size)
    wall_setup_s = time.perf_counter() - T_START
    setup_s = wall_setup_s * speed.scale(CAL_START, speed.calibrate())
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "wall_setup_s": wall_setup_s}))
        return 0

    result = {"attempted": 0, "failed": 0, "failures": [],
              "kernel": ham.kernel_name(), "setup_s": setup_s,
              "wall_setup_s": wall_setup_s}
    timed_s = args.seconds / 2 if args.trace else args.seconds
    run_pass, probe, sampler = wl.run_pass, None, None
    if not args.trace:
        sampler = speed.Sampler()
        if wl.searches:
            run_pass = partial(wl.run_pass, clock=sampler.clock)
        else:
            probe = Probe(W, args.size, sampler)
        sampler.start()
    try:
        passes = run_passes(run_pass, state, timed_s, result, "untraced",
                            probe.keep_up if probe else None, sampler)
    finally:
        if sampler:
            sampler.stop()
    result["pass_s"] = [dt * scale for dt, _res, scale in passes]
    result["wall_pass_s"] = [dt for dt, _res, _scale in passes]
    result["speed_scale"] = [scale for _dt, _res, scale in passes]
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)

    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
        try:
            def traced_pass(st):
                with tracer.span("bench.pass"):
                    return wl.run_pass(st)

            traced = run_passes(traced_pass, state, timed_s, result, "traced")
        finally:
            tracer.uninstall()
        traced_s = [dt for dt, _res, _scale in traced]
        values = layers.metrics(tracer, len(traced), result["pass_s"], traced_s)
        result["per_layer"] = {name: {"value": values[name], "unit": unit}
                               for name, unit, _better in layers.metric_specs()}
        result["traced_pass_s"] = traced_s
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump(tracer.dump(), fh)
    elif wl.searches:
        result["nodes_per_s"], result["pipeline_s"] = _search_rates(passes)
        parity = W.kernel_parity(state)
        result["attempted"] += parity.attempted
        for what in parity.failures:
            _fail(result, what, attempted=False)
        result["parity"] = ("checked" if parity.attempted
                            else "skipped: no compiled kernel")
    else:
        probe.merge_into(result)
        result["nodes_per_s"], result["pipeline_s"] = _search_rates(probe.passes)
    result.pop("signature", None)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
