#!/usr/bin/env python3
"""kneserlab benchmark: construct, verify and hamilton workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload construct --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke          # every workload, one short pass

Each run sets the workload up in SETUP_REPEATS fresh processes and once
more in the measuring process (set-up time is the median of these), then
times passes for --seconds in one single-threaded process.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  The full report, and the spans of a traced run,
are written under perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ["construct", "verify", "hamilton"]
SETUP_REPEATS = 10
DEADLINE_S = 175.0  # a run ends within 180 seconds


def summarize(samples: list[float]) -> dict:
    """Median, and the highest whole percentile with at least ten samples
    above it (None below 20 samples), with the sample count."""
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples),
           "tail_pct": None, "tail": None}
    if n >= 20:
        pct = 100 * (n - 10) // n
        out["tail_pct"] = pct
        out["tail"] = statistics.quantiles(samples, n=100)[pct - 1]
    return out


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: int,
        size: str = "full", setup_repeats: int = SETUP_REPEATS) -> dict:
    """One benchmark run; returns the full report."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    setups = [_worker(["--mode", "setup", *common], deadline)
              for _ in range(setup_repeats)]
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    measure = ["--mode", "run", *common, "--seconds", str(seconds),
               "--trace", str(trace)]
    if trace:
        measure += ["--spans-out", str(OUT / f"{stem}-spans.json")]
    report = _worker(measure, deadline)
    report.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  size=size, python=sys.version.split()[0])
    for key, samples in (("setup_s", "setup_samples_s"),
                         ("wall_setup_s", "wall_setup_samples_s")):
        report[samples] = [one[key] for one in setups] + [report[key]]
    report["summary"] = {
        key: summarize(report[key])
        for key in ("setup_samples_s", "pass_s", "traced_pass_s",
                    "nodes_per_s", "pipeline_s", "wall_setup_samples_s",
                    "wall_pass_s")
        if report.get(key)
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    return report


def end_to_end(report: dict) -> dict:
    s = report["summary"]
    return {
        "setup_s": {"value": s["setup_samples_s"]["median"], "unit": "s"},
        "pass_s": {"value": s["pass_s"]["median"], "unit": "s"},
        "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        "nodes_per_s": {"value": s["nodes_per_s"]["median"], "unit": "1/s"},
        "pipeline_s": {"value": s["pipeline_s"]["median"], "unit": "s"},
    }


def describe(report: dict) -> list[str]:
    head = (f"workload {report['workload']} seed {report['seed']}"
            f" trace {report['trace']}: kernel {report['kernel']},"
            f" python {report['python']}")
    if "parity" in report:
        head += f", parity {report['parity']}"
    lines = [head]
    for key, s in report["summary"].items():
        tail = (f", p{s['tail_pct']} {s['tail']:.6g}" if s["tail"] is not None
                else "")
        lines.append(f"  {key}: median {s['median']:.6g}{tail} (n={s['n']})")
    lines.append(f"  peak_rss_mb: {report['peak_rss_mb']:.1f}")
    lines.append(f"  operations: {report['attempted']} attempted,"
                 f" {report['failed']} failed")
    lines += [f"  failed: {what.splitlines()[0]}" for what in report["failures"]]
    return lines


def result_line(report: dict) -> str:
    metrics = report["per_layer"] if report["trace"] else end_to_end(report)
    return json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload (or --workload) for one short"
                        " pass on small inputs")
    args = p.parse_args(argv)

    if not (SRC / "kneserlab" / "__init__.py").is_file():
        print(f"error: no kneserlab sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        ok = True
        for workload in [args.workload] if args.workload else WORKLOADS:
            report = run(workload, args.seed, 0.0, args.trace, "smoke", 1)
            print("\n".join(describe(report)))
            ok = ok and report["failed"] == 0
        return 0 if ok else 1
    if args.workload is None:
        p.error("--workload is required")
    try:
        report = run(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(describe(report)))
    print(result_line(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
