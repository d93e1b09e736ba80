"""Tests of the benchmark harness itself.

Run from the root of the repository:

    python -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import layers
import run
import speed
import workloads as W
import worker
from tracer import Tracer

from kneserlab import decompose, graphs

HERE = Path(__file__).resolve().parent


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_direct_children():
    tracer = Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0, 8.0, 10.0]))
    with tracer.span("outer"):
        with tracer.span("child"):
            pass
        with tracer.span("child"):
            pass
    assert tracer.self_times() == {"outer": 10.0 - 2.0 - 4.0, "child": 6.0}
    assert tracer.inclusive_times() == {"outer": 10.0, "child": 6.0}
    assert tracer.calls == {"outer": 1, "child": 2}
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_patch_rebinds_every_alias_and_uninstall_restores():
    original = graphs.build
    tracer = Tracer()
    tracer.patch_function(graphs, "build", "graphs.build")
    try:
        assert graphs.build is not original
        assert decompose.build is graphs.build
        assert W.build is graphs.build
        g = decompose.build(graphs.Family.odd(3))
    finally:
        tracer.uninstall()
    assert graphs.build is original and decompose.build is original
    assert W.build is original
    assert g.n_vertices == 10 and tracer.calls["graphs.build"] == 1


def test_wrong_expected_node_count_is_a_failed_operation():
    state = W.hamilton_setup(0, "smoke")
    expected = dict(W.EXPECTED)
    status, nodes = expected["odd4"][0]
    expected["odd4"] = [(status, nodes + 1)] + expected["odd4"][1:]
    result = {"attempted": 0, "failed": 0, "failures": []}
    worker.run_passes(partial(W.hamilton_pass, expected=expected), state, 0.0,
                      result, "test")
    assert result["failed"] == 1
    assert result["failures"][0].startswith("odd4 tie 0:")
    assert result["attempted"] > result["failed"]


def test_pass_that_raises_is_a_failed_operation():
    def broken(_state):
        raise ValueError("boom")

    result = {"attempted": 0, "failed": 0, "failures": []}
    worker.run_passes(broken, None, 0.0, result, "test")
    assert result["attempted"] == result["failed"] == 1
    assert "ValueError: boom" in result["failures"][0]


def test_changed_results_between_passes_are_a_failed_operation():
    outcomes = iter([["a", 1], ["a", 2]])

    def flaky(_state):
        res = W.PassResult()
        res.signature = next(outcomes)
        return res

    result = {"attempted": 0, "failed": 0, "failures": []}
    worker.run_passes(flaky, None, 0.0, result, "first")
    worker.run_passes(flaky, None, 0.0, result, "second")
    assert result["attempted"] == result["failed"] == 1


def test_sampler_keeps_its_reference_loops_out_of_the_measured_time():
    sampler = speed.Sampler()
    sampler.start()
    try:
        mark = sampler.mark()
        wall0, clock0 = time.perf_counter(), sampler.clock()
        while time.perf_counter() - wall0 < 0.3:
            pass
        wall, measured = time.perf_counter() - wall0, sampler.clock() - clock0
    finally:
        sampler.stop()
    loops = sampler.loops[mark:]
    assert loops and measured < wall
    assert abs(wall - measured - sampler.spent) < 0.01
    assert sampler.scale_since(mark) == speed.REFERENCE_S / sorted(loops)[len(loops) // 2]
    assert sampler.scale_since(len(sampler.loops)) > 0  # no loops yet: runs one


def test_default_seed_table_covers_every_search_and_round():
    state = W.hamilton_setup(0, "full")
    names = [name for name, _g, _b in state.plain]
    names += [f"pipeline-{n}-{start}" for n, start in state.rounds]
    assert list(W.EXPECTED) == names
    assert state.seeds == list(range(W.TIE_SEEDS_PER_PASS))
    assert state.round_seeds == W.PIPELINE_TIE_SEEDS
    assert W.PIPELINE_TIE_SEEDS == list(range(len(W.PIPELINE_TIE_SEEDS)))
    for name, rows in W.EXPECTED.items():
        ties = state.round_seeds if name.startswith("pipeline-") else state.seeds
        assert len(rows) == len(ties), name
    # the default seed keeps odd(5)'s heavy tail, in a plain search and in
    # the base search of the round into odd(6)
    assert W.EXPECTED["odd5"][0][0] == "exhausted-budget"
    assert W.EXPECTED["pipeline-6-odd"][0][0] == "exhausted-budget"


def test_traced_pass_reproduces_untraced_node_counts():
    state = W.hamilton_setup(0, "smoke")
    untraced = W.hamilton_pass(state)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced = W.hamilton_pass(state)
    finally:
        tracer.uninstall()
    assert traced.signature == untraced.signature
    assert not traced.failures
    plain = [row for row in untraced.signature if len(row) == 4]
    kernel_nodes = sum(nodes for _name, _tie, _status, nodes in plain)
    assert tracer.counters["hamilton.kernel.nodes"] >= kernel_nodes
    values = layers.metrics(tracer, 1, [1.0], [1.0])
    assert [name for name, _u, _b in layers.metric_specs()] == list(values)
    assert values["hamilton.kernel.nodes_per_s.odd3"] > 0
    assert values["hamilton.conclusive"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["workloads"]] == run.WORKLOADS
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == layers.metric_specs()
    fake = {"summary": {k: {"median": 1.0} for k in
                        ("setup_samples_s", "pass_s", "nodes_per_s", "pipeline_s")},
            "peak_rss_mb": 1.0}
    assert [m["name"] for m in spec["end_to_end"]] == list(run.end_to_end(fake))


def test_smoke_mode_runs_every_workload_without_failures():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=HERE.parent, capture_output=True, text=True,
                          timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count(" 0 failed") == len(run.WORKLOADS)


def test_run_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
