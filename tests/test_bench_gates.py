"""The benchmark's own correctness gates, run once at full size.

perfbench/workloads.py checks every pass it times: the committed node
counts of the seeded searches and pipeline rounds (EXPECTED), the facts
every round report must hold (_round_ok), and the `verify all` table.
A moved node count, or a renamed field that the workloads read, would
otherwise fail only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules while they are made
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_hamilton_pass_meets_every_committed_count(workloads):
    state = workloads.hamilton_setup(0, "full")
    res = workloads.hamilton_pass(state)
    # every plain search and every round is gated against EXPECTED
    searches = len(state.plain) * len(state.seeds)
    rounds = len(state.rounds) * len(state.round_seeds)
    assert res.failures == []
    assert res.attempted == 2 * searches + 2 * rounds


def test_verify_pass_meets_its_table(workloads):
    res = workloads.verify_pass(workloads.verify_setup(0, "full"))
    assert res.failures == []
    assert res.attempted == 1
