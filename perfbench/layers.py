"""Which kneserlab functions the traced run wraps, and the per-layer
metrics it derives from their spans and counts.

A layer is a package module.  Span names are ``<module>.<function>``;
metric names are ``<span>.calls`` (calls per pass), ``<span>.self_s``
(self time per pass), ``<span>.s`` (inclusive time per pass) or a count
named after the layer.  Every figure is per traced pass.
"""

from __future__ import annotations

import statistics

from kneserlab import (
    catalan,
    cli,
    decompose,
    graphs,
    hamilton,
    morphisms,
    serialize,
    setcore,
    superstructure,
)

GRAPH_NAMES = ["odd3", "odd4", "odd5", "odd6", "odd7",
               "middle4", "middle5", "middle6"]


def _graph_name(g) -> str:
    return f"{g.family.kind}{g.family.n}" if g.family else "other"


def _count_vertices(counters, args, g):
    counters["graphs.build.vertices"] += g.n_vertices


def _count_bytes(counters, args, text):
    counters["serialize.bytes"] += len(text)


def _count_search(counters, args, result):
    name = _graph_name(args[0])
    counters[f"search.nodes.{name}"] += result.nodes
    counters[f"search.kernel_s.{name}"] += result.elapsed
    counters["search.attempted"] += 1
    counters["search.conclusive"] += result.status in (hamilton.FOUND, hamilton.NONE)


def _count_nodes(counters, args, result):
    counters["hamilton.kernel.nodes"] += result[2]


FUNCTIONS = [
    (setcore, "k_blocks", None),
    (graphs, "build", _count_vertices),
    (graphs, "bfs_distances", None),
    (serialize, "graph_to_json", _count_bytes),
    (serialize, "graph_from_json", None),
    (decompose, "delete_colors", None),
    (decompose, "block_component", None),
    (decompose, "classify_components", None),
    (morphisms, "regular_component_to_middle", None),
    (morphisms, "biregular_cross_iso", None),
    (morphisms, "find_isomorphism", None),
    (morphisms, "lift_circuit", None),
    (morphisms, "embed_middle_in_odd", None),
    (superstructure, "build_m", None),
    (superstructure, "build_l", None),
    (superstructure, "bottom_level", None),
    (superstructure, "two_color_path", None),
    (catalan, "orbits", None),
    (catalan, "independent_orbit_excision", None),
    (hamilton, "find_hamiltonian_cycle", _count_search),
    (hamilton, "verify_cycle", None),
    (hamilton, "recursion_pipeline", None),
    (cli, "main", None),
    (cli, "run_suite", None),
]


def _module_name(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def install(tracer):
    """Wrap every traced function, the verify suites and the search kernel."""
    for module, attr, measure in FUNCTIONS:
        tracer.patch_function(module, attr, f"{_module_name(module)}.{attr}",
                              measure)
    tracer.patch_method(morphisms.VertexMap, "verify", "morphisms.VertexMap.verify")
    for suite in list(cli._SUITES):
        tracer.patch_dict(cli._SUITES, suite, f"cli.run_suite.{suite}")
    tracer.patch_function(hamilton._kernel, "solve", "hamilton.kernel.solve",
                          _count_nodes)


SUITES = ["covers", "decompose", "isomorphisms", "superstructure",
          "identities", "distance", "orbits", "coxeter"]

# (span, statistic) pairs reported as <span>.<statistic>
SPAN_METRICS = [
    ("graphs.build", "calls"),
    ("graphs.build", "self_s"),
    ("setcore.k_blocks", "self_s"),
    ("serialize.graph_to_json", "self_s"),
    ("serialize.graph_from_json", "self_s"),
    ("decompose.delete_colors", "calls"),
    ("decompose.delete_colors", "self_s"),
    ("decompose.block_component", "calls"),
    ("decompose.block_component", "self_s"),
    ("decompose.classify_components", "calls"),
    ("decompose.classify_components", "self_s"),
    ("graphs.bfs_distances", "self_s"),
    ("morphisms.VertexMap.verify", "s"),
    ("morphisms.regular_component_to_middle", "s"),
    ("morphisms.biregular_cross_iso", "s"),
    ("morphisms.find_isomorphism", "s"),
    ("superstructure.build_m", "s"),
    ("superstructure.build_l", "s"),
    ("superstructure.bottom_level", "s"),
    ("catalan.orbits", "s"),
    ("catalan.independent_orbit_excision", "s"),
    *[(f"cli.run_suite.{suite}", "s") for suite in SUITES],
    ("morphisms.lift_circuit", "s"),
    ("morphisms.embed_middle_in_odd", "s"),
    ("superstructure.two_color_path", "calls"),
    ("superstructure.two_color_path", "self_s"),
    ("hamilton.recursion_pipeline", "s"),
    ("hamilton.kernel.solve", "self_s"),
    ("hamilton.verify_cycle", "self_s"),
]

_UNIT = {"calls": ("count", "lower"), "self_s": ("s", "lower"), "s": ("s", "lower")}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{span}.{stat}", *_UNIT[stat]) for span, stat in SPAN_METRICS]
    specs += [
        ("graphs.build.vertices_per_s", "1/s", "higher"),
        ("serialize.bytes", "B", "lower"),
        ("cli.self_s", "s", "lower"),
        ("hamilton.kernel.nodes", "count", "lower"),
        *[(f"hamilton.kernel.nodes_per_s.{g}", "1/s", "higher") for g in GRAPH_NAMES],
        ("hamilton.conclusive", "ratio", "higher"),
        ("trace.untraced_pass_s", "s", "lower"),
        ("trace.traced_pass_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return specs


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer, n_passes: int, untraced: list[float],
            traced: list[float]) -> dict[str, float]:
    """Per-pass layer metrics from the spans of n_passes traced passes, with
    the tracing overhead as the traced minus the untraced median pass."""
    self_s = tracer.self_times()
    incl = tracer.inclusive_times()
    calls = tracer.calls
    c = tracer.counters
    getters = {"calls": calls, "self_s": self_s, "s": incl}
    out = {
        f"{span}.{stat}": getters[stat].get(span, 0) / n_passes
        for span, stat in SPAN_METRICS
    }
    out["graphs.build.vertices_per_s"] = _ratio(
        c["graphs.build.vertices"], incl.get("graphs.build", 0.0))
    out["serialize.bytes"] = c["serialize.bytes"] / n_passes
    out["cli.self_s"] = sum(
        t for name, t in self_s.items() if name.startswith("cli.")) / n_passes
    out["hamilton.kernel.nodes"] = c["hamilton.kernel.nodes"] / n_passes
    for g in GRAPH_NAMES:
        out[f"hamilton.kernel.nodes_per_s.{g}"] = _ratio(
            c[f"search.nodes.{g}"], c[f"search.kernel_s.{g}"])
    out["hamilton.conclusive"] = _ratio(c["search.conclusive"],
                                        c["search.attempted"])
    out["trace.untraced_pass_s"] = statistics.median(untraced)
    out["trace.traced_pass_s"] = statistics.median(traced)
    out["trace.overhead_s"] = out["trace.traced_pass_s"] - out["trace.untraced_pass_s"]
    return out
