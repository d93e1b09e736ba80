"""Command-line front end.

Subcommands: build, decompose, verify, hamilton, orbits, export.  Exit
status 0 on success / all checks passing, 1 on a failed check or an
inconclusive search where a conclusion was demanded, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Optional

from . import decompose as dec
from . import hamilton as ham
from . import morphisms as mor
from . import serialize
from . import superstructure as sup
from .catalan import (
    STRUCTURAL_LIMIT,
    coxeter_excision,
    independent_orbit_excision,
    necklaces,
    orbits as rotation_orbits,
    remainder_size_form,
    verify_difference_identity,
    verify_size_identity,
)
from .errors import ParameterError
from .graphs import (
    MIDDLE_LEVELS,
    ODD,
    Family,
    Report,
    build,
    girth,
    holding_families,
    signature_name,
    verify_distance_formula,
)
from .setcore import Block, binomial, catalan, catalan_fourth_convolution

@dataclass
class RunReport:
    """A verify-suite run, one Report per row; exit status 0 iff nothing
    failed."""

    suite: str
    lines: list[Report] = field(default_factory=list)

    def add(self, check_id: str, reference: str, ok: bool, detail: str = ""):
        self.lines.append(
            Report(check_id, bool(ok), reference=reference, note=detail)
        )

    def skip(self, check_id: str, reference: str, detail: str = ""):
        self.lines.append(Report(check_id, None, reference=reference, note=detail))

    @property
    def exit_status(self) -> int:
        return 1 if any(line.ok is False for line in self.lines) else 0

    def render(self) -> str:
        rows = [("check", "status", "reference", "detail")]
        rows += [
            (line.name, line.status, line.reference, line.note)
            for line in self.lines
        ]
        widths = [max(len(r[i]) for r in rows) for i in range(3)]
        out = []
        for i, r in enumerate(rows):
            out.append(
                f"{r[0]:<{widths[0]}}  {r[1]:<{widths[1]}}  "
                f"{r[2]:<{widths[2]}}  {r[3]}".rstrip()
            )
            if i == 0:
                out.append("-" * (sum(widths) + 6))
        oks = [line.ok for line in self.lines]
        out.append(
            f"suite {self.suite}: {oks.count(True)} passed,"
            f" {oks.count(False)} failed, {oks.count(None)} skipped"
        )
        return "\n".join(out)


_FAMILY_BUILDERS = {
    "odd": (1, Family.odd),
    "o": (1, Family.odd),
    "middle": (1, Family.middle_levels),
    "b": (1, Family.middle_levels),
    "middle-levels": (1, Family.middle_levels),
    "kneser": (2, Family.kneser),
    "bikneser": (2, Family.bipartite_kneser),
    "bipartite-kneser": (2, Family.bipartite_kneser),
}


def _family_from_args(kind: str, params: list[int]) -> Family:
    try:
        arity, builder = _FAMILY_BUILDERS[kind.lower()]
    except KeyError:
        raise ParameterError(f"unknown family {kind!r}") from None
    if len(params) != arity:
        raise ParameterError(
            f"family {kind!r} takes {arity} parameter(s), got {len(params)}"
        )
    return builder(*params)


def _check_writable(out: Optional[str]):
    """Refuse an output path that _write_output could not open, before any
    work is done and without creating the file."""
    if out is None or out == "-":
        return
    parent = os.path.dirname(out) or "."
    try:
        os.stat(parent)
    except OSError as exc:
        raise ParameterError(f"cannot write {out}: {exc.strerror}") from exc
    if os.path.isdir(out):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR
    elif not os.access(out if os.path.exists(out) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ParameterError(f"cannot write {out}: {os.strerror(code)}")


def _write_output(text: str, out: Optional[str]):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParameterError(f"cannot write {out}: {exc.strerror}") from exc


# ---------------------------------------------------------------- build

def cmd_build(args) -> int:
    fam = _family_from_args(args.family, args.params)
    g = build(fam)
    _write_output(serialize.render(g, args.format), args.out)
    return 0


# ------------------------------------------------------------ decompose

def _parse_colors(text: str) -> list[int]:
    """Distinct integer colors from a comma-separated list."""
    try:
        colors = [int(x) for x in text.split(",")]
    except ValueError:
        raise ParameterError(
            f"--colors takes comma-separated integers, got {text!r}"
        ) from None
    if len(set(colors)) != len(colors):
        raise ParameterError(f"--colors repeats a color: {text!r}")
    return colors


def cmd_decompose(args) -> int:
    if (args.colors is None) == (args.k is None):
        raise ParameterError("need exactly one of --colors and --k")
    colors = _parse_colors(args.colors) if args.colors is not None else None
    n = args.n
    _, builder = _FAMILY_BUILDERS.get(args.family.lower(), (0, None))
    if builder not in (Family.odd, Family.middle_levels):
        raise ParameterError(
            f"decompose takes an odd or middle family, got {args.family!r}"
        )
    fam = builder(n)
    g = build(fam)
    s = (dec.as_color_block(colors, g.ground) if colors is not None
         else dec.canonical_colors(n, args.k))
    k = s.card
    deleted = dec.delete_colors(g, s)
    census = dec.classify_components(deleted)
    try:
        expected = dec.expected_census(n, k, fam.kind)
    except ParameterError:
        expected = None
    print(f"{fam} minus colors {s}: {deleted.n_edges} edges left")
    print(f"{'signature':<22}{'actual':>8}{'expected':>10}")
    ok = True
    sigs = set(census.counts) | set(expected or {})
    for sig in sorted(sigs):
        got = census.counts.get(sig, 0)
        want = expected.get(sig, None) if expected is not None else None
        want_str = "-" if want is None else str(want)
        mark = ""
        if want is not None and got != want:
            ok = False
            mark = "  <- mismatch"
        print(f"{signature_name(sig):<22}{got:>8}{want_str:>10}{mark}")
    return 0 if ok else 1


# -------------------------------------------------------------- verify

# suite -> (default max-n, cap on --max-n)
_SUITE_DEPTH = {
    "covers": (5, 6), "decompose": (6, 6), "isomorphisms": (6, 6),
    "superstructure": (6, 6), "identities": (30, 64), "distance": (5, 6),
    "orbits": (6, 8), "coxeter": (4, 5),
}

CENSUS_PARAMS = [(3, 2), (4, 2), (5, 2), (6, 2), (5, 4), (6, 4), (4, 3), (5, 3)]


def _suite_covers(report: RunReport, max_n: int):
    for n in range(2, max_n + 1):
        cm = mor.cover_map(2 * n - 1, n - 1)
        rep = mor.verify_cover(cm, expected_fiber=2)
        report.add(f"cover-middle({n})", "Simpson 1991", rep.ok,
                   f"fiber {rep.details.get('fiber')}")
    for n in range(2, min(max_n, 4) + 1):
        km = mor.kappa(n)
        ok = km.verify() and mor.kappa_preserves_labels(n).ok
        report.add(f"kappa({n})", "antipodal complementation", ok,
                   "automorphism, label-preserving")
    tri = build(Family.kneser(3, 1))
    dc, dmap = mor.generic_double_cover(tri)
    ok = mor.verify_cover(dmap, 2).ok and girth(dc) == 6
    report.add("double-cover-triangle", "bipartite double cover", ok,
               "triangle lifts to a hexagon")
    if max_n >= 3:
        o3 = build(Family.odd(3))
        dc3, dmap3 = mor.generic_double_cover(o3)
        iso = mor.find_isomorphism(dc3, build(Family.middle_levels(3)))
        ok = mor.verify_cover(dmap3, 2).ok and iso is not None and bool(iso.verified)
        report.add("double-cover-odd(3)", "Simpson 1991", ok,
                   "generic cover matches middle(3)")


def _suite_decompose(report: RunReport, max_n: int):
    for n, k in CENSUS_PARAMS:
        if n > max_n:
            report.skip(f"census-odd({n})-minus-{k}", "biregular component census",
                        f"needs max-n >= {n}")
            continue
        g = build(Family.odd(n))
        census = dec.classify_components(
            dec.shared_deletion(g, dec.canonical_colors(n, k))
        )
        want = dec.expected_census(n, k)
        report.add(
            f"census-odd({n})-minus-{k}", "biregular component census",
            census.counts == want, str(census),
        )
        if k % 2 == 0:
            rep = mor.middle_component_census(n, k, ODD)
            report.add(
                f"middle-components-odd({n})-minus-{k}",
                "middle-levels component count",
                rep.ok,
                f"{rep.details['found_regular']} copies of {rep.details['target']}",
            )
    if max_n >= 4:
        rep = mor.middle_component_census(4, 2, MIDDLE_LEVELS)
        report.add("middle-components-middle(4)-minus-2",
                   "middle-levels component count", rep.ok,
                   f"{rep.details['found_regular']} copies of {rep.details['target']}")
        s1 = dec.canonical_colors(4, 2)
        s2 = Block.from_elements([1, 2], 7)
        g4 = build(Family.odd(4))
        c1 = dec.classify_components(dec.shared_deletion(g4, s1))
        c2 = dec.classify_components(dec.shared_deletion(g4, s2))
        report.add("census-invariance-odd(4)", "color-set invariance",
                   c1.counts == c2.counts, f"{s1} vs {s2}")
        rep = dec.verify_disjointness(4, [5, 6, 7])
        report.add("class-separation-odd(4)", "deleted-class separation",
                   rep.ok, f"{rep.details['pairs_checked']} pairs")
    if max_n >= 5:
        rep = dec.verify_disjointness(5, [6, 7, 8, 9])
        report.add("class-separation-odd(5)", "deleted-class separation",
                   rep.ok, f"{rep.details['pairs_checked']} pairs")
    for n, k in [(3, 2), (4, 2), (5, 2)]:
        if n > max_n:
            continue
        rg = dec.remainder_graph(n, k)
        want = binomial(2 * (n - 1), n - 2)
        report.add(
            f"remainder-size({n},2)", "OEIS A001791",
            rg.graph.n_vertices == want,
            f"{rg.graph.n_vertices} vertices, {signature_name(rg.signature)}",
        )


def _suite_isomorphisms(report: RunReport, max_n: int):
    params = [(n, k) for n, k in CENSUS_PARAMS if n <= max_n]
    if not params:
        report.skip("color-swap-odd(3)-2", "color-set invariance",
                    "needs max-n >= 3")
    by_signature: dict[tuple, list] = {}
    for n, k in params:
        s = dec.canonical_colors(n, k)
        swapped = mor.color_swap_iso(n, s, Block.from_elements(range(1, k + 1), 2 * n - 1))
        report.add(f"color-swap-odd({n})-{k}", "color-set invariance",
                   swapped.verify(), f"{s} -> [{k}]")
        for i in range(0, k // 2 + 1):
            subs = [Block.from_elements(c, 2 * n - 1)
                    for c in combinations(s.elements(), i)]
            by_signature.setdefault((n - i, n - k + i), []).append((n, k, subs[0]))
            if len(subs) < 2 or subs[0] == s - subs[1]:
                continue
            vmap = mor.biregular_cross_iso(n, k, subs[0], n, k, subs[1])
            report.add(
                f"internal-iso-odd({n})-{k}-size{i}",
                "component isomorphism (same parameters)",
                vmap.verify(), f"{subs[0]} -> {subs[1]}",
            )
    for sig, instances in sorted(by_signature.items()):
        unique_params = {inst[:2] for inst in instances}
        if len(unique_params) < 2:
            continue
        base = instances[0]
        for other in instances[1:]:
            if other[:2] == base[:2]:
                continue
            vmap = mor.biregular_cross_iso(
                base[0], base[1], base[2], other[0], other[1], other[2]
            )
            report.add(
                f"cross-iso-{sig}-({base[0]},{base[1]})-({other[0]},{other[1]})",
                "component isomorphism (cross-parameter)",
                vmap.verify(), f"signature {sig}",
            )
    for n, k in params:
        if k % 2:
            continue
        s = dec.canonical_colors(n, k)
        for t in dec.regular_component_partitions(s):
            vmap = mor.regular_component_to_middle(n, s, t)
            report.add(
                f"middle-iso-odd({n})-{k}-T{t}",
                "middle-levels component structure",
                vmap.verify(), f"onto middle({n - k // 2})",
            )


def _suite_superstructure(report: RunReport, max_n: int):
    targets_m = [(4, 4), (5, 4), (6, 6)]
    for n, k in targets_m:
        if n > max_n:
            report.skip(f"meta-odd({n},{k})", "component meta-graph",
                        f"needs max-n >= {n}")
            continue
        sg = sup.build_m(n, k)
        report.add(
            f"meta-odd({n},{k})", "component meta-graph ~ odd(k/2)",
            bool(sg.iso.verified) and sg.criteria_agree,
            f"{sg.graph.n_vertices} components -> {sg.target};"
            f" criteria agree: {sg.criteria_agree}",
        )
    for n, k in [(4, 2), (5, 4), (6, 4)]:
        if n > max_n:
            continue
        sg = sup.build_l(n, k)
        report.add(
            f"meta-middle({n},{k})", "component meta-graph ~ middle(k/2)",
            bool(sg.iso.verified) and sg.criteria_agree,
            f"{sg.graph.n_vertices} components -> {sg.target}",
        )
    o3 = build(Family.odd(3))
    p = sup.two_color_path(o3, Block.from_elements([1, 2], 5), 1, 3)
    want = [Block.from_elements([1, 2], 5), Block.from_elements([4, 5], 5),
            Block.from_elements([2, 3], 5)]
    report.add("two-color-path-odd(3)", "Biggs 1979 (two-color paths)",
               list(p.blocks()) == want and sorted(p.labels) == [1, 3],
               "labels " + str(list(p.labels)))
    for n in range(3, min(max_n, 5) + 1):
        v = Block.from_elements(range(1, n), 2 * n - 1)
        bl = sup.bottom_level(n, v)
        ok = bl.census.ok and bool(bl.superstructure.iso.verified)
        report.add(
            f"bottom-level-odd({n})", "bottom level structure", ok,
            f"{bl.census.details['components']} copies of"
            f" {bl.census.details['component_type']};"
            f" meta-graph {bl.superstructure.target}",
        )


def _suite_identities(report: RunReport, max_n: int):
    ok_size = all(verify_size_identity(n).ok for n in range(1, max_n + 1))
    report.add("size-identity", "odd order = (2n-1)*catalan(n-1)", ok_size,
               f"n <= {max_n}, exact")
    ok_diff = all(
        verify_difference_identity(n).ok for n in range(1, max_n + 1)
    )
    report.add("difference-identity", "middle minus remainder = catalan(n)",
               ok_diff, f"n <= {max_n}, structural n <= {STRUCTURAL_LIMIT}")
    ok_rem = all(remainder_size_form(n).ok for n in range(1, max_n + 1))
    report.add("remainder-size-form", "OEIS A001791", ok_rem,
               f"n <= {max_n}")
    report.add("fourth-convolution", "Catalan fourth convolution",
               [catalan_fourth_convolution(x) for x in (3, 4, 5, 6)] == [0, 1, 4, 14],
               "values 0, 1, 4, 14 at n = 3..6")


def _suite_distance(report: RunReport, max_n: int):
    if max_n < 3:
        report.skip("distance-odd(3)", "Biggs 1979 (distance rule)",
                    "needs max-n >= 3")
    for n in range(3, max_n + 1):
        rep = verify_distance_formula(n)
        report.add(
            f"distance-odd({n})", "Biggs 1979 (distance rule)", rep.ok,
            f"{rep.details['pairs']} pairs, diameter {rep.details['diameter']}",
        )


def _suite_orbits(report: RunReport, max_n: int):
    if max_n < 3:
        report.skip("orbit-count-odd(3)", "rotation orbit count = catalan(n-1)",
                    "needs max-n >= 3")
    for n in range(3, max_n + 1):
        orb = rotation_orbits(n)
        ok = len(orb.orbits) == catalan(n - 1)
        report.add(f"orbit-count-odd({n})", "rotation orbit count = catalan(n-1)",
                   ok, f"{len(orb.orbits)} orbits, sizes {set(orb.sizes)}")
        form_of = necklaces(n, orb.masks)
        seen = {}
        ok_neck = True
        for oi, orbit in enumerate(orb.orbits):
            forms = set(map(form_of.__getitem__, orbit))
            if len(forms) != 1:
                ok_neck = False
                break
            form = forms.pop()
            if form in seen:
                ok_neck = False
                break
            seen[form] = oi
        report.add(f"necklace-bijection-odd({n})",
                   "necklace correspondence (Stanley)", ok_neck,
                   f"{len(seen)} canonical forms")


def _suite_coxeter(report: RunReport, max_n: int):
    rep3 = independent_orbit_excision(3)
    report.add("excision-odd(3)", "Catalan fourth convolution", rep3.ok,
               "pinned count 0: the graph itself is cubic")
    _graph, rep4 = coxeter_excision()
    report.add("coxeter-fingerprint", "Coxeter graph excision (Godsil-Royle)",
               rep4.ok, "28 vertices, 42 edges, cubic, girth 7")
    rep4b = independent_orbit_excision(4)
    report.add("excision-odd(4)", "Catalan fourth convolution", rep4b.ok,
               f"{rep4b.details['independent_unions']} independent unions,"
               f" {rep4b.details['cubic_outcomes']} cubic")
    if max_n >= 5:
        rep5 = independent_orbit_excision(5)
        report.add("excision-odd(5)", "Catalan fourth convolution", rep5.ok,
                   f"pinned count {rep5.details['pinned_orbit_count']};"
                   f" {rep5.details['independent_unions']} independent unions")


_SUITES: dict[str, Callable[[RunReport, int], None]] = {
    "covers": _suite_covers,
    "decompose": _suite_decompose,
    "isomorphisms": _suite_isomorphisms,
    "superstructure": _suite_superstructure,
    "identities": _suite_identities,
    "distance": _suite_distance,
    "orbits": _suite_orbits,
    "coxeter": _suite_coxeter,
}


def run_suite(suite: str, max_n: Optional[int] = None) -> RunReport:
    if max_n is not None and max_n < 1:
        raise ParameterError(f"--max-n must be at least 1, got {max_n}")
    names = list(_SUITES) if suite == "all" else [suite]
    report = RunReport(suite)
    with holding_families():
        for name in names:
            default, cap = _SUITE_DEPTH[name]
            _SUITES[name](report, default if max_n is None else min(max_n, cap))
    return report


def cmd_verify(args) -> int:
    report = run_suite(args.suite, args.max_n)
    print(report.render())
    return report.exit_status


# ------------------------------------------------------------- hamilton

def cmd_hamilton(args) -> int:
    budget = ham.SearchBudget(
        max_nodes=args.max_nodes, max_seconds=args.max_seconds, seed=args.seed
    )
    if args.pipeline is not None:
        if args.family or args.params:
            raise ParameterError("--pipeline takes no family or parameters")
        if args.cycle_out is not None or args.require_cycle:
            raise ParameterError(
                "--cycle-out and --require-cycle act on a family search,"
                " not on --pipeline")
        rep = ham.recursion_pipeline(args.pipeline, budget,
                                     start=args.pipeline_start or "odd")
        print("\n".join(rep.summary_lines()))
        return 0
    if args.pipeline_start is not None:
        raise ParameterError("--pipeline-start needs --pipeline")
    if not args.family or not args.params:
        raise ParameterError("hamilton needs a family and parameters, or --pipeline")
    fam = _family_from_args(args.family, args.params)
    _check_writable(args.cycle_out)
    g = build(fam)
    result = ham.find_hamiltonian_cycle(g, budget)
    if result.status == ham.FOUND:
        assert result.cycle is not None
        print(f"{fam}: Hamiltonian cycle found"
              f" ({result.nodes} nodes, {result.elapsed:.2f}s, {ham.kernel_name()})")
        if args.cycle_out:
            _write_output(
                "\n".join(str(i) for i in result.cycle.indices) + "\n",
                args.cycle_out,
            )
        return 0
    if result.status == ham.NONE:
        why = f" ({result.reason})" if result.reason else " (exhaustive search)"
        print(f"{fam}: non-Hamiltonian{why};"
              f" {result.nodes} nodes, {result.elapsed:.2f}s")
        return 1 if args.require_cycle else 0
    print(f"{fam}: inconclusive, budget exhausted"
          f" ({result.nodes} nodes, {result.elapsed:.2f}s)")
    return 1


# --------------------------------------------------------------- orbits

def cmd_orbits(args) -> int:
    n = args.n
    orb = rotation_orbits(n)
    print(f"odd({n}): {len(orb.orbits)} rotation orbits"
          f" (catalan({n - 1}) = {catalan(n - 1)})")
    reps = [orb.masks[orbit[0]] for orbit in orb.orbits]
    forms = necklaces(n, reps) if args.necklaces else None
    for oi, orbit in enumerate(orb.orbits):
        line = (f"orbit {oi}: size {len(orbit)},"
                f" representative {Block(reps[oi], 2 * n - 1)}")
        if args.necklaces:
            line += f", necklace {forms[oi]}"
        print(line)
    return 0


# --------------------------------------------------------------- export

def cmd_export(args) -> int:
    try:
        with open(args.input) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read {args.input}: {exc}") from exc
    g = serialize.graph_from_json(text)
    _write_output(serialize.render(g, args.format), args.out)
    return 0


# ----------------------------------------------------------------- main

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kneserlab",
        description="Construct, decompose and verify Kneser-family graphs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_build = subs.add_parser("build", help="construct a graph and export it")
    p_build.add_argument("family", help="odd | middle | kneser | bikneser")
    p_build.add_argument("params", nargs="+", type=int)
    p_build.add_argument("--format", choices=sorted(serialize.FORMATS), default="json")
    p_build.add_argument("--out", default=None)
    p_build.set_defaults(func=cmd_build)

    p_dec = subs.add_parser("decompose", help="census of a color deletion")
    p_dec.add_argument("family", help="odd | middle")
    p_dec.add_argument("n", type=int)
    p_dec.add_argument("--colors", default=None, help="comma-separated colors")
    p_dec.add_argument("--k", type=int, default=None,
                       help="delete the canonical top-k colors")
    p_dec.set_defaults(func=cmd_decompose)

    p_ver = subs.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    p_ver.add_argument("--max-n", type=int, default=None)
    p_ver.set_defaults(func=cmd_verify)

    p_ham = subs.add_parser("hamilton", help="Hamiltonian cycle search")
    p_ham.add_argument("family", nargs="?", default=None)
    p_ham.add_argument("params", nargs="*", type=int)
    p_ham.add_argument("--pipeline", type=int, default=None,
                       help="run the lift-and-embed round into odd(N)")
    p_ham.add_argument("--pipeline-start", choices=["odd", "middle"],
                       default=None,
                       help="base graph of the --pipeline round: odd(N-1)"
                            " (the default) or middle(N-1)")
    defaults = ham.SearchBudget()
    p_ham.add_argument("--max-nodes", type=int, default=defaults.max_nodes)
    p_ham.add_argument("--max-seconds", type=float, default=defaults.max_seconds)
    p_ham.add_argument("--seed", type=int, default=defaults.seed)
    p_ham.add_argument("--cycle-out", default=None)
    p_ham.add_argument("--require-cycle", action="store_true",
                       help="exit 1 when the graph is proved non-Hamiltonian")
    p_ham.set_defaults(func=cmd_hamilton)

    p_orb = subs.add_parser("orbits", help="rotation orbits of an odd graph")
    p_orb.add_argument("n", type=int)
    p_orb.add_argument("--necklaces", action="store_true")
    p_orb.set_defaults(func=cmd_orbits)

    p_exp = subs.add_parser("export", help="re-serialize a JSON graph file")
    p_exp.add_argument("input")
    p_exp.add_argument("--format", choices=sorted(serialize.FORMATS), default="dot")
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=cmd_export)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"run '{parser.prog} {args.command} --help' for usage",
              file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())
