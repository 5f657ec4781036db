"""Command-line interface.

JSON reports go to stdout (big integers as decimal strings, rationals as
"p/q"); a short human-readable summary goes to stderr.  Exit codes: 0 on
success or all checks passing, 1 when a cross-check or verification
fails, 2 on usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

from . import bounds, closed_forms, graphs, sweeps
from .bounds import bound_report
from .errors import EdgeListParseError, ExactnessError, GuardExceeded
from .graphs import Graph, classify, parse_edge_list
from .oracle import count_shellings_dp
from .report import Report, format_value
from .trees import all_root_counts, root_tree, tree_count

USAGE_ERROR = 2
CHECK_FAILURE = 1

# Most edges one `gen` graph may have; at the bound gen kn 1414 takes about
# 1.4 s and 200 MB (README's guard table).
MAX_GEN_EDGES = 10**6


class Formula(NamedTuple):
    arity: int
    key: str  # the result and timing key
    closed_form: str  # the closed_forms function, looked up per call
    ln: Callable[..., float]  # lgamma log of the value, 0 where the closed form refuses


def _ln_complete(n: int) -> float:
    # 2^(n-2) C(n,2)! / catalan(n-1), catalan(n-1) = (2n-2)! / ((n-1)! n!)
    if n < 2:
        return 0.0
    lg = math.lgamma
    return (n - 2) * math.log(2) + lg(n * (n - 1) // 2 + 1) - lg(2 * n - 1) + lg(n) + lg(n + 1)


def _ln_bipartite(m: int, n: int) -> float:
    # m! n! (mn)! / (m+n-1)!, which is also the summation's value
    lg = math.lgamma
    return lg(m + 1) + lg(n + 1) + lg(m * n + 1) - lg(m + n) if min(m, n) >= 1 else 0.0


FORMULAS = {
    "kn": Formula(1, "complete_graph", "complete_graph_count", _ln_complete),
    "kmn": Formula(2, "complete_bipartite", "complete_bipartite_count", _ln_bipartite),
    "stanley": Formula(2, "stanley", "stanley_inner_sum", _ln_bipartite),
    "path": Formula(1, "path", "path_count", lambda n: (n - 2) * math.log(2) if n >= 2 else 0.0),
}


class GenKind(NamedTuple):
    arity: int
    size: Callable[..., tuple[int, int]]  # (vertices, edges) of the graph, before it is built
    build: Callable  # the graph(s) from the parameters and --seed, looked up per call


# edge counts are clamped at 0, so the builder refuses invalid parameters itself
GENS = {
    "tree": GenKind(1, lambda n: (n, n - 1), lambda n, seed: graphs.random_tree(n, seed)),
    "all-trees": GenKind(1, lambda n: (n, n - 1), lambda n, _: graphs.all_labeled_trees(n)),
    "kmn": GenKind(2, lambda m, n: (m + n, max(m, 0) * max(n, 0)),
                   lambda m, n, _: graphs.complete_bipartite_graph(m, n)),
    "kn": GenKind(1, lambda n: (n, math.comb(max(n, 0), 2)), lambda n, _: graphs.complete_graph(n)),
    "path": GenKind(1, lambda n: (n, n - 1), lambda n, _: graphs.path_graph(n)),
    "mid-spider": GenKind(2, lambda n, _: (n, n - 1), lambda n, ell, _: bounds.mid_spider(n, ell)),
}


def _read_graph(path: str) -> Graph:
    if path == "-":
        return parse_edge_list(sys.stdin.read())
    return parse_edge_list(Path(path).read_text())


def _graph_summary(g: Graph) -> dict:
    cls = classify(g)
    summary = {
        "numVertices": g.num_vertices,
        "numEdges": g.num_edges,
        "class": cls.primary,
        "tags": list(cls.tags),
    }
    if cls.part_sizes is not None:
        summary["partSizes"] = list(cls.part_sizes)
    return summary


def _emit(report: Report) -> int:
    """Print the report; the exit code is CHECK_FAILURE if a check failed."""
    print(report.to_json())
    print(f"[{report.command}]", file=sys.stderr)
    for key, value in report.results.items():
        print(f"  {key:32s} {value}", file=sys.stderr)
    for check in report.cross_checks:
        line = f"  {check.status.upper():5s} {check.name}"
        if check.detail:
            line += f" ({check.detail})"
        print(line, file=sys.stderr)
    return 0 if report.all_passed else CHECK_FAILURE


def _timed(timing: dict, key: str, fn):
    start = time.perf_counter()
    value = fn()
    timing[key] = round((time.perf_counter() - start) * 1000.0, 3)
    return value


def cmd_count(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    report = Report("count", input=_graph_summary(g))
    tags = report.input["tags"]

    if "Disconnected" in tags:
        report.add_result("connectivity", 0)
        return _emit(report)

    if "Complete" in tags and g.num_vertices >= 2:
        value = _timed(report.timing, "complete_graph",
                       lambda: closed_forms.complete_graph_count(g.num_vertices))
        report.add_result("complete_graph", value)
    if "CompleteBipartite" in tags:
        m, n = report.input["partSizes"]
        value = _timed(report.timing, "complete_bipartite",
                       lambda: closed_forms.complete_bipartite_count(m, n))
        report.add_result("complete_bipartite", value)
    if "Tree" in tags:
        report.add_result("tree", _timed(report.timing, "tree", lambda: tree_count(g)))

    has_formula = bool(report.results)
    if args.brute or not has_formula or not args.no_crosscheck:
        try:
            value = _timed(report.timing, "dp", lambda: count_shellings_dp(g))
        except GuardExceeded as exc:
            if args.brute or not has_formula:
                raise
            # past the DP's state budget the formula stands unchecked
            print(f"note: DP cross-check skipped: {exc}", file=sys.stderr)
        else:
            report.add_result("dp", value)

    order = ["dp"] if args.brute else ["complete_graph", "complete_bipartite", "tree", "dp"]
    primary = next(k for k in order if k in report.results)
    for method, value in report.results.items():
        if method != primary:
            report.add_check(
                f"{method}_vs_{primary}",
                value == report.results[primary],
                f"{value} vs {report.results[primary]}",
            )
    return _emit(report)


def cmd_tree_roots(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    report = Report("tree-roots", input=_graph_summary(g))
    roots = _timed(report.timing, "roots", lambda: all_root_counts(root_tree(g, 0)))
    total = tree_count(g)
    report.add_result("total", total)
    for v, value in enumerate(roots):
        report.add_result(f"root_{v}", value)
    if g.num_vertices >= 2:
        # quote only admitted values: 2 * total may pass the digit limit
        report.add_check("half_sum_consistency", sum(roots) == 2 * total,
                         f"sum of the root counts vs 2 * {report.results['total']}")
    return _emit(report)


def cmd_formula(args: argparse.Namespace) -> int:
    family, p = FORMULAS[args.family], args.params
    report = Report("formula", input={"family": args.family, "params": p})
    limit = sys.get_int_max_str_digits()
    try:
        log10 = family.ln(*p) / math.log(10)
    except OverflowError:
        log10 = math.inf
    if limit and log10 >= limit:
        raise GuardExceeded(f"the result would have more than {limit} decimal digits, the "
                            f"limit of int-to-str conversion (estimated log10 {log10:.6g})")
    value = _timed(report.timing, family.key,
                   lambda: getattr(closed_forms, family.closed_form)(*p))
    if args.family == "stanley":  # the count, then the inner sum it is taken from
        report.add_result("stanley", closed_forms._stanley_count_from_sum(*p, value))
        report.add_result("stanley_inner_sum", value)
    else:
        report.add_result(family.key, value)
    return _emit(report)


def cmd_bounds(args: argparse.Namespace) -> int:
    g = _read_graph(args.file)
    report = Report("bounds", input=_graph_summary(g))
    br = _timed(report.timing, "bounds", lambda: bound_report(g))
    report.add_result("exact", br.exact)
    report.add_result("degree_lower", br.degree_lower)
    report.add_result("degree_equality_predicted", br.degree_equality_predicted)
    report.add_result("diameter", br.diameter)
    report.add_result("diameter_upper_printed", br.diameter_upper_printed)
    report.add_result("mid_spider_exact", br.mid_spider_exact)
    report.add_result("printed_vs_extremal_gap", br.printed_vs_extremal_gap)
    for v, coeff in enumerate(br.per_root_weight_bounds):
        report.add_result(f"weight_coeff_{v}", coeff)
    report.add_check("degree_lower_holds", br.degree_lower <= br.exact,
                     f"{br.degree_lower} <= {br.exact}")
    report.add_check("degree_equality_as_predicted",
                     (br.degree_lower == br.exact) == br.degree_equality_predicted)
    report.add_check("printed_diameter_bound_holds",
                     br.exact <= br.diameter_upper_printed,
                     f"{br.exact} <= {format_value(br.diameter_upper_printed)}")
    report.add_check("mid_spider_bound_holds", br.exact <= br.mid_spider_exact,
                     f"{br.exact} <= {br.mid_spider_exact}")
    weight_ok = all(
        br.exact <= coeff * count
        for coeff, count in zip(br.per_root_weight_bounds, br.root_counts)
    )
    report.add_check("weight_bound_holds_every_root", weight_ok)
    return _emit(report)


def cmd_verify(args: argparse.Namespace) -> int:
    if args.max_n is not None and args.suite not in ("trees", "bounds", "all"):
        raise ValueError(f"verify {args.suite} takes no sweep size; --max-n is for "
                         "trees, bounds and all")
    report = Report("verify", input={"suite": args.suite, "maxN": args.max_n})
    outcomes = _timed(report.timing, args.suite,
                      lambda: sweeps.run_suite(args.suite, args.max_n))
    failures = sum(1 for o in outcomes if not o.ok)
    report.add_result("checks", len(outcomes))
    report.add_result("failures", failures)
    for o in outcomes:
        report.add_check(o.name, o.ok, o.detail)
    return _emit(report)


def cmd_gen(args: argparse.Namespace) -> int:
    kind, p = GENS[args.kind], args.params
    vertices, edges = kind.size(*p)
    if vertices > graphs.MAX_VERTICES or edges > MAX_GEN_EDGES:
        raise GuardExceeded(f"gen writes at most {graphs.MAX_VERTICES} vertices, the most an "
                            f"edge list may hold, and {MAX_GEN_EDGES} edges")
    built = kind.build(*p, args.seed)
    if args.kind == "all-trees":  # each tree under a header and over a blank line
        total = p[0] ** (p[0] - 2) if p[0] >= 2 else 1
        for i, g in enumerate(built, 1):
            sys.stdout.write(f"# tree {i}/{total}\n{g.to_edge_list_text()}\n")
    else:
        sys.stdout.write(built.to_edge_list_text())
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="shellings",
        description="Count shellings of graphs exactly (orderings of the "
                    "edge set in which every prefix is connected).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count shellings of an edge-list file")
    p_count.add_argument("file", help="edge-list path, or - for stdin")
    p_count.add_argument("--brute", action="store_true",
                         help="use the DP as the primary method")
    p_count.add_argument("--no-crosscheck", action="store_true",
                         help="skip the DP cross-check of formula results")
    p_count.set_defaults(func=cmd_count)

    p_roots = sub.add_parser("tree-roots", help="per-root shelling counts of a tree")
    p_roots.add_argument("file", help="edge-list path, or - for stdin")
    p_roots.set_defaults(func=cmd_tree_roots)

    p_formula = sub.add_parser("formula", help="evaluate a closed-form count")
    p_formula.add_argument("family", choices=list(FORMULAS))
    p_formula.add_argument("params", type=int, nargs="+")
    p_formula.set_defaults(func=cmd_formula)

    p_bounds = sub.add_parser("bounds", help="bound report for a tree")
    p_bounds.add_argument("file", help="edge-list path, or - for stdin")
    p_bounds.set_defaults(func=cmd_bounds)

    p_verify = sub.add_parser("verify", help="run a verification sweep")
    p_verify.add_argument("suite", choices=list(sweeps.SUITES))
    p_verify.add_argument("--max-n", type=int, default=None,
                          help="sweep size of trees, bounds and all, 2 to 9 "
                               "(defaults: trees 7, bounds 8)")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="emit an edge-list file")
    p_gen.add_argument("kind", choices=list(GENS))
    p_gen.add_argument("params", type=int, nargs="+")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    spec = (FORMULAS[args.family] if args.command == "formula"
            else GENS[args.kind] if args.command == "gen" else None)
    if spec is not None and len(args.params) != spec.arity:
        parser.error(f"expected {spec.arity} parameter(s)")
    try:
        return args.func(args)
    except EdgeListParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (FileNotFoundError, GuardExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except ExactnessError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
