"""Verification sweeps: every module's invariants run over exhaustive
small-case grids, with the DP oracle as ground truth.

Each sweep returns CheckOutcome records (one per named property, with case
counts in the detail string), in the order it opened its checks; the CLI
`verify` command turns them into a report and an exit code.  A case's
failure text is formatted only for the few failures a check keeps, so
passing cases format nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import closed_forms, identities
from .bounds import (
    bound_report,
    diameter_upper_bound_printed,
    double_broom,
    is_mid_spider_shape,
    longest_descending_path,
    pull_branch_rooted,
    pull_branch_toward_middle,
    push_branch_from_root,
    push_branch_rooted,
)
from .errors import GuardExceeded
from .graphs import (
    MAX_TREE_ENUM_N,
    Graph,
    all_labeled_trees,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    is_connected,
    path_graph,
    prufer_decode,
    prufer_encode,
    star_graph,
)
from .oracle import (
    build_subset_table,
    count_shellings_dp,
    enumerate_shellings,
    rooted_counts_from_table,
)
from .trees import all_root_counts, eccentricities, hook_count, root_tree, tree_count

DEFAULT_TREE_SWEEP_N = 7
DEFAULT_BOUND_SWEEP_N = 8


@dataclass
class CheckOutcome:
    name: str
    ok: bool
    detail: str = ""


class _Check:
    """Accumulates case counts and the first few failures for one property."""

    def __init__(self, name: str):
        self.name = name
        self.cases = 0
        self.failures: list[str] = []

    def record(self, ok: bool, fmt: str = "", *args) -> None:
        """Count one case; a kept failure carries ``fmt.format(*args)``."""
        self.cases += 1
        if not ok and len(self.failures) < 5:
            self.failures.append(fmt.format(*args))

    def outcome(self) -> CheckOutcome:
        if self.failures:
            detail = f"{self.cases} cases, failures: {'; '.join(self.failures)}"
            return CheckOutcome(self.name, False, detail)
        return CheckOutcome(self.name, True, f"{self.cases} cases")


class _Checks:
    """One sweep's checks and notes, reported in the order they were opened."""

    def __init__(self):
        self._opened: list[_Check | CheckOutcome] = []

    def __call__(self, name: str) -> _Check:
        check = _Check(name)
        self._opened.append(check)
        return check

    def note(self, name: str, detail: str) -> None:
        """A passing entry whose detail is an observation, not a case count."""
        self._opened.append(CheckOutcome(name, True, detail))

    def outcomes(self) -> list[CheckOutcome]:
        return [c.outcome() if isinstance(c, _Check) else c for c in self._opened]


# ---------------------------------------------------------------------------
# closed forms vs oracle


def sweep_bipartite() -> list[CheckOutcome]:
    check = _Checks()
    formula_vs_dp = check("complete_bipartite_vs_dp")
    for m in range(1, 5):
        for n in range(m, 16 // m + 1):  # mn <= 16
            lhs = closed_forms.complete_bipartite_count(m, n)
            rhs = count_shellings_dp(complete_bipartite_graph(m, n))
            formula_vs_dp.record(lhs == rhs, "K({},{}): {} vs {}", m, n, lhs, rhs)

    stanley = check("stanley_sum_vs_formula")
    symmetric = check("complete_bipartite_symmetry")
    for m in range(1, 6):
        for n in range(m, 6):
            lhs = closed_forms.stanley_sum_count(m, n)
            rhs = closed_forms.complete_bipartite_count(m, n)
            stanley.record(lhs == rhs, "({},{}): {} vs {}", m, n, lhs, rhs)
            symmetric.record(
                rhs == closed_forms.complete_bipartite_count(n, m), "({},{})", m, n
            )

    kn = check("complete_graph_vs_dp")
    for n in range(2, 6):
        lhs = closed_forms.complete_graph_count(n)
        rhs = count_shellings_dp(complete_graph(n))
        kn.record(lhs == rhs, "K{}: {} vs {}", n, lhs, rhs)

    return check.outcomes()


# ---------------------------------------------------------------------------
# tree formulas vs oracle


def sweep_trees(max_n: int = DEFAULT_TREE_SWEEP_N) -> list[CheckOutcome]:
    check = _Checks()
    enum_count = check("labeled_tree_enumeration_count")
    tree_shape = check("enumerated_trees_connected_with_n_minus_1_edges")
    prufer_roundtrip = check("prufer_roundtrip")
    hook_vs_dp = check("hook_count_vs_rooted_dp")
    roots_vs_dp = check("all_root_counts_vs_rooted_dp")
    total_vs_dp = check("tree_count_vs_dp")
    half_sum = check("rooted_sum_is_twice_total")
    seed_free = check("root_count_seed_independence")
    edge_ratio = check("adjacent_root_integer_ratio")

    for n in range(1, max_n + 1):
        expected = n ** (n - 2) if n >= 2 else 1
        count, distinct = 0, True  # distinct: tree i's Pruefer code is sequence i
        codes = itertools.product(range(n), repeat=max(n - 2, 0))
        for count, g in enumerate(all_labeled_trees(n), 1):
            tree_shape.record(is_connected(g) and g.num_edges == n - 1, "{}", g.edges)
            if n >= 2:
                code = prufer_encode(g)
                distinct = distinct and tuple(code) == next(codes, None)
                prufer_roundtrip.record(prufer_decode(code, n) == g, "{}", g.edges)
            table = build_subset_table(g)
            dp = table.total
            total = tree_count(g)
            total_vs_dp.record(total == dp, "{}: {} vs {}", g.edges, total, dp)
            rt = root_tree(g, 0)
            roots = all_root_counts(rt)
            if n >= 2:
                half_sum.record(sum(roots) == 2 * dp, "{}", g.edges)
                for v in range(n):
                    rdp = rooted_counts_from_table(table, g, v)
                    roots_vs_dp.record(roots[v] == rdp, "{} root {}", g.edges, v)
                    hook_vs_dp.record(
                        hook_count(root_tree(g, v)) == rdp, "{} root {}", g.edges, v
                    )
            if 2 <= n <= 6:
                for seed in (n // 2, n - 1, max(0, n - 3)):
                    seed_free.record(
                        all_root_counts(root_tree(g, seed)) == roots, "{} seed {}", g.edges, seed
                    )
                # integer form of the adjacent-root ratio, per edge
                size = rt.subtree_size
                for u in rt.order[1:]:
                    w = rt.parent[u]
                    ok = roots[u] * (n - size[u]) == roots[w] * size[u]
                    edge_ratio.record(ok, "{} edge ({},{})", g.edges, u, w)
        enum_count.record(count == expected and distinct, "n={}: {} vs {}", n, count, expected)

    path_anchor = check("path_total_is_power_of_two")
    path_roots = check("path_root_counts_are_binomials")
    for n in range(2, 21):
        g = path_graph(n)
        path_anchor.record(tree_count(g) == closed_forms.path_count(n), "n={}", n)
        roots = all_root_counts(root_tree(g, 0))
        path_roots.record(
            all(roots[i - 1] == closed_forms.rooted_path_count(n, i) for i in range(1, n + 1)),
            "n={}", n,
        )

    return check.outcomes()


# ---------------------------------------------------------------------------
# bounds and transforms


def _weight_sum_not_decreased(gr: list[int], hr: list[int], v: int) -> bool:
    """sum W(u) comparison via integer cross-multiplication.

    ``gr`` and ``hr`` hold the root counts of a tree g and of the tree h
    one transform step made from it.
    sum_u F(T_u)/F(T_v) = 2 F(T)/F(T_v), so the weight sums compare as
    F(h) * F(g_v) >= F(g) * F(h_v).
    """
    return sum(hr) * gr[v] >= sum(gr) * hr[v]


def _fixpoint(step, g: Graph) -> Graph:
    """Apply ``step`` from g until it returns None, at most 4n + 1 times."""
    for _ in range(4 * g.num_vertices + 1):
        nxt = step(g)
        if nxt is None:
            break
        g = nxt
    return g


def sweep_bounds(max_n: int = DEFAULT_BOUND_SWEEP_N) -> list[CheckOutcome]:
    check = _Checks()
    lower = check("degree_lower_bound_holds")
    lower_eq = check("degree_bound_equality_iff_path_or_star")
    weight = check("weight_bound_holds_every_root")
    spider_bound = check("count_at_most_mid_spider_count")
    printed_bound = check("count_at_most_printed_diameter_bound")
    push_mono = check("push_step_weight_sum_not_decreased")
    push_shape = check("push_step_preserves_size_and_depth")
    pull_mono = check("pull_step_count_not_decreased")
    fixpoints = check("transform_fixpoints_reached")

    gaps: dict[tuple[int, int], Fraction] = {}
    for n in range(2, max_n + 1):
        for g in all_labeled_trees(n):
            br = bound_report(g)
            count, roots, heights = br.exact, br.root_counts, br.heights
            bound, predicted = br.degree_lower, br.degree_equality_predicted
            lower.record(bound <= count, "{}: {} > {}", g.edges, bound, count)
            lower_eq.record((bound == count) == predicted, "{}", g.edges)

            for v, coeff in enumerate(br.per_root_weight_bounds):
                weight.record(count <= coeff * roots[v], "{} root {}", g.edges, v)

            ell = br.diameter
            gaps[(n, ell)] = br.printed_vs_extremal_gap
            spider_bound.record(count <= br.mid_spider_exact, "{}", g.edges)
            printed_bound.record(count <= br.diameter_upper_printed, "{}", g.edges)

            for v in range(n) if n <= 6 else (0,):
                pr = push_branch_rooted(g, br.rooting if v == 0 else root_tree(g, v))
                if pr is None:
                    continue
                push_mono.record(
                    _weight_sum_not_decreased(roots, all_root_counts(pr), v),
                    "{} root {}", g.edges, v,
                )
                push_shape.record(
                    len(pr.order) == n and heights[v] == pr.height[v],
                    "{} root {}", g.edges, v,
                )

            pulled = pull_branch_rooted(g, br.rooting, heights)
            if pulled is not None:
                pull_mono.record(sum(all_root_counts(pulled)) >= sum(roots), "{}", g.edges)

            if n <= 6:
                cur = _fixpoint(pull_branch_toward_middle, g)
                fixpoints.record(
                    is_mid_spider_shape(cur)
                    and max(eccentricities(root_tree(cur, 0))) == ell,
                    "pull from {}", g.edges,
                )
            if n <= 5:
                for v in range(n):
                    cur = _fixpoint(lambda h: push_branch_from_root(h, v), g)
                    path = longest_descending_path(cur, v)
                    off = set(range(n)) - set(path)
                    fixpoints.record(
                        all(path[-2] in cur.adjacency[u] for u in off),
                        "push from {} root {}", g.edges, v,
                    )

    pins = check("printed_vs_extremal_regression_pins")
    pins.record(diameter_upper_bound_printed(3, 2) == 4, "(3,2) printed")
    pins.record(tree_count(path_graph(3)) == 2, "(3,2) exact")
    pins.record(diameter_upper_bound_printed(5, 4) == 16, "(5,4) printed")
    pins.record(tree_count(path_graph(5)) == 8, "(5,4) exact")

    # the gap is recorded, not asserted: the printed formula is reported as is
    check.note(
        "printed_vs_extremal_gap_observed",
        ", ".join(f"n={n} l={l}: {g}" for (n, l), g in sorted(gaps.items())),
    )

    brooms = check("double_broom_family_closed_forms")
    for d2, formula in ((3, lambda n: 2 ** (n - 1) - 2), (4, lambda n: 6 * (2 ** (n - 2) - n + 1))):
        for middle in range(2, 12):
            g = double_broom(2, d2, middle)
            n = g.num_vertices
            if n > 10:
                break
            brooms.record(
                tree_count(g) == formula(n), "(2,{}) middle={}: n={}", d2, middle, n
            )

    return check.outcomes()


# ---------------------------------------------------------------------------
# identities


STORY_Z_VALUES = (
    Fraction(1),
    Fraction(2),
    Fraction(3, 2),
    Fraction(5, 2),
    Fraction(7, 3),
)


def sweep_identities() -> list[CheckOutcome]:
    # a failing identity case carries both reduced sides
    sides = "{0.params}: lhs={0.lhs} rhs={0.rhs}"
    check = _Checks()
    story = check("story_identity_grid")
    for x in range(1, 5):
        for y in range(1, 5):
            for span in range(x, x + 5):
                for z in STORY_Z_VALUES:
                    case = identities.verify_story(x, y, z, z + span)
                    story.record(case.holds, sides, case)

    poly = check("story_polynomial_identity")
    for x in range(1, 5):
        for y in range(1, 5):
            for zprime in range(x, x + 5):
                # degree <= zprime, so zprime + 2 non-integer points certify it
                for t in range(zprime + 2):
                    w = Fraction(2 * zprime + 2 * t + 1, 2)
                    lhs, rhs = identities.story_side_values(x, y, zprime, w)
                    poly.record(lhs == rhs, "x={} y={} z'={} w={}", x, y, zprime, w)

    binsum = check("binomial_sum_full_grid")
    for m in range(1, 7):
        for n in range(2, 7):
            for k in range(1, n):
                for s in range(m + n - k - 1):
                    case = identities.verify_binomial_sum(m, n, k, s)
                    binsum.record(case.holds, sides, case)

    indlem = check("induction_lemma_full_grid")
    branch_zero = branch_pos = 0
    for m in range(1, 6):
        for n in range(2, 6):
            for k in range(1, n):
                for s in range(m + n - k - 1):
                    i0, _ = identities.induction_lemma_limits(m, n, k, s)
                    if i0 == 0:
                        branch_zero += 1
                    else:
                        branch_pos += 1
                    for ell in range(i0, k + 1):
                        case = identities.verify_induction_lemma(m, n, k, s, ell)
                        indlem.record(case.holds, sides, case)
    branches = check("induction_lemma_covers_both_branches")
    branches.record(
        branch_zero > 0 and branch_pos > 0, "i0=0: {}, i0>0: {}", branch_zero, branch_pos
    )

    indthm = check("induction_theorem_grid")
    for m in range(1, 5):
        for n in range(2, 5):
            for k in range(1, n):
                case = identities.verify_induction_theorem(m, n, k)
                indthm.record(case.holds, sides, case)

    a1 = check("appendix_binomial_vs_power_iff")
    for d in range(3, 7):
        for sizes in itertools.combinations_with_replacement(range(1, 6), d - 1):
            expected = all(s == 1 for s in sizes)
            a1.record(identities.lemma_a1_check(sizes, d) == expected, "d={} s={}", d, sizes)

    a2 = check("appendix_factorial_inequality")
    a3 = check("appendix_binomial_linear_iff")
    for d1 in range(2, 13):
        for d2 in range(d1, 13):
            a2.record(identities.lemma_a2_check(d1, d2), "({},{})", d1, d2)
            expected = d1 == 2 and d2 <= 4
            a3.record(identities.lemma_a3_check(d1, d2) == expected, "({},{})", d1, d2)

    return check.outcomes()


# ---------------------------------------------------------------------------
# oracle self-consistency


def oracle_corpus() -> list[tuple[str, Graph]]:
    """Small graphs (<= 8 edges) beyond trees: cycles, complete, near-complete."""
    corpus: list[tuple[str, Graph]] = []
    for n in range(2, 6):
        corpus.append((f"path{n}", path_graph(n)))
    for n in range(3, 7):
        corpus.append((f"cycle{n}", cycle_graph(n)))
    for n in range(4, 7):
        corpus.append((f"star{n}", star_graph(n)))
    theta = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    corpus.append(("theta_k4_minus_edge", theta))
    corpus.append(("k4", complete_graph(4)))
    corpus.append(("k23", complete_bipartite_graph(2, 3)))
    return corpus


def sweep_oracle() -> list[CheckOutcome]:
    check = _Checks()
    agree = check("enumeration_matches_dp")
    for name, g in oracle_corpus():
        listed = len(enumerate_shellings(g))
        counted = count_shellings_dp(g)
        agree.record(listed == counted, "{}: {} vs {}", name, listed, counted)

    relabel = check("dp_invariant_under_relabeling")
    perms = {
        4: [(1, 0, 3, 2), (3, 2, 1, 0), (2, 3, 0, 1)],
        5: [(4, 3, 2, 1, 0), (1, 2, 3, 4, 0)],
    }
    for name, g in oracle_corpus():
        base = count_shellings_dp(g)
        for perm in perms.get(g.num_vertices, []):
            relabeled = Graph.from_edges(
                g.num_vertices, [(perm[u], perm[v]) for u, v in g.edges]
            )
            relabel.record(count_shellings_dp(relabeled) == base, "{} perm {}", name, perm)

    rooted_sum = check("rooted_counts_sum_to_twice_total_on_trees")
    for n in range(2, 7):
        for g in all_labeled_trees(n):
            table = build_subset_table(g)
            s = sum(rooted_counts_from_table(table, g, v) for v in range(n))
            rooted_sum.record(s == 2 * table.total, "{}", g.edges)

    return check.outcomes()


# ---------------------------------------------------------------------------
# suite dispatch


SUITES = ("identities", "trees", "bipartite", "bounds", "oracle", "all")


def run_suite(suite: str, max_n: int | None = None) -> list[CheckOutcome]:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    if max_n is not None and not 2 <= max_n <= MAX_TREE_ENUM_N:
        # refused before any sweep runs, not after the sizes below it
        raise GuardExceeded(f"sweep size must be 2 to {MAX_TREE_ENUM_N}, got {max_n}")
    out: list[CheckOutcome] = []
    if suite in ("bipartite", "all"):
        out.extend(sweep_bipartite())
    if suite in ("oracle", "all"):
        out.extend(sweep_oracle())
    if suite in ("trees", "all"):
        out.extend(sweep_trees(DEFAULT_TREE_SWEEP_N if max_n is None else max_n))
    if suite in ("bounds", "all"):
        out.extend(sweep_bounds(DEFAULT_BOUND_SWEEP_N if max_n is None else max_n))
    if suite in ("identities", "all"):
        out.extend(sweep_identities())
    return out
