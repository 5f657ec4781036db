"""Acceptance suite: one test per criterion, exact equality throughout.

Expensive exhaustive sweeps run once per session in fixtures and are
shared by the criteria they back.  Each test prints one line:

    ACCEPTANCE <k>: PASS|FAIL  <criterion>   [elapsed]
"""

import time

import pytest

from shellings import sweeps
from shellings.bounds import diameter_upper_bound_printed, double_broom
from shellings.closed_forms import (
    complete_bipartite_count,
    complete_graph_count,
    path_count,
    rooted_path_count,
    stanley_sum_count,
)
from shellings.graphs import complete_graph, path_graph, star_graph
from shellings.oracle import count_shellings_dp
from shellings.trees import all_root_counts, root_tree, tree_count


def _timed_outcomes(fn, *args):
    start = time.perf_counter()
    outcomes = {o.name: o for o in fn(*args)}
    return outcomes, time.perf_counter() - start


@pytest.fixture(scope="session")
def bipartite_sweep():
    return _timed_outcomes(sweeps.sweep_bipartite)


@pytest.fixture(scope="session")
def tree_sweep():
    return _timed_outcomes(sweeps.sweep_trees, 7)


@pytest.fixture(scope="session")
def bound_sweep():
    return _timed_outcomes(sweeps.sweep_bounds, 8)


@pytest.fixture(scope="session")
def identity_sweep():
    return _timed_outcomes(sweeps.sweep_identities)


@pytest.fixture(scope="session")
def oracle_sweep():
    return _timed_outcomes(sweeps.sweep_oracle)


def _require(criterion, label, sweep, *names, extra_ok=True):
    outcomes, elapsed = sweep
    ok = extra_ok and all(outcomes[name].ok for name in names)
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}  {label}  [{elapsed:.1f}s]")
    for name in names:
        assert outcomes[name].ok, f"{name}: {outcomes[name].detail}"
    assert extra_ok


def test_c01_complete_bipartite_formula_vs_dp(bipartite_sweep):
    _require(1, "complete bipartite closed form equals DP for mn <= 16",
             bipartite_sweep, "complete_bipartite_vs_dp")


def test_c02_stanley_sum_equals_formula(bipartite_sweep):
    extra = stanley_sum_count(5, 5) == complete_bipartite_count(5, 5)
    _require(2, "summation formula equals closed form for m, n <= 5",
             bipartite_sweep, "stanley_sum_vs_formula", extra_ok=extra)


def test_c03_complete_graph_formula_vs_dp(bipartite_sweep):
    anchors = complete_graph_count(4) == 576 == count_shellings_dp(complete_graph(4))
    _require(3, "complete graph formula equals DP for n in 2..5 (K4 = 576)",
             bipartite_sweep, "complete_graph_vs_dp", extra_ok=anchors)


def test_c04_tree_formulas_vs_dp_exhaustive(tree_sweep):
    _require(4, "hook, per-root, and total counts equal DP on all trees n <= 7",
             tree_sweep, "hook_count_vs_rooted_dp", "all_root_counts_vs_rooted_dp",
             "tree_count_vs_dp")


def test_c05_path_anchors(tree_sweep):
    direct = all(
        tree_count(path_graph(n)) == path_count(n) == 2 ** (n - 2)
        and all_root_counts(root_tree(path_graph(n), 0))
        == [rooted_path_count(n, i) for i in range(1, n + 1)]
        for n in range(2, 21)
    )
    _require(5, "path counts are 2^(n-2) with binomial per-root counts, n <= 20",
             tree_sweep, "path_total_is_power_of_two", "path_root_counts_are_binomials",
             extra_ok=direct)


def test_c06_degree_lower_bound(bound_sweep):
    families = all(
        tree_count(double_broom(2, 3, m)) == 2 ** (double_broom(2, 3, m).num_vertices - 1) - 2
        for m in range(2, 7)  # n up to 10
    ) and all(
        tree_count(double_broom(2, 4, m))
        == 6 * (2 ** (double_broom(2, 4, m).num_vertices - 2) - double_broom(2, 4, m).num_vertices + 1)
        for m in range(2, 6)  # n up to 10
    )
    _require(6, "degree-factorial lower bound, equality iff path or star, n <= 8",
             bound_sweep, "degree_lower_bound_holds", "degree_bound_equality_iff_path_or_star",
             "double_broom_family_closed_forms", extra_ok=families)


def test_c07_weight_bound_every_root(bound_sweep):
    star = star_graph(8)
    tight_star = tree_count(star) == 1 * all_root_counts(root_tree(star, 0))[0]
    path = path_graph(8)
    tight_path = tree_count(path) == 2**6 * all_root_counts(root_tree(path, 0))[0]
    _require(7, "per-root weight bound on all trees n <= 8, tight on star center and path end",
             bound_sweep, "weight_bound_holds_every_root", extra_ok=tight_star and tight_path)


def test_c08_transform_monotonicity(bound_sweep):
    _require(8, "branch transforms never decrease weight sum / shelling count, n <= 8",
             bound_sweep, "push_step_weight_sum_not_decreased",
             "push_step_preserves_size_and_depth", "pull_step_count_not_decreased",
             "transform_fixpoints_reached")


def test_c09_diameter_bound_and_gap_pins(bound_sweep):
    pins = (
        diameter_upper_bound_printed(3, 2) == 4
        and tree_count(path_graph(3)) == 2
        and diameter_upper_bound_printed(5, 4) == 16
        and tree_count(path_graph(5)) == 8
    )
    _require(9, "printed diameter bound and mid-spider bound hold on n <= 8; gap pins",
             bound_sweep, "count_at_most_printed_diameter_bound",
             "count_at_most_mid_spider_count", "printed_vs_extremal_regression_pins",
             extra_ok=pins)


def test_c10_identity_suites(identity_sweep):
    _require(10, "identity grids: convolution, summation, partial sums, telescoping, appendix",
             identity_sweep, "story_identity_grid", "story_polynomial_identity",
             "binomial_sum_full_grid", "induction_lemma_full_grid",
             "induction_lemma_covers_both_branches", "induction_theorem_grid",
             "appendix_binomial_vs_power_iff", "appendix_factorial_inequality",
             "appendix_binomial_linear_iff")


def test_c11_oracle_self_consistency(oracle_sweep):
    _require(11, "enumeration agrees with DP on the fixed corpus incl. theta and K4",
             oracle_sweep, "enumeration_matches_dp")
