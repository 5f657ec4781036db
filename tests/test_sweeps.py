"""The sweeps' outward contract: which checks each suite reports, in what
order, and the failure text a failing check carries."""

import pytest

from shellings import sweeps
from shellings.errors import GuardExceeded

CHECK_NAMES = {
    "bipartite": [
        "complete_bipartite_vs_dp",
        "stanley_sum_vs_formula",
        "complete_bipartite_symmetry",
        "complete_graph_vs_dp",
    ],
    "oracle": [
        "enumeration_matches_dp",
        "dp_invariant_under_relabeling",
        "rooted_counts_sum_to_twice_total_on_trees",
    ],
    "trees": [
        "labeled_tree_enumeration_count",
        "enumerated_trees_connected_with_n_minus_1_edges",
        "prufer_roundtrip",
        "hook_count_vs_rooted_dp",
        "all_root_counts_vs_rooted_dp",
        "tree_count_vs_dp",
        "rooted_sum_is_twice_total",
        "root_count_seed_independence",
        "adjacent_root_integer_ratio",
        "path_total_is_power_of_two",
        "path_root_counts_are_binomials",
    ],
    "bounds": [
        "degree_lower_bound_holds",
        "degree_bound_equality_iff_path_or_star",
        "weight_bound_holds_every_root",
        "count_at_most_mid_spider_count",
        "count_at_most_printed_diameter_bound",
        "push_step_weight_sum_not_decreased",
        "push_step_preserves_size_and_depth",
        "pull_step_count_not_decreased",
        "transform_fixpoints_reached",
        "printed_vs_extremal_regression_pins",
        "printed_vs_extremal_gap_observed",
        "double_broom_family_closed_forms",
    ],
    "identities": [
        "story_identity_grid",
        "story_polynomial_identity",
        "binomial_sum_full_grid",
        "induction_lemma_full_grid",
        "induction_lemma_covers_both_branches",
        "induction_theorem_grid",
        "appendix_binomial_vs_power_iff",
        "appendix_factorial_inequality",
        "appendix_binomial_linear_iff",
    ],
}
# run_suite("all") runs the suites in this order
CHECK_NAMES["all"] = [
    name
    for suite in ("bipartite", "oracle", "trees", "bounds", "identities")
    for name in CHECK_NAMES[suite]
]


@pytest.mark.parametrize("suite", sweeps.SUITES)
def test_suite_check_names_in_order(suite):
    outcomes = sweeps.run_suite(suite, 5)
    assert [o.name for o in outcomes] == CHECK_NAMES[suite]
    assert all(o.ok for o in outcomes)


def test_run_suite_sizes_start_at_two():
    assert all(o.ok for o in sweeps.run_suite("trees", 2))
    with pytest.raises(GuardExceeded):
        sweeps.run_suite("trees", 1)


def test_failure_text_with_tree_count_off_by_one(monkeypatch):
    # at most five failures are kept per check, after the case count
    original = sweeps.tree_count
    monkeypatch.setattr(sweeps, "tree_count", lambda g: original(g) + 1)
    trees = [(o.name, o.ok, o.detail) for o in sweeps.sweep_trees(4)]
    assert trees == [
        ("labeled_tree_enumeration_count", True, "4 cases"),
        ("enumerated_trees_connected_with_n_minus_1_edges", True, "21 cases"),
        ("prufer_roundtrip", True, "20 cases"),
        ("hook_count_vs_rooted_dp", True, "75 cases"),
        ("all_root_counts_vs_rooted_dp", True, "75 cases"),
        ("tree_count_vs_dp", False,
         "21 cases, failures: (): 2 vs 1; ((0, 1),): 2 vs 1; ((0, 1), (0, 2)): 3 vs 2; "
         "((0, 1), (1, 2)): 3 vs 2; ((0, 2), (1, 2)): 3 vs 2"),
        ("rooted_sum_is_twice_total", True, "20 cases"),
        ("root_count_seed_independence", True, "60 cases"),
        ("adjacent_root_integer_ratio", True, "55 cases"),
        ("path_total_is_power_of_two", False, "19 cases, failures: n=2; n=3; n=4; n=5; n=6"),
        ("path_root_counts_are_binomials", True, "19 cases"),
    ]
    bounds = [(o.name, o.ok, o.detail) for o in sweeps.sweep_bounds(4)]
    assert bounds == [
        ("degree_lower_bound_holds", True, "20 cases"),
        ("degree_bound_equality_iff_path_or_star", True, "20 cases"),
        ("weight_bound_holds_every_root", True, "75 cases"),
        ("count_at_most_mid_spider_count", True, "20 cases"),
        ("count_at_most_printed_diameter_bound", True, "20 cases"),
        ("push_step_weight_sum_not_decreased", True, "24 cases"),
        ("push_step_preserves_size_and_depth", True, "24 cases"),
        ("pull_step_count_not_decreased", True, "0 cases"),
        ("transform_fixpoints_reached", True, "95 cases"),
        ("printed_vs_extremal_regression_pins", False, "4 cases, failures: (3,2) exact; (5,4) exact"),
        ("printed_vs_extremal_gap_observed", True, "n=2 l=1: 2, n=3 l=2: 2, n=4 l=2: 2, n=4 l=3: 2"),
        ("double_broom_family_closed_forms", False,
         "9 cases, failures: (2,3) middle=2: n=6; (2,3) middle=3: n=7; (2,3) middle=4: n=8; "
         "(2,3) middle=5: n=9; (2,3) middle=6: n=10"),
    ]
