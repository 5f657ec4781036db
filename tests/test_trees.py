import math
import random
from fractions import Fraction

import pytest

from shellings import trees
from shellings.bounds import double_broom, mid_spider
from shellings.errors import ExactnessError, NotATreeError
from shellings.graphs import (
    Graph,
    all_labeled_trees,
    cycle_graph,
    path_graph,
    random_tree,
    star_graph,
)
from shellings.oracle import build_subset_table, count_shellings_dp, rooted_counts_from_table
from shellings.sweeps import sweep_trees
from shellings.trees import all_root_counts, hook_count, root_tree, tree_count

# centers 0 (degree 2) and 1 (degree 3); leaf 2 on 0, leaves 3 and 4 on 1
DOUBLE_STAR = Graph.from_edges(5, [(0, 1), (0, 2), (1, 3), (1, 4)])


def test_root_tree_path():
    rt = root_tree(path_graph(5), 0)
    assert rt.subtree_size == (5, 4, 3, 2, 1)
    assert rt.parent == (0, 0, 1, 2, 3)


def test_root_tree_star():
    rt = root_tree(star_graph(6), 0)
    assert rt.subtree_size[0] == 6
    assert all(s == 1 for s in rt.subtree_size[1:])


def test_root_tree_rejects_non_tree():
    with pytest.raises(NotATreeError):
        root_tree(cycle_graph(4), 0)


def test_root_tree_bushy_subtree_sizes():
    # 15-vertex tree, three branches under the root of sizes 6, 1, and 7
    g = Graph.from_edges(
        15,
        [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (3, 6), (3, 7), (3, 8),
         (4, 9), (4, 10), (5, 11), (7, 12), (7, 13), (8, 14)],
    )
    rt = root_tree(g, 0)
    assert rt.subtree_size[0] == 15
    assert rt.subtree_size[1] == 6
    assert rt.subtree_size[2] == 1
    assert rt.subtree_size[3] == 7
    from shellings.oracle import build_subset_table, rooted_counts_from_table

    assert hook_count(rt) == rooted_counts_from_table(build_subset_table(g), g, 0)


def test_hook_count_examples():
    assert hook_count(root_tree(Graph.from_edges(1, []), 0)) == 1
    for n in (3, 4, 5, 6):
        fact = 1
        for i in range(1, n):
            fact *= i
        assert hook_count(root_tree(star_graph(n), 0)) == fact
    assert hook_count(root_tree(DOUBLE_STAR, 0)) == 8


def test_hook_count_past_one_run_of_factors():
    # the subtree sizes are multiplied in runs of 32; every run must count
    for g in (path_graph(100), random_tree(1000, 1)):
        rt = root_tree(g, 0)
        assert hook_count(rt) == math.factorial(g.num_vertices) // math.prod(rt.subtree_size)
    assert tree_count(path_graph(100)) == 2**98


def test_all_root_counts_examples():
    assert all_root_counts(root_tree(path_graph(5), 0)) == [1, 4, 6, 4, 1]
    assert all_root_counts(root_tree(DOUBLE_STAR, 0)) == [8, 12, 2, 3, 3]
    assert all_root_counts(root_tree(star_graph(4), 0)) == [6, 2, 2, 2]
    assert all_root_counts(root_tree(star_graph(5), 0)) == [24, 6, 6, 6, 6]


def test_all_root_counts_seed_independent():
    for seed in range(5):
        assert all_root_counts(root_tree(DOUBLE_STAR, seed)) == [8, 12, 2, 3, 3]


def test_tree_count_examples():
    assert tree_count(Graph.from_edges(1, [])) == 1
    assert tree_count(path_graph(4)) == 4
    assert tree_count(star_graph(5)) == 24
    assert tree_count(DOUBLE_STAR) == 14


def test_double_star_closed_form():
    # degrees (2, 3): (d1^2 + d2^2 + d1 d2 - d1 - d2) / (d1 d2) * (d1 + d2 - 2)!
    d1, d2 = 2, 3
    expected = Fraction(d1 * d1 + d2 * d2 + d1 * d2 - d1 - d2, d1 * d2) * 6
    assert tree_count(DOUBLE_STAR) == expected


def test_weights_examples():
    # the weight W(u) for root v is the root-count ratio F(T_u) / F(T_v)
    roots = all_root_counts(root_tree(path_graph(4), 0))
    assert [Fraction(r, roots[0]) for r in roots] == [1, 3, 3, 1]
    assert Fraction(sum(roots), roots[0]) == 8
    roots = all_root_counts(root_tree(DOUBLE_STAR, 0))
    assert [Fraction(r, roots[1]) for r in roots] == [
        Fraction(2, 3), 1, Fraction(1, 6), Fraction(1, 4), Fraction(1, 4)
    ]


def test_adjacent_root_ratio_is_integral_identity():
    g = DOUBLE_STAR
    n = g.num_vertices
    rt = root_tree(g, 0)
    roots = all_root_counts(rt)
    for u in rt.order[1:]:
        w = rt.parent[u]
        assert roots[u] * (n - rt.subtree_size[u]) == roots[w] * rt.subtree_size[u]


def test_tree_formulas_match_dp_exhaustively_small():
    for n in range(1, 6):
        for g in all_labeled_trees(n):
            dp = count_shellings_dp(g)
            assert tree_count(g) == dp
            roots = all_root_counts(root_tree(g, 0))
            if n >= 2:
                table = build_subset_table(g)
                for v in range(n):
                    rdp = rooted_counts_from_table(table, g, v)
                    assert roots[v] == rdp
                    assert hook_count(root_tree(g, v)) == rdp
                assert sum(roots) == 2 * dp


def test_weights_match_root_count_ratios():
    for n in range(2, 6):
        for seed in range(3):
            g = random_tree(n, seed)
            roots = all_root_counts(root_tree(g, 0))
            for v in range(n):
                # W(u) multiplies the edge ratios size/(n - size) down from v
                rt = root_tree(g, v)
                w = [Fraction(0)] * n
                w[v] = Fraction(1)
                for u in rt.order[1:]:
                    size = rt.subtree_size[u]
                    w[u] = w[rt.parent[u]] * Fraction(size, n - size)
                assert w == [Fraction(r, roots[v]) for r in roots]
                # hook seed times weight sum equals the full rooted sum
                assert roots[v] * sum(w) == sum(roots) == 2 * tree_count(g)


def _root_sum_total(g):
    """The total as half the sum of every root's count."""
    return sum(all_root_counts(root_tree(g, 0))) // 2 if g.num_vertices > 1 else 1


def _relabeled(g, seed):
    perm = list(range(g.num_vertices))
    random.Random(seed).shuffle(perm)
    return Graph.from_edges(g.num_vertices, [(perm[u], perm[v]) for u, v in g.edges])


def _caterpillar(spine):
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(i, spine + i) for i in range(spine)]
    return Graph.from_edges(2 * spine, edges)


def _broom(handle, bristles):
    edges = [(i, i + 1) for i in range(handle - 1)]
    edges += [(handle - 1, handle + i) for i in range(bristles)]
    return Graph.from_edges(handle + bristles, edges)


def _complete_binary_tree(levels):
    n = 2 ** levels - 1
    return Graph.from_edges(n, [((i - 1) // 2, i) for i in range(1, n)])


SHAPES_NEAR_2000 = {
    "path": path_graph(2000),
    "star": star_graph(2000),
    "caterpillar": _caterpillar(1000),
    "broom": _broom(1000, 1000),
    "double_broom": double_broom(500, 500, 1000),
    "mid_spider": mid_spider(2000, 1000),
    "complete_binary": _complete_binary_tree(11),
}


def test_tree_count_matches_root_sum_on_every_small_tree():
    for n in range(1, 8):
        for g in all_labeled_trees(n):
            assert tree_count(g) == _root_sum_total(g), g.edges


@pytest.mark.parametrize("n", [100, 1000, 4000])
def test_tree_count_matches_root_sum_on_random_trees(n):
    for seed in range(3):
        g = random_tree(n, seed)
        assert tree_count(g) == _root_sum_total(g)


@pytest.mark.parametrize("shape", sorted(SHAPES_NEAR_2000))
def test_tree_count_matches_root_sum_on_shapes(shape):
    # as built, vertex 0 is an end or a center; relabeled, it lands anywhere
    g = SHAPES_NEAR_2000[shape]
    for h in (g, _relabeled(g, 1), _relabeled(g, 2)):
        assert tree_count(h) == _root_sum_total(h)


def test_tree_count_with_tied_heaviest_children():
    # root 0 has two legs of three vertices and one leaf; vertex 1 has two
    # single-leaf children; the binary tree ties at every inner vertex
    legs = Graph.from_edges(8, [(0, 1), (1, 3), (1, 4), (0, 2), (2, 5), (5, 6), (0, 7)])
    for g in (legs, _complete_binary_tree(4), _relabeled(_complete_binary_tree(4), 3)):
        assert tree_count(g) == _root_sum_total(g) == count_shellings_dp(g)


def test_tree_count_on_one_and_two_vertices():
    assert tree_count(Graph.from_edges(1, [])) == 1
    assert tree_count(path_graph(2)) == _root_sum_total(path_graph(2)) == 1


@pytest.mark.parametrize("seed", [4, 5])
def test_tree_count_matches_dp_on_25_edge_trees(seed):
    g = random_tree(26, seed)
    assert tree_count(g) == count_shellings_dp(g)


def test_tree_count_refuses_an_odd_root_sum(monkeypatch):
    # star_graph(4): the root sum is 12; a factorial four times too small
    # keeps the division exact and makes the sum 3
    monkeypatch.setattr(trees, "factorial", lambda n: math.factorial(n) // 4)
    with pytest.raises(ExactnessError, match="even"):
        tree_count(star_graph(4))


def test_tree_count_builds_no_root_counts(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tree_count must not build every root's count")

    monkeypatch.setattr(trees, "all_root_counts", refuse)
    assert tree_count(random_tree(50, 7)) > 0


def test_sweep_trees_check_names_and_case_counts():
    outcomes = sweep_trees(5)
    assert all(o.ok for o in outcomes)
    assert [(o.name, o.detail) for o in outcomes] == [
        ("labeled_tree_enumeration_count", "5 cases"),
        ("enumerated_trees_connected_with_n_minus_1_edges", "146 cases"),
        ("prufer_roundtrip", "145 cases"),
        ("hook_count_vs_rooted_dp", "700 cases"),
        ("all_root_counts_vs_rooted_dp", "700 cases"),
        ("tree_count_vs_dp", "146 cases"),
        ("rooted_sum_is_twice_total", "145 cases"),
        ("root_count_seed_independence", "435 cases"),
        ("adjacent_root_integer_ratio", "555 cases"),
        ("path_total_is_power_of_two", "19 cases"),
        ("path_root_counts_are_binomials", "19 cases"),
    ]
