from fractions import Fraction

import pytest

from shellings.errors import NotATreeError
from shellings.graphs import (
    Graph,
    all_labeled_trees,
    cycle_graph,
    path_graph,
    random_tree,
    star_graph,
)
from shellings.oracle import build_subset_table, count_shellings_dp, rooted_counts_from_table
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
    from shellings.oracle import count_rooted_shellings_dp

    assert hook_count(rt) == count_rooted_shellings_dp(g, 0)


def test_hook_count_examples():
    assert hook_count(root_tree(Graph.from_edges(1, []), 0)) == 1
    for n in (3, 4, 5, 6):
        fact = 1
        for i in range(1, n):
            fact *= i
        assert hook_count(root_tree(star_graph(n), 0)) == fact
    assert hook_count(root_tree(DOUBLE_STAR, 0)) == 8


def test_all_root_counts_examples():
    assert all_root_counts(path_graph(5)) == [1, 4, 6, 4, 1]
    assert all_root_counts(DOUBLE_STAR) == [8, 12, 2, 3, 3]
    assert all_root_counts(star_graph(4)) == [6, 2, 2, 2]
    assert all_root_counts(star_graph(5)) == [24, 6, 6, 6, 6]


def test_all_root_counts_seed_independent():
    for seed in range(5):
        assert all_root_counts(DOUBLE_STAR, seed_root=seed) == [8, 12, 2, 3, 3]


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
    roots = all_root_counts(path_graph(4))
    assert [Fraction(r, roots[0]) for r in roots] == [1, 3, 3, 1]
    assert Fraction(sum(roots), roots[0]) == 8
    roots = all_root_counts(DOUBLE_STAR)
    assert [Fraction(r, roots[1]) for r in roots] == [
        Fraction(2, 3), 1, Fraction(1, 6), Fraction(1, 4), Fraction(1, 4)
    ]


def test_adjacent_root_ratio_is_integral_identity():
    g = DOUBLE_STAR
    n = g.num_vertices
    roots = all_root_counts(g)
    rt = root_tree(g, 0)
    for u in rt.order[1:]:
        w = rt.parent[u]
        assert roots[u] * (n - rt.subtree_size[u]) == roots[w] * rt.subtree_size[u]


def test_tree_formulas_match_dp_exhaustively_small():
    for n in range(1, 6):
        for g in all_labeled_trees(n):
            dp = count_shellings_dp(g)
            assert tree_count(g) == dp
            roots = all_root_counts(g)
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
            roots = all_root_counts(g)
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
