import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shellings import oracle
from shellings.errors import GuardExceeded
from shellings.graphs import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_tree,
    star_graph,
)
from shellings.oracle import (
    build_subset_table,
    count_rooted_shellings_dp,
    count_shellings_dp,
    enumerate_shellings,
    rooted_counts_from_table,
)
from shellings.trees import all_root_counts, tree_count


def test_small_anchor_counts():
    assert count_shellings_dp(complete_graph(3)) == 6
    assert count_shellings_dp(path_graph(4)) == 4
    assert count_shellings_dp(cycle_graph(4)) == 16


def test_degenerate_graphs():
    assert count_shellings_dp(Graph.from_edges(1, [])) == 1
    assert count_shellings_dp(Graph.from_edges(4, [(0, 1), (2, 3)])) == 0
    assert count_shellings_dp(Graph.from_edges(2, [(0, 1)])) == 1


def test_rooted_counts_on_path():
    p4 = path_graph(4)
    assert count_rooted_shellings_dp(p4, 0) == 1
    assert count_rooted_shellings_dp(p4, 1) == 3
    assert count_rooted_shellings_dp(p4, 3) == 1


def test_rooted_count_star_center():
    for n in (3, 4, 5, 6):
        expected = 1
        for i in range(1, n):
            expected *= i
        assert count_rooted_shellings_dp(star_graph(n), 0) == expected


def test_rooted_count_bad_vertex():
    with pytest.raises(ValueError):
        count_rooted_shellings_dp(path_graph(3), 5)


def test_dp_guard():
    with pytest.raises(GuardExceeded):
        count_shellings_dp(complete_graph(7), max_edges=20)
    assert count_shellings_dp(complete_graph(4), max_edges=6) == 576


def test_enumerate_basics():
    assert enumerate_shellings(Graph.from_edges(2, [(0, 1)])) == [(0,)]
    assert enumerate_shellings(path_graph(3)) == [(0, 1), (1, 0)]
    assert len(enumerate_shellings(complete_graph(3))) == 6
    assert enumerate_shellings(Graph.from_edges(1, [])) == [()]


def test_enumerate_limit_and_guard():
    assert len(enumerate_shellings(complete_graph(3), limit=4)) == 4
    with pytest.raises(GuardExceeded):
        enumerate_shellings(complete_graph(5))


def test_enumerate_prefixes_are_connected():
    g = cycle_graph(5)
    for order in enumerate_shellings(g):
        touched: set[int] = set()
        for e in order:
            u, v = g.edges[e]
            assert not touched or u in touched or v in touched
            touched.update((u, v))


@pytest.mark.parametrize(
    "g",
    [
        path_graph(5),
        cycle_graph(5),
        star_graph(6),
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)]),  # K4 minus edge
        complete_graph(4),
    ],
    ids=["path5", "cycle5", "star6", "theta", "k4"],
)
def test_enumeration_matches_dp(g):
    assert len(enumerate_shellings(g)) == count_shellings_dp(g)


def test_dp_relabeling_invariance():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    base = count_shellings_dp(g)
    for perm in [(4, 3, 2, 1, 0), (2, 0, 4, 1, 3), (1, 2, 3, 4, 0)]:
        relabeled = Graph.from_edges(5, [(perm[u], perm[v]) for u, v in g.edges])
        assert count_shellings_dp(relabeled) == base


def test_rooted_sum_is_twice_total_on_trees():
    for g in [path_graph(5), star_graph(5), Graph.from_edges(5, [(0, 1), (0, 2), (1, 3), (1, 4)])]:
        table = build_subset_table(g)
        total = count_shellings_dp(g)
        assert sum(rooted_counts_from_table(table, g, v) for v in range(5)) == 2 * total


def test_subset_table_conventions():
    table = build_subset_table(path_graph(3))
    assert table.counts[0] == 1
    assert table.counts[1] == table.counts[2] == 1
    assert table.connected[3] == 1


@st.composite
def connected_graphs(draw, max_edges=8):
    """A random spanning tree on 2..9 vertices plus random extra edges, relabeled."""
    n = draw(st.integers(2, max_edges + 1))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    others = [(u, v) for v in range(n) for u in range(v) if (u, v) not in tree]
    k = draw(st.integers(0, min(len(others), max_edges - len(tree))))
    extra = draw(st.permutations(others))[:k]
    perm = draw(st.permutations(range(n)))
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in tree + extra])


@given(connected_graphs())
@settings(derandomize=True, deadline=None)
def test_dp_matches_enumeration_on_random_connected_graphs(g):
    orders = enumerate_shellings(g)
    assert count_shellings_dp(g) == len(orders)
    table = build_subset_table(g)
    rooted = []
    for v in range(g.num_vertices):
        expected = sum(1 for order in orders if v in g.edges[order[0]])
        assert count_rooted_shellings_dp(g, v) == expected
        assert rooted_counts_from_table(table, g, v) == expected
        rooted.append(expected)
    if g.is_tree():
        assert all_root_counts(g) == rooted
        assert tree_count(g) == len(orders)


def test_dp_budget_counts_sparse_graphs_past_twenty_edges():
    assert count_shellings_dp(cycle_graph(40), max_edges=40) == 40 * 2**38
    assert count_shellings_dp(path_graph(41), max_edges=40) == 2**39


def test_dp_budget_refuses_dense_graphs(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_DP_ENTRIES", 1 << 12)
    # 106 connected subsets fit the layered pass's 256 entries
    assert count_shellings_dp(path_graph(15)) == 2**13
    with pytest.raises(GuardExceeded, match="budget"):
        count_shellings_dp(complete_bipartite_graph(3, 5))
    with pytest.raises(GuardExceeded, match="budget"):
        count_rooted_shellings_dp(complete_bipartite_graph(3, 5), 0)


def test_connected_bytes_refused_past_budget(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_DP_ENTRIES", 1 << 12)
    table = build_subset_table(path_graph(15))
    assert table.strategy == "connected" and table.total == 2**13
    with pytest.raises(GuardExceeded, match="budget"):
        table.connected
    assert len(build_subset_table(path_graph(13)).connected) == 1 << 12


def test_strategy_follows_the_connected_share():
    assert build_subset_table(path_graph(17)).strategy == "connected"
    assert build_subset_table(cycle_graph(20)).strategy == "connected"
    # 16 edges, 93% of subsets connected: the pass stops at 2^16 / 16 entries
    assert build_subset_table(complete_bipartite_graph(4, 4)).strategy == "table"
    # at most TABLE_ONLY_EDGES edges, however sparse: straight to the table
    assert oracle.TABLE_ONLY_EDGES == 15
    assert build_subset_table(path_graph(16)).strategy == "table"
    assert build_subset_table(complete_bipartite_graph(3, 4)).strategy == "table"


def test_connected_bytes_agree_between_strategies():
    g = Graph.from_edges(16, [(i, i + 1) for i in range(15)] + [(0, 15), (3, 9)])
    table = build_subset_table(g)
    assert table.strategy == "connected"
    full = oracle._shelling_counts(table.adj_masks, (1 << g.num_edges) - 1)
    assert table.connected == b"\0" + bytes(map(bool, full[1:]))
    assert table.total == full[-1]


@given(connected_graphs(max_edges=12))
@example(complete_graph(5))
@example(complete_bipartite_graph(3, 4))
@settings(derandomize=True, deadline=None, max_examples=60)
def test_both_strategies_agree_on_every_connected_subset(g):
    adj = oracle._edge_adjacency_masks(g)
    seeds = [(1 << g.num_edges) - 1] + [oracle._edges_at(g, v) for v in range(g.num_vertices)]
    for seed in seeds:
        table = oracle._shelling_counts(adj, seed)
        layered = oracle._connected_counts(adj, seed, cap=1 << g.num_edges)
        assert layered == {s: c for s, c in enumerate(table) if c}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hook_formula_matches_dp_on_25_edge_trees(seed):
    g = random_tree(26, seed)
    assert count_shellings_dp(g, max_edges=25) == tree_count(g)
    roots = all_root_counts(g)
    for v in (0, 13, 25):
        assert count_rooted_shellings_dp(g, v, max_edges=25) == roots[v]
