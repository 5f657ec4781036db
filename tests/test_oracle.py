import math
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shellings import closed_forms, oracle
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
    count_shellings_dp,
    enumerate_shellings,
    rooted_counts_from_table,
)
from shellings.trees import all_root_counts, root_tree, tree_count


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
    table = build_subset_table(p4)
    assert rooted_counts_from_table(table, p4, 0) == 1
    assert rooted_counts_from_table(table, p4, 1) == 3
    assert rooted_counts_from_table(table, p4, 3) == 1


def test_rooted_count_star_center():
    for n in (3, 4, 5, 6):
        expected = 1
        for i in range(1, n):
            expected *= i
        g = star_graph(n)
        assert rooted_counts_from_table(build_subset_table(g), g, 0) == expected


def test_rooted_count_bad_vertex():
    p3 = path_graph(3)
    with pytest.raises(ValueError):
        rooted_counts_from_table(build_subset_table(p3), p3, 5)
    p4 = path_graph(4)
    table = build_subset_table(p4)
    for v in (9, -1):
        with pytest.raises(ValueError):
            rooted_counts_from_table(table, p4, v)


def test_dp_guard(monkeypatch):
    # K_7's 6 layers hold a state each, so a budget of 5 refuses it up front
    assert count_shellings_dp(complete_graph(7)) == closed_forms.complete_graph_count(7)
    monkeypatch.setattr(oracle, "MAX_DP_ENTRIES", 5)
    with pytest.raises(GuardExceeded, match="budget"):
        count_shellings_dp(complete_graph(7))
    assert count_shellings_dp(complete_graph(4)) == 576
    # a disconnected graph has no shelling, whatever its size
    two_k7 = Graph.from_edges(14, [(u + s, v + s) for s in (0, 7) for u, v in complete_graph(7).edges])
    assert count_shellings_dp(two_k7) == 0


def test_enumerate_basics():
    assert enumerate_shellings(Graph.from_edges(2, [(0, 1)])) == [(0,)]
    assert enumerate_shellings(path_graph(3)) == [(0, 1), (1, 0)]
    assert len(enumerate_shellings(complete_graph(3))) == 6
    assert enumerate_shellings(Graph.from_edges(1, [])) == [()]


def test_enumerate_guard():
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
    # the ends are twins, so seeds {0,1} and {1,2} share a state; then {0,1,2}
    assert (table.edge_count, table.total, table.states) == (2, 2, 2)
    # no twins: three seeds, the two 2-edge subpaths, the whole path
    table = build_subset_table(path_graph(4))
    assert (table.edge_count, table.total, table.states) == (3, 4, 6)
    single = build_subset_table(Graph.from_edges(1, []))
    assert (single.edge_count, single.total, single.states) == (0, 1, 0)
    # the table counts orderings of the edge set alone; isolated vertices
    # are count_shellings_dp's business
    with_isolated = Graph.from_edges(3, [(0, 1)])
    assert build_subset_table(with_isolated).total == 1
    assert count_shellings_dp(with_isolated) == 0
    assert build_subset_table(Graph.from_edges(4, [(0, 1), (2, 3)])).total == 0


def reference_subset_counts(g: Graph, seed_mask: int) -> list[int]:
    """counts[s]: orderings of edge subset s with every prefix connected
    and the first edge in seed_mask; counts[0] is 1.  The edge-subset
    recurrence over all 2^m subsets, kept here as an independent reference:
    S's count is the sum of the counts of S minus b over the edges b of S
    that touch S minus b."""
    adj_masks = oracle._edge_adjacency_masks(g)
    m = len(adj_masks)
    counts = [0] * (1 << m)
    counts[0] = 1
    touches = {}
    for e, adj in enumerate(adj_masks):
        touches[1 << e] = adj
        if seed_mask >> e & 1:
            counts[1 << e] = 1
    for s in range(3, 1 << m):
        if not s & (s - 1):  # singletons keep their seed value
            continue
        total = 0
        rest = s
        while rest:
            b = rest & -rest
            rest ^= b
            t = s ^ b
            c = counts[t]
            if c and touches[b] & t:
                total += c
        counts[s] = total
    return counts


def edges_at(g: Graph, v: int) -> int:
    return sum(1 << e for e, edge in enumerate(g.edges) if v in edge)


def twin_classes(g: Graph) -> list[int]:
    """Vertex masks of the classes of x ~ y iff N(x) - y = N(y) - x."""
    nbr = [{u for e in g.edges if v in e for u in e if u != v} for v in range(g.num_vertices)]
    classes: list[int] = []
    for v in range(g.num_vertices):
        for i, c in enumerate(classes):
            y = c.bit_length() - 1
            if nbr[v] - {y} == nbr[y] - {v}:
                classes[i] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return classes


def covered_states(g: Graph, counts: list[int]) -> set[tuple]:
    """Covered vertices of each twin class of every nonempty subset with a
    nonzero count: the DP's states, up to swapping twins."""
    classes = twin_classes(g)
    states = set()
    for s, c in enumerate(counts):
        if s and c:
            cover = 0
            for e, (u, v) in enumerate(g.edges):
                if s >> e & 1:
                    cover |= 1 << u | 1 << v
            states.add(tuple((cover & t).bit_count() for t in classes))
    return states


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
        assert rooted_counts_from_table(table, g, v) == expected
        rooted.append(expected)
    if g.is_tree():
        assert all_root_counts(root_tree(g, 0)) == rooted
        assert tree_count(g) == len(orders)


def test_dp_budget_counts_sparse_graphs_past_twenty_edges():
    assert count_shellings_dp(cycle_graph(40)) == 40 * 2**38
    assert count_shellings_dp(path_graph(41)) == 2**39


def test_dp_budget_refuses_dense_graphs(monkeypatch):
    k35 = complete_bipartite_graph(3, 5)
    table = build_subset_table(k35)
    assert table.states == 15
    rooted, rooted_states = oracle._shelling_dp(k35, 0)
    monkeypatch.setattr(oracle, "MAX_DP_ENTRIES", 15)
    assert count_shellings_dp(k35) == closed_forms.complete_bipartite_count(3, 5)
    monkeypatch.setattr(oracle, "MAX_DP_ENTRIES", 14)
    # a 14-edge star, its leaves all twins, takes one state per layer and fits
    assert build_subset_table(star_graph(15)).states == 14
    assert count_shellings_dp(star_graph(15)) == math.factorial(14)
    with pytest.raises(GuardExceeded, match="budget"):
        count_shellings_dp(k35)
    monkeypatch.setattr(oracle, "MAX_DP_ENTRIES", rooted_states)
    assert rooted_counts_from_table(table, k35, 0) == rooted > 0
    monkeypatch.setattr(oracle, "MAX_DP_ENTRIES", rooted_states - 1)
    with pytest.raises(GuardExceeded, match="budget"):
        rooted_counts_from_table(table, k35, 0)


def test_rooted_rerun_refused_past_budget(monkeypatch):
    g = Graph.from_edges(8, complete_bipartite_graph(3, 5).edges + ((0, 1),))
    table = build_subset_table(g)
    assert table.states == 26
    rooted_states = oracle._shelling_dp(g, 3)[1]
    assert rooted_states < 26
    monkeypatch.setattr(oracle, "MAX_DP_ENTRIES", rooted_states - 1)
    with pytest.raises(GuardExceeded, match="budget"):
        rooted_counts_from_table(table, g, 3)
    with pytest.raises(GuardExceeded, match="budget"):
        build_subset_table(g)


def test_dp_budget_charges_each_state_by_vertex_set_width(monkeypatch):
    # every subpath is a state: 63 * 64 / 2 of them on 64 vertices, where a
    # vertex set takes two 64-bit words, and 62 * 63 / 2 on 63 vertices
    p64, p63 = path_graph(64), path_graph(63)
    monkeypatch.setattr(oracle, "MAX_DP_ENTRIES", 2 * 2016)
    assert build_subset_table(p64).states == 2016
    assert count_shellings_dp(p64) == 2**62
    monkeypatch.setattr(oracle, "MAX_DP_ENTRIES", 2 * 2016 - 1)
    with pytest.raises(GuardExceeded, match="budget"):
        count_shellings_dp(p64)
    monkeypatch.setattr(oracle, "MAX_DP_ENTRIES", 1953)
    assert count_shellings_dp(p63) == 2**61
    monkeypatch.setattr(oracle, "MAX_DP_ENTRIES", 1952)
    with pytest.raises(GuardExceeded, match="budget"):
        count_shellings_dp(p63)


def test_dp_budget_refuses_up_front_before_any_mask(monkeypatch):
    def never(nbr):
        raise AssertionError("built the DP's masks for a graph past the budget")

    p64 = path_graph(64)
    table = build_subset_table(p64)
    monkeypatch.setattr(oracle, "_twin_runs", never)
    # one state per layer at two entries a state already passes 2 * 63 - 1
    monkeypatch.setattr(oracle, "MAX_DP_ENTRIES", 2 * 63 - 1)
    with pytest.raises(GuardExceeded, match="budget"):
        count_shellings_dp(p64)
    with pytest.raises(GuardExceeded, match="budget"):
        rooted_counts_from_table(table, p64, 0)
    monkeypatch.undo()
    monkeypatch.setattr(oracle, "_twin_runs", never)
    # 100,000 layers at 1,563 entries a state pass the default budget
    with pytest.raises(GuardExceeded, match="budget"):
        build_subset_table(cycle_graph(100000))


def test_ten_leg_spider_matches_tree_count():
    # ten 2-edge legs: 20 edges and 59,058 states, the most found at 20 edges
    spider = Graph.from_edges(21, [e for i in range(10) for e in ((0, 2 * i + 1),
                                                                  (2 * i + 1, 2 * i + 2))])
    table = build_subset_table(spider)
    assert table.states == 59058
    assert table.total == count_shellings_dp(spider) == tree_count(spider)


def test_state_counts_follow_the_covered_sets():
    # every subpath, every arc of a cycle plus V: no twins;
    # the centre with any number of the star's leaves, all twins
    assert build_subset_table(path_graph(17)).states == 17 * 16 // 2
    assert build_subset_table(cycle_graph(40)).states == 38 * 40 + 1
    assert build_subset_table(star_graph(12)).states == 11
    assert build_subset_table(star_graph(21)).states == 20
    # a of the 4 and b of the 5 covered
    assert build_subset_table(complete_bipartite_graph(4, 5)).states == 4 * 5
    assert build_subset_table(complete_bipartite_graph(3, 5)).states == 15
    # c of the 6 covered, for c = 2..6
    assert build_subset_table(complete_graph(6)).states == 5


def test_dp_matches_subset_reference_past_sixteen_edges():
    g = Graph.from_edges(16, [(i, i + 1) for i in range(15)] + [(0, 15), (3, 9)])
    table = build_subset_table(g)
    full = reference_subset_counts(g, (1 << g.num_edges) - 1)
    assert table.total == full[-1]
    assert table.states == len(covered_states(g, full))


@given(connected_graphs(max_edges=12))
@example(complete_graph(5))
@example(complete_bipartite_graph(3, 4))
@example(star_graph(9))
@settings(derandomize=True, deadline=None, max_examples=60)
def test_dp_matches_subset_reference_on_random_connected_graphs(g):
    full = reference_subset_counts(g, (1 << g.num_edges) - 1)
    table = build_subset_table(g)
    assert table.total == count_shellings_dp(g) == full[-1]
    assert table.states == len(covered_states(g, full))
    for v in range(g.num_vertices):
        rooted = reference_subset_counts(g, edges_at(g, v))
        assert rooted_counts_from_table(table, g, v) == rooted[-1]
        assert oracle._shelling_dp(g, v)[1] == len(covered_states(g, rooted))


@pytest.mark.parametrize("m,n", [(m, n) for m in range(2, 5) for n in range(m, 11) if m * n <= 20]
                         + [(20, 20), (30, 30), (40, 40)])
def test_dp_matches_complete_bipartite_formula(m, n):
    assert count_shellings_dp(complete_bipartite_graph(m, n)) == \
        closed_forms.complete_bipartite_count(m, n)


@pytest.mark.parametrize("n", [*range(2, 7), 30])
def test_dp_matches_complete_graph_formula(n):
    assert count_shellings_dp(complete_graph(n)) == closed_forms.complete_graph_count(n)


@pytest.mark.parametrize("extra", [[], [(0, 1), (2, 3)], [(0, 1), (2, 3), (4, 5), (0, 6)]],
                         ids=["14edges", "16edges", "18edges"])
def test_dp_matches_subset_reference_on_dense_7_vertex_graphs(extra):
    # K_7 minus the 7-cycle 0-1-2-...-6-0, with 0, 2 or 4 of its edges put back
    removed = [(0, 1), (2, 3), (4, 5), (0, 6), (1, 2), (3, 4), (5, 6)]
    edges = [e for e in complete_graph(7).edges if e not in removed] + extra
    g = Graph.from_edges(7, edges)
    full = reference_subset_counts(g, (1 << g.num_edges) - 1)
    assert count_shellings_dp(g) == full[-1]
    assert build_subset_table(g).states == len(covered_states(g, full))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_hook_formula_matches_dp_on_25_edge_trees(seed):
    g = random_tree(26, seed)
    assert count_shellings_dp(g) == tree_count(g)
    roots = all_root_counts(root_tree(g, 0))
    table = build_subset_table(g)
    for v in (0, 13, 25):
        assert rooted_counts_from_table(table, g, v) == roots[v]


def test_star_join_weights_are_built_only_as_met():
    # one leaf joins per layer, with a single edge into W: no weight table
    # of degree by edges (25 M entries here) may be built up front
    start = time.perf_counter()
    assert count_shellings_dp(star_graph(5000)) == math.factorial(4999)
    assert time.perf_counter() - start < 1.0
