import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellings import graphs
from shellings.errors import EdgeListParseError, GuardExceeded, NotATreeError
from shellings.graphs import (
    Graph,
    all_labeled_trees,
    classify,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    is_connected,
    parse_edge_list,
    path_graph,
    prufer_decode,
    prufer_encode,
    random_tree,
    star_graph,
)
from shellings.bounds import longest_path
from shellings.trees import all_root_counts, eccentricities, root_tree, tree_count

from bfs_reference import bfs_distances


def test_parse_basic():
    g = parse_edge_list("n 3\n0 1\n1 2\n")
    assert g == Graph(3, ((0, 1), (1, 2)))


def test_parse_comments_blank_crlf_and_bytes():
    g = parse_edge_list(b"# header\r\n\r\nn 4\r\n2 1\r\n0 1\r\n")
    assert g == Graph(4, ((0, 1), (1, 2)))


def test_parse_header_allows_isolated_vertices():
    g = parse_edge_list("n 5\n0 1\n")
    assert g.num_vertices == 5
    assert not is_connected(g)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 0\n", "self-loop"),
        ("0 1\n0 1\n", "duplicate edge"),
        ("0 1\n1 0\n", "duplicate edge"),
        ("0 x\n", "malformed"),
        ("1 \u00b2\n", "malformed"),
        ("\u0661 2\n", "malformed"),
        ("n \u00b2\n0 1\n", "malformed header"),
        ("1 2 3\n", "malformed"),
        ("n 2\n0 5\n", "declared"),
        ("n 2\nn 3\n", "duplicate header"),
        ("0 " + "1" * 5000 + "\n", "vertex id 1{20}\\.\\.\\. exceeds 999999"),
        ("0 1\n1 2000000000\n", "vertex id 2000000000 exceeds 999999"),
        ("1000000 1\n", "vertex id 1000000 exceeds"),
        ("2" * 5000 + " 0\n", "vertex id 2{20}\\.\\.\\. exceeds 999999"),
        ("n 2000000000\n0 1\n", "declared n 2000000000 exceeds 1000000"),
        ("n 1000001\n0 1\n", "declared n 1000001 exceeds 1000000"),
        ("0 1000000\n", "vertex id 1000000 exceeds"),
        ("n " + "9" * 5000 + "\n", "declared n 9{20}"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(EdgeListParseError, match=fragment):
        parse_edge_list(text)


def test_parse_accepts_ids_up_to_the_bound():
    g = parse_edge_list("n 1000000\n0 999999\n")
    assert g.num_vertices == 1000000 and g.edges == ((0, 999999),)
    assert parse_edge_list("0000000000001 0\n").edges == ((0, 1),)


def test_parse_error_carries_line_number():
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list("0 1\n\n2 2\n")
    assert err.value.line_no == 3
    with pytest.raises(EdgeListParseError) as err:
        parse_edge_list("0 1\n1 \u00b2\n")
    assert err.value.line_no == 2


def test_canonical_edge_order():
    g = Graph.from_edges(4, [(3, 2), (1, 0)])
    assert g.edges == ((0, 1), (2, 3))


def test_connectivity():
    assert is_connected(path_graph(4))
    assert is_connected(Graph.from_edges(1, []))
    assert is_connected(Graph.from_edges(0, []))
    assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))


def test_classify_cycle_is_complete_bipartite():
    cls = classify(cycle_graph(4))
    assert cls.primary == "CompleteBipartite"
    assert cls.part_sizes == (2, 2)


def test_classify_star():
    cls = classify(star_graph(6))
    assert cls.primary == "Star"
    assert "Tree" in cls.tags and "CompleteBipartite" in cls.tags
    assert cls.part_sizes == (1, 5)


def test_classify_triangle_and_general():
    assert classify(complete_graph(3)).primary == "Complete"
    assert classify(cycle_graph(5)).primary == "GeneralConnected"
    assert classify(Graph.from_edges(4, [(0, 1), (2, 3)])).primary == "Disconnected"


def _complete_bipartite_sizes(g):
    """Brute force: the part sizes of every split of V into two nonempty
    sides with all cross pairs and no inside pairs as edges."""
    n, edges = g.num_vertices, set(g.edges)
    found = set()
    for mask in range(1, (1 << n) - 1):
        side = [mask >> v & 1 for v in range(n)]
        pairs = {(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]}
        if pairs == edges:
            a = sum(side)
            found.add((min(a, n - a), max(a, n - a)))
    assert len(found) <= 1
    return found.pop() if found else None


def test_classify_part_sizes_match_brute_force_on_small_connected_graphs():
    checked = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph.from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            if not is_connected(g):
                continue
            cls = classify(g)
            expected = _complete_bipartite_sizes(g)
            assert cls.part_sizes == expected, g.edges
            assert ("CompleteBipartite" in cls.tags) == (expected is not None), g.edges
            checked += 1
    assert checked == 1 + 1 + 4 + 38 + 728  # connected labelled graphs, OEIS A001187


def test_classify_path_endpoints():
    cls = classify(path_graph(4))
    assert cls.primary == "Path"


def test_is_tree_false_on_non_trees():
    triangle_plus_isolated = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
    assert triangle_plus_isolated.num_edges == triangle_plus_isolated.num_vertices - 1
    assert not triangle_plus_isolated.is_tree()
    assert not triangle_plus_isolated.is_tree()  # cached answer agrees
    assert not cycle_graph(5).is_tree()
    assert path_graph(5).is_tree()


def test_cached_is_tree_keeps_equality_and_hash():
    g = path_graph(6)
    assert g.is_tree()
    fresh = Graph.from_edges(6, g.edges)
    assert g == fresh and fresh == g
    assert hash(g) == hash(fresh)
    assert {g: 1}[fresh] == 1


def test_tree_work_checks_connectivity_once_per_graph(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return is_connected(g)

    monkeypatch.setattr(graphs, "is_connected", counting)
    g = random_tree(12, 3)
    tree_count(g)
    all_root_counts(root_tree(g, 0))
    # the rooting BFS is the tree check: no separate connectivity pass
    assert calls == []


def _diameter(g):
    return max(eccentricities(root_tree(g, 0)))


def test_tree_diameter_values():
    assert len(longest_path(path_graph(6))) - 1 == _diameter(path_graph(6)) == 5
    assert len(longest_path(star_graph(7))) - 1 == _diameter(star_graph(7)) == 2
    double_star = Graph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    path = longest_path(double_star)
    assert _diameter(double_star) == 3
    assert len(path) == 4
    assert all(v in double_star.adjacency[u] for u, v in zip(path, path[1:]))


def test_tree_diameter_matches_eccentricities():
    for n in range(2, 8):
        for seed in range(5):
            g = random_tree(n, seed)
            by_ecc = max(max(bfs_distances(g, v)[0]) for v in range(n))
            assert len(longest_path(g)) - 1 == _diameter(g) == by_ecc


def test_tree_diameter_rejects_non_tree():
    with pytest.raises(NotATreeError):
        longest_path(cycle_graph(4))
    with pytest.raises(NotATreeError):
        root_tree(cycle_graph(4), 0)


def test_prufer_decode_examples():
    assert prufer_decode([], 2) == Graph(2, ((0, 1),))
    assert prufer_decode([0, 0], 4) == star_graph(4)
    assert prufer_decode([1], 3) == path_graph(3)


def test_prufer_decode_validation():
    with pytest.raises(ValueError):
        prufer_decode([0], 2)
    with pytest.raises(ValueError):
        prufer_decode([5], 3)


def test_prufer_roundtrip_exhaustive_small():
    for n in range(2, 7):
        for g in all_labeled_trees(n):
            assert prufer_decode(prufer_encode(g), n) == g


@given(st.integers(2, 40), st.integers(0, 2**64 - 1))
@settings(max_examples=60)
def test_prufer_roundtrip_random(n, seed):
    g = random_tree(n, seed)
    assert prufer_decode(prufer_encode(g), n) == g


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 3), (4, 16), (5, 125)])
def test_all_labeled_trees_counts(n, count):
    trees = list(all_labeled_trees(n))
    assert len(trees) == count
    assert len({t.edges for t in trees}) == count
    for t in trees:
        assert is_connected(t)
        assert t.num_edges == n - 1


def test_all_labeled_trees_guard():
    with pytest.raises(GuardExceeded):
        next(all_labeled_trees(10))


def test_random_tree_deterministic():
    assert random_tree(8, 7) == random_tree(8, 7)
    assert random_tree(1, 3).num_vertices == 1
    assert random_tree(2, 9) == Graph(2, ((0, 1),))


def test_edge_list_roundtrip():
    g = complete_bipartite_graph(2, 3)
    assert parse_edge_list(g.to_edge_list_text()) == g
