from fractions import Fraction

import pytest

from shellings import bounds
from shellings.bounds import (
    bound_report,
    degree_lower_bound,
    diameter_upper_bound_printed,
    double_broom,
    is_mid_spider_shape,
    longest_descending_path,
    longest_path,
    mid_spider,
    pull_branch_toward_middle,
    push_branch_from_root,
    weight_bound_coefficient,
)
from shellings.bigmath import binomial
from shellings.errors import ExactnessError, NotATreeError
from shellings.graphs import (
    Graph,
    all_labeled_trees,
    classify,
    cycle_graph,
    path_graph,
    prufer_encode,
    random_tree,
    star_graph,
)
from shellings.sweeps import sweep_bounds
from shellings.trees import (
    all_root_counts,
    eccentricities,
    root_tree,
    rooted_from_parents,
    tree_count,
)

from bfs_reference import bfs_distances


def reference_longest_path(g):
    """All-pairs BFS: the lexicographically smallest diameter path, by brute force."""
    n = g.num_vertices
    if n == 1:
        return [0]
    dists = []
    parents = []
    for v in range(n):
        d, p = bfs_distances(g, v)
        dists.append(d)
        parents.append(p)
    diameter = max(max(row) for row in dists)
    best = None
    for u in range(n):
        row = dists[u]
        for w in range(n):
            if row[w] != diameter:
                continue
            seq = [w]
            while seq[-1] != u:
                seq.append(parents[u][seq[-1]])
            seq.reverse()
            cand = tuple(seq)
            if best is None or cand < best:
                best = cand
    return list(best)


def reference_push(g, v):
    """``push_branch_from_root`` by edge-set surgery on g."""
    rt = root_tree(g, v)
    path = longest_descending_path(g, v)
    on_path = set(path)
    for i in range(len(path) - 2):
        p_i, p_next = path[i], path[i + 1]
        branch_children = [
            w for w in g.adjacency[p_i] if rt.parent[w] == p_i and w not in on_path
        ]
        if not branch_children:
            continue
        moved = min(branch_children)
        grandchildren = [w for w in g.adjacency[moved] if rt.parent[w] == moved]
        removed = {(min(moved, p_i), max(moved, p_i))}
        removed.update((min(moved, c), max(moved, c)) for c in grandchildren)
        edges = [e for e in g.edges if e not in removed]
        edges.append((moved, p_next))
        edges.extend((c, p_next) for c in grandchildren)
        return Graph.from_edges(g.num_vertices, edges)
    return None


def reference_pull(g):
    """``pull_branch_toward_middle`` by edge-set surgery on g."""
    n = g.num_vertices
    path = longest_path(g)
    ell = len(path) - 1
    if ell <= 1 or ell == n - 1:
        return None
    rt = root_tree(g, path[0])
    on_path = set(path)
    attach = {}  # off-path vertex -> the path vertex its branch hangs on
    for u in rt.order:
        if u not in on_path:
            p = rt.parent[u]
            attach[u] = p if p in on_path else attach[p]
    candidate = Graph.from_edges(n, list(zip(path, path[1:])) + list(attach.items()))
    if candidate != g:
        return candidate

    pendants_at = {}
    for u, a in attach.items():
        pendants_at.setdefault(path.index(a), []).append(u)
    mid = ell // 2
    branch_indices = sorted(pendants_at)
    if branch_indices and branch_indices[0] < mid:
        src = branch_indices[0]
        dst = src + 1
    elif branch_indices and branch_indices[-1] > mid:
        src = branch_indices[-1]
        dst = src - 1
    else:
        return None
    moved = set(pendants_at[src])
    edges = [e for e in g.edges if not (set(e) & moved)]
    edges.extend((u, path[dst]) for u in moved)
    return Graph.from_edges(n, edges)


def reference_weight_coefficient(g, v):
    """sum_{k<e} C(n-2, k), e the eccentricity of v by BFS."""
    e = max(bfs_distances(g, v)[0])
    return sum(binomial(g.num_vertices - 2, k) for k in range(e))


def _trees_for_rerooting():
    for n in range(1, 8):
        yield from all_labeled_trees(n)
    for n in range(8, 61, 4):
        for seed in range(3):
            yield random_tree(n, seed)


def test_degree_lower_bound_equality_cases():
    for n in (2, 4, 7):
        bound, predicted = degree_lower_bound(path_graph(n))
        assert bound == 2 ** (n - 2) == tree_count(path_graph(n))
        assert predicted
    bound, predicted = degree_lower_bound(star_graph(5))
    assert bound == 24 == tree_count(star_graph(5))
    assert predicted


def test_degree_lower_bound_double_broom_strict():
    g = double_broom(2, 3, 2)  # n = 6
    bound, predicted = degree_lower_bound(g)
    assert bound == 24
    assert tree_count(g) == 30
    assert not predicted


def test_degree_equality_prediction_matches_classify():
    for n in range(2, 8):
        for g in all_labeled_trees(n):
            tags = classify(g).tags
            assert degree_lower_bound(g)[1] == ("Path" in tags or "Star" in tags), g.edges


def test_degree_lower_bound_rejects_non_tree():
    with pytest.raises(NotATreeError):
        degree_lower_bound(cycle_graph(4))


# C_4 has one edge too many; the triangle plus an isolated vertex has n - 1
# edges but two components; the 0-vertex graph has no tree at all.
NON_TREES = [
    cycle_graph(4),
    Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)]),
    Graph.from_edges(0, []),
]
TREE_ONLY = [
    lambda g: root_tree(g, 0),
    lambda g: all_root_counts(root_tree(g, 0)),
    tree_count,
    lambda g: weight_bound_coefficient(g, 0),
    longest_path,
    lambda g: push_branch_from_root(g, 0),
    pull_branch_toward_middle,
    degree_lower_bound,
    bound_report,
    prufer_encode,
]


@pytest.mark.parametrize("g", NON_TREES, ids=["C4", "triangle_plus_isolated", "empty"])
@pytest.mark.parametrize("fn", TREE_ONLY, ids=[
    "root_tree", "all_root_counts", "tree_count", "weight_bound_coefficient", "longest_path",
    "push_branch_from_root", "pull_branch_toward_middle", "degree_lower_bound",
    "bound_report", "prufer_encode"])
def test_tree_functions_refuse_non_trees(fn, g):
    with pytest.raises(NotATreeError):
        fn(g)


@pytest.mark.parametrize("g", NON_TREES, ids=["C4", "triangle_plus_isolated", "empty"])
def test_mid_spider_shape_false_on_non_trees(g):
    assert is_mid_spider_shape(g) is False


@pytest.mark.parametrize(
    "n,ell,expected",
    [(3, 2, 4), (5, 4, 16), (4, 3, 8), (5, 3, 28), (2, 1, 2)],
)
def test_printed_diameter_bound_values(n, ell, expected):
    assert diameter_upper_bound_printed(n, ell) == expected


def test_printed_diameter_bound_range():
    with pytest.raises(ValueError):
        diameter_upper_bound_printed(4, 4)
    with pytest.raises(ValueError):
        diameter_upper_bound_printed(4, 0)


def test_mid_spider_shapes():
    spider = mid_spider(6, 2)  # a star centered on the path middle v_1
    assert spider.degree(1) == 5
    assert classify(spider).primary == "Star"
    assert mid_spider(5, 4) == path_graph(5)
    g = mid_spider(5, 3)
    assert g.degree(1) == 3  # leaf lands on v_1 = floor(3/2)
    assert is_mid_spider_shape(g)
    with pytest.raises(ValueError):
        mid_spider(5, 1)


def test_mid_spider_shape_detection():
    assert is_mid_spider_shape(path_graph(6))
    assert is_mid_spider_shape(star_graph(5))
    assert not is_mid_spider_shape(double_broom(2, 3, 2))
    assert not is_mid_spider_shape(cycle_graph(5))
    # leaves at v_1 of a length-4 path branch away from the middle
    assert not is_mid_spider_shape(Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)]))


def test_weight_bound_coefficient_anchors():
    star = star_graph(6)
    assert weight_bound_coefficient(star, 0) == 1
    # bound tight at the center
    assert tree_count(star) == all_root_counts(root_tree(star, 0))[0]
    n = 6
    path = path_graph(n)
    assert weight_bound_coefficient(path, 0) == 2 ** (n - 2)
    # tight at the end
    assert tree_count(path) == 2 ** (n - 2) * all_root_counts(root_tree(path, 0))[0]
    for v in range(n):
        assert weight_bound_coefficient(path, v) <= 2 ** (n - 2)
    for v in (-1, n):
        with pytest.raises(ValueError):
            weight_bound_coefficient(path, v)


def test_longest_path_deterministic_lex_smallest():
    assert longest_path(path_graph(4)) == [0, 1, 2, 3]
    relabeled = Graph.from_edges(4, [(3, 2), (2, 1), (1, 0)])
    assert longest_path(relabeled) == [0, 1, 2, 3]
    assert longest_descending_path(star_graph(4), 1) == [1, 0, 2]


def test_longest_path_matches_all_pairs_reference():
    for g in _trees_for_rerooting():
        assert longest_path(g) == reference_longest_path(g), g.edges


def test_weight_bound_coefficient_matches_bfs_eccentricity():
    for g in _trees_for_rerooting():
        for v in range(g.num_vertices):
            assert weight_bound_coefficient(g, v) == reference_weight_coefficient(g, v), (
                g.edges,
                v,
            )


def test_bound_report_weight_bounds_match_bfs_eccentricity():
    for g in _trees_for_rerooting():
        if g.num_vertices >= 2:
            expected = tuple(reference_weight_coefficient(g, v) for v in range(g.num_vertices))
            assert bound_report(g).per_root_weight_bounds == expected, g.edges


def test_eccentricities_from_any_rooting():
    for n in (1, 2, 9, 40):
        for seed in range(3):
            g = random_tree(n, seed)
            expected = [max(bfs_distances(g, v)[0]) for v in range(n)]
            for r in {0, n // 2, n - 1}:
                rt = root_tree(g, r)
                assert eccentricities(rt) == expected
                assert rt.height[r] == expected[r]


def test_transforms_match_edge_set_references():
    for n in range(1, 8):
        for g in all_labeled_trees(n):
            for v in range(n):
                assert push_branch_from_root(g, v) == reference_push(g, v), (g.edges, v)
            assert pull_branch_toward_middle(g) == reference_pull(g), g.edges


def test_rooted_from_parents_matches_root_tree():
    trees = [g for n in range(1, 7) for g in all_labeled_trees(n)]
    trees += [random_tree(200, seed) for seed in range(4)]
    for g in trees:
        for v in range(g.num_vertices):
            rt = root_tree(g, v)
            assert rooted_from_parents(rt.parent, rt.root) == rt, (g.edges, v)


def test_push_branch_examples():
    assert push_branch_from_root(star_graph(5), 0) is None
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    pushed = push_branch_from_root(g, 0)
    assert pushed == Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])


def test_push_moves_whole_subtree_up_one_level():
    # branch at v_1 carrying its own child: children of v' reattach to v_2
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6)])
    pushed = push_branch_from_root(g, 0)
    assert pushed == Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (2, 6)])


def test_push_fixpoint_collects_branches_at_second_to_last():
    g = Graph.from_edges(7, [(0, 1), (0, 2), (1, 3), (1, 4), (4, 5), (2, 6)])
    cur, steps = g, 0
    while True:
        nxt = push_branch_from_root(cur, 0)
        if nxt is None:
            break
        # sum_u W(u) = sum(roots) / roots[0]; compare by cross-multiplication
        cur_roots = all_root_counts(root_tree(cur, 0))
        nxt_roots = all_root_counts(root_tree(nxt, 0))
        assert sum(nxt_roots) * cur_roots[0] >= sum(cur_roots) * nxt_roots[0]
        cur, steps = nxt, steps + 1
        assert steps < 30
    path = longest_descending_path(cur, 0)
    off = [u for u in range(7) if u not in path]
    assert all(path[-2] in cur.adjacency[u] for u in off)


def test_pull_branch_examples():
    assert pull_branch_toward_middle(path_graph(5)) is None
    assert pull_branch_toward_middle(mid_spider(7, 4)) is None
    assert pull_branch_toward_middle(star_graph(6)) is None
    spider_off_center = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    pulled = pull_branch_toward_middle(spider_off_center)
    assert pulled == Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)])


def test_pull_normalizes_deep_branches_first():
    # hanging path 2-5-6 keeps the diameter at 4 and flattens onto v_2
    g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)])
    pulled = pull_branch_toward_middle(g)
    assert pulled == Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (2, 6)])
    assert tree_count(pulled) >= tree_count(g)
    assert pull_branch_toward_middle(pulled) is None


def test_pull_iterates_to_mid_spider():
    g = double_broom(3, 3, 4)
    counts = [tree_count(g)]
    cur, steps = g, 0
    while True:
        nxt = pull_branch_toward_middle(cur)
        if nxt is None:
            break
        counts.append(tree_count(nxt))
        cur, steps = nxt, steps + 1
        assert steps < 40
    assert is_mid_spider_shape(cur)
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_double_broom_family_counts():
    # middle length 2 instances of the (2,3) and (2,4) families
    g23 = double_broom(2, 3, 2)
    n = g23.num_vertices
    assert tree_count(g23) == 2 ** (n - 1) - 2
    g24 = double_broom(2, 4, 2)
    n = g24.num_vertices
    assert tree_count(g24) == 6 * (2 ** (n - 2) - n + 1)


def test_bound_report_fields():
    br = bound_report(path_graph(5))
    assert br.exact == 8
    assert br.degree_lower == 8 and br.degree_equality_predicted
    assert br.diameter == 4
    assert br.diameter_upper_printed == 16
    assert br.mid_spider_exact == 8
    assert br.printed_vs_extremal_gap == Fraction(2)
    assert br.per_root_weight_bounds == (8, 7, 4, 7, 8)
    assert br.root_counts == (1, 4, 6, 4, 1)
    assert br.heights == (4, 3, 2, 3, 4)
    single_edge = bound_report(path_graph(2))
    assert single_edge.mid_spider_exact == 1
    assert single_edge.diameter_upper_printed == 2


def test_bound_report_refuses_an_odd_root_sum(monkeypatch):
    # star_graph(4): the root counts 6, 2, 2, 2 sum to 12; one too many at
    # the root makes the sum 13
    real = bounds.all_root_counts
    monkeypatch.setattr(bounds, "all_root_counts",
                        lambda rt: [c + (v == rt.root) for v, c in enumerate(real(rt))])
    with pytest.raises(ExactnessError, match="even"):
        bound_report(star_graph(4))


def test_sweep_bounds_check_names_and_case_counts():
    gaps = (
        "n=2 l=1: 2, n=3 l=2: 2, n=4 l=2: 2, n=4 l=3: 2, n=5 l=2: 2, "
        "n=5 l=3: 2, n=5 l=4: 2, n=6 l=2: 2, n=6 l=3: 2, n=6 l=4: 2, n=6 l=5: 2"
    )
    outcomes = sweep_bounds(6)
    assert all(o.ok for o in outcomes)
    assert [(o.name, o.detail) for o in outcomes] == [
        ("degree_lower_bound_holds", "1441 cases"),
        ("degree_bound_equality_iff_path_or_star", "1441 cases"),
        ("weight_bound_holds_every_root", "8476 cases"),
        ("count_at_most_mid_spider_count", "1441 cases"),
        ("count_at_most_printed_diameter_bound", "1441 cases"),
        ("push_step_weight_sum_not_decreased", "6984 cases"),
        ("push_step_preserves_size_and_depth", "6984 cases"),
        ("pull_step_count_not_decreased", "500 cases"),
        ("transform_fixpoints_reached", "2141 cases"),
        ("printed_vs_extremal_regression_pins", "4 cases"),
        ("printed_vs_extremal_gap_observed", gaps),
        ("double_broom_family_closed_forms", "9 cases"),
    ]
