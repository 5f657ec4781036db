"""Degree and diameter bounds on tree shelling numbers, the extremal
mid-spider tree, and the two monotone tree transforms behind them.

The diameter bound is evaluated exactly as printed (`diameter_upper_bound_printed`)
and side by side with the exact count of the extremal mid-spider shape;
desk evaluation shows the printed formula sits a factor above the extremal
count, and both values are surfaced rather than silently reconciled.

``bound_report`` roots its tree once: that rooting is the tree check and
supplies every root's count, every root's height, and the exact count as
half their sum; the report keeps it.  The transforms' cores
(``push_branch_rooted``, ``pull_branch_rooted``) edit a rooting's parent
array and hand back the new tree's rooting, so a sweep roots a tree once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .bigmath import Nat, Rat, binomial, exact_div, factorial
from .errors import NotATreeError
from .graphs import Graph
from .trees import (RootedTree, all_root_counts, eccentricities, root_tree,
                    rooted_from_parents, tree_count)


def degree_lower_bound(g: Graph) -> tuple[Nat, bool]:
    """prod over vertices of d(v)!, with an equality prediction.

    The bound is tight exactly on paths and stars, so the prediction is a
    shape check, not a numeric comparison: a tree is a path when no degree
    exceeds 2 and a star when one vertex is adjacent to all others.
    """
    if not g.is_tree() or g.num_vertices < 2:
        raise NotATreeError("degree_lower_bound requires a tree on >= 2 vertices")
    return _degree_bound(g)


def _degree_bound(g: Graph) -> tuple[Nat, bool]:
    """``degree_lower_bound`` for a g already known to be a tree on >= 2 vertices."""
    degrees = [len(nbrs) for nbrs in g.adjacency]
    max_degree = max(degrees)
    return math.prod(map(factorial, degrees)), (max_degree <= 2 or max_degree == len(degrees) - 1)


def diameter_upper_bound_printed(n: int, length: int) -> Rat:
    """The printed diameter bound for an n-vertex tree of diameter ``length``.

    Even diameter l:
        2 (n-1-l/2)! / (l/2)! * [ C(n-2, l/2) + sum_{i<l/2} C(n-1, i) ]
    Odd diameter l:
        (n-(l+3)/2)! / ((l+1)/2)! * [ (n-1-l) C(n-2, (l-1)/2)
                                       + n * sum_{i<=(l-1)/2} C(n-1, i) ]
    """
    if not 1 <= length <= n - 1:
        raise ValueError(f"diameter {length} out of range 1..{n - 1}")
    if length % 2 == 0:
        half = length // 2
        bracket = binomial(n - 2, half) + sum(binomial(n - 1, i) for i in range(half))
        return Fraction(2 * factorial(n - 1 - half), factorial(half)) * bracket
    half = (length - 1) // 2
    bracket = (n - 1 - length) * binomial(n - 2, half) + n * sum(
        binomial(n - 1, i) for i in range(half + 1)
    )
    return Fraction(factorial(n - (length + 3) // 2), factorial(half + 1)) * bracket


def mid_spider(n: int, length: int) -> Graph:
    """Path v0..v_l plus n-1-l extra leaves on the middle vertex v_{l//2}."""
    if not 2 <= length <= n - 1:
        raise ValueError(f"mid_spider needs 2 <= length <= n - 1, got ({n}, {length})")
    edges = [(i, i + 1) for i in range(length)]
    center = length // 2
    edges.extend((center, u) for u in range(length + 1, n))
    return Graph.from_edges(n, edges)


def double_broom(d1: int, d2: int, middle: int) -> Graph:
    """Path v0..v_middle with d1-1 leaves on v0 and d2-1 leaves on v_middle."""
    if d1 < 2 or d2 < 2 or middle < 1:
        raise ValueError("double_broom needs d1, d2 >= 2 and middle >= 1")
    edges = [(i, i + 1) for i in range(middle)]
    nxt = middle + 1
    for _ in range(d1 - 1):
        edges.append((0, nxt))
        nxt += 1
    for _ in range(d2 - 1):
        edges.append((middle, nxt))
        nxt += 1
    return Graph.from_edges(nxt, edges)


def _descending_path(g: Graph, rt: RootedTree) -> list[int]:
    """Lexicographically smallest deepest root-to-leaf path of ``rt``."""
    u = rt.root
    path = [u]
    for remaining in range(rt.height[u] - 1, -1, -1):
        u = min(w for w in g.adjacency[u] if rt.parent[w] == u and rt.height[w] == remaining)
        path.append(u)
    return path


def longest_descending_path(g: Graph, v: int) -> list[int]:
    """Lexicographically smallest deepest root-to-leaf path from v."""
    return _descending_path(g, root_tree(g, v))


def weight_bound_coefficients(n: int, heights) -> list[Nat]:
    """sum_{k=0}^{l-1} C(n-2, k) for each height l in ``heights``."""
    prefix = [0]
    for k in range(max(heights, default=0)):
        prefix.append(prefix[-1] + binomial(n - 2, k))
    return [prefix[h] for h in heights]


def weight_bound_coefficient(g: Graph, v: int) -> Nat:
    """sum_{k=0}^{l-1} C(n-2, k), l the depth of the tree rooted at v."""
    heights = eccentricities(root_tree(g, 0))
    n = g.num_vertices
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range")
    return weight_bound_coefficients(n, [heights[v]])[0]


def _diameter_rooting(g: Graph, rt: RootedTree, ecc) -> RootedTree:
    """g rooted at its smallest vertex u of maximum eccentricity; ``rt`` if rooted at u.

    Every diameter path starts at a vertex of maximum eccentricity, so the
    lexicographically smallest one starts at the smallest such vertex and
    is that rooting's smallest deepest descending path.
    """
    u = ecc.index(max(ecc))
    return rt if u == rt.root else root_tree(g, u)


def longest_path(g: Graph) -> list[int]:
    """Lexicographically smallest diameter-realizing vertex sequence."""
    rt = root_tree(g, 0)
    return _descending_path(g, _diameter_rooting(g, rt, eccentricities(rt)))


def _as_graph(rt: RootedTree | None) -> Graph | None:
    """A transform core's result as a Graph; None stays None."""
    return None if rt is None else Graph.from_edges(
        len(rt.parent), [(u, rt.parent[u]) for u in rt.order[1:]])


def push_branch_from_root(g: Graph, v: int) -> Graph | None:
    """Move the first off-path branch one step away from the root v.

    Along the deterministic deepest path v = p0 - p1 - ... - p_l, find the
    smallest i <= l-2 where p_i has a child v' off the path; v' becomes a
    leaf child of p_{i+1} and the former children of v' become children of
    p_{i+1}.  Returns None when no such i exists (fixpoint: every off-path
    vertex hangs on p_{l-1}).  ``push_branch_rooted`` does the work on the
    rooting at v.
    """
    return _as_graph(push_branch_rooted(g, root_tree(g, v)))


def push_branch_rooted(g: Graph, rt: RootedTree) -> RootedTree | None:
    """``push_branch_from_root`` on g's rooting ``rt``: the new tree, rooted alike, or None."""
    path = _descending_path(g, rt)
    on_path = set(path)
    for p_i, p_next in zip(path, path[1:-1]):
        branch = [w for w in g.adjacency[p_i] if rt.parent[w] == p_i and w not in on_path]
        if branch:
            moved = branch[0]  # adjacency lists ascend
            pushed = [p_next if moved in (u, p) else p for u, p in enumerate(rt.parent)]
            return rooted_from_parents(pushed, rt.root)
    return None


def _nearest_path_vertex(rt: RootedTree, path: list[int]) -> dict[int, int]:
    """For each off-path vertex, the unique path vertex its branch hangs on.

    ``rt`` is rooted at ``path[0]``.
    """
    attach: dict[int, int] = {}
    on_path = set(path)
    for u in rt.order:
        if u in on_path:
            continue
        p = rt.parent[u]
        attach[u] = p if p in on_path else attach[p]
    return attach


def pull_branch_toward_middle(g: Graph) -> Graph | None:
    """One step toward the mid-spider: normalize, then shift pendants inward.

    First pass re-attaches every off-path subtree as pendant leaves on the
    nearest vertex of the deterministic longest path (a count-preserving
    edge correspondence maps shellings into the new tree).  After that, the
    smallest branching index i < l//2 shifts its pendants to p_{i+1},
    otherwise the largest branching index j > l//2 shifts its pendants to
    p_{j-1}.  Fixpoint: all pendants on p_{l//2}, the mid-spider shape.
    ``pull_branch_rooted`` does the work on the rooting at 0.
    """
    rt = root_tree(g, 0)
    return _as_graph(pull_branch_rooted(g, rt, eccentricities(rt)))


def pull_branch_rooted(g: Graph, rt: RootedTree, ecc) -> RootedTree | None:
    """``pull_branch_toward_middle`` from a rooting ``rt`` of g and g's
    eccentricities: the pulled tree rooted at p0, or None at the fixpoint."""
    rt = _diameter_rooting(g, rt, ecc)
    path = _descending_path(g, rt)
    ell = len(path) - 1
    if ell <= 1 or ell == g.num_vertices - 1:
        return None

    attach = _nearest_path_vertex(rt, path)
    if any(rt.parent[u] != a for u, a in attach.items()):
        return rooted_from_parents([attach.get(u, p) for u, p in enumerate(rt.parent)], rt.root)

    # normalized: each off-path vertex is a pendant; ell < n - 1, so one exists
    branch_indices = sorted(path.index(a) for a in attach.values())
    if branch_indices[0] < ell // 2:
        src, dst = path[branch_indices[0]], path[branch_indices[0] + 1]
    elif branch_indices[-1] > ell // 2:
        src, dst = path[branch_indices[-1]], path[branch_indices[-1] - 1]
    else:
        return None
    pulled = [dst if u in attach and p == src else p for u, p in enumerate(rt.parent)]
    return rooted_from_parents(pulled, rt.root)


def is_mid_spider_shape(g: Graph) -> bool:
    """True when g is a path plus leaves all hanging on a middle vertex."""
    if not g.is_tree() or g.num_vertices < 2:
        return False
    path = longest_path(g)
    ell = len(path) - 1
    on_path = set(path)
    off = [u for u in range(g.num_vertices) if u not in on_path]
    if not off:
        return True
    if any(g.degree(u) != 1 for u in off):
        return False
    centers = {g.adjacency[u][0] for u in off}
    if len(centers) != 1:
        return False
    center = next(iter(centers))
    return center in (path[ell // 2], path[(ell + 1) // 2])


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one tree, side by side with the exact count.

    ``root_counts[v]`` and ``heights[v]`` are the count and height of the
    tree rooted at v; ``rooting`` is the tree rooted at 0 they came from.
    """

    exact: Nat
    degree_lower: Nat
    degree_equality_predicted: bool
    diameter: int
    diameter_upper_printed: Rat
    mid_spider_exact: Nat
    per_root_weight_bounds: tuple[Nat, ...]
    root_counts: tuple[Nat, ...]
    heights: tuple[int, ...]
    rooting: RootedTree

    @property
    def printed_vs_extremal_gap(self) -> Rat:
        return Fraction(self.diameter_upper_printed, self.mid_spider_exact)


@functools.cache
def _diameter_bounds(n: int, diameter: int) -> tuple[Rat, Nat, tuple[Nat, ...]]:
    """(printed diameter bound, mid-spider count, weight-bound coefficient
    of each height 0..l) for n vertices, diameter l."""
    spider_exact = tree_count(mid_spider(n, diameter)) if diameter >= 2 else 1
    coeffs = tuple(weight_bound_coefficients(n, range(diameter + 1)))
    return diameter_upper_bound_printed(n, diameter), spider_exact, coeffs


def bound_report(g: Graph) -> BoundReport:
    """Every bound for the tree g, from one rooting of g at vertex 0."""
    n = g.num_vertices
    if n < 2:
        raise NotATreeError("bound_report requires a tree on >= 2 vertices")
    rt = root_tree(g, 0)
    roots = all_root_counts(rt)
    exact = exact_div(sum(roots), 2, "sum of rooted counts must be even")
    lower, predicted = _degree_bound(g)
    heights = eccentricities(rt)
    diameter = max(heights)
    printed, spider_exact, by_height = _diameter_bounds(n, diameter)
    coeffs = tuple(by_height[h] for h in heights)
    return BoundReport(exact, lower, predicted, diameter, printed, spider_exact, coeffs,
                       tuple(roots), tuple(heights), rt)
