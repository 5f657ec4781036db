"""Degree and diameter bounds on tree shelling numbers, the extremal
mid-spider tree, and the two monotone tree transforms behind them.

The diameter bound is evaluated exactly as printed (`diameter_upper_bound_printed`)
and side by side with the exact count of the extremal mid-spider shape;
desk evaluation shows the printed formula sits a factor above the extremal
count, and both values are surfaced rather than silently reconciled.

``bound_report`` roots its tree once: that rooting is the tree check and
supplies every root's count, every root's height, and the exact count as
half their sum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .bigmath import Nat, Rat, binomial, exact_div, factorial
from .errors import NotATreeError
from .graphs import Graph
from .trees import RootedTree, all_root_counts, eccentricities, root_tree, tree_count


def degree_lower_bound(g: Graph) -> tuple[Nat, bool]:
    """prod over vertices of d(v)!, with an equality prediction.

    The bound is tight exactly on paths and stars, so the prediction is a
    shape check, not a numeric comparison: a tree is a path when no degree
    exceeds 2 and a star when one vertex is adjacent to all others.
    """
    n = g.num_vertices
    if not g.is_tree() or n < 2:
        raise NotATreeError("degree_lower_bound requires a tree on >= 2 vertices")
    degrees = [g.degree(v) for v in range(n)]
    max_degree = max(degrees)
    return math.prod(map(factorial, degrees)), (max_degree <= 2 or max_degree == n - 1)


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


def _diameter_rooting(g: Graph) -> RootedTree:
    """g rooted at its smallest vertex of maximum eccentricity.

    Every diameter path starts at a vertex of maximum eccentricity, so the
    lexicographically smallest one starts at the smallest such vertex and
    is that rooting's smallest deepest descending path.
    """
    rt = root_tree(g, 0)
    ecc = eccentricities(rt)
    u = ecc.index(max(ecc))
    return rt if u == 0 else root_tree(g, u)


def longest_path(g: Graph) -> list[int]:
    """Lexicographically smallest diameter-realizing vertex sequence."""
    return _descending_path(g, _diameter_rooting(g))


def push_branch_from_root(g: Graph, v: int) -> Graph | None:
    """Move the first off-path branch one step away from the root v.

    Along the deterministic deepest path v = p0 - p1 - ... - p_l, find the
    smallest i <= l-2 where p_i has a child v' off the path; v' becomes a
    leaf child of p_{i+1} and the former children of v' become children of
    p_{i+1}.  Returns None when no such i exists (fixpoint: every off-path
    vertex hangs on p_{l-1}).
    """
    rt = root_tree(g, v)
    path = _descending_path(g, rt)
    ell = len(path) - 1
    on_path = set(path)
    for i in range(ell - 1):
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
        edges.append((min(moved, p_next), max(moved, p_next)))
        edges.extend((min(c, p_next), max(c, p_next)) for c in grandchildren)
        return Graph.from_edges(g.num_vertices, edges)
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
    """
    n = g.num_vertices
    rt = _diameter_rooting(g)
    path = _descending_path(g, rt)
    ell = len(path) - 1
    if ell <= 1 or ell == n - 1:
        return None

    attach = _nearest_path_vertex(rt, path)
    normalized = [(i, j) for i, j in zip(path, path[1:])]
    normalized.extend((u, a) for u, a in attach.items())
    candidate = Graph.from_edges(n, normalized)
    if candidate != g:
        return candidate

    pendants_at: dict[int, list[int]] = {}
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
    src_v, dst_v = path[src], path[dst]
    moved = set(pendants_at[src])
    edges = [e for e in g.edges if not (set(e) & moved)]
    edges.extend((min(u, dst_v), max(u, dst_v)) for u in moved)
    return Graph.from_edges(n, edges)


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
    tree rooted at v.
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

    @property
    def printed_vs_extremal_gap(self) -> Rat:
        return Fraction(self.diameter_upper_printed, self.mid_spider_exact)


@functools.cache
def _diameter_bounds(n: int, diameter: int) -> tuple[Rat, Nat]:
    """(printed diameter bound, mid-spider count) for n vertices, diameter l."""
    spider_exact = tree_count(mid_spider(n, diameter)) if diameter >= 2 else 1
    return diameter_upper_bound_printed(n, diameter), spider_exact


def bound_report(g: Graph) -> BoundReport:
    """Every bound for the tree g, from one rooting of g at vertex 0."""
    n = g.num_vertices
    if n < 2:
        raise NotATreeError("bound_report requires a tree on >= 2 vertices")
    rt = root_tree(g, 0)
    roots = all_root_counts(rt)
    exact = exact_div(sum(roots), 2, "sum of rooted counts must be even")
    lower, predicted = degree_lower_bound(g)
    heights = eccentricities(rt)
    diameter = max(heights)
    printed, spider_exact = _diameter_bounds(n, diameter)
    coeffs = tuple(weight_bound_coefficients(n, heights))
    return BoundReport(exact, lower, predicted, diameter, printed, spider_exact, coeffs,
                       tuple(roots), tuple(heights))
