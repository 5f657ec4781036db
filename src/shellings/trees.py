"""Exact shelling counts for trees.

Rooting a tree at v turns counting into a hook product: the number of
shellings whose first edge touches v is n! divided by the product of all
subtree sizes.  Adjacent roots differ by the simple ratio
F(T_v)/F(T_u) = |T_u(v)| / (n - |T_u(v)|), so one hook evaluation plus a
breadth-first propagation along the same rooting yields every root's
count (``all_root_counts``).  The total is half the sum over roots (each
shelling's first edge has two endpoints).  ``tree_count`` gets that sum
without building any root's count: it sums the ratio products bottom-up
as one fraction, merging children pairwise and composing each heavy
path's affine steps by binary splitting, and finishes with one exact
division.

``root_tree`` is also the tree check.  Its BFS refuses, with
NotATreeError, any graph that is not a tree.  ``hook_count``,
``all_root_counts`` and ``eccentricities`` take a ``RootedTree``, so a
caller roots once and reads subtree sizes, heights, every root's count
and every root's height from that one rooting.  ``rooted_from_parents``
builds the same rooting from a parent array alone, for a tree that a
transform made from another tree's rooting; it builds no ``Graph``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .bigmath import Nat, exact_div, factorial
from .errors import NotATreeError
from .graphs import Graph


@dataclass(frozen=True)
class RootedTree:
    """Parent, subtree-size and height arrays for a tree rooted at ``root``.

    ``height[u]`` is the number of edges on the longest downward path
    from u.  ``order`` is the BFS traversal from the root with neighbor
    lists sorted ascending, so the arrays are reproducible.
    """

    root: int
    parent: tuple[int, ...]
    subtree_size: tuple[int, ...]
    order: tuple[int, ...]
    height: tuple[int, ...]


def root_tree(g: Graph, v: int) -> RootedTree:
    """Root g at v, or raise NotATreeError when g is not a tree: a graph
    with n - 1 edges is a tree exactly when the BFS from v reaches all n
    vertices."""
    n = g.num_vertices
    if g.num_edges != n - 1:
        raise NotATreeError(f"root_tree requires a tree; {g.num_edges} edges on {n} vertices")
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range")
    parent = [-1] * n
    parent[v] = v
    order = [v]
    for u in order:
        for w in g.adjacency[u]:
            if parent[w] == -1 and w != v:
                parent[w] = u
                order.append(w)
    if len(order) < n:
        raise NotATreeError("root_tree requires a tree; the graph is disconnected")
    return _sized(v, parent, order)


def rooted_from_parents(parent, root: int) -> RootedTree:
    """The rooting with parent array ``parent``; children ascend, so
    ``order`` is the BFS order ``root_tree`` gives for that tree and root."""
    children: list[list[int]] = [[] for _ in parent]
    for u, p in enumerate(parent):
        if u != root:
            children[p].append(u)
    order = [root]
    for u in order:
        order.extend(children[u])
    return _sized(root, parent, order)


def _sized(root: int, parent, order: list[int]) -> RootedTree:
    """Subtree sizes and heights, bottom-up along ``order``."""
    n = len(parent)
    size = [1] * n
    height = [0] * n
    for u in reversed(order[1:]):
        p = parent[u]
        size[p] += size[u]
        if height[u] >= height[p]:
            height[p] = height[u] + 1
    return RootedTree(root, tuple(parent), tuple(size), tuple(order), tuple(height))


def eccentricities(rt: RootedTree) -> list[int]:
    """The tree's height at every root (each vertex's eccentricity).

    One top-down pass over ``rt`` reroots it: the longest path from u
    either descends (``rt.height[u]``) or first climbs to its parent p and
    then goes up again or down into a sibling subtree of u.
    """
    height, parent = rt.height, rt.parent
    n = len(height)
    # the two largest values of height[c] + 1 over the children c of each vertex
    best = [0] * n
    second = [0] * n
    for u in rt.order[1:]:
        p, h = parent[u], height[u] + 1
        if h > best[p]:
            best[p], second[p] = h, best[p]
        elif h > second[p]:
            second[p] = h
    up = [0] * n
    for u in rt.order[1:]:
        p = parent[u]
        sibling = second[p] if height[u] + 1 == best[p] else best[p]
        up[u] = 1 + max(up[p], sibling)
    return [max(height[u], up[u]) for u in range(n)]


def hook_count(rt: RootedTree) -> Nat:
    """F(T_v) = n! / prod of subtree sizes; the division is exact."""
    n = len(rt.subtree_size)
    return exact_div(factorial(n), _product(rt.subtree_size), "hook product must divide n!")


def all_root_counts(rt: RootedTree) -> list[Nat]:
    """F(T_v) for every vertex v, by one hook count at ``rt.root`` plus
    ratio propagation along ``rt``.

    Each propagation step multiplies by the child subtree size and divides
    by its complement; every intermediate value is an integer and the
    division is checked to be exact.
    """
    size = rt.subtree_size
    n = len(size)
    counts: list[Nat] = [0] * n
    counts[rt.root] = hook_count(rt)
    for u in rt.order[1:]:
        counts[u] = exact_div(counts[rt.parent[u]] * size[u], n - size[u],
                              "root-ratio propagation must stay integral")
    return counts


def _pairwise(items: list, combine):
    """Fold ``items`` in order by merging neighbours level by level.

    Merging equal-length operands keeps big-integer products balanced, so
    the cost follows multiplication of the final sizes (binary splitting).
    """
    while len(items) > 1:
        merged = [combine(x, y) for x, y in zip(items[::2], items[1::2])]
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


def _product(factors: tuple[int, ...]) -> int:
    """The product of small factors such as subtree sizes: math.prod over
    runs of 32, which is cheap while a run's product is short, then the
    runs' products pairwise."""
    if len(factors) <= 32:
        return math.prod(factors)
    runs = [math.prod(factors[i:i + 32]) for i in range(0, len(factors), 32)]
    return _pairwise(runs, operator.mul)


def _add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """p/q + p'/q', unreduced."""
    return x[0] * y[1] + y[0] * x[1], x[1] * y[1]


def _compose(f: tuple[int, int, int], g: tuple[int, int, int]) -> tuple[int, int, int]:
    """f after g, for maps (a, b, c): (p, q) -> (a p + b q, c q)."""
    return f[0] * g[0], f[0] * g[1] + f[1] * g[2], f[2] * g[2]


def tree_count(g: Graph) -> Nat:
    """F(T) = half the sum of all rooted counts; the sum is even.

    Rooted at 0, sum_v F(T_v) = F(T_0) * S(0), where S(u) sums the
    root-ratio products over u's subtree:
    S(u) = 1 + sum over children c of s_c / (n - s_c) * S(c).
    S is kept as an unreduced fraction p/q.  With h the heavy (largest)
    child of u, the light children's terms and the 1 are added pairwise
    into a/b; then S(u) = a/b + s_h / (n - s_h) * S(h) is an affine map of
    (p, q), and each heavy path's maps are composed pairwise, so no
    per-root count is ever built.  The single-vertex tree has one (empty)
    shelling and no first edge to halve over, so it is its own base case.
    """
    rt = root_tree(g, 0)
    n = g.num_vertices
    if n == 1:
        return 1
    size, parent = rt.subtree_size, rt.parent
    heavy = [-1] * n
    for u in rt.order[1:]:
        p = parent[u]
        if heavy[p] < 0 or size[u] > size[heavy[p]]:
            heavy[p] = u
    # terms s_c p_c / ((n - s_c) q_c) of finished light children, by parent
    light: dict[int, list[tuple[int, int]]] = {}
    for head in reversed(rt.order):
        if head != 0 and heavy[parent[head]] == head:
            continue
        # S(u) = a/b + s/(n - s) * S(h) along the heavy path from head
        maps = []
        u = head
        while heavy[u] >= 0:
            terms = light.pop(u, None)
            a, b = _pairwise([(1, 1)] + terms, _add) if terms else (1, 1)
            s = size[heavy[u]]
            maps.append((b * s, a * (n - s), b * (n - s)))
            u = heavy[u]
        p = q = 1  # the path ends at a leaf, where S = 1
        if maps:
            a, b, c = _pairwise(maps, _compose)
            p, q = a + b, c
        if head != 0:
            s = size[head]
            light.setdefault(parent[head], []).append((s * p, (n - s) * q))
    # sum_v F(T_v) = n! / prod(sizes) * p / q
    root_sum = exact_div(factorial(n) * p, _product(size) * q,
                         "sum of rooted counts must be an integer")
    return exact_div(root_sum, 2, "sum of rooted counts must be even")
