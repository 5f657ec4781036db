"""Exact shelling counts for trees.

Rooting a tree at v turns counting into a hook product: the number of
shellings whose first edge touches v is n! divided by the product of all
subtree sizes.  Adjacent roots differ by the simple ratio
F(T_v)/F(T_u) = |T_u(v)| / (n - |T_u(v)|), so one hook evaluation plus a
breadth-first propagation yields every root's count, and half their sum
is the total (each shelling's first edge has two endpoints).
"""

from __future__ import annotations

from dataclasses import dataclass
from .bigmath import Nat, factorial
from .errors import ExactnessError, NotATreeError
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
    if not g.is_tree():
        raise NotATreeError("root_tree requires a tree")
    n = g.num_vertices
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
    size = [1] * n
    height = [0] * n
    for u in reversed(order[1:]):
        p = parent[u]
        size[p] += size[u]
        if height[u] >= height[p]:
            height[p] = height[u] + 1
    return RootedTree(v, tuple(parent), tuple(size), tuple(order), tuple(height))


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
    denom = 1
    for s in rt.subtree_size:
        denom *= s
    q, r = divmod(factorial(n), denom)
    if r:
        raise ExactnessError("hook product must divide n!")
    return q


def all_root_counts(g: Graph, seed_root: int = 0) -> list[Nat]:
    """F(T_v) for every vertex v, by one hook count plus ratio propagation.

    Each propagation step multiplies by the child subtree size and divides
    by its complement; every intermediate value is an integer and the
    division is checked to be exact.
    """
    if not g.is_tree():
        raise NotATreeError("all_root_counts requires a tree")
    n = g.num_vertices
    rt = root_tree(g, seed_root)
    counts: list[Nat] = [0] * n
    counts[seed_root] = hook_count(rt)
    size = rt.subtree_size
    for u in rt.order[1:]:
        w = rt.parent[u]
        q, r = divmod(counts[w] * size[u], n - size[u])
        if r:
            raise ExactnessError("root-ratio propagation must stay integral")
        counts[u] = q
    return counts


def tree_count(g: Graph) -> Nat:
    """F(T) = half the sum of all rooted counts; the sum is even.

    The single-vertex tree has one (empty) shelling and no first edge to
    halve over, so it is its own base case.
    """
    if not g.is_tree():
        raise NotATreeError("tree_count requires a tree")
    if g.num_vertices <= 1:
        return 1
    total = sum(all_root_counts(g))
    q, r = divmod(total, 2)
    if r:
        raise ExactnessError("sum of rooted counts must be even")
    return q
