"""Brute-force shelling counters over edge subsets.

A shelling is an ordering of all edges in which every prefix forms a
connected subgraph.  One dynamic program, seeded by a set of edges,
counts for each edge subset S the orderings of S whose prefixes are all
connected and whose first edge is a seed: S's count is the sum of the
counts of S minus b over the edges b of S that touch S minus b.
Subsets are visited in plain integer order, since S minus one bit is
always smaller than S.  A count is nonzero exactly when S is connected
and contains a seed edge, so no separate connectivity table is kept.
Seeding every edge gives the shelling count; seeding the edges at v
gives the shellings whose first edge touches v.

These counters are the oracle every closed-form result is tested against,
so they stay deliberately direct.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GuardExceeded
from .graphs import Graph, is_connected

DEFAULT_MAX_DP_EDGES = 20
MAX_ENUM_EDGES = 8


@dataclass
class SubsetTable:
    """Per-subset ordering counts for one graph, every edge a seed."""

    edge_count: int
    counts: list[int]
    adj_masks: tuple[int, ...]

    @property
    def connected(self) -> bytes:
        """1 for each nonempty connected subset, 0 otherwise."""
        return b"\0" + bytes(map(bool, self.counts[1:]))


def _edge_adjacency_masks(g: Graph) -> tuple[int, ...]:
    m = g.num_edges
    masks = [0] * m
    for i, (u1, v1) in enumerate(g.edges):
        for j in range(i + 1, m):
            u2, v2 = g.edges[j]
            if u1 in (u2, v2) or v1 in (u2, v2):
                masks[i] |= 1 << j
                masks[j] |= 1 << i
    return tuple(masks)


def _guarded_adjacency_masks(g: Graph, max_edges: int) -> tuple[int, ...]:
    if g.num_edges > max_edges:
        raise GuardExceeded(f"{g.num_edges} edges exceeds DP guard {max_edges}")
    return _edge_adjacency_masks(g)


def _edges_at(g: Graph, v: int) -> int:
    return sum(1 << e for e, edge in enumerate(g.edges) if v in edge)


def _shelling_counts(adj_masks: tuple[int, ...], seed_mask: int) -> list[int]:
    """counts[s]: orderings of edge subset s with every prefix connected
    and the first edge in seed_mask; counts[0] is 1."""
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


def build_subset_table(g: Graph, max_edges: int = DEFAULT_MAX_DP_EDGES) -> SubsetTable:
    adj_masks = _guarded_adjacency_masks(g, max_edges)
    m = g.num_edges
    return SubsetTable(m, _shelling_counts(adj_masks, (1 << m) - 1), adj_masks)


def rooted_counts_from_table(table: SubsetTable, g: Graph, v: int) -> int:
    """Orderings whose first edge is incident to v, reusing the edge adjacency."""
    return _shelling_counts(table.adj_masks, _edges_at(g, v))[-1]


def count_shellings_dp(g: Graph, max_edges: int = DEFAULT_MAX_DP_EDGES) -> int:
    """Exact shelling count F(g); 0 if g is disconnected."""
    if not is_connected(g):
        return 0
    if g.num_edges == 0:
        return 1
    table = build_subset_table(g, max_edges)
    return table.counts[(1 << g.num_edges) - 1]


def count_rooted_shellings_dp(g: Graph, v: int, max_edges: int = DEFAULT_MAX_DP_EDGES) -> int:
    """Shellings whose first edge touches v; 0 if g is disconnected."""
    if not 0 <= v < g.num_vertices:
        raise ValueError(f"vertex {v} out of range")
    if not is_connected(g):
        return 0
    if g.num_edges == 0:
        return 1
    return _shelling_counts(_guarded_adjacency_masks(g, max_edges), _edges_at(g, v))[-1]


def enumerate_shellings(g: Graph, limit: int | None = None) -> list[tuple[int, ...]]:
    """All shellings as tuples of canonical edge indices, backtracking.

    Truncates at ``limit`` orderings when given.  Guarded to 8 edges.
    """
    m = g.num_edges
    if m > MAX_ENUM_EDGES:
        raise GuardExceeded(f"{m} edges exceeds enumeration guard {MAX_ENUM_EDGES}")
    if not is_connected(g):
        return []
    if m == 0:
        return [()]
    adj_masks = _edge_adjacency_masks(g)
    out: list[tuple[int, ...]] = []
    order: list[int] = []

    def extend(used: int) -> bool:
        if limit is not None and len(out) >= limit:
            return False
        if len(order) == m:
            out.append(tuple(order))
            return limit is None or len(out) < limit
        for e in range(m):
            bit = 1 << e
            if used & bit:
                continue
            if used and not (adj_masks[e] & used):
                continue
            order.append(e)
            keep_going = extend(used | bit)
            order.pop()
            if not keep_going:
                return False
        return True

    extend(0)
    return out
