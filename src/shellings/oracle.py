"""Brute-force shelling counters over edge subsets.

A shelling is an ordering of all edges in which every prefix forms a
connected subgraph.  One dynamic program, seeded by a set of edges,
counts for each edge subset S the orderings of S whose prefixes are all
connected and whose first edge is a seed: S's count is the sum of the
counts of S minus b over the edges b of S that touch S minus b.  A count
is nonzero exactly when S is connected and contains a seed edge.
Seeding every edge gives the shelling count; seeding the edges at v
gives the shellings whose first edge touches v.

Two strategies compute the same counts:

* ``connected``: a dict keyed by edge mask that holds only the subsets
  with nonzero counts, grown one layer (one edge) at a time by adding
  the edges that touch each subset.  Its cost follows the number of
  connected subsets, which is tiny for paths, cycles and most trees.
* ``table``: a list over all 2^m subsets, visited in plain integer
  order, since S minus one bit is always smaller than S.  On dense
  graphs, where most subsets are connected, it is about twice as fast.

Graphs of at most TABLE_ONLY_EDGES edges go straight to the table: it
takes milliseconds there, and its cost follows m alone, not the graph's
shape.  On larger graphs the DP picks by observing the layered pass: it
starts there and falls back to the table once the pass has kept more
than 1/LAYERED_SHARE of the 2^m subsets (or of MAX_DP_ENTRIES, when
smaller).  The table is only built when 2^m <= MAX_DP_ENTRIES; past
that the DP raises GuardExceeded before allocating.

These counters are the oracle every closed-form result is tested against,
so they stay deliberately direct.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GuardExceeded
from .graphs import Graph, is_connected

DEFAULT_MAX_DP_EDGES = 20
MAX_ENUM_EDGES = 8
# Largest table the DP allocates, in entries: a full table at 22 edges.
MAX_DP_ENTRIES = 1 << 22
# The layered pass gives up once it keeps more than 1/LAYERED_SHARE of the
# table: past that the work it throws away on dense graphs outgrows what it
# saves on sparse ones (measured on the benchmark's dp-sparse and dp-dense).
LAYERED_SHARE = 16
# Graphs of at most this many edges skip the layered pass: a 2^15-entry
# table takes at most about 30 ms, whatever the graph, while the layered
# pass's time follows the count of connected subsets, and a graph that
# passes the share cap pays for an abandoned pass on top of the table.
TABLE_ONLY_EDGES = 15


@dataclass
class SubsetTable:
    """Per-subset ordering counts for one graph, every edge a seed.

    ``counts`` is a list over all 2^m subsets (strategy ``table``) or a
    dict holding the empty set and the connected subsets (``connected``).
    """

    edge_count: int
    counts: list[int] | dict[int, int]
    adj_masks: tuple[int, ...]
    strategy: str

    @property
    def connected(self) -> bytes:
        """2^m bytes: 1 for each nonempty connected subset, 0 otherwise.

        Raises GuardExceeded when 2^m > MAX_DP_ENTRIES."""
        if 1 << self.edge_count > MAX_DP_ENTRIES:
            raise GuardExceeded(
                f"{self.edge_count} edges: 2^{self.edge_count} connectivity flags "
                f"exceed the DP budget of {MAX_DP_ENTRIES}")
        if self.strategy == "table":
            return b"\0" + bytes(map(bool, self.counts[1:]))
        flags = bytearray(1 << self.edge_count)
        for s in self.counts:
            flags[s] = 1
        flags[0] = 0
        return bytes(flags)

    @property
    def total(self) -> int:
        """Orderings of the whole edge set."""
        return _full_count(self.counts, self.edge_count)


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


def _connected_counts(adj_masks: tuple[int, ...], seed_mask: int,
                      cap: int) -> dict[int, int] | None:
    """The nonzero counts of _shelling_counts, and counts[0], as a dict;
    None as soon as it would hold more than ``cap`` entries."""
    touches = {1 << e: adj for e, adj in enumerate(adj_masks)}
    counts = {0: 1}
    layer = {}  # newest layer: subset -> the edges in it or touching it
    for b, adj in touches.items():
        if seed_mask & b:
            counts[b] = 1
            layer[b] = adj | b
    for _ in range(len(adj_masks) - 1):
        grown = {}
        for s, reach in layer.items():
            c = counts[s]
            rest = reach ^ s
            while rest:
                b = rest & -rest
                rest ^= b
                t = s | b
                if t in grown:
                    counts[t] += c
                else:
                    if len(counts) >= cap:
                        return None
                    counts[t] = c
                    grown[t] = reach | touches[b]
        layer = grown
    return counts


def _subset_counts(adj_masks: tuple[int, ...],
                   seed_mask: int) -> tuple[list[int] | dict[int, int], str]:
    """Counts and the strategy that produced them (see the module docstring)."""
    m = len(adj_masks)
    if m > TABLE_ONLY_EDGES or 1 << m > MAX_DP_ENTRIES:
        cap = min(1 << m, MAX_DP_ENTRIES) // LAYERED_SHARE
        counts = _connected_counts(adj_masks, seed_mask, cap)
        if counts is not None:
            return counts, "connected"
    if 1 << m > MAX_DP_ENTRIES:
        raise GuardExceeded(
            f"{m} edges: more than {MAX_DP_ENTRIES // LAYERED_SHARE} connected "
            f"subsets and a 2^{m}-entry table exceeds the DP budget of {MAX_DP_ENTRIES}")
    return _shelling_counts(adj_masks, seed_mask), "table"


def _full_count(counts: list[int] | dict[int, int], m: int) -> int:
    return counts.get((1 << m) - 1, 0) if isinstance(counts, dict) else counts[-1]


def build_subset_table(g: Graph, max_edges: int = DEFAULT_MAX_DP_EDGES) -> SubsetTable:
    adj_masks = _guarded_adjacency_masks(g, max_edges)
    counts, strategy = _subset_counts(adj_masks, (1 << g.num_edges) - 1)
    return SubsetTable(g.num_edges, counts, adj_masks, strategy)


def rooted_counts_from_table(table: SubsetTable, g: Graph, v: int) -> int:
    """Orderings whose first edge is incident to v, reusing the edge adjacency."""
    counts, _ = _subset_counts(table.adj_masks, _edges_at(g, v))
    return _full_count(counts, table.edge_count)


def count_shellings_dp(g: Graph, max_edges: int = DEFAULT_MAX_DP_EDGES,
                       stats: dict | None = None) -> int:
    """Exact shelling count F(g); 0 if g is disconnected.

    When ``stats`` is given and the DP runs, ``stats["strategy"]`` is set
    to the strategy that produced the count.
    """
    if not is_connected(g):
        return 0
    table = build_subset_table(g, max_edges)
    if stats is not None:
        stats["strategy"] = table.strategy
    return table.total


def count_rooted_shellings_dp(g: Graph, v: int, max_edges: int = DEFAULT_MAX_DP_EDGES) -> int:
    """Shellings whose first edge touches v; 0 if g is disconnected."""
    if not 0 <= v < g.num_vertices:
        raise ValueError(f"vertex {v} out of range")
    if not is_connected(g):
        return 0
    counts, _ = _subset_counts(_guarded_adjacency_masks(g, max_edges), _edges_at(g, v))
    return _full_count(counts, g.num_edges)


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
