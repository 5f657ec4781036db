"""Brute-force shelling counters: one layered DP and an enumerator.

A shelling is an ordering of all edges in which every prefix forms a
connected subgraph.  Fix the order x_1, x_2, ... in which a shelling
first covers the vertices, and let b_i count the edges from x_i back to
earlier vertices.  An edge order has this vertex order exactly when, for
each i >= 2, an edge of block i comes first among blocks i, i+1, ...:
the vertex-order form of the paper's sum over 0/1 sequences of
prod b_i / prod (suffix sums of b), which holds for every graph.  So a
DP state is the covered vertex set W alone, with one kind of step:

* join a vertex x outside W with j = |N(x) & W| neighbours in W:
  W -> W + x.  Of the left = m - inner(W) edges outside W, one of x's j
  edges comes first and its other j - 1 fall anywhere among the rest,
  so the join has weight j (left-1)! / (left-j)!.

Each seed edge {u, v} starts the state {u, v}, and the weighted count at
V(E) is the answer.  Seeding every edge gives the shelling count;
seeding the edges at v gives the shellings whose first edge touches v.

Twins, two vertices with the same neighbours apart from each other (the
leaves of one vertex, a side of K_{m,n}, all of K_n), are
interchangeable: swapping them maps prefixes to prefixes.  So the DP
keeps only how many of each twin class W holds.  It numbers each class
as a run of vertices, keeps W to a prefix of every run, and counts a
join of the run's next vertex once for each of the run's vertices still
outside W.  Each seed edge adds one to the count of its state, so
seeding the edges at one vertex needs no symmetry of the counts.  Layer
|W| is one dict from W to a single int that packs the count with
inner(W) and W's frontier (the vertices outside W adjacent to it).
K_{4,5} takes 20 states, K_{12,12} 144, the star K_{1,20} 20, and a
40-edge cycle, which has no twins, 1,521.

MAX_DP_ENTRIES is the DP's one guard, for every caller.  A vertex set is
an n-bit int, so each state created is charged n // 64 + 1 entries, and a
run that would create more entries than the budget raises GuardExceeded.
Each of the n' - 1 layers of a connected graph with n' non-isolated
vertices holds at least one state, so when n' - 1 states alone pass the
budget the DP is refused before any mask is built.
``count`` reports the DP's time under the timing key ``dp``.

These counters are the oracle every closed-form result is tested against,
so they stay deliberately direct.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bigmath import rising
from .errors import GuardExceeded
from .graphs import Graph, is_connected

MAX_ENUM_EDGES = 8
# Most entries one run of the DP may create: n // 64 + 1 per covered vertex
# set W, counting twins as one.
MAX_DP_ENTRIES = 1 << 19


@dataclass(frozen=True)
class SubsetTable:
    """The DP's result for one graph with every edge a seed."""

    edge_count: int
    total: int
    states: int


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


def _twin_runs(nbr: list[int]) -> list[list[int]]:
    """The vertices with neighbours, split into twin classes.

    x and y are twins when they have the same neighbours apart from each
    other: N(x) = N(y) (never adjacent) or N(x) + x = N(y) + y (adjacent).
    No vertex has twins of both kinds.  ``nbr`` holds each vertex's
    neighbours as a bit mask."""
    by_open: dict[int, list[int]] = {}
    for v, s in enumerate(nbr):
        if s:
            by_open.setdefault(s, []).append(v)
    runs = []
    by_closed: dict[int, list[int]] = {}
    for s, members in by_open.items():
        if len(members) > 1:
            runs.append(members)
        else:
            by_closed.setdefault(s | 1 << members[0], []).append(members[0])
    return runs + list(by_closed.values())


def _over_budget(g: Graph, cap: int) -> GuardExceeded:
    return GuardExceeded(f"{g.num_edges} edges on {g.num_vertices} vertices: more than {cap} "
                         f"DP states of {g.num_vertices // 64 + 1} entries, past the DP "
                         f"budget of {MAX_DP_ENTRIES} entries")


def _shelling_dp(g: Graph, root: int | None = None) -> tuple[int, int]:
    """Orderings of all edges with every prefix connected and the first
    edge at ``root`` (anywhere when None), and the W states created."""
    m = g.num_edges
    if m == 0:
        return 1, 0
    cap = MAX_DP_ENTRIES // (g.num_vertices // 64 + 1)  # the most states allowed
    if len(set().union(*g.edges)) - 1 > cap:
        raise _over_budget(g, cap)
    nbr = [0] * g.num_vertices
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    # number the vertices so each twin class is a run of positions; per
    # position, the start of its run and how many of the run it leaves
    runs = _twin_runs(nbr)
    pos = [0] * g.num_vertices
    for i, v in enumerate([v for run in runs for v in run]):
        pos[v] = i
    start, rest = [], []
    heads = 0
    for run in runs:
        heads |= 1 << len(start)
        start += [len(start)] * len(run)
        rest += range(len(run), 0, -1)
    n = len(start)
    nbr = [0] * n
    for u, v in g.edges:
        nbr[pos[u]] |= 1 << pos[v]
        nbr[pos[v]] |= 1 << pos[u]
    # one int per state: count << shift | inner(W) << n | frontier(W)
    vmask = (1 << n) - 1
    shift = n + m.bit_length()
    low = (1 << shift) - 1
    layer = {}
    for u, v in g.edges:
        if root is None or root in (u, v):
            # the seed's state, covering the first members of its runs
            a, b = start[pos[u]], start[pos[v]]
            b += a == b
            w = 1 << a | 1 << b
            layer[w] = layer.get(w, 1 << n | (nbr[a] | nbr[b]) & ~w) + (1 << shift)
    created = len(layer)
    weights = {}  # j (left-1)! / (left-j)! by (left, j), for j >= 2 as met
    for _ in range(2, n):
        grown = {}
        room = cap - created
        for w, p in layer.items():
            ways = p - (p & low)  # the count, still shifted
            inner = (p & low) >> n
            # only the next member of a run joins, for each of the rest of it
            joins = p & vmask & (heads | w << 1)
            while joins:
                xb = joins & -joins
                joins ^= xb
                x = xb.bit_length() - 1
                nx = nbr[x]
                j = (nx & w).bit_count()
                add = ways * rest[x]
                if j > 1:
                    left = m - inner
                    weight = weights.get((left, j))
                    if weight is None:
                        weight = weights[left, j] = j * rising(left - j + 1, j - 1)
                    add *= weight
                w2 = w | xb
                q = grown.get(w2)
                if q is None:
                    grown[w2] = add | (inner + j) << n | (p | nx) & vmask & ~w2
                else:
                    grown[w2] = q + add
            if len(grown) > room:
                raise _over_budget(g, cap)
        created += len(grown)
        layer = grown
    return layer.get(vmask, 0) >> shift, created


def build_subset_table(g: Graph) -> SubsetTable:
    """Run the DP with every edge a seed."""
    total, states = _shelling_dp(g)
    return SubsetTable(g.num_edges, total, states)


def rooted_counts_from_table(table: SubsetTable, g: Graph, v: int) -> int:
    """Orderings whose first edge is incident to v: the DP rerun, seeded at v."""
    if not 0 <= v < g.num_vertices:
        raise ValueError(f"vertex {v} out of range")
    return _shelling_dp(g, v)[0]


def count_shellings_dp(g: Graph) -> int:
    """Exact shelling count F(g); 0 if g is disconnected."""
    if not is_connected(g):
        return 0
    return build_subset_table(g).total


def enumerate_shellings(g: Graph) -> list[tuple[int, ...]]:
    """All shellings as tuples of canonical edge indices, backtracking; up to 8 edges."""
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

    def extend(used: int) -> None:
        if len(order) == m:
            out.append(tuple(order))
            return
        for e in range(m):
            bit = 1 << e
            if used & bit:
                continue
            if used and not (adj_masks[e] & used):
                continue
            order.append(e)
            extend(used | bit)
            order.pop()

    extend(0)
    return out
