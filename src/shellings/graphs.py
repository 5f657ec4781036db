"""Graph representation, parsing, classification, and tree generation.

Graphs are undirected and simple, with vertices 0..n-1 and a canonical
edge list (each pair (u, v) with u < v, list sorted, duplicate-free), so
graph equality is plain tuple equality.  Each fact about a graph is
settled by one check: connectivity by the edge count or one traversal,
kept on the graph; K_{m,n} by one pass over the edges in ``classify``;
tree-ness by the rooting pass (``trees.root_tree``).  Labeled trees are
generated through Prufer sequences, exhaustively or at random from a
splitmix64 stream.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .errors import EdgeListParseError, GuardExceeded, NotATreeError

Edge = tuple[int, int]

# Largest vertex count an edge list may declare or imply: ids stay below it.
MAX_VERTICES = 10**6


@dataclass(frozen=True)
class Graph:
    num_vertices: int
    edges: tuple[Edge, ...]

    @classmethod
    def from_edges(cls, num_vertices: int, edges) -> "Graph":
        """Canonicalize and validate an edge list."""
        canon = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u and v < num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range for {num_vertices} vertices")
            canon.append((u, v))
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a == b:
                raise ValueError(f"duplicate edge {a}")
        return cls(num_vertices, tuple(canon))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in nbrs)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @cached_property
    def _connected(self) -> bool:
        n = self.num_vertices
        if n <= 1:
            return True
        if self.num_edges < n - 1:  # too few edges to span: no traversal
            return False
        seen = [False] * n
        seen[0] = True
        stack = [0]
        count = 1
        adj = self.adjacency
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == n

    def is_tree(self) -> bool:
        return self.num_edges == self.num_vertices - 1 and is_connected(self)

    def to_edge_list_text(self) -> str:
        """Render in the edge-list file format accepted by parse_edge_list.

        The header line is emitted only when the edges alone would not
        determine the vertex count (isolated vertices, empty graph).
        """
        covered = 1 + max((v for _, v in self.edges), default=-1)
        lines = [] if covered == self.num_vertices else [f"n {self.num_vertices}"]
        lines.extend(f"{u} {v}" for u, v in self.edges)
        return "\n".join(lines) + "\n"


def _is_ascii_number(token: str) -> bool:
    """Only 0-9: str.isdigit() also accepts superscripts and other scripts' digits."""
    return token.isascii() and token.isdigit()


def _bounded_number(token: str, limit: int, what: str, line_no: int) -> int:
    """An ASCII-digit token as an int, refused above limit; the length is
    checked first, so a huge token never reaches int()."""
    if len(token) < len(str(limit)):  # fewer digits than limit: below it
        return int(token)
    digits = token.lstrip("0") or "0"
    if len(digits) > len(str(limit)) or int(digits) > limit:
        shown = token if len(token) <= 20 else token[:20] + "..."
        raise EdgeListParseError(f"{what} {shown} exceeds {limit}", line_no)
    return int(digits)


def parse_edge_list(text: str | bytes) -> Graph:
    """Parse the edge-list format.

    Lines are blank, '#' comments, an optional single header "n <k>"
    (needed to represent isolated vertices), or an edge "u v".  LF and
    CRLF both accepted.  With a header, every vertex id must be < k.
    Ids must be below MAX_VERTICES and k at most MAX_VERTICES.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    declared: int | None = None
    edges: list[Edge] = []
    seen: set[Edge] = set()
    max_id = -1
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if declared is not None:
                raise EdgeListParseError("duplicate header line", line_no)
            if len(parts) != 2 or not _is_ascii_number(parts[1]):
                raise EdgeListParseError(f"malformed header {line!r}", line_no)
            declared = _bounded_number(parts[1], MAX_VERTICES, "declared n", line_no)
            continue
        if len(parts) != 2 or not all(_is_ascii_number(p) for p in parts):
            raise EdgeListParseError(f"malformed line {line!r}", line_no)
        u = _bounded_number(parts[0], MAX_VERTICES - 1, "vertex id", line_no)
        v = _bounded_number(parts[1], MAX_VERTICES - 1, "vertex id", line_no)
        if u == v:
            raise EdgeListParseError(f"self-loop at vertex {u}", line_no)
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise EdgeListParseError(f"duplicate edge ({u}, {v})", line_no)
        seen.add((u, v))
        edges.append((u, v))
        max_id = max(max_id, v)
    if declared is not None and max_id >= declared:
        raise EdgeListParseError(f"vertex id {max_id} >= declared n {declared}")
    n = declared if declared is not None else max_id + 1
    # the edges are canonical, distinct and in range already
    return Graph(n, tuple(sorted(edges)))


def is_connected(g: Graph) -> bool:
    """True iff one component spans all vertices; 0- and 1-vertex graphs count.

    The traversal runs once per graph; later calls read its answer."""
    return g._connected


@dataclass(frozen=True)
class GraphClass:
    """Most specific class tag plus every coarser applicable tag, and the
    part sizes (smaller first) when the graph is complete bipartite."""

    primary: str
    tags: tuple[str, ...]
    part_sizes: tuple[int, int] | None = None


def classify(g: Graph) -> GraphClass:
    n, m = g.num_vertices, g.num_edges
    if not is_connected(g):
        return GraphClass("Disconnected", ("Disconnected",))
    tags: list[str] = []
    part_sizes = None

    is_tree = m == n - 1
    degrees = [g.degree(v) for v in range(n)]
    is_path = is_tree and (n == 1 or max(degrees) <= 2)
    is_star = is_tree and n >= 2 and max(degrees) == n - 1
    is_complete = m == n * (n - 1) // 2

    if is_path:
        tags.append("Path")
    if is_star:
        tags.append("Star")
    if is_complete:
        tags.append("Complete")
    if n >= 2:
        # connected K_{A,B} with 0 in A has B = N(0); conversely, all edges
        # crossing between A and B and m = |A||B| make every cross pair an edge
        in_b = [False] * n
        for v in g.adjacency[0]:
            in_b[v] = True
        b = degrees[0]
        if m == (n - b) * b and all(in_b[u] != in_b[v] for u, v in g.edges):
            tags.append("CompleteBipartite")
            part_sizes = (min(b, n - b), max(b, n - b))
    if is_tree:
        tags.append("Tree")
    tags.append("GeneralConnected")
    return GraphClass(tags[0], tuple(tags), part_sizes)


def prufer_decode(seq, n: int) -> Graph:
    """The unique labeled tree on n >= 2 vertices with this Prufer sequence.

    Standard decoding: repeatedly join the smallest-id leaf that no longer
    appears in the remaining sequence.
    """
    seq = list(seq)
    if n < 2:
        raise ValueError(f"prufer_decode requires n >= 2, got {n}")
    if len(seq) != n - 2:
        raise ValueError(f"sequence length {len(seq)} != n - 2 = {n - 2}")
    for s in seq:
        if not 0 <= s < n:
            raise ValueError(f"sequence entry {s} out of range 0..{n - 1}")
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        u = heapq.heappop(leaves)
        edges.append((u, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return Graph.from_edges(n, edges)


def prufer_encode(g: Graph) -> list[int]:
    """Inverse of prufer_decode: peel smallest leaves, record their neighbors."""
    if not g.is_tree():
        raise NotATreeError("prufer_encode requires a tree")
    n = g.num_vertices
    if n < 2:
        raise ValueError("prufer_encode requires n >= 2")
    degree = [g.degree(v) for v in range(n)]
    nbrs = {v: set(g.adjacency[v]) for v in range(n)}
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    seq = []
    for _ in range(n - 2):
        u = heapq.heappop(leaves)
        w = nbrs[u].pop()
        nbrs[w].discard(u)
        seq.append(w)
        degree[w] -= 1
        if degree[w] == 1:
            heapq.heappush(leaves, w)
    return seq


MAX_TREE_ENUM_N = 9


def all_labeled_trees(n: int) -> Iterator[Graph]:
    """All n^(n-2) labeled trees, by Prufer sequence in lexicographic order."""
    if not 1 <= n <= MAX_TREE_ENUM_N:
        raise GuardExceeded(f"all_labeled_trees supports 1 <= n <= {MAX_TREE_ENUM_N}, got {n}")
    if n == 1:
        return iter([Graph.from_edges(1, [])])
    return (prufer_decode(seq, n) for seq in itertools.product(range(n), repeat=n - 2))


def path_graph(n: int) -> Graph:
    """The path 0 - 1 - ... - (n-1)."""
    if n < 1:
        raise ValueError(f"path_graph requires n >= 1, got {n}")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(n: int) -> Graph:
    """The star on n vertices centered at 0."""
    if n < 2:
        raise ValueError(f"star_graph requires n >= 2, got {n}")
    return Graph.from_edges(n, [(0, i) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle_graph requires n >= 3, got {n}")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete_graph requires n >= 1, got {n}")
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(m: int, n: int) -> Graph:
    """K_{m,n} with part {0..m-1} against part {m..m+n-1}."""
    if m < 1 or n < 1:
        raise ValueError(f"part sizes must be positive, got ({m}, {n})")
    return Graph.from_edges(m + n, [(i, m + j) for i in range(m) for j in range(n)])


_SM64_MASK = (1 << 64) - 1


@dataclass
class SplitMix64:
    """splitmix64: x += 0x9E3779B97F4A7C15; two xor-shift-multiply mixes.

    Fixed, documented generator so seeded sweeps reproduce across
    implementations.
    """

    state: int

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _SM64_MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _SM64_MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _SM64_MASK
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling."""
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree from a seeded splitmix64 Prufer draw."""
    if n < 1:
        raise ValueError(f"random_tree requires n >= 1, got {n}")
    if n == 1:
        return Graph.from_edges(1, [])
    rng = SplitMix64(seed & _SM64_MASK)
    seq = [rng.next_below(n) for _ in range(n - 2)]
    return prufer_decode(seq, n)
