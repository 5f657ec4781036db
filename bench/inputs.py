"""Seeded inputs for each benchmark workload.

Pure standard library: the package under test is never imported here, so
inputs do not change when the package does.  Every workload has a fixed
composition (how many graphs of each size and shape), and the seed only
draws the structure, the vertex labels and the line order inside it.  That
keeps the cost of a batch the same from seed to seed while the bytes
differ.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import asdict, dataclass, field

WORKLOADS = ("verify-sweep", "dp-sparse", "dp-dense", "trees-large")

# verify-sweep: the suites of `shellings verify`, at sizes that finish in a
# few seconds; bounds dominates, as it does in the full acceptance run.
VERIFY_PLAN = (("bipartite", None), ("oracle", None), ("identities", None),
               ("trees", 6), ("bounds", 7))

# dp-sparse: (edges, shape, requests), 119 a batch plus the 20-edge cycle.
# The paths and cycles of one length are copies of one relabelled text, as
# the dp-dense groups are, and each percentile sits in such a group (same
# cost whatever the seed, and a request counts at the fastest time of any
# copy): the median (rank 60.5 of 120) at the centre of the 13-edge paths
# (ranks 46-75) and p90 (nearest rank 108) among the 16-edge cycles
# (ranks 106-115).  The 17-19-edge slots, which dominate the subsets
# visited, are trees, a tree plus one edge and a path, so the largest
# tables stay sparse.
SPARSE_PLAN = ((12, "tree", 15), (12, "tree+1", 15), (12, "tree+2", 15),
               (13, "path", 30),
               (14, "cycle", 5), (14, "tree", 5), (14, "tree+1", 5), (14, "tree+2", 5),
               (15, "path", 2), (15, "cycle", 2), (15, "tree", 2), (15, "tree+1", 2),
               (15, "tree+2", 2),
               (16, "cycle", 10),
               (17, "tree", 1), (17, "tree+1", 1), (18, "path", 1), (19, "tree", 1))

# dp-dense: (shape, size, requests), 104 a batch.  The median (rank 52.5)
# falls at positions 17-18 of the 34 12-edge requests and p90 (nearest rank
# 94) at position 5 of the nine 16-edge ones; K_{3,4} and K_{4,4} fill
# enough of each group to hold those positions whichever graph is faster.
# K_{2,10} is left out to keep a batch near eight seconds; K_{4,5} is the
# 20-edge case of the baseline table.
DENSE_PLAN = (("kn", (5,), 35), ("kmn", (2, 6), 6), ("kmn", (3, 4), 28),
              ("kmn", (2, 7), 4), ("rand7", (14,), 4),
              ("kmn", (3, 5), 4), ("kn", (6,), 4), ("rand7", (15,), 4),
              ("kmn", (2, 8), 1), ("kmn", (4, 4), 7), ("rand7", (16,), 1),
              ("rand7", (17,), 2), ("kmn", (2, 9), 1), ("kmn", (3, 6), 1),
              ("rand7", (18,), 1), ("kmn", (4, 5), 1))

# trees-large: n stratified log-uniformly over [TREE_MIN_N, TREE_MAX_N].
TREE_MIN_N, TREE_MAX_N, TREE_REQUESTS = 1000, 8000, 100


@dataclass
class Request:
    """One operation: a labelled graph and the edge-list text sent for it.

    ``label`` names the graph family; the baseline graphs (``cycle20``,
    ``k45``, ``k44``, ``k35``) keep their own label so their layer times
    can be read apart.  ``group`` is the id shared by requests for the very
    same graph, so references are computed once per group.
    """

    label: str
    group: int
    num_vertices: int
    text: str
    params: list = field(default_factory=list)

    def edges(self) -> list:
        """The edge list, read back from the text (the text is the only copy)."""
        return [tuple(map(int, line.split())) for line in self.text.splitlines()]


@dataclass
class Plan:
    workload: str
    seed: int
    requests: list
    suites: list = field(default_factory=list)

    def to_bytes(self) -> bytes:
        return json.dumps(asdict(self), sort_keys=True).encode()


def _relabel(rng: random.Random, n: int, edges) -> list:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def _edge_text(rng: random.Random, edges) -> str:
    lines = [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in edges]
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def prufer_tree(rng: random.Random, n: int) -> list:
    """Uniform random labelled tree on n >= 2 vertices, by Prufer decoding."""
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return edges


def _is_connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _sparse_graph(rng: random.Random, shape: str, m: int) -> tuple[int, list]:
    """A connected graph with m edges of the given sparse shape."""
    if shape == "path":
        return m + 1, [(i, i + 1) for i in range(m)]
    if shape == "cycle":
        return m, [(i, (i + 1) % m) for i in range(m)]
    extra = {"tree": 0, "tree+1": 1, "tree+2": 2}[shape]
    n = m + 1 - extra
    edges = prufer_tree(rng, n)
    present = {(min(u, v), max(u, v)) for u, v in edges}
    while len(edges) < m:
        u, v = sorted(rng.sample(range(n), 2))
        if (u, v) not in present:
            present.add((u, v))
            edges.append((u, v))
    return n, edges


def _dense_graph(rng: random.Random, shape: str, size: tuple) -> tuple[int, list]:
    if shape == "kn":
        (n,) = size
        return n, [(i, j) for i in range(n) for j in range(i + 1, n)]
    if shape == "kmn":
        a, b = size
        return a + b, [(i, a + j) for i in range(a) for j in range(b)]
    (m,) = size
    pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
    while True:
        edges = rng.sample(pairs, m)
        if _is_connected(7, edges):
            return 7, edges


def _add(requests: list, rng: random.Random, label: str, n: int, edges, params, copies=1):
    edges = _relabel(rng, n, edges)
    text = _edge_text(rng, edges)
    group = requests[-1].group + 1 if requests else 0
    for _ in range(copies):
        requests.append(Request(label, group, n, text, list(params)))


def build(workload: str, seed: int) -> Plan:
    """The plan for one workload; the same (workload, seed) gives the same bytes."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    requests: list[Request] = []
    suites: list = []
    if workload == "verify-sweep":
        suites = [list(s) for s in VERIFY_PLAN]
        rng.shuffle(suites)
    elif workload == "dp-sparse":
        for m, shape, count in SPARSE_PLAN:
            if shape in ("path", "cycle"):
                _add(requests, rng, shape, *_sparse_graph(rng, shape, m), [m], copies=count)
                continue
            for _ in range(count):
                _add(requests, rng, shape, *_sparse_graph(rng, shape, m), [m])
        _add(requests, rng, "cycle20", *_sparse_graph(rng, "cycle", 20), [20])
        rng.shuffle(requests)
    elif workload == "dp-dense":
        for shape, size, count in DENSE_PLAN:
            label = "k" + "".join(map(str, size)) if shape != "rand7" else shape
            n, edges = _dense_graph(rng, shape, size)
            _add(requests, rng, label, n, edges, list(size), copies=count)
        rng.shuffle(requests)
    else:
        span = math.log(TREE_MAX_N / TREE_MIN_N)
        for i in range(TREE_REQUESTS):
            n = round(TREE_MIN_N * math.exp(span * (i + rng.random()) / TREE_REQUESTS))
            _add(requests, rng, "tree", n, prufer_tree(rng, n), [n])
        rng.shuffle(requests)
    return Plan(workload, seed, requests, suites)
