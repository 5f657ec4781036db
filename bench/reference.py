"""Independent answers the benchmark checks the package against.

Nothing here imports the package.  Closed forms are evaluated from their
printed formulas; other graphs go through a connected-subsets-only
dynamic program, a different algorithm from the package's subset table;
trees are checked modulo primes larger than n, from hook products with
rerooting.
"""

from __future__ import annotations

from math import comb, factorial

# Primes above every tree size the benchmark generates; three residues give
# a check that a wrong big integer passes by chance with negligible odds.
CHECK_PRIMES = (2**31 - 1, 10**9 + 7, 2**61 - 1)


def complete_graph_count(n: int) -> int:
    """2^(n-2) C(n,2)! / catalan(n-1)."""
    catalan = comb(2 * (n - 1), n - 1) // n
    return 2 ** (n - 2) * factorial(n * (n - 1) // 2) // catalan


def complete_bipartite_count(a: int, b: int) -> int:
    """a! b! (ab)! / (a+b-1)!."""
    return factorial(a) * factorial(b) * factorial(a * b) // factorial(a + b - 1)


def path_count(num_edges: int) -> int:
    return 2 ** (num_edges - 1)


def cycle_count(n: int) -> int:
    return n * 2 ** (n - 2)


def _rooted_order(n: int, edges) -> tuple[list[int], list[int], list[int]]:
    """BFS order from vertex 0, parents and subtree sizes of a tree."""
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    parent = [-1] * n
    parent[0] = 0
    order = [0]
    for u in order:
        for w in adj[u]:
            if parent[w] == -1:
                parent[w] = u
                order.append(w)
    size = [1] * n
    for u in reversed(order[1:]):
        size[parent[u]] += size[u]
    return order, parent, size


def tree_residues(n: int, edges, primes=CHECK_PRIMES) -> tuple[int, ...]:
    """The tree's shelling count modulo each prime (each prime must exceed n)."""
    order, parent, size = _rooted_order(n, edges)
    out = []
    for p in primes:
        # inv[k] = k^-1 mod p for k < n, by the recurrence p = (p // k) k + p % k
        inv = [0, 1]
        for k in range(2, n):
            inv.append((p - p // k) * inv[p % k] % p)
        fact = 1
        for k in range(2, n + 1):
            fact = fact * k % p
        denom = 1
        for s in size:
            denom = denom * s % p
        rooted = [0] * n
        rooted[0] = fact * pow(denom, -1, p) % p
        total = rooted[0]
        for u in order[1:]:
            rooted[u] = rooted[parent[u]] * size[u] % p * inv[n - size[u]] % p
            total += rooted[u]
        out.append(total * pow(2, -1, p) % p)
    return tuple(out)


def shelling_count(edges) -> int:
    """Shellings of a connected graph, over connected edge subsets only.

    Layer k holds every connected k-edge subset with its number of
    prefix-connected orderings; each grows by one edge that touches it.
    """
    m = len(edges)
    touch = [0] * m
    for i, (a, b) in enumerate(edges):
        for j in range(i + 1, m):
            if a in edges[j] or b in edges[j]:
                touch[i] |= 1 << j
                touch[j] |= 1 << i
    layer = {1 << e: 1 for e in range(m)}
    frontier = {1 << e: touch[e] for e in range(m)}
    for _ in range(m - 1):
        nxt: dict[int, int] = {}
        nxt_frontier: dict[int, int] = {}
        for s, count in layer.items():
            reach = frontier[s]
            grow = reach & ~s
            while grow:
                bit = grow & -grow
                grow ^= bit
                t = s | bit
                if t in nxt:
                    nxt[t] += count
                else:
                    nxt[t] = count
                    nxt_frontier[t] = reach | touch[bit.bit_length() - 1]
        layer, frontier = nxt, nxt_frontier
    return layer.get((1 << m) - 1, 0)
