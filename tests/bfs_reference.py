"""Breadth-first distances: an eccentricity reference independent of the
package's rootings (``trees.root_tree`` and ``trees.eccentricities``)."""

from shellings.graphs import Graph


def bfs_distances(g: Graph, source: int) -> tuple[list[int], list[int]]:
    """BFS distances and discovery parents (parent[source] = source).

    Neighbors are scanned in ascending id order, so parents (and hence
    extracted paths) are deterministic.
    """
    n = g.num_vertices
    dist = [-1] * n
    parent = [-1] * n
    dist[source] = 0
    parent[source] = source
    queue = [source]
    for u in queue:
        for w in g.adjacency[u]:
            if dist[w] == -1:
                dist[w] = dist[u] + 1
                parent[w] = u
                queue.append(w)
    return dist, parent
