"""Rooted spanning trees and edge-exchange moves.

A RootedTree pins a spanning tree of a graph at a root and keeps
array-backed parent and depth maps. The depth of a vertex is the length
of its unique tree path from the root; the potential of a tree is the sum
of all depths. Exchanging a cotree edge for an edge on its fundamental
path yields another spanning tree. apply_swap and delta_potential root
the exchanged edge set afresh through root_edges, the breadth-first
rooting that tree_from_edges also uses, so they price a move by
definition; the solver's ascent prices its moves in closed form instead
and is tested against them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .graphs import Edge, Graph, Vertex, canonical_edge, connected_components


class DisconnectedGraphError(ValueError):
    """The operation needs a connected graph."""


def require_connected(g: Graph) -> None:
    """Raise DisconnectedGraphError for a disconnected graph, naming the
    component count and suggesting per-component runs."""
    _require_enough_edges(g)
    comps = connected_components(g)
    if len(comps) > 1:
        raise _disconnected(comps)


def _require_enough_edges(g: Graph) -> None:
    """Fewer than n - 1 edges cannot connect n vertices. That is refused
    before any O(n) work, so a huge declared vertex count costs nothing."""
    if g.m < g.n - 1:
        raise DisconnectedGraphError(
            f"graph is not connected: {g.n} vertices need at least {g.n - 1} "
            f"edges, got {g.m}; solve each component separately"
        )


def _disconnected(comps: list[list[Vertex]]) -> DisconnectedGraphError:
    sizes = ", ".join(str(len(c)) for c in comps)
    return DisconnectedGraphError(
        f"graph is not connected: {len(comps)} components (sizes {sizes}); "
        "solve each component separately"
    )


@dataclass(frozen=True)
class RootedTree:
    """Spanning tree of ``graph`` rooted at ``root``.

    ``parent[root]`` is None; for every other vertex, depth[v] =
    depth[parent[v]] + 1. Tree edges are derived from the parent map, so a
    well-formed instance is spanning and acyclic by construction.
    """

    graph: Graph
    root: Vertex
    parent: tuple[Vertex | None, ...]
    depth: tuple[int, ...]

    @cached_property
    def tree_edges(self) -> frozenset[Edge]:
        return frozenset(
            canonical_edge(v, p) for v, p in enumerate(self.parent) if p is not None
        )

    @cached_property
    def children(self) -> tuple[tuple[Vertex, ...], ...]:
        kids: list[list[Vertex]] = [[] for _ in range(self.graph.n)]
        for v, p in enumerate(self.parent):
            if p is not None:
                kids[p].append(v)
        return tuple(tuple(k) for k in kids)

    @cached_property
    def _sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(
            sorted([(v, p) if v < p else (p, v) for v, p in enumerate(self.parent) if p is not None])
        )

    def sorted_edges(self) -> tuple[Edge, ...]:
        """Tree edges in lexicographic order, sorted once per tree."""
        return self._sorted_edges


def _bfs(
    neighbors: Sequence[Sequence[Vertex]], root: Vertex
) -> tuple[list[Vertex | None], list[int], int]:
    """Breadth-first parent and depth lists from ``root`` over a neighbor
    list, and the number of vertices reached; unreached depths are -1."""
    n = len(neighbors)
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for n={n}")
    parent: list[Vertex | None] = [None] * n
    depth = [-1] * n
    depth[root] = 0
    queue = deque([root])
    reached = 1
    while queue:
        u = queue.popleft()
        for w in neighbors[u]:
            if depth[w] < 0:
                depth[w] = depth[u] + 1
                parent[w] = u
                reached += 1
                queue.append(w)
    return parent, depth, reached


def bfs_tree(g: Graph, root: Vertex) -> RootedTree:
    """Breadth-first spanning tree; depths equal graph distance from root.

    Neighbors are explored in sorted order, so the result is deterministic.
    Raises DisconnectedGraphError when some vertex is unreachable, naming
    the component sizes as require_connected does; the search itself
    decides connectivity, and the components are listed only on failure.
    """
    _require_enough_edges(g)
    parent, depth, reached = _bfs(g.adjacency, root)
    if reached != g.n:
        raise _disconnected(connected_components(g))
    return RootedTree(g, root, tuple(parent), tuple(depth))


def tree_from_edges(g: Graph, edges: Iterable[Edge], root: Vertex) -> RootedTree:
    """Root the given spanning edge set at ``root``.

    Validates that the edges belong to the graph and form a spanning tree.
    """
    edge_list = [canonical_edge(u, v) for u, v in edges]
    edge_set = set(edge_list)
    if len(edge_set) != len(edge_list):
        raise ValueError("duplicate tree edges")
    if not edge_set <= g.edge_set:
        missing = sorted(edge_set - g.edge_set)[0]
        raise ValueError(f"edge {missing} is not an edge of the graph")
    if len(edge_set) != g.n - 1:
        raise ValueError(f"a spanning tree of n={g.n} needs {g.n - 1} edges, got {len(edge_set)}")
    t = root_edges(g, edge_set, root)
    if t is None:
        raise ValueError("edges do not span the graph")
    return t


def root_edges(g: Graph, edges: Iterable[Edge], root: Vertex) -> RootedTree | None:
    """Breadth-first rooting of an edge set of ``g``; None when it does not
    reach every vertex. Nothing else is checked: the caller vouches that the
    edges are n - 1 distinct graph edges, as tree_from_edges checks for
    untrusted input."""
    neighbors: list[list[Vertex]] = [[] for _ in range(g.n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    parent, depth, reached = _bfs(neighbors, root)
    if reached != g.n:
        return None
    return RootedTree(g, root, tuple(parent), tuple(depth))


def potential(t: RootedTree) -> int:
    """Sum of the depths of all vertices."""
    return sum(t.depth)


def cotree_edges(t: RootedTree) -> tuple[Edge, ...]:
    """Graph edges outside the tree, lexicographically sorted. An edge is a
    tree edge iff one endpoint is the other's parent."""
    parent = t.parent
    return tuple((u, v) for u, v in t.graph.edges if parent[u] != v and parent[v] != u)


def cotree_path_is_monotone(t: RootedTree, e: Edge) -> bool:
    """True iff the fundamental path of ``e`` has strictly monotone depths.

    Depths along a tree path step by exactly 1, falling toward the two
    endpoints' lowest common ancestor and rising after it, so the path is
    monotone exactly when one endpoint is an ancestor of the other. Decided
    by walking the deeper endpoint up, without building the path.
    """
    u, v = e
    parent, depth = t.parent, t.depth
    if depth[u] > depth[v]:
        u, v = v, u
    for _ in range(depth[v] - depth[u]):
        v = parent[v]  # type: ignore[assignment]
    return v == u


def fundamental_path(t: RootedTree, e: Edge) -> tuple[Vertex, ...]:
    """The unique tree path joining the endpoints of a cotree edge.

    The first element is e's smaller endpoint, the last its larger one.
    """
    e = canonical_edge(*e)
    if e not in t.graph.edge_set:
        raise ValueError(f"{e} is not an edge of the graph")
    a, b = e
    if t.parent[a] == b or t.parent[b] == a:
        raise ValueError(f"{e} is a tree edge, not a cotree edge")
    return tuple(tree_path(t.parent, t.depth, a, b))


def tree_path(
    parent: Sequence[Vertex | None], depth: Sequence[int], a: Vertex, b: Vertex
) -> list[Vertex]:
    """Vertices of the tree path from ``a`` to ``b``, given parent and depth
    maps of a rooted tree; walks up from both ends to their common ancestor."""
    up_a = [a]
    up_b = [b]
    x, y = a, b
    while depth[x] > depth[y]:
        x = parent[x]  # type: ignore[assignment]
        up_a.append(x)
    while depth[y] > depth[x]:
        y = parent[y]  # type: ignore[assignment]
        up_b.append(y)
    while x != y:
        x = parent[x]  # type: ignore[assignment]
        y = parent[y]  # type: ignore[assignment]
        up_a.append(x)
        up_b.append(y)
    up_b.pop()  # both branches end at the common ancestor; keep one copy
    up_a.extend(reversed(up_b))
    return up_a


def valley_index(depth: Sequence[int], path: Sequence[Vertex]) -> int:
    """Index of the shallowest vertex of a tree path, given the tree's depth
    map. The path is strictly monotone in depth iff this is an end.

    A tree path a ... l ... b falls by 1 per step to the endpoints' lowest
    common ancestor l and rises by 1 after it, so with l at index k,
    depth(a) - depth(b) = k - (len(path) - 1 - k).
    """
    return (len(path) - 1 + depth[path[0]] - depth[path[-1]]) // 2


@dataclass(frozen=True)
class SwapMove:
    """One edge exchange: add a cotree edge, remove a fundamental-path edge."""

    added: Edge
    removed: Edge
    delta_psi: int


def detached_component(t: RootedTree, removed: Edge) -> tuple[Vertex, ...]:
    """Vertices cut off from the root when ``removed`` leaves the tree,
    i.e. the subtree under the removed edge's deeper endpoint."""
    removed = canonical_edge(*removed)
    parent = t.parent
    u, v = removed
    if removed not in t.graph.edge_set or (parent[u] != v and parent[v] != u):
        raise ValueError(f"{removed} is not a tree edge")
    child = u if parent[u] == v else v
    comp = [child]
    stack = [child]
    while stack:
        x = stack.pop()
        for k in t.children[x]:
            comp.append(k)
            stack.append(k)
    return tuple(comp)


def _swapped(t: RootedTree, add: Edge, remove: Edge) -> RootedTree:
    """The tree after exchanging ``remove`` for ``add``, rooted afresh.
    The exchange is valid iff ``add`` is a cotree edge and ``remove`` a tree
    edge whose loss the new edge reconnects, i.e. one on its fundamental
    path."""
    add = canonical_edge(*add)
    remove = canonical_edge(*remove)
    parent = t.parent
    if add not in t.graph.edge_set:
        raise ValueError(f"{add} is not an edge of the graph")
    a, b = add
    if parent[a] == b or parent[b] == a:
        raise ValueError(f"{add} is a tree edge, not a cotree edge")
    u, v = remove
    if remove not in t.graph.edge_set or (parent[u] != v and parent[v] != u):
        raise ValueError(f"{remove} is not a tree edge")
    child = u if parent[u] == v else v
    edges = [(x, p) for x, p in enumerate(parent) if p is not None and x != child]
    edges.append(add)
    swapped = root_edges(t.graph, edges, t.root)
    if swapped is None:
        raise ValueError(
            f"removed edge {remove} is not on the fundamental path of {add}"
        )
    return swapped


def delta_potential(t: RootedTree, add: Edge, remove: Edge) -> int:
    """Potential change of exchanging ``remove`` for ``add``, without
    mutating the tree."""
    return potential(_swapped(t, add, remove)) - potential(t)


def apply_swap(t: RootedTree, move: SwapMove) -> RootedTree:
    """Spanning tree after the exchange."""
    return _swapped(t, move.added, move.removed)
