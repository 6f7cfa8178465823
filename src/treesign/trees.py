"""Rooted spanning trees and edge-exchange moves.

A RootedTree pins a spanning tree of a graph at a root and keeps
array-backed parent and depth maps. The depth of a vertex is the length
of its unique tree path from the root; the potential of a tree is the sum
of all depths. Exchanging a cotree edge for an edge on its fundamental
path yields another spanning tree. bfs_tree searches the graph and
root_edges an edge set, both with graphs.breadth_first. delta_potential
roots the exchanged edge set afresh through root_edges, as
tree_from_edges does, so it prices a move by definition; the solver's
ascent prices its moves in closed form instead and is tested against it
and against the restart reference in tests/reference.py, which re-roots
the same way. tree_from_edges roots an untrusted edge set first and
accepts it from the parent map: n - 1 in-range pairs that reach every
vertex are a tree, and it is a tree of the graph iff all but n - 1 graph
edges are cotree edges. Only a rejected set is checked as a set, to name
its fault.

cotree_edges is the package's one split of graph edges into tree and
cotree edges; _connected_search, shared by bfs_tree and the oracle's
enumerator, its one search that refuses a disconnected graph; climb,
shared by fundamental_path and the solver's ascent, its one walk that
builds a tree path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import Edge, Graph, Vertex, breadth_first, canonical_edge, connected_components


class DisconnectedGraphError(ValueError):
    """The operation needs a connected graph."""


def require_connected(g: Graph) -> None:
    """Raise DisconnectedGraphError for a disconnected graph, naming the
    component sizes and suggesting per-component runs. Fewer than n - 1
    edges cannot connect n vertices; that is refused before any O(n) work,
    so a huge declared vertex count costs nothing. This is the only code
    that builds the error: a search that decides connectivity itself calls
    it when the graph has too few edges, and again when the search misses
    a vertex, to list the components."""
    if g.m < g.n - 1:
        raise DisconnectedGraphError(
            f"graph is not connected: {g.n} vertices need at least {g.n - 1} "
            f"edges, got {g.m}; solve each component separately"
        )
    comps = connected_components(g)
    if len(comps) > 1:
        sizes = ", ".join(str(len(c)) for c in comps)
        raise DisconnectedGraphError(
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

    def sorted_edges(self) -> tuple[Edge, ...]:
        """Tree edges in lexicographic order, sorted on each call."""
        return tuple(
            sorted([(v, p) if v < p else (p, v) for v, p in enumerate(self.parent) if p is not None])
        )


def _connected_search(
    g: Graph, root: Vertex
) -> tuple[list[Vertex], list[Vertex | None], list[int]]:
    """Breadth-first search of a connected graph from ``root``: the visit
    order and the parent and depth lists. A disconnected graph raises
    require_connected's error. Too few edges are refused before any O(n)
    work, and the search itself decides connectivity, so the components
    are listed only when it misses a vertex. A root out of range is named
    only after a disconnected graph has been refused."""
    if not 0 <= root < g.n or g.m < g.n - 1:
        require_connected(g)
    parent: list[Vertex | None] = [None] * g.n
    depth = [-1] * g.n
    order = breadth_first(g.adjacency, root, parent, depth)
    if len(order) != g.n:
        require_connected(g)
    return order, parent, depth


def bfs_tree(g: Graph, root: Vertex) -> RootedTree:
    """Breadth-first spanning tree; depths equal graph distance from root.

    Neighbors are explored in sorted order, so the result is deterministic.
    A disconnected graph raises require_connected's error.
    """
    _, parent, depth = _connected_search(g, root)
    return RootedTree(g, root, tuple(parent), tuple(depth))


def tree_from_edges(g: Graph, edges: Iterable[Edge], root: Vertex) -> RootedTree:
    """Root the given spanning edge set at ``root``.

    Validates that the edges belong to the graph and form a spanning tree.
    A set is accepted from its parent map: n - 1 in-range pairs that reach
    every vertex from the root form a spanning tree, so they hold no loop
    and no duplicate, and they are graph edges iff all but n - 1 edges of
    ``g`` are cotree edges. Only a rejected set is canonicalised and
    checked as a set, to name its first fault: a loop, a duplicate, an
    edge outside the graph, the wrong count, an out-of-range root, or a
    set that does not span.
    """
    pairs = list(edges)
    n = g.n
    if (
        len(pairs) == n - 1
        and 0 <= root < n
        and all(0 <= u < n and 0 <= v < n for u, v in pairs)
    ):
        t = root_edges(g, pairs, root)
        if t is not None and len(cotree_edges(t)) == g.m - (n - 1):
            return t
    edge_list = [canonical_edge(u, v) for u, v in pairs]
    edge_set = set(edge_list)
    if len(edge_set) != len(edge_list):
        raise ValueError("duplicate tree edges")
    if not edge_set <= g.edge_set:
        missing = sorted(edge_set - g.edge_set)[0]
        raise ValueError(f"edge {missing} is not an edge of the graph")
    if len(edge_set) != g.n - 1:
        raise ValueError(f"a spanning tree of n={g.n} needs {g.n - 1} edges, got {len(edge_set)}")
    # The fast path took every spanning set of n - 1 distinct graph edges.
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for n={n}")
    raise ValueError("edges do not span the graph")


def root_edges(g: Graph, edges: Iterable[Edge], root: Vertex) -> RootedTree | None:
    """Breadth-first rooting of an edge set of ``g``; None when it does not
    reach every vertex. Nothing else is checked: the caller vouches that the
    endpoints are in range and that the edges are n - 1 distinct graph
    edges, or, as tree_from_edges does for untrusted input, checks the
    result's parent map against the graph."""
    neighbors: list[list[Vertex]] = [[] for _ in range(g.n)]
    for u, v in edges:
        neighbors[u].append(v)
        neighbors[v].append(u)
    parent: list[Vertex | None] = [None] * g.n
    depth = [-1] * g.n
    if len(breadth_first(neighbors, root, parent, depth)) != g.n:
        return None
    return RootedTree(g, root, tuple(parent), tuple(depth))


def potential(t: RootedTree) -> int:
    """Sum of the depths of all vertices."""
    return sum(t.depth)


def cotree_edges(t: RootedTree) -> tuple[Edge, ...]:
    """Graph edges outside the tree, lexicographically sorted. An edge is a
    tree edge iff one endpoint is the other's parent."""
    g, parent = t.graph, t.parent
    return tuple([e for e in g.edges if parent[e[0]] != e[1] and parent[e[1]] != e[0]])


def to_dot(tree: RootedTree, signs: Sequence[str | None]) -> str:
    """Graphviz text for the tree's graph: vertices show their depth, tree
    edges are solid and labeled with their sign, cotree edges are dashed.
    ``signs`` labels the edge (v, parent v) at v, as assign_signs does; None
    leaves it unlabeled."""
    g, parent = tree.graph, tree.parent
    if len(signs) != g.n:
        raise ValueError(f"labeling has {len(signs)} entries for {g.n} vertices")
    lines = ["graph {"]
    lines.extend(f'  {v} [label="{v} (d={d})"];' for v, d in enumerate(tree.depth))
    for u, v in g.edges:
        child = v if parent[v] == u else u if parent[u] == v else None
        if child is None:
            lines.append(f"  {u} -- {v} [style=dashed];")
        elif signs[child] is None:
            lines.append(f"  {u} -- {v} [style=solid];")
        else:
            lines.append(f'  {u} -- {v} [style=solid, label="{signs[child]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def ancestor_related(
    parent: Sequence[Vertex | None], depth: Sequence[int], a: Vertex, b: Vertex
) -> bool:
    """True iff one of ``a`` and ``b`` is an ancestor-or-self of the other,
    given parent and depth maps of a rooted tree. Decided by walking the
    deeper one up, without building the path.

    For a cotree edge (a, b) this is the test of whether its fundamental
    path is monotone: depths along a tree path step by exactly 1, falling
    toward the endpoints' lowest common ancestor and rising after it, so
    the path is monotone exactly when that ancestor is an endpoint. The
    ascent's pop test, the oracle's table pass and the restart reference
    in tests/reference.py share this walk."""
    if depth[a] > depth[b]:
        a, b = b, a
    for _ in range(depth[b] - depth[a]):
        b = parent[b]  # type: ignore[assignment]
    return a == b


def _require_cotree_edge(t: RootedTree, e: Edge) -> None:
    """Refuse ``e``, in canonical order, unless it is a cotree edge of ``t``."""
    if e not in t.graph.edge_set:
        raise ValueError(f"{e} is not an edge of the graph")
    a, b = e
    if t.parent[a] == b or t.parent[b] == a:
        raise ValueError(f"{e} is a tree edge, not a cotree edge")


def fundamental_path(t: RootedTree, e: Edge) -> tuple[Vertex, ...]:
    """The unique tree path joining the endpoints of a cotree edge.

    The first element is e's smaller endpoint, the last its larger one.
    """
    e = canonical_edge(*e)
    _require_cotree_edge(t, e)
    top, up_a, up_b = climb(t.parent, t.depth, *e)
    return (*up_a, top, *reversed(up_b))


def climb(
    parent: Sequence[Vertex | None], depth: Sequence[int], a: Vertex, b: Vertex
) -> tuple[Vertex, list[Vertex], list[Vertex]]:
    """One climb from both ends of the tree path a ... top ... b to the
    endpoints' lowest common ancestor ``top``, given parent and depth maps
    of a rooted tree: top and the branches below it as climbed, up_a =
    path[:k] and up_b = path[:k:-1] with top at index k (one is empty on a
    monotone path). The package's one walk that builds a tree path:
    fundamental_path joins the branches, the ascent prices and re-hangs
    them. A step that does not lower the depth by exactly 1, or that
    climbs past the root, raises AssertionError: the path's depths are not
    valley-shaped. (No tree path has an interior local maximum: both its
    path neighbors would have to be its parent.)
    """
    up_a: list[Vertex] = []
    up_b: list[Vertex] = []
    x, y, dx, dy, xs, ys = a, b, depth[a], depth[b], up_a, up_b
    while x != y:
        if dx < dy:  # the deeper end climbs, so neither passes top
            x, y, dx, dy, xs, ys = y, x, dy, dx, ys, xs
        xs.append(x)
        x = parent[x]  # type: ignore[assignment]
        dx -= 1
        if x is None or depth[x] != dx:
            raise AssertionError(
                f"tree path depths are not valley-shaped: climbing from {a} and {b}, "
                + ("passed the root" if x is None else f"vertex {x} has depth {depth[x]}, not {dx}")
            )
    return x, up_a, up_b


@dataclass(frozen=True)
class SwapMove:
    """One edge exchange: add a cotree edge, remove a fundamental-path edge."""

    added: Edge
    removed: Edge
    delta_psi: int


def _swapped(t: RootedTree, add: Edge, remove: Edge) -> RootedTree:
    """The tree after exchanging ``remove`` for ``add``, rooted afresh.
    The exchange is valid iff ``add`` is a cotree edge and ``remove`` a tree
    edge whose loss the new edge reconnects, i.e. one on its fundamental
    path."""
    add = canonical_edge(*add)
    remove = canonical_edge(*remove)
    _require_cotree_edge(t, add)
    parent = t.parent
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

