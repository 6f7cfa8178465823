"""Shared strategies: random connected graphs built from a random
attachment tree plus extra edges, so connectivity holds by construction,
and random rooted spanning trees of them. Shared helpers for per-vertex
sign labelings and for a tree's edge set."""

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

from treesign import make_graph, tree_from_edges

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 9):
    n = draw(st.integers(min_n, max_n))
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    if n >= 2:
        candidates = [(u, v) for u in range(n) for v in range(u + 1, n)]
        pairs += draw(st.lists(st.sampled_from(candidates), max_size=2 * n))
    graph, _ = make_graph(n, pairs)
    return graph


@st.composite
def rooted_connected_graphs(draw, min_n: int = 2, max_n: int = 9):
    graph = draw(connected_graphs(min_n, max_n))
    root = draw(st.integers(0, graph.n - 1))
    return graph, root


@st.composite
def rooted_spanning_trees(draw, min_n: int = 2, max_n: int = 9):
    """A spanning tree of a random connected graph, at a random root: the
    forest that Kruskal's scan keeps from a random order of the edges."""
    graph, root = draw(rooted_connected_graphs(min_n, max_n))
    comp = list(range(graph.n))
    kept = []
    for u, v in draw(st.permutations(graph.edges)):
        cu, cv = comp[u], comp[v]
        if cu != cv:
            comp = [cv if c == cu else c for c in comp]
            kept.append((u, v))
    return tree_from_edges(graph, kept, root)


def child(t, e):
    """The endpoint of the tree edge ``e`` whose parent is the other: the
    vertex whose labeling entry holds e's sign."""
    u, v = e
    return v if t.parent[v] == u else u


def flipped(phi, v):
    """The labeling ``phi`` with the sign of v's parent edge flipped."""
    return phi[:v] + ("+" if phi[v] == "-" else "-",) + phi[v + 1 :]


def tree_edges(t):
    """The tree's edges as a set of canonical pairs; a frozenset, so that
    edge sets can be hashed and collected in sets."""
    return frozenset(t.sorted_edges())
