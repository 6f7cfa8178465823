import re

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from conftest import rooted_connected_graphs, rooted_spanning_trees, tree_edges
from reference import apply_swap, valley_index
from treesign import (
    DisconnectedGraphError,
    SwapMove,
    bfs_tree,
    canonical_edge,
    cotree_edges,
    delta_potential,
    enumerate_connected_graphs,
    enumerate_spanning_trees,
    fundamental_path,
    make_graph,
    named_graph,
    potential,
    tree_from_edges,
)
from treesign.trees import ancestor_related, climb, root_edges

K3 = named_graph("complete", (3,))
K4 = named_graph("complete", (4,))
P4 = named_graph("path", (4,))
C5 = named_graph("cycle", (5,))


class TestBfsTree:
    def test_triangle(self):
        t = bfs_tree(K3, 0)
        assert tree_edges(t) == {(0, 1), (0, 2)}
        assert t.depth == (0, 1, 1)

    def test_path_is_its_own_tree(self):
        t = bfs_tree(P4, 0)
        assert tree_edges(t) == {(0, 1), (1, 2), (2, 3)}
        assert t.depth == (0, 1, 2, 3)

    def test_complete_graph_star(self):
        t = bfs_tree(K4, 0)
        assert tree_edges(t) == {(0, 1), (0, 2), (0, 3)}
        assert t.depth == (0, 1, 1, 1)

    def test_depths_are_graph_distances(self):
        g = named_graph("cycle", (6,))
        t = bfs_tree(g, 3)
        assert t.depth == (3, 2, 1, 0, 1, 2)

    def test_disconnected_raises(self):
        g, _ = make_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            bfs_tree(g, 0)

    def test_root_out_of_range(self):
        with pytest.raises(ValueError):
            bfs_tree(K3, 3)

    @given(rooted_connected_graphs())
    def test_parent_depth_consistency(self, case):
        g, root = case
        t = bfs_tree(g, root)
        assert t.parent[root] is None and t.depth[root] == 0
        for v, p in enumerate(t.parent):
            if p is not None:
                assert t.depth[v] == t.depth[p] + 1
        assert len(tree_edges(t)) == g.n - 1
        for u, v in tree_edges(t):
            assert abs(t.depth[u] - t.depth[v]) == 1


class TestTreeFromEdges:
    def test_rebuild_matches(self):
        t = tree_from_edges(K4, [(0, 3), (1, 2), (1, 3)], 0)
        assert t.depth == (0, 2, 3, 1)
        assert [v for v, p in enumerate(t.parent) if p == 3] == [1]

    def test_rejects_bad_edge_sets(self):
        with pytest.raises(ValueError, match="needs 3 edges"):
            tree_from_edges(K4, [(0, 1)], 0)
        with pytest.raises(ValueError, match="not an edge"):
            tree_from_edges(P4, [(0, 2), (1, 2), (2, 3)], 0)
        with pytest.raises(ValueError, match="duplicate"):
            tree_from_edges(K3, [(0, 1), (1, 0)], 0)
        with pytest.raises(ValueError, match="span"):
            tree_from_edges(K4, [(0, 1), (0, 2), (1, 2)], 0)


def set_checked_tree_from_edges(g, edges, root):
    """tree_from_edges as a set-based validator, the reference for its
    parent-map acceptance: canonicalise every edge, then refuse duplicates,
    edges outside the graph, a wrong count and a set that does not span,
    in that order."""
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


@st.composite
def edge_list_cases(draw):
    """A small graph (connected or not), a root that may lie outside it, and
    an edge list: a spanning forest, in random order and orientation, of the
    graph or of the complete graph (so some of its edges may be missing from
    the graph), then up to four deletions, insertions or replacements. A new
    pair is a forest edge again (a duplicate), any graph edge (maybe closing
    a cycle) or any pair of vertices from -1 to n (loops, non-graph edges,
    out-of-range and negative endpoints), in either orientation; deletions
    and insertions give short and long lists."""
    n = draw(st.integers(1, 6))
    vertex = st.integers(-1, n)
    index = st.integers(0, n - 1)
    g, _ = make_graph(n, draw(st.lists(st.tuples(index, index), max_size=2 * n)))
    pool = g.edges if draw(st.booleans()) else [(u, v) for u in range(n) for v in range(u + 1, n)]
    comp = list(range(n))
    edges = []
    for u, v in draw(st.permutations(pool)):
        cu, cv = comp[u], comp[v]
        if cu != cv:
            comp = [cv if c == cu else c for c in comp]
            edges.append((v, u) if draw(st.booleans()) else (u, v))
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["delete", "insert", "replace"] if edges else ["insert"]))
        if op == "delete":
            del edges[draw(st.integers(0, len(edges) - 1))]
            continue
        pools = [st.sampled_from(e) for e in (edges, g.edges) if e]
        pair = draw(st.one_of(*pools, st.tuples(vertex, vertex)))
        if draw(st.booleans()):
            pair = pair[::-1]
        if op == "insert":
            edges.insert(draw(st.integers(0, len(edges))), pair)
        else:
            edges[draw(st.integers(0, len(edges) - 1))] = pair
    return g, edges, draw(vertex)


def tree_outcome(build, g, edges, root):
    try:
        t = build(g, edges, root)
    except ValueError as exc:
        return str(exc)
    return t.root, t.parent, t.depth


class TestTreeFromEdgesAgainstSetChecks:
    @given(edge_list_cases())
    @settings(max_examples=400)
    def test_same_tree_or_same_message(self, case):
        g, edges, root = case
        assert tree_outcome(tree_from_edges, g, edges, root) == tree_outcome(
            set_checked_tree_from_edges, g, edges, root
        )

    def test_negative_vertices_do_not_wrap_around(self):
        # -1 indexes vertex 3's slot in Python, and (2, 3) is a path edge
        with pytest.raises(ValueError, match=re.escape("edge (-1, 2) is not an edge of the graph")):
            tree_from_edges(P4, [(0, 1), (1, 2), (2, -1)], 0)


class TestPotential:
    def test_small_values(self):
        assert potential(bfs_tree(named_graph("path", (3,)), 0)) == 3
        assert potential(bfs_tree(K4, 0)) == 3
        assert potential(tree_from_edges(K4, [(0, 1), (1, 2), (2, 3)], 0)) == 6

    @given(rooted_connected_graphs())
    def test_bounds(self, case):
        g, root = case
        psi = potential(bfs_tree(g, root))
        assert g.n - 1 <= psi <= (g.n - 1) ** 2


class TestFundamentalPath:
    def test_examples(self):
        t = tree_from_edges(K3, [(0, 1), (0, 2)], 0)
        assert fundamental_path(t, (1, 2)) == (1, 0, 2)
        t = tree_from_edges(K4, [(0, 1), (1, 2), (2, 3)], 0)
        assert fundamental_path(t, (0, 3)) == (0, 1, 2, 3)
        t = tree_from_edges(C5, [(0, 1), (1, 2), (2, 3), (3, 4)], 0)
        assert fundamental_path(t, (0, 4)) == (0, 1, 2, 3, 4)

    def test_rejects_non_cotree_edges(self):
        t = bfs_tree(K3, 0)
        with pytest.raises(ValueError, match="tree edge"):
            fundamental_path(t, (0, 1))
        with pytest.raises(ValueError, match="not an edge"):
            fundamental_path(bfs_tree(P4, 0), (0, 3))
        # vertices outside the graph are refused before the parent map is read
        for e in ((0, 9), (-1, 2)):
            with pytest.raises(ValueError, match=f"^{re.escape(str(e))} is not an edge of the graph$"):
                fundamental_path(t, e)

    @given(rooted_connected_graphs())
    def test_path_properties(self, case):
        g, root = case
        t = bfs_tree(g, root)
        edges = tree_edges(t)
        for e in cotree_edges(t):
            path = fundamental_path(t, e)
            assert path[0] == e[0] and path[-1] == e[1]
            assert len(path) >= 3
            assert len(set(path)) == len(path)
            for a, b in zip(path, path[1:]):
                assert (min(a, b), max(a, b)) in edges


class TestMonotoneReport:
    """How a tree path's shape is reported: valley_index names the path's
    shallowest vertex, and the path is monotone iff that is an end."""

    def test_valley(self):
        t = tree_from_edges(K3, [(0, 1), (0, 2)], 0)
        path = fundamental_path(t, (1, 2))
        assert valley_index(t.depth, path) == 1
        assert not ancestor_related(t.parent, t.depth, 1, 2)

    def test_increasing(self):
        t = tree_from_edges(K4, [(0, 1), (1, 2), (2, 3)], 0)
        assert valley_index(t.depth, fundamental_path(t, (0, 3))) == 0
        assert valley_index(t.depth, (3, 2, 1, 0)) == 3

    def test_single_vertex_path(self):
        t = bfs_tree(P4, 0)
        assert valley_index(t.depth, (2,)) == 0

    @given(rooted_spanning_trees())
    def test_matches_fast_ancestor_test(self, t):
        for e in cotree_edges(t):
            path = fundamental_path(t, e)
            k = valley_index(t.depth, path)
            assert (k in (0, len(path) - 1)) == ancestor_related(t.parent, t.depth, *e)

    def test_ancestor_walk_matches_the_valley_rule_exhaustively(self):
        """The ascent's pop test, the oracle's table pass and the restart
        reference all decide monotonicity by ancestor_related; here it is
        checked against the path's valley on every spanning tree of every
        connected graph with n <= 5, at every root."""
        verdicts = set()
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                for root in range(n):
                    for t in enumerate_spanning_trees(g, root):
                        parent, depth = t.parent, t.depth
                        for a, b in cotree_edges(t):
                            p = fundamental_path(t, (a, b))
                            monotone = not 0 < valley_index(depth, p) < len(p) - 1
                            assert ancestor_related(parent, depth, a, b) == monotone
                            assert ancestor_related(parent, depth, b, a) == monotone
                            verdicts.add(monotone)
        assert verdicts == {True, False}

    @given(rooted_spanning_trees())
    def test_peaks_never_occur_on_tree_paths(self, t):
        for e in cotree_edges(t):
            path = fundamental_path(t, e)
            k = valley_index(t.depth, path)
            for i, v in enumerate(path):
                assert t.depth[v] == t.depth[path[k]] + abs(i - k)


def _rehung(t, add, remove):
    """Vertices whose parent or depth an exchange changes."""
    t2 = apply_swap(t, SwapMove(add, remove, 0))
    return {v for v in range(t.graph.n) if (t2.parent[v], t2.depth[v]) != (t.parent[v], t.depth[v])}


class TestSwaps:
    def test_detached_component_is_deep_side(self):
        """Removing a tree edge detaches the subtree of its lower end; an
        exchange re-hangs only vertices of that side, its top vertex always."""
        assert _rehung(bfs_tree(K4, 0), (1, 2), (0, 1)) == {1}
        t = tree_from_edges(K4, [(0, 3), (1, 2), (1, 3)], 0)
        assert _rehung(t, (0, 1), (0, 3)) == {3, 1, 2}
        exchanges = 0
        for t in enumerate_spanning_trees(K4, 0):
            for e in cotree_edges(t):
                path = fundamental_path(t, e)
                for a, b in zip(path, path[1:]):
                    child = a if t.parent[a] == b else b
                    # v is below child iff v's climb to the root passes it
                    deep = {v for v in range(K4.n) if child in climb(t.parent, t.depth, v, 0)[1]}
                    rehung = _rehung(t, e, (a, b))
                    assert child in rehung and rehung <= deep
                    exchanges += 1
        assert exchanges == 108

    def test_delta_examples(self):
        t = tree_from_edges(K3, [(0, 1), (0, 2)], 0)
        assert delta_potential(t, (1, 2), (0, 1)) == 1
        assert delta_potential(t, (1, 2), (0, 2)) == 1

    def test_apply_swap_examples(self):
        t = tree_from_edges(K3, [(0, 1), (0, 2)], 0)
        t2 = apply_swap(t, SwapMove((1, 2), (0, 1), 1))
        assert tree_edges(t2) == {(0, 2), (1, 2)}
        assert t2.depth == (0, 2, 1)

        star = bfs_tree(K4, 0)
        t3 = apply_swap(star, SwapMove((1, 2), (0, 1), 1))
        assert tree_edges(t3) == {(0, 2), (0, 3), (1, 2)}
        assert t3.depth == (0, 2, 1, 1)
        assert potential(t3) == 4

    def test_apply_swap_keeps_original(self):
        t = tree_from_edges(K3, [(0, 1), (0, 2)], 0)
        apply_swap(t, SwapMove((1, 2), (0, 1), 1))
        assert tree_edges(t) == {(0, 1), (0, 2)}
        assert t.depth == (0, 1, 1)

    def test_undo_restores(self):
        t = bfs_tree(K4, 0)
        move = SwapMove((1, 2), (0, 1), 1)
        t2 = apply_swap(t, move)
        t3 = apply_swap(t2, SwapMove((0, 1), (1, 2), -1))
        assert tree_edges(t3) == tree_edges(t)
        assert t3.depth == t.depth

    def test_rejects_invalid_moves(self):
        t = tree_from_edges(K4, [(0, 1), (0, 2), (0, 3)], 0)
        with pytest.raises(ValueError, match="not on the fundamental path"):
            delta_potential(t, (1, 2), (0, 3))
        with pytest.raises(ValueError, match="cotree"):
            delta_potential(t, (0, 1), (0, 2))
        with pytest.raises(ValueError, match="not an edge"):
            delta_potential(bfs_tree(P4, 0), (0, 3), (0, 1))
        # a removal must be a tree edge; vertices outside the graph included
        for remove in ((2, 3), (0, 9), (-1, 2)):
            with pytest.raises(ValueError, match=f"^{re.escape(str(remove))} is not a tree edge$"):
                delta_potential(t, (1, 2), remove)

    @given(rooted_connected_graphs(), st.data())
    def test_delta_matches_full_recomputation(self, case, data):
        g, root = case
        assume(g.m > g.n - 1)
        t = bfs_tree(g, root)
        e = data.draw(st.sampled_from(cotree_edges(t)))
        path = fundamental_path(t, e)
        j = data.draw(st.integers(0, len(path) - 2))
        removed = (min(path[j], path[j + 1]), max(path[j], path[j + 1]))
        delta = delta_potential(t, e, removed)
        swapped = (tree_edges(t) - {removed}) | {e}
        fresh = tree_from_edges(g, swapped, root)
        assert delta == potential(fresh) - potential(t)
        applied = apply_swap(t, SwapMove(e, removed, delta))
        assert tree_edges(applied) == tree_edges(fresh)
        assert applied.depth == fresh.depth
