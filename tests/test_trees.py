import re

import pytest
from hypothesis import given, assume
import hypothesis.strategies as st

from conftest import connected_graphs, rooted_connected_graphs, rooted_spanning_trees
from treesign import (
    DisconnectedGraphError,
    SwapMove,
    apply_swap,
    bfs_tree,
    cotree_edges,
    delta_potential,
    detached_component,
    fundamental_path,
    make_graph,
    named_graph,
    potential,
    tree_from_edges,
)
from treesign.trees import cotree_path_is_monotone, valley_index

K3 = named_graph("complete", (3,))
K4 = named_graph("complete", (4,))
P4 = named_graph("path", (4,))
C5 = named_graph("cycle", (5,))


class TestBfsTree:
    def test_triangle(self):
        t = bfs_tree(K3, 0)
        assert t.tree_edges == {(0, 1), (0, 2)}
        assert t.depth == (0, 1, 1)

    def test_path_is_its_own_tree(self):
        t = bfs_tree(P4, 0)
        assert t.tree_edges == {(0, 1), (1, 2), (2, 3)}
        assert t.depth == (0, 1, 2, 3)

    def test_complete_graph_star(self):
        t = bfs_tree(K4, 0)
        assert t.tree_edges == {(0, 1), (0, 2), (0, 3)}
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
        assert len(t.tree_edges) == g.n - 1
        for u, v in t.tree_edges:
            assert abs(t.depth[u] - t.depth[v]) == 1


class TestTreeFromEdges:
    def test_rebuild_matches(self):
        t = tree_from_edges(K4, [(0, 3), (1, 2), (1, 3)], 0)
        assert t.depth == (0, 2, 3, 1)
        assert t.children[3] == (1,)

    def test_rejects_bad_edge_sets(self):
        with pytest.raises(ValueError, match="needs 3 edges"):
            tree_from_edges(K4, [(0, 1)], 0)
        with pytest.raises(ValueError, match="not an edge"):
            tree_from_edges(P4, [(0, 2), (1, 2), (2, 3)], 0)
        with pytest.raises(ValueError, match="duplicate"):
            tree_from_edges(K3, [(0, 1), (1, 0)], 0)
        with pytest.raises(ValueError, match="span"):
            tree_from_edges(K4, [(0, 1), (0, 2), (1, 2)], 0)


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
        for e in cotree_edges(t):
            path = fundamental_path(t, e)
            assert path[0] == e[0] and path[-1] == e[1]
            assert len(path) >= 3
            assert len(set(path)) == len(path)
            for a, b in zip(path, path[1:]):
                assert (min(a, b), max(a, b)) in t.tree_edges


class TestMonotoneReport:
    """How a tree path's shape is reported: valley_index names the path's
    shallowest vertex, and the path is monotone iff that is an end."""

    def test_valley(self):
        t = tree_from_edges(K3, [(0, 1), (0, 2)], 0)
        path = fundamental_path(t, (1, 2))
        assert valley_index(t.depth, path) == 1
        assert not cotree_path_is_monotone(t, (1, 2))

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
            assert (k in (0, len(path) - 1)) == cotree_path_is_monotone(t, e)

    @given(rooted_spanning_trees())
    def test_peaks_never_occur_on_tree_paths(self, t):
        for e in cotree_edges(t):
            path = fundamental_path(t, e)
            k = valley_index(t.depth, path)
            for i, v in enumerate(path):
                assert t.depth[v] == t.depth[path[k]] + abs(i - k)


class TestSwaps:
    def test_detached_component_is_deep_side(self):
        t = bfs_tree(K4, 0)
        assert set(detached_component(t, (0, 1))) == {1}
        t = tree_from_edges(K4, [(0, 3), (1, 2), (1, 3)], 0)
        assert set(detached_component(t, (0, 3))) == {3, 1, 2}
        with pytest.raises(ValueError, match="not a tree edge"):
            detached_component(t, (0, 1))
        for removed in ((0, 9), (-1, 2)):
            with pytest.raises(ValueError, match=f"^{re.escape(str(removed))} is not a tree edge$"):
                detached_component(t, removed)

    def test_delta_examples(self):
        t = tree_from_edges(K3, [(0, 1), (0, 2)], 0)
        assert delta_potential(t, (1, 2), (0, 1)) == 1
        assert delta_potential(t, (1, 2), (0, 2)) == 1

    def test_apply_swap_examples(self):
        t = tree_from_edges(K3, [(0, 1), (0, 2)], 0)
        t2 = apply_swap(t, SwapMove((1, 2), (0, 1), 1))
        assert t2.tree_edges == {(0, 2), (1, 2)}
        assert t2.depth == (0, 2, 1)

        star = bfs_tree(K4, 0)
        t3 = apply_swap(star, SwapMove((1, 2), (0, 1), 1))
        assert t3.tree_edges == {(0, 2), (0, 3), (1, 2)}
        assert t3.depth == (0, 2, 1, 1)
        assert potential(t3) == 4

    def test_apply_swap_keeps_original(self):
        t = tree_from_edges(K3, [(0, 1), (0, 2)], 0)
        apply_swap(t, SwapMove((1, 2), (0, 1), 1))
        assert t.tree_edges == {(0, 1), (0, 2)}
        assert t.depth == (0, 1, 1)

    def test_undo_restores(self):
        t = bfs_tree(K4, 0)
        move = SwapMove((1, 2), (0, 1), 1)
        t2 = apply_swap(t, move)
        t3 = apply_swap(t2, SwapMove((0, 1), (1, 2), -1))
        assert t3.tree_edges == t.tree_edges
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
        swapped = (t.tree_edges - {removed}) | {e}
        fresh = tree_from_edges(g, swapped, root)
        assert delta == potential(fresh) - potential(t)
        applied = apply_swap(t, SwapMove(e, removed, delta))
        assert applied.tree_edges == fresh.tree_edges
        assert applied.depth == fresh.depth
