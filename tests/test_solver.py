import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import rooted_connected_graphs
from treesign import (
    DisconnectedGraphError,
    NoImprovingSwapError,
    Sign,
    SwapMove,
    assign_signs,
    bfs_tree,
    cotree_edges,
    delta_potential,
    detached_component,
    find_improving_swap,
    fundamental_path,
    gnp_graph,
    make_graph,
    monotone_spanning_tree,
    named_graph,
    potential,
    solve,
    tree_from_edges,
    verify_alternating,
    verify_monotone,
)
from treesign.oracle import enumerate_connected_graphs, enumerate_spanning_trees
from treesign.solver import (
    _monotone_spanning_tree_restart,
    _path_gains,
    candidate_deltas,
    falsification_instance,
)
from treesign.trees import cotree_path_is_monotone

K3 = named_graph("complete", (3,))
K4 = named_graph("complete", (4,))
P4 = named_graph("path", (4,))


def assert_matches_restart_reference(g, root):
    """The incremental ascent makes the moves of a full rescan after every
    exchange, and ends at the same tree."""
    t, trace = monotone_spanning_tree(g, root)
    ref_t, ref_trace = _monotone_spanning_tree_restart(g, root)
    assert trace == ref_trace
    assert t.depth == ref_t.depth
    assert t.tree_edges == ref_t.tree_edges
    return trace


class TestSign:
    def test_flip_is_an_involution(self):
        assert Sign.PLUS.flipped() is Sign.MINUS
        assert Sign.MINUS.flipped() is Sign.PLUS
        assert str(Sign.PLUS) == "+" and str(Sign.MINUS) == "-"


class TestCandidateDeltas:
    def test_triangle_both_candidates_gain_one(self):
        t = tree_from_edges(K3, [(0, 1), (0, 2)], 0)
        assert candidate_deltas(t, (1, 2)) == [((0, 1), 1), ((0, 2), 1)]

    def test_deep_valley(self):
        t = tree_from_edges(K4, [(0, 2), (0, 3), (1, 2)], 0)
        assert candidate_deltas(t, (1, 3)) == [((1, 2), 0), ((0, 2), 2), ((0, 3), 2)]

    def test_monotone_path_is_rejected(self):
        g = named_graph("cycle", (4,))
        t = tree_from_edges(g, [(0, 1), (1, 2), (2, 3)], 0)
        with pytest.raises(ValueError, match="monotone"):
            candidate_deltas(t, (0, 3))

    @given(rooted_connected_graphs(), st.data())
    def test_agrees_with_one_at_a_time_recomputation(self, case, data):
        g, root = case
        t = bfs_tree(g, root)
        bad = [e for e in cotree_edges(t) if not cotree_path_is_monotone(t, e)]
        if not bad:
            return
        e = data.draw(st.sampled_from(bad))
        for removed, delta in candidate_deltas(t, e):
            assert delta == delta_potential(t, e, removed)


class TestFindImprovingSwap:
    def test_triangle_tie_goes_to_first_path_edge(self):
        t = tree_from_edges(K3, [(0, 1), (0, 2)], 0)
        assert find_improving_swap(t, (1, 2)) == SwapMove((1, 2), (0, 1), 1)

    def test_max_gain_wins(self):
        t = tree_from_edges(K4, [(0, 2), (0, 3), (1, 2)], 0)
        assert find_improving_swap(t, (1, 3)) == SwapMove((1, 3), (0, 2), 2)

    def test_monotone_path_is_rejected(self):
        g = named_graph("cycle", (4,))
        t = tree_from_edges(g, [(0, 1), (1, 2), (2, 3)], 0)
        with pytest.raises(ValueError, match="monotone"):
            find_improving_swap(t, (0, 3))

    def test_best_removal_is_at_the_top(self):
        """The ascent relies on this: the best exchange removes one of the
        two path edges at the top, on every non-monotone path of every
        spanning tree of every connected graph with n <= 5. There the
        ascent's closed-form gains also equal the re-rooted reference's."""
        paths = 0
        for n in range(3, 6):
            for g in enumerate_connected_graphs(n):
                for t in enumerate_spanning_trees(g, 0):
                    for e in cotree_edges(t):
                        if not cotree_path_is_monotone(t, e):
                            path = fundamental_path(t, e)
                            top = min(path, key=t.depth.__getitem__)
                            assert top in find_improving_swap(t, e).removed
                            sizes = [
                                n if p is None else len(detached_component(t, (v, p)))
                                for v, p in enumerate(t.parent)
                            ]
                            assert _path_gains(path, t.depth, sizes)[1] == [
                                d for _, d in candidate_deltas(t, e)
                            ]
                            paths += 1
        assert paths == 9865

    def test_error_carries_the_instance(self):
        t = tree_from_edges(K3, [(0, 1), (0, 2)], 0)
        path = fundamental_path(t, (1, 2))
        instance = falsification_instance(t, (1, 2), path, [((0, 1), 0)])
        err = NoImprovingSwapError(instance)
        assert err.instance["n"] == 3
        assert err.instance["path"] == [1, 0, 2]
        assert "instance dump" in str(err)


class TestMonotoneSpanningTree:
    def test_triangle(self):
        t, trace = monotone_spanning_tree(K3, 0)
        assert t.tree_edges == {(0, 2), (1, 2)}
        assert t.depth == (0, 2, 1)
        assert trace.initial_psi == 2 and trace.final_psi == 3
        assert trace.moves == (SwapMove((1, 2), (0, 1), 1),)

    def test_path_needs_no_moves(self):
        t, trace = monotone_spanning_tree(P4, 0)
        assert t.depth == (0, 1, 2, 3)
        assert trace.moves == ()
        assert trace.initial_psi == trace.final_psi == 6

    def test_complete_four(self):
        t, trace = monotone_spanning_tree(K4, 0)
        assert t.tree_edges == {(0, 3), (1, 2), (1, 3)}
        assert t.depth == (0, 2, 3, 1)
        assert trace.initial_psi == 3 and trace.final_psi == 6
        assert trace.moves == (
            SwapMove((1, 2), (0, 1), 1),
            SwapMove((1, 3), (0, 2), 2),
        )

    def test_every_cotree_path_ends_up_monotone(self):
        g = gnp_graph(30, 0.2, seed=5)
        t, _ = monotone_spanning_tree(g, 0)
        assert verify_monotone(g, t).ok

    @given(rooted_connected_graphs(max_n=14))
    @settings(max_examples=60)
    def test_matches_full_restart_reference(self, case):
        assert_matches_restart_reference(*case)

    def test_matches_restart_reference_on_every_small_graph(self):
        pairs = 0
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                for root in range(n):
                    assert_matches_restart_reference(g, root)
                    pairs += 1
        assert pairs == 3807

    @pytest.mark.parametrize(
        "family, params, moves",
        [
            ("complete", (30,), 210),
            ("grid", (6, 6), 15),
            ("hypercube", (5,), 32),
            ("cycle", (64,), 1),
            ("cycle", (65,), 1),
            ("path", (64,), 0),
        ],
    )
    def test_matches_restart_reference_mid_size(self, family, params, moves):
        trace = assert_matches_restart_reference(named_graph(family, params), 0)
        assert len(trace.moves) == moves

    def test_long_cycle_rehangs_one_branch_in_one_move(self):
        # The breadth-first tree of an odd cycle is two branches of 10,000
        # edges; the one move re-hangs a whole branch below the other.
        g = named_graph("cycle", (20001,))
        t, trace = monotone_spanning_tree(g, 0)
        assert [m.removed for m in trace.moves] == [(0, 1)]
        assert trace.final_psi == g.n * (g.n - 1) // 2
        assert sorted(t.depth) == list(range(g.n))

    @given(rooted_connected_graphs())
    def test_ascent_is_strict_and_bounded(self, case):
        g, root = case
        t, trace = monotone_spanning_tree(g, root)
        assert all(m.delta_psi >= 1 for m in trace.moves)
        assert trace.final_psi == trace.initial_psi + sum(m.delta_psi for m in trace.moves)
        assert trace.final_psi == potential(t)
        assert trace.final_psi <= (g.n - 1) ** 2
        assert len(trace.moves) <= (g.n - 1) ** 2 - trace.initial_psi
        assert verify_monotone(g, t).ok


class TestAssignSigns:
    def test_parity_rule(self):
        star = bfs_tree(K4, 0)
        assert assign_signs(star) == {
            (0, 1): Sign.MINUS,
            (0, 2): Sign.MINUS,
            (0, 3): Sign.MINUS,
        }

    def test_path_alternates_from_the_root(self):
        t = bfs_tree(P4, 0)
        assert assign_signs(t) == {
            (0, 1): Sign.MINUS,
            (1, 2): Sign.PLUS,
            (2, 3): Sign.MINUS,
        }

    @given(rooted_connected_graphs())
    def test_signs_alternate_down_every_branch(self, case):
        g, root = case
        t = bfs_tree(g, root)
        signs = assign_signs(t)
        for v, p in enumerate(t.parent):
            gp = t.parent[p] if p is not None else None
            if p is None or gp is None:
                continue
            lower = (min(v, p), max(v, p))
            upper = (min(p, gp), max(p, gp))
            assert signs[lower] is signs[upper].flipped()


class TestVerifyAlternating:
    def test_accepts_a_solution(self):
        s = solve(K3)
        assert verify_alternating(K3, s.tree, s.signs).ok

    def test_reports_the_first_clash(self):
        s = solve(K3)
        broken = dict(s.signs)
        broken[(0, 2)] = broken[(0, 2)].flipped()
        report = verify_alternating(K3, s.tree, broken)
        assert not report.ok
        (v,) = report.violations
        assert v.cotree_edge == (0, 1)
        assert v.path == (0, 2, 1)
        assert v.index == 0
        assert v.failed == "alternation"

    def test_no_cotree_edges_is_vacuously_ok(self):
        t = bfs_tree(P4, 0)
        labels = {e: Sign.PLUS for e in t.tree_edges}
        assert verify_alternating(P4, t, labels).ok

    def test_rejects_partial_labelings(self):
        t = bfs_tree(K3, 0)
        with pytest.raises(ValueError, match=r"unlabeled tree edges \[\(0, 2\)\]"):
            verify_alternating(K3, t, {(0, 1): Sign.PLUS})
        full = {(0, 1): Sign.PLUS, (0, 2): Sign.MINUS, (1, 2): Sign.PLUS}
        with pytest.raises(ValueError, match="non-tree edges"):
            verify_alternating(K3, t, full)


class TestVerifyMonotone:
    def test_star_fails_everywhere(self):
        t = bfs_tree(K4, 0)
        report = verify_monotone(K4, t)
        assert not report.ok
        assert [v.cotree_edge for v in report.violations] == [(1, 2), (1, 3), (2, 3)]
        assert all(v.index == 1 and v.failed == "monotonicity" for v in report.violations)

    def test_hamiltonian_path_tree_passes(self):
        g = named_graph("cycle", (4,))
        t = tree_from_edges(g, [(0, 1), (1, 2), (2, 3)], 0)
        assert verify_monotone(g, t).ok


class TestSolve:
    def test_triangle_end_to_end(self):
        s = solve(K3)
        assert s.tree.tree_edges == {(0, 2), (1, 2)}
        assert s.signs == {(0, 2): Sign.MINUS, (1, 2): Sign.PLUS}
        assert s.trace.final_psi == 3

    def test_single_vertex(self):
        g, _ = make_graph(1, [])
        s = solve(g)
        assert s.tree.tree_edges == set()
        assert s.signs == {}
        assert s.trace == s.trace.__class__(0, (), 0)

    def test_disconnected_is_refused(self):
        g, _ = make_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError, match="not connected"):
            solve(g)

    def test_deterministic(self):
        g = gnp_graph(12, 0.4, seed=7)
        a, b = solve(g), solve(g)
        assert a.tree.tree_edges == b.tree.tree_edges
        assert a.signs == b.signs
        assert a.trace == b.trace

    def test_nonzero_root(self):
        s = solve(K4, root=2)
        assert s.tree.root == 2
        assert s.tree.depth[2] == 0
        assert verify_monotone(K4, s.tree).ok

    @given(rooted_connected_graphs())
    def test_solutions_always_verify(self, case):
        g, root = case
        s = solve(g, root)
        assert verify_alternating(g, s.tree, s.signs).ok
        assert verify_monotone(g, s.tree).ok
        assert set(s.signs) == s.tree.tree_edges
