import hashlib
import itertools
import json

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from conftest import child, flipped, rooted_connected_graphs, tree_edges
from reference import (
    _monotone_spanning_tree_restart,
    find_improving_swap,
    valley_index,
    verify_monotone,
)
from treesign import (
    DisconnectedGraphError,
    NoImprovingSwapError,
    SwapMove,
    assign_signs,
    bfs_tree,
    canonical_edge,
    cotree_edges,
    delta_potential,
    fundamental_path,
    gnp_graph,
    is_connected,
    make_graph,
    monotone_spanning_tree,
    named_graph,
    potential,
    solve,
    tree_from_edges,
    verify_alternating,
)
from treesign.oracle import enumerate_connected_graphs, enumerate_spanning_trees
import treesign.solver
from treesign.solver import (
    VerificationReport,
    Violation,
    _valley_exchanges,
    falsification_instance,
)
from treesign.trees import ancestor_related

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
    assert tree_edges(t) == tree_edges(ref_t)
    return trace


def walking_verifier(t, phi):
    """Reference alternation check: walk every cotree edge's whole
    fundamental path and report its first pair of equal signs. A path
    edge's sign is its child's entry."""
    violations = []
    for e in cotree_edges(t):
        path = fundamental_path(t, e)
        signs = [phi[child(t, pair)] for pair in zip(path, path[1:])]
        for j in range(len(signs) - 1):
            if signs[j] == signs[j + 1]:
                violations.append(Violation(e, path, j, "alternation"))
                break
    return VerificationReport(ok=not violations, violations=tuple(violations))


def assert_matches_walking_verifier(t, phi):
    report = verify_alternating(t, phi)
    assert report == walking_verifier(t, phi)
    return report


def labeling(t, signs):
    """The per-vertex labeling that gives the non-root vertices, in index
    order, the parent-edge signs ``signs``."""
    signs = iter(signs)
    return tuple(None if p is None else next(signs) for p in t.parent)


def _candidate_deltas(t, e):
    """Each removal candidate on e's fundamental path, in path order, with
    its re-rooted gain: the list find_improving_swap chooses from."""
    path = fundamental_path(t, e)
    removals = [canonical_edge(a, b) for a, b in zip(path, path[1:])]
    return [(r, delta_potential(t, e, r)) for r in removals]


class TestCandidateDeltas:
    def test_triangle_both_candidates_gain_one(self):
        t = tree_from_edges(K3, [(0, 1), (0, 2)], 0)
        assert _candidate_deltas(t, (1, 2)) == [((0, 1), 1), ((0, 2), 1)]

    def test_deep_valley(self):
        # path 1-2-0-3: the edge off the valley gains nothing, both valley edges gain 2
        t = tree_from_edges(K4, [(0, 2), (0, 3), (1, 2)], 0)
        assert _candidate_deltas(t, (1, 3)) == [((1, 2), 0), ((0, 2), 2), ((0, 3), 2)]

    def test_monotone_path_is_rejected(self):
        # no candidate on a monotone path gains, so there is nothing to choose from
        g = named_graph("cycle", (4,))
        t = tree_from_edges(g, [(0, 1), (1, 2), (2, 3)], 0)
        assert all(d < 1 for _, d in _candidate_deltas(t, (0, 3)))
        with pytest.raises(ValueError, match="monotone"):
            find_improving_swap(t, (0, 3))


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
        """The ascent relies on this: on every non-monotone path of every
        spanning tree of every connected graph with n <= 5, the closed-form
        valley gains equal the re-rooted reference's, the reference's best
        removal is a valley edge, and every other candidate with a gain of
        at least 1 is strictly below the better valley gain, so choosing
        the left valley edge on a tie is the reference's tie-break."""
        paths = 0
        for n in range(3, 6):
            for g in enumerate_connected_graphs(n):
                for t in enumerate_spanning_trees(g, 0):
                    for e in cotree_edges(t):
                        if not ancestor_related(t.parent, t.depth, *e):
                            path = fundamental_path(t, e)
                            k = valley_index(t.depth, path)
                            deltas = [d for _, d in _candidate_deltas(t, e)]
                            sizes = [1] * n
                            for v in sorted(range(n), key=t.depth.__getitem__, reverse=True):
                                if t.parent[v] is not None:
                                    sizes[t.parent[v]] += sizes[v]
                            top, up_a, up_b, left, right = _valley_exchanges(
                                t.parent, t.depth, sizes, *e
                            )
                            assert (*up_a, top, *reversed(up_b)) == path
                            assert len(up_a) == k
                            assert (left, right) == (deltas[k - 1], deltas[k])
                            assert path[k] in find_improving_swap(t, e).removed
                            assert all(
                                d < max(left, right)
                                for j, d in enumerate(deltas)
                                if j not in (k - 1, k) and d >= 1
                            )
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

    def test_ascent_raises_with_the_two_valley_candidates(self, monkeypatch):
        """The ascent's safety net: when neither valley exchange gains 1,
        solve() raises with the path and both valley candidates, in path
        order."""
        climb = treesign.solver._valley_exchanges
        monkeypatch.setattr(
            treesign.solver, "_valley_exchanges", lambda *args: climb(*args)[:3] + (-1, 0)
        )
        with pytest.raises(NoImprovingSwapError) as raised:
            solve(K3)
        instance = raised.value.instance
        assert instance["cotree_edge"] == [1, 2]
        assert instance["path"] == [1, 0, 2]
        assert instance["tree_edges"] == [[0, 1], [0, 2]]
        assert instance["candidates"] == [
            {"removed": [0, 1], "delta_psi": -1},
            {"removed": [0, 2], "delta_psi": 0},
        ]


VALLEY_SHAPE = "^tree path depths are not valley-shaped: "


class TestValleyClimb:
    def test_triangle(self):
        t = tree_from_edges(K3, [(0, 1), (0, 2)], 0)
        assert _valley_exchanges(t.parent, t.depth, [3, 1, 1], 1, 2) == (0, [1], [2], 1, 1)
        assert _valley_exchanges(t.parent, t.depth, [3, 1, 1], 2, 1) == (0, [2], [1], 1, 1)

    def test_one_corrupt_depth_on_the_path_is_refused(self):
        """A depth one off at any interior vertex of a non-monotone path,
        or one too deep at an endpoint, breaks the climb's step-by-1 rule
        and raises the valley-shape AssertionError, on every such path of
        every spanning tree of every connected graph with n <= 5 at root 0.
        (An endpoint made shallower can instead send the other end's climb
        past the root.)"""
        refused = 0
        for n in range(3, 6):
            for g in enumerate_connected_graphs(n):
                for t in enumerate_spanning_trees(g, 0):
                    for e in cotree_edges(t):
                        if ancestor_related(t.parent, t.depth, *e):
                            continue
                        path = fundamental_path(t, e)
                        for i, v in enumerate(path):
                            for shift in (1,) if i in (0, len(path) - 1) else (-1, 1):
                                depth = list(t.depth)
                                depth[v] += shift
                                with pytest.raises(AssertionError, match=VALLEY_SHAPE):
                                    _valley_exchanges(t.parent, depth, [1] * n, *e)
                                refused += 1
        assert refused == 51_796


class TestMonotoneSpanningTree:
    def test_triangle(self):
        t, trace = monotone_spanning_tree(K3, 0)
        assert tree_edges(t) == {(0, 2), (1, 2)}
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
        assert tree_edges(t) == {(0, 3), (1, 2), (1, 3)}
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

    @pytest.mark.parametrize(
        "graph, moves, digest",
        [
            (("complete", (40,)), 380, "05a3ad8376239fc32e86bfe2a74e55d5962deaaafd5d627ae477640bae6b13a6"),
            (("grid", (12, 9)), 44, "cd3598cf98e78ce84b0307319e836c5f3452dfe17af3e05773231eb67c14e52f"),
            (("hypercube", (6,)), 83, "f96d59f372a8df46dbf5539a7b95fdfa3ab97ad871d4b6ba138ef6efeb8b80b1"),
            ((60, 0.1, 2), 44, "fdd109a62e9657cc50b8fc92e8d678f3157eb97425010269585846f5cadcb5cf"),
            ((60, 0.1, 3), 50, "20c50866f9c77e538b350ece5aa8fc7a469bd95721b1a7f8030777ab2d6d8b09"),
            ((60, 0.1, 4), 48, "ca82909b79f4fddf850517795f9fc76feb2b03f23a6c93f32396e5d0e44a4a1b"),
            ((60, 0.3, 1), 148, "95b7a48f03f61d617e4fc81fb2f94845de363a9cdceb7bf4b712eddd84fda84a"),
            ((60, 0.3, 2), 131, "72eb2b23332da0f59eda0fdba93a5a072815e667912918485aeb50d504ab7d97"),
            ((60, 0.3, 3), 156, "ded2da7692029cac5e0255816b86fd9cb4515b69896c9b03717b8d8c2516530c"),
        ],
        ids=["K40", "grid12x9", "hypercube6", "gnp60-0.1-2", "gnp60-0.1-3", "gnp60-0.1-4",
             "gnp60-0.3-1", "gnp60-0.3-2", "gnp60-0.3-3"],
    )
    def test_move_traces_are_pinned(self, graph, moves, digest):
        """The sha256 of each trace at root 0, as [initial_psi, [[added u,
        added v, removed u, removed v, gain] per move], final_psi] in JSON:
        an ascent that prices or climbs differently must make byte-identical
        moves. G(60, 0.1) seed 1 is disconnected, so seed 4 takes its place."""
        g = named_graph(*graph) if isinstance(graph[0], str) else gnp_graph(*graph)
        _, trace = monotone_spanning_tree(g, 0)
        doc = [
            trace.initial_psi,
            [[*m.added, *m.removed, m.delta_psi] for m in trace.moves],
            trace.final_psi,
        ]
        assert len(trace.moves) == moves
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest

    def test_restart_reference_shares_no_pricing_with_the_ascent(self, monkeypatch):
        """Swapping the ascent's two valley gains changes its moves, and
        leaves the reference's alone: the reference's agreement with the
        ascent is not the ascent's own pricing read back."""
        graphs = [
            named_graph("complete", (6,)),
            named_graph("grid", (3, 4)),
            named_graph("hypercube", (3,)),
        ]
        graphs += [g for g in (gnp_graph(9, 0.4, seed) for seed in range(20)) if is_connected(g)]
        ascent = [monotone_spanning_tree(g)[1] for g in graphs]
        reference = [_monotone_spanning_tree_restart(g)[1] for g in graphs]
        climb = treesign.solver._valley_exchanges

        def swapped_gains(*args):
            top, up_a, up_b, left, right = climb(*args)
            return top, up_a, up_b, right, left

        monkeypatch.setattr(treesign.solver, "_valley_exchanges", swapped_gains)
        assert [_monotone_spanning_tree_restart(g)[1] for g in graphs] == reference
        changed = [monotone_spanning_tree(g)[1] != trace for g, trace in zip(graphs, ascent)]
        assert len(graphs) == 21 and changed.count(True) == 20

    def test_only_moving_pops_build_a_tree_path(self, monkeypatch):
        """A pop whose path is monotone is dropped by the ancestor walk
        alone; only the pops that make a move climb to the valley, which
        builds the path's two branches."""
        cases = [
            (g, root)
            for n in range(1, 6)
            for g in enumerate_connected_graphs(n)
            for root in range(n)
        ]
        cases += [(named_graph("complete", (12,)), 0), (gnp_graph(40, 0.3, 1), 0)]
        traces = [monotone_spanning_tree(g, root)[1] for g, root in cases]
        calls = 0

        climb = treesign.solver._valley_exchanges

        def counted_climb(*args):
            nonlocal calls
            calls += 1
            return climb(*args)

        monkeypatch.setattr(treesign.solver, "_valley_exchanges", counted_climb)
        for (g, root), trace in zip(cases, traces):
            calls = 0
            assert monotone_spanning_tree(g, root)[1] == trace
            assert calls == len(trace.moves)
        assert len(traces[-2].moves) > 0 and len(traces[-1].moves) > 0

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
        assert assign_signs(star) == (None, "-", "-", "-")

    def test_path_alternates_from_the_root(self):
        t = bfs_tree(P4, 0)
        assert assign_signs(t) == (None, "-", "+", "-")
        assert assign_signs(bfs_tree(P4, 2)) == ("+", "-", None, "-")

    @given(rooted_connected_graphs())
    def test_signs_alternate_down_every_branch(self, case):
        g, root = case
        t = bfs_tree(g, root)
        signs = assign_signs(t)
        assert [s is None for s in signs] == [p is None for p in t.parent]
        for v, p in enumerate(t.parent):
            if p is not None and t.parent[p] is not None:
                assert {signs[v], signs[p]} == {"+", "-"}


class TestVerifyAlternating:
    def test_accepts_a_solution(self):
        s = solve(K3)
        assert verify_alternating(s.tree, s.signs).ok

    def test_reports_the_first_clash(self):
        s = solve(K3)
        broken = flipped(s.signs, child(s.tree, (0, 2)))
        report = verify_alternating(s.tree, broken)
        assert not report.ok
        (v,) = report.violations
        assert v.cotree_edge == (0, 1)
        assert v.path == (0, 2, 1)
        assert v.index == 0
        assert v.failed == "alternation"

    def test_no_cotree_edges_is_vacuously_ok(self):
        t = bfs_tree(P4, 0)
        assert verify_alternating(t, (None, "+", "+", "+")).ok

    @pytest.mark.parametrize(
        "phi, message",
        [
            ((None, "+"), "labeling has 2 entries for 3 vertices"),
            ((None, "+", "-", "+"), "labeling has 4 entries for 3 vertices"),
            ((), "labeling has 0 entries for 3 vertices"),
            (("+", "+", "-"), "labeling has '+' at the root 0, which has no parent edge"),
            ((None, None, "-"), "labeling has None for tree edge (1, 0), not '+' or '-'"),
            ((None, "+", "x"), "labeling has 'x' for tree edge (2, 0), not '+' or '-'"),
            ((None, 1, "-"), "labeling has 1 for tree edge (1, 0), not '+' or '-'"),
            ((None, "-", True), "labeling has True for tree edge (2, 0), not '+' or '-'"),
            ((None, "+ ", "-"), "labeling has '+ ' for tree edge (1, 0), not '+' or '-'"),
        ],
        ids=["short", "long", "empty", "root-signed", "none", "text", "int", "bool", "padded"],
    )
    def test_refuses_malformed_labelings(self, phi, message):
        t = bfs_tree(K3, 0)
        with pytest.raises(ValueError) as refused:
            verify_alternating(t, phi)
        assert str(refused.value) == message

    def test_rejects_partial_labelings(self):
        # Leaving out any nonempty set of tree-edge signs, or cutting the
        # tuple short, is refused; the message names the first unlabeled edge.
        g = named_graph("grid", (2, 3))
        t = bfs_tree(g, 0)
        full = assign_signs(t)
        for blank in itertools.product([False, True], repeat=g.n - 1):
            if not any(blank):
                continue
            phi = (None,) + tuple(None if b else s for b, s in zip(blank, full[1:]))
            v = blank.index(True) + 1
            with pytest.raises(ValueError) as refused:
                verify_alternating(t, phi)
            assert str(refused.value) == (
                f"labeling has None for tree edge ({v}, {t.parent[v]}), not '+' or '-'"
            )
        for k in range(g.n):
            with pytest.raises(ValueError) as refused:
                verify_alternating(t, full[:k])
            assert str(refused.value) == f"labeling has {k} entries for {g.n} vertices"

    @given(rooted_connected_graphs(max_n=6), st.data())
    def test_any_labeling_is_judged_or_refused_by_value_error(self, case, data):
        # A well-formed labeling gets a verdict; any other raises a
        # ValueError, never an IndexError, and gets none.
        g, root = case
        t = bfs_tree(g, root)
        entries = st.sampled_from([None, "+", "-", "x", 0, True, ""])
        valid = st.lists(st.sampled_from("+-"), min_size=g.n - 1, max_size=g.n - 1).map(
            lambda signs: labeling(t, signs)
        )
        one_replaced = st.tuples(valid, st.integers(0, g.n - 1), entries).map(
            lambda x: x[0][: x[1]] + (x[2],) + x[0][x[1] + 1 :]
        )
        phi = data.draw(valid | one_replaced | st.lists(entries, max_size=g.n + 2).map(tuple))
        well_formed = len(phi) == g.n and all(
            (s is None) if p is None else s in ("+", "-") for s, p in zip(phi, t.parent)
        )
        if well_formed:
            assert verify_alternating(t, phi) == walking_verifier(t, phi)
        else:
            with pytest.raises(ValueError, match="^labeling has "):
                verify_alternating(t, phi)

    def test_signs_compare_by_value(self):
        # Equal strings need not be one object; a str subclass makes copies
        # that CPython's one-character string cache cannot share.
        class Copy(str):
            pass

        for g in (K3, K4, named_graph("cycle", (5,)), named_graph("grid", (3, 3))):
            t = bfs_tree(g, 0)
            phi = assign_signs(t)
            copies = tuple(None if x is None else Copy(x) for x in phi)
            assert copies == phi and copies[1] is not phi[1]
            for v in range(1, g.n):
                mixed = flipped(copies, v)
                assert verify_alternating(t, mixed) == walking_verifier(t, mixed), (g.edges, v)

    def test_matches_walking_verifier_exhaustively(self):
        # Every connected graph with n <= 4, spanning tree, root and labeling.
        cases = failing = 0
        for n in range(1, 5):
            for g in enumerate_connected_graphs(n):
                for root in range(n):
                    for t in enumerate_spanning_trees(g, root):
                        for signs in itertools.product("+-", repeat=n - 1):
                            report = assert_matches_walking_verifier(t, labeling(t, signs))
                            cases += 1
                            failing += not report.ok
        assert (cases, failing) == (4173, 2450)

    @given(rooted_connected_graphs(max_n=14), st.data())
    @settings(max_examples=200)
    def test_matches_walking_verifier_on_random_trees(self, case, data):
        g, root = case
        # Kruskal over a random edge order gives a random spanning tree.
        comp = list(range(g.n))

        def find(x):
            while comp[x] != x:
                x = comp[x]
            return x

        edges = []
        for u, v in data.draw(st.permutations(g.edges)):
            ru, rv = find(u), find(v)
            if ru != rv:
                comp[ru] = rv
                edges.append((u, v))
        t = tree_from_edges(g, edges, root)
        kind = data.draw(st.sampled_from(["random", "parity", "parity with one flip"]))
        if kind == "random":
            m = len(edges)
            phi = labeling(t, data.draw(st.lists(st.sampled_from("+-"), min_size=m, max_size=m)))
        else:
            phi = assign_signs(t)
            if kind == "parity with one flip" and edges:
                e = data.draw(st.sampled_from(t.sorted_edges()))
                phi = flipped(phi, child(t, e))
        assert_matches_walking_verifier(t, phi)

    def test_passing_edges_walk_no_path(self, monkeypatch):
        # The pass/fail decision walks no tree path; only failing edges do.
        n = 3000
        path_edges = [(v, v + 1) for v in range(n - 1)]
        g, _ = make_graph(n, path_edges + [(0, k) for k in range(2, n, 100)])
        deep = tree_from_edges(g, path_edges, 0)
        instances = [(g, deep)]
        for family, params, root in [
            ("complete", (6,), 0),
            ("grid", (4, 5), 7),
            ("hypercube", (4,), 3),
            ("cycle", (9,), 4),
        ]:
            h = named_graph(family, params)
            instances.append((h, solve(h, root).tree))
        h = gnp_graph(40, 0.2, seed=3)
        instances.append((h, solve(h).tree))

        calls = []
        real = treesign.solver.fundamental_path

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(treesign.solver, "fundamental_path", counted)
        for h, t in instances:
            phi = assign_signs(t)
            assert verify_alternating(t, phi).ok
            assert calls == []
            e = t.sorted_edges()[(h.n - 1) * 5 // 6]
            phi = flipped(phi, child(t, e))
            report = verify_alternating(t, phi)
            assert len(calls) == len(report.violations)
            calls.clear()

        phi = flipped(assign_signs(deep), 2501)  # the edge (2500, 2501)
        report = verify_alternating(deep, phi)
        assert [v.cotree_edge for v in report.violations] == [(0, k) for k in range(2502, n, 100)]
        assert {v.index for v in report.violations} == {2499}
        assert len(calls) == 5


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
        assert tree_edges(s.tree) == {(0, 2), (1, 2)}
        assert s.signs == (None, "+", "-")  # (1, 2) is +, (0, 2) is -
        assert s.trace.final_psi == 3

    def test_single_vertex(self):
        g, _ = make_graph(1, [])
        s = solve(g)
        assert tree_edges(s.tree) == set()
        assert s.signs == (None,)
        assert s.trace == s.trace.__class__(0, (), 0)

    def test_disconnected_is_refused(self):
        g, _ = make_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError, match="not connected"):
            solve(g)

    def test_deterministic(self):
        g = gnp_graph(12, 0.4, seed=7)
        a, b = solve(g), solve(g)
        assert tree_edges(a.tree) == tree_edges(b.tree)
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
        assert verify_alternating(s.tree, s.signs).ok
        assert verify_monotone(g, s.tree).ok
        assert [x is None for x in s.signs] == [p is None for p in s.tree.parent]
