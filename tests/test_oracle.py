import itertools
import time

import pytest
from hypothesis import given, settings

from conftest import connected_graphs, tree_edges
from reference import valley_index
from treesign import (
    DisconnectedGraphError,
    EnumerationLimitError,
    OracleReport,
    bfs_tree,
    canonical_edge,
    cotree_edges,
    count_spanning_trees,
    delta_potential,
    enumerate_connected_graphs,
    enumerate_spanning_trees,
    exhaustive_check,
    fundamental_path,
    make_graph,
    max_potential_tree,
    named_graph,
    potential,
    require_connected,
    tree_from_edges,
)
from treesign import oracle, trees
from treesign.graphs import breadth_first
from treesign.oracle import (
    _edge_bits,
    _improvable,
    _integer_determinant,
    _potential_table,
)

K3 = named_graph("complete", (3,))
K4 = named_graph("complete", (4,))
P4 = named_graph("path", (4,))
C4 = named_graph("cycle", (4,))


def small_rooted_graphs():
    """Every connected labeled graph with n <= 5, at roots 0 and n - 1."""
    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            for root in sorted({0, n - 1}):
                yield g, root


def admits_improving_swap_reference(t):
    """The search without a probe order: every removal on every cotree
    edge's fundamental path, in path order."""
    for e in cotree_edges(t):
        path = fundamental_path(t, e)
        for j in range(len(path) - 1):
            removed = canonical_edge(path[j], path[j + 1])
            if delta_potential(t, e, removed) >= 1:
                return True
    return False


class TestEnumeration:
    def test_triangle_trees(self):
        trees = list(enumerate_spanning_trees(K3, 0))
        assert [t.sorted_edges() for t in trees] == [
            ((0, 1), (0, 2)),
            ((0, 2), (1, 2)),
            ((0, 1), (1, 2)),
        ]

    def test_trees_are_spanning_and_distinct(self):
        trees = list(enumerate_spanning_trees(K4, 0))
        assert len(trees) == 16
        assert len({tree_edges(t) for t in trees}) == 16
        for t in trees:
            assert len(tree_edges(t)) == 3
            assert t.root == 0 and t.depth[0] == 0
            assert all(d is not None for d in t.depth)

    def test_single_vertex(self):
        g, _ = make_graph(1, [])
        (t,) = enumerate_spanning_trees(g, 0)
        assert tree_edges(t) == set()

    def test_tree_cap(self):
        with pytest.raises(EnumerationLimitError, match="more than 5"):
            list(enumerate_spanning_trees(K4, 0, max_trees=5))

    def test_more_edges_than_the_recursion_limit(self):
        g = named_graph("path", (3000,))
        (t,) = enumerate_spanning_trees(g, 0)
        assert tree_edges(t) == g.edge_set

    def test_bad_root(self):
        with pytest.raises(ValueError, match="out of range"):
            list(enumerate_spanning_trees(K3, 5))

    def test_disconnected(self):
        g, _ = make_graph(3, [(0, 1)])
        with pytest.raises(DisconnectedGraphError):
            list(enumerate_spanning_trees(g, 0))

    def test_components_are_listed_only_when_disconnected(self, monkeypatch):
        def refuse(g):
            raise AssertionError("components listed for a connected graph")

        monkeypatch.setattr(trees, "connected_components", refuse)
        assert len(list(enumerate_spanning_trees(K4, 2))) == 16

    def test_trees_match_validated_rooting(self):
        checked = 0
        for g, root in small_rooted_graphs():
            for t in enumerate_spanning_trees(g, root):
                ref = tree_from_edges(g, t.sorted_edges(), root)
                assert (t.parent, t.depth, t.root) == (ref.parent, ref.depth, root)
                checked += 1
        assert checked == 1 + 2 * (1 + 6 + 128 + 8000)

    def test_tree_sets_match_a_brute_force(self):
        # The reference keeps every (n - 1)-subset of the graph's edges that
        # tree_from_edges accepts; it shares no code with the enumerator.
        pairs = 0
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                reference = set()
                for edges in itertools.combinations(g.edges, n - 1):
                    try:
                        tree_from_edges(g, edges, 0)
                    except ValueError:
                        continue
                    reference.add(frozenset(edges))
                for root in range(n):
                    trees = [tree_edges(t) for t in enumerate_spanning_trees(g, root)]
                    assert len(trees) == len(set(trees)), (g.edges, root)
                    assert set(trees) == reference, (g.edges, root)
                    pairs += 1
        assert pairs == 1 + 2 * 1 + 3 * 4 + 4 * 38 + 5 * 728

    def test_assignment_order_keeps_a_valid_parent_for_each_vertex(self):
        def valid(order, g, root):
            return all(
                any(w == root or w in order[k + 1 :] for w in g.adjacency[v])
                for k, v in enumerate(order)
            )

        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                for root in range(n):
                    parent = [None] * n
                    depth = [-1] * n
                    visited = breadth_first(g.adjacency, root, parent, depth)
                    assert visited[0] == root and parent[root] is None
                    for k, v in enumerate(visited[1:], 1):
                        p = parent[v]
                        assert p in g.adjacency[v] and p in visited[:k], (g.edges, root, v)
                        assert depth[v] == depth[p] + 1, (g.edges, root, v)
                    order = visited[:0:-1]
                    assert sorted(order) == [v for v in range(n) if v != root]
                    assert valid(order, g, root), (g.edges, root, order)

    @pytest.mark.parametrize(
        "pairs",
        [
            # spider: a centre with 30 two-edge legs, centre numbered first
            [(0, i) for i in range(1, 31)] + [(i, 30 + i) for i in range(1, 31)],
            # complete binary tree on 63 vertices in heap order
            [((v - 1) // 2, v) for v in range(1, 63)],
        ],
        ids=["spider", "heap"],
    )
    def test_trees_labelled_parents_first_come_out_at_once(self, pairs):
        # Each graph has one spanning tree. A parent-map search that may hang
        # a vertex on a neighbour it must later be reached through walks
        # some 2^30 dead maps here before it yields anything.
        g, _ = make_graph(len(pairs) + 1, pairs)
        started = time.perf_counter()
        for root in range(g.n):
            trees = list(enumerate_spanning_trees(g, root))
            assert [tree_edges(t) for t in trees] == [frozenset(g.edges)], root
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s for {g.n} roots"


class TestCounting:
    def test_known_counts(self):
        assert count_spanning_trees(K3) == 3
        assert count_spanning_trees(K4) == 16
        assert count_spanning_trees(P4) == 1
        assert count_spanning_trees(C4) == 4
        assert count_spanning_trees(named_graph("cycle", (5,))) == 5
        assert count_spanning_trees(named_graph("complete_bipartite", (2, 2))) == 4

    def test_complete_graphs_follow_cayley(self):
        for n in range(2, 7):
            g = named_graph("complete", (n,))
            assert count_spanning_trees(g) == n ** (n - 2)

    def test_single_vertex(self):
        g, _ = make_graph(1, [])
        assert count_spanning_trees(g) == 1

    def test_disconnected(self):
        g, _ = make_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(DisconnectedGraphError):
            count_spanning_trees(g)

    @pytest.mark.parametrize(
        "n, pairs, message",
        [
            (4, [(0, 1), (2, 3)], "4 vertices need at least 3 edges, got 2"),
            (5, [(0, 1), (0, 2), (1, 2), (3, 4)], "2 components (sizes 3, 2)"),
        ],
    )
    def test_disconnected_message_is_require_connected(self, n, pairs, message):
        g, _ = make_graph(n, pairs)
        with pytest.raises(DisconnectedGraphError) as expected:
            require_connected(g)
        with pytest.raises(DisconnectedGraphError) as raised:
            count_spanning_trees(g)
        assert str(raised.value) == str(expected.value)
        assert message in str(raised.value)
        # The enumerator and bfs_tree raise the same error, at a valid root
        # and before naming a root out of range.
        for root in (0, n):
            with pytest.raises(DisconnectedGraphError) as enumerated:
                list(enumerate_spanning_trees(g, root))
            assert str(enumerated.value) == str(expected.value)
            with pytest.raises(DisconnectedGraphError) as searched:
                bfs_tree(g, root)
            assert str(searched.value) == str(expected.value)

    @given(connected_graphs(max_n=6))
    @settings(max_examples=40)
    def test_enumeration_agrees_with_determinant(self, g):
        trees = list(enumerate_spanning_trees(g, 0))
        assert len(trees) == count_spanning_trees(g)
        assert len({tree_edges(t) for t in trees}) == len(trees)


class TestIntegerDeterminant:
    def test_pivoting_keeps_the_sign(self):
        assert _integer_determinant([[0, 1], [1, 0]]) == -1

    def test_singular(self):
        assert _integer_determinant([[1, 1], [1, 1]]) == 0

    def test_trivial_sizes(self):
        assert _integer_determinant([]) == 1
        assert _integer_determinant([[7]]) == 7

    def test_three_by_three(self):
        assert _integer_determinant([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]) == 0
        assert _integer_determinant([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]) == 4


class TestMaxPotentialTree:
    def test_triangle(self):
        t, psi, count = max_potential_tree(K3, 0)
        assert psi == 3 and count == 2
        assert t.sorted_edges() == ((0, 1), (1, 2))

    def test_complete_four(self):
        _, psi, count = max_potential_tree(K4, 0)
        assert psi == 6 and count == 6

    def test_path_has_one_tree(self):
        t, psi, count = max_potential_tree(P4, 0)
        assert psi == 6 and count == 1
        assert tree_edges(t) == P4.edge_set

    @given(connected_graphs(max_n=6))
    @settings(max_examples=25)
    def test_maximum_is_attained(self, g):
        t, psi, count = max_potential_tree(g, 0)
        assert potential(t) == psi
        values = [potential(x) for x in enumerate_spanning_trees(g, 0)]
        assert psi == max(values)
        assert count == values.count(psi)


class TestExhaustiveCheck:
    def test_triangle(self):
        report = exhaustive_check(K3, 0)
        assert report.ok
        assert report.graph_id == "n=3;m=3;0-1,0-2,1-2"
        assert report.tree_count == 3 and report.kirchhoff_count == 3
        assert report.max_psi == 3 and report.max_psi_tree_count == 2
        assert report.witness is None

    def test_complete_four(self):
        report = exhaustive_check(K4, 0)
        assert report.ok
        assert report.tree_count == 16
        assert report.max_psi == 6 and report.max_psi_tree_count == 6

    def test_square(self):
        report = exhaustive_check(C4, 0)
        assert report.ok
        assert report.tree_count == 4
        assert report.max_psi == 6 and report.max_psi_tree_count == 2

    def test_single_vertex(self):
        g, _ = make_graph(1, [])
        report = exhaustive_check(g, 0)
        assert report.ok
        assert report.tree_count == 1 and report.max_psi == 0

    def test_json_dict(self):
        d = exhaustive_check(K3, 0).to_json_dict()
        assert d["ok"] is True and d["witness"] is None
        assert d["tree_count"] == d["kirchhoff_count"] == 3
        assert set(d) == {
            "graph_id",
            "root",
            "tree_count",
            "kirchhoff_count",
            "max_psi",
            "max_psi_tree_count",
            "global_max_conforms",
            "all_local_maxima_conform",
            "solve_agrees",
            "ok",
            "witness",
        }

    def test_ok_requires_every_check(self):
        good = exhaustive_check(K3, 0)
        assert good.counts_agree and good.ok
        fields = good.to_json_dict()
        fields.pop("ok")
        fields.pop("witness")
        for broken in (
            {"kirchhoff_count": 4},
            {"global_max_conforms": False},
            {"all_local_maxima_conform": False},
            {"solve_agrees": False},
        ):
            report = OracleReport(**{**fields, **broken})
            assert not report.ok

    @given(connected_graphs(max_n=5))
    @settings(max_examples=25)
    def test_random_small_graphs_conform(self, g):
        assert exhaustive_check(g, 0).ok


def table_verdicts(g, root):
    """Each enumerated tree with the oracle's table verdict: does some
    exchange strictly raise its potential?"""
    table, _, _ = _potential_table(g, root, oracle.DEFAULT_TREE_CAP)
    for t in enumerate_spanning_trees(g, root):
        edges = tree_edges(t)
        mask = sum(bit for e, bit in _edge_bits(g) if e in edges)
        yield t, _improvable(table, mask, g.m)


class TestAdmitsImprovingSwap:
    """The oracle's table lookup against its definition: every exchange
    of the tree, each priced by re-rooting the exchanged tree."""

    def test_matches_the_unordered_search_on_small_graphs(self):
        checked = improvable = 0
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                for root in range(n):
                    for t, verdict in table_verdicts(g, root):
                        assert verdict is admits_improving_swap_reference(t), (
                            g.edges,
                            root,
                            t.parent,
                        )
                        checked += 1
                        improvable += verdict
        assert checked == 40_533
        assert 0 < improvable < checked

    def test_matches_the_unordered_search_on_a_long_cycle(self, monkeypatch):
        g = named_graph("cycle", (12,))
        expected = [admits_improving_swap_reference(t) for t in enumerate_spanning_trees(g, 0)]
        assert expected.count(True) == 10
        assert [verdict for _, verdict in table_verdicts(g, 0)] == expected
        # delta_potential re-roots through trees._swapped, however it was
        # imported.
        calls = []
        swapped = trees._swapped

        def counted(*args):
            calls.append(args)
            return swapped(*args)

        monkeypatch.setattr(trees, "_swapped", counted)
        assert exhaustive_check(g, 0).ok
        assert calls == []
        # The counter sees the reference's probes.
        t = next(t for t, admits in zip(enumerate_spanning_trees(g, 0), expected) if admits)
        assert admits_improving_swap_reference(t) and calls


class TestNonMonotoneList:
    def test_matches_the_valley_rule_at_every_root(self):
        """The table pass lists, in enumeration order, exactly the trees
        with a cotree path whose valley index is not an end."""
        pairs = trees_seen = non_monotone = 0
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                edge_bits = _edge_bits(g)
                for root in range(n):
                    expected = []
                    for t in enumerate_spanning_trees(g, root):
                        paths = [fundamental_path(t, e) for e in cotree_edges(t)]
                        if any(0 < valley_index(t.depth, p) < len(p) - 1 for p in paths):
                            edges = tree_edges(t)
                            expected.append(sum(bit for e, bit in edge_bits if e in edges))
                        trees_seen += 1
                    _, _, listed = _potential_table(g, root, oracle.DEFAULT_TREE_CAP)
                    assert listed == expected, (g.edges, root)
                    pairs += 1
                    non_monotone += len(expected)
        assert (pairs, trees_seen, non_monotone) == (3807, 40_533, 26_978)


class TestOneTieBreak:
    def test_least_edge_set_among_maximisers(self):
        pairs = 0
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                for root in range(n):
                    enumerated = list(enumerate_spanning_trees(g, root))
                    psi = max(potential(t) for t in enumerated)
                    maximisers = [t.sorted_edges() for t in enumerated if potential(t) == psi]
                    t, max_psi, count = max_potential_tree(g, root)
                    assert t.sorted_edges() == min(maximisers), (g.edges, root)
                    assert t == tree_from_edges(g, min(maximisers), root)
                    assert (max_psi, count) == (psi, len(maximisers))
                    report = exhaustive_check(g, root)
                    assert (report.max_psi, report.max_psi_tree_count) == (psi, len(maximisers))
                    pairs += 1
        assert pairs == 1 + 2 * 1 + 3 * 4 + 4 * 38 + 5 * 728

    def test_a_conforming_check_roots_no_tree(self, monkeypatch):
        # Check (a) reads the table pass's verdict on the maximiser; only a
        # witness, or max_potential_tree's result, is rooted from its mask.
        calls = []
        tree_of = oracle._tree_of

        def counted(*args):
            calls.append(args)
            return tree_of(*args)

        monkeypatch.setattr(oracle, "_tree_of", counted)
        assert exhaustive_check(K4, 0).ok
        assert calls == []
        max_potential_tree(K4, 0)
        assert len(calls) == 1


class TestFailuresTheTableMustNotHide:
    def test_a_tree_yielded_twice_breaks_the_count(self, monkeypatch):
        enumerate_once = oracle.enumerate_spanning_trees

        def first_tree_twice(g, root, max_trees):
            yielded = enumerate_once(g, root, max_trees)
            first = next(yielded)
            yield first
            yield first
            yield from yielded

        monkeypatch.setattr(oracle, "enumerate_spanning_trees", first_tree_twice)
        report = exhaustive_check(K4, 0)
        assert report.tree_count == report.kirchhoff_count + 1 == 17
        assert not report.counts_agree and not report.ok

    def test_a_local_maximum_with_a_non_monotone_path_is_reported(self, monkeypatch):
        # Every cotree path now reads non-monotone, so each tree that no
        # exchange improves breaks check (b), and the maximiser breaks (a).
        monkeypatch.setattr(oracle, "ancestor_related", lambda parent, depth, a, b: False)
        report = exhaustive_check(K3, 0)
        assert not report.all_local_maxima_conform and not report.ok
        assert not report.global_max_conforms
        first = next(
            t for t in enumerate_spanning_trees(K3, 0) if not admits_improving_swap_reference(t)
        )
        # The first tree in enumeration order, the star at 0, is improvable;
        # the second, the path 0-2-1, is not.
        assert first.sorted_edges() == ((0, 2), (1, 2))
        assert report.witness["check"] == "local_max_conforms"
        assert report.witness["tree_edges"] == [list(e) for e in first.sorted_edges()]
        assert report.witness["depth"] == list(first.depth)


class TestConnectedGraphCorpus:
    def test_counts(self):
        assert sum(1 for _ in enumerate_connected_graphs(1)) == 1
        assert sum(1 for _ in enumerate_connected_graphs(2)) == 1
        assert sum(1 for _ in enumerate_connected_graphs(3)) == 4
        assert sum(1 for _ in enumerate_connected_graphs(4)) == 38
        assert sum(1 for _ in enumerate_connected_graphs(5)) == 728

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of supported range"):
            list(enumerate_connected_graphs(7))
        with pytest.raises(ValueError, match="out of supported range"):
            list(enumerate_connected_graphs(0))

    def test_members_are_distinct_and_connected(self):
        graphs = list(enumerate_connected_graphs(4))
        assert len({g.edges for g in graphs}) == 38
        assert all(g.n == 4 for g in graphs)
