import pytest
from hypothesis import given, settings

from conftest import connected_graphs
from treesign import (
    DisconnectedGraphError,
    EnumerationLimitError,
    OracleReport,
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
    tree_from_edges,
)
from treesign import oracle
from treesign.oracle import _integer_determinant, _nonconforming_local_max
from treesign.trees import cotree_path_is_monotone

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
        assert [t.tree_edges for t in trees] == [
            {(0, 1), (0, 2)},
            {(0, 1), (1, 2)},
            {(0, 2), (1, 2)},
        ]

    def test_trees_are_spanning_and_distinct(self):
        trees = list(enumerate_spanning_trees(K4, 0))
        assert len(trees) == 16
        assert len({frozenset(t.tree_edges) for t in trees}) == 16
        for t in trees:
            assert len(t.tree_edges) == 3
            assert t.root == 0 and t.depth[0] == 0
            assert all(d is not None for d in t.depth)

    def test_single_vertex(self):
        g, _ = make_graph(1, [])
        (t,) = enumerate_spanning_trees(g, 0)
        assert t.tree_edges == set()

    def test_tree_cap(self):
        with pytest.raises(EnumerationLimitError, match="more than 5"):
            list(enumerate_spanning_trees(K4, 0, max_trees=5))

    def test_more_edges_than_the_recursion_limit(self):
        g = named_graph("path", (3000,))
        (t,) = enumerate_spanning_trees(g, 0)
        assert t.tree_edges == g.edge_set

    def test_bad_root(self):
        with pytest.raises(ValueError, match="out of range"):
            list(enumerate_spanning_trees(K3, 5))

    def test_disconnected(self):
        g, _ = make_graph(3, [(0, 1)])
        with pytest.raises(DisconnectedGraphError):
            list(enumerate_spanning_trees(g, 0))

    def test_trees_match_validated_rooting(self):
        checked = 0
        for g, root in small_rooted_graphs():
            for t in enumerate_spanning_trees(g, root):
                ref = tree_from_edges(g, t.sorted_edges(), root)
                assert (t.parent, t.depth, t.root) == (ref.parent, ref.depth, root)
                checked += 1
        assert checked == 1 + 2 * (1 + 6 + 128 + 8000)


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

    @given(connected_graphs(max_n=6))
    @settings(max_examples=40)
    def test_enumeration_agrees_with_determinant(self, g):
        trees = list(enumerate_spanning_trees(g, 0))
        assert len(trees) == count_spanning_trees(g)
        assert len({frozenset(t.tree_edges) for t in trees}) == len(trees)


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
        assert t.tree_edges == P4.edge_set

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


class TestAdmitsImprovingSwap:
    """The oracle's one-pass local-maximum check against its definition: a
    non-monotone tree that admits no strictly improving exchange."""

    def test_matches_the_unordered_search_on_small_graphs(self):
        non_monotone = 0
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                for root in range(n):
                    for t in enumerate_spanning_trees(g, root):
                        monotone = all(cotree_path_is_monotone(t, e) for e in cotree_edges(t))
                        expected = not monotone and not admits_improving_swap_reference(t)
                        assert _nonconforming_local_max(t) is expected, (g.edges, root, t.parent)
                        non_monotone += not monotone
        assert non_monotone > 0

    def test_matches_the_unordered_search_on_a_long_cycle(self, monkeypatch):
        g = named_graph("cycle", (12,))
        expected = [admits_improving_swap_reference(t) for t in enumerate_spanning_trees(g, 0)]
        assert expected.count(True) == 10
        probes = []

        def counted(t, add, remove):
            probes.append(remove)
            return delta_potential(t, add, remove)

        monkeypatch.setattr(oracle, "delta_potential", counted)
        for t, admits in zip(enumerate_spanning_trees(g, 0), expected):
            probes.clear()
            assert _nonconforming_local_max(t) is False
            # The cotree edge's path runs through the root and improves at
            # its first valley probe, unless the edge meets the root: then
            # the path is monotone and nothing is probed.
            assert len(probes) == (1 if admits else 0)


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
