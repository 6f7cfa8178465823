"""Brute-force ground truth for small instances.

Spanning trees are enumerated by backtracking, counted independently by
an exact integer determinant, and checked exhaustively: the potential-
maximal trees and every exchange-local-maximal tree must have all
fundamental paths monotone, and the solver's output must verify. Any
failed check is serialized as a witness; none is expected to exist.

The checks are definitional: an exchange is priced by rooting the
exchanged tree afresh (delta_potential), never by the ascent's closed
form. The enumerator roots each edge set it built once, and the
local-maximum check walks each tree's fundamental paths once, probing
each non-monotone path's valley edges before it searches every exchange.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .graphs import Edge, Graph, Vertex, canonical_edge, graph_key, is_connected
from .solver import solve, verify_monotone
from .trees import (
    RootedTree,
    cotree_edges,
    delta_potential,
    potential,
    require_connected,
    root_edges,
    tree_path,
    valley_index,
)

DEFAULT_TREE_CAP = 1_000_000


class EnumerationLimitError(RuntimeError):
    """The instance has more spanning trees than the configured cap."""


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _spannable(parent: list[int], ncomp: int, edges: tuple[Edge, ...], idx: int) -> bool:
    """Can the current components still be merged into one using only
    edges[idx:]?"""
    if ncomp == 1:
        return True
    trial = parent.copy()
    left = ncomp
    for u, v in edges[idx:]:
        ru, rv = _find(trial, u), _find(trial, v)
        if ru != rv:
            trial[ru] = rv
            left -= 1
            if left == 1:
                return True
    return False


def enumerate_spanning_trees(
    g: Graph, root: Vertex = 0, max_trees: int = DEFAULT_TREE_CAP
) -> Iterator[RootedTree]:
    """Yield every spanning tree of ``g`` exactly once, rooted at ``root``.

    Backtracks over edge inclusion in lexicographic order, including an
    edge before excluding it, on an explicit stack, so the depth of the
    search (one level per edge) is not bounded by Python's recursion
    limit. A branch is cut when including an edge would close a cycle or
    when excluding it disconnects what remains. Intended for small graphs;
    raises EnumerationLimitError past ``max_trees`` trees.

    Each edge set is n - 1 distinct graph edges joined without a cycle by
    construction, so it is rooted by root_edges without tree_from_edges'
    re-validation; an edge set that fails to span is an enumerator bug
    and raises AssertionError.
    """
    require_connected(g)
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} out of range for n={g.n}")
    edges = g.edges
    yielded = 0
    # (next edge index, union-find parents, component count, chosen edges)
    stack: list[tuple[int, list[int], int, tuple[Edge, ...]]] = [
        (0, list(range(g.n)), g.n, ())
    ]
    while stack:
        idx, parent, ncomp, chosen = stack.pop()
        if ncomp == 1:
            yielded += 1
            if yielded > max_trees:
                raise EnumerationLimitError(
                    f"more than {max_trees} spanning trees; raise max_trees to enumerate"
                )
            t = root_edges(g, chosen, root)
            if t is None:
                raise AssertionError(f"enumerated edge set {list(chosen)} does not span the graph")
            yield t
            continue
        if len(edges) - idx < ncomp - 1:
            continue
        # Pushed last, the inclusion branch is searched first.
        if _spannable(parent, ncomp, edges, idx + 1):
            stack.append((idx + 1, parent, ncomp, chosen))
        u, v = edges[idx]
        ru, rv = _find(parent, u), _find(parent, v)
        if ru != rv:
            child = parent.copy()
            child[ru] = rv
            stack.append((idx + 1, child, ncomp - 1, chosen + (edges[idx],)))


def _integer_determinant(a: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination
    (every division below is exact)."""
    a = [row[:] for row in a]
    m = len(a)
    if m == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(m - 1):
        if a[k][k] == 0:
            for r in range(k + 1, m):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, m):
            for j in range(k + 1, m):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[m - 1][m - 1]


def count_spanning_trees(g: Graph) -> int:
    """Number of spanning trees, as the determinant of the Laplacian with
    the last row and column deleted, in exact integer arithmetic.

    Independent of the enumerator by construction; the two must agree.
    """
    require_connected(g)
    n = g.n
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    reduced = [row[: n - 1] for row in lap[: n - 1]]
    return _integer_determinant(reduced)


def _max_potential(trees: Iterable[RootedTree]) -> tuple[RootedTree, int, int]:
    """max_potential_tree's result over one pass of ``trees``; exhaustive_check
    feeds it the trees it checks, so the enumeration runs once."""
    best: RootedTree | None = None
    best_key: tuple[Edge, ...] | None = None
    best_psi = -1
    count = 0
    for t in trees:
        psi = potential(t)
        if psi > best_psi:
            best_psi = psi
            best = t
            best_key = t.sorted_edges()
            count = 1
        elif psi == best_psi:
            count += 1
            key = t.sorted_edges()
            if best_key is None or key < best_key:
                best = t
                best_key = key
    assert best is not None
    return best, best_psi, count


def max_potential_tree(
    g: Graph, root: Vertex, max_trees: int = DEFAULT_TREE_CAP
) -> tuple[RootedTree, int, int]:
    """Potential-maximal spanning tree by exhaustive enumeration.

    Returns the maximizer with the lexicographically least edge set among
    ties, the maximal potential, and the number of trees attaining it.
    """
    return _max_potential(enumerate_spanning_trees(g, root, max_trees))


def _nonconforming_local_max(t: RootedTree) -> bool:
    """Does ``t`` have a non-monotone fundamental path and admit no strictly
    improving exchange (a cotree edge and a removal on its fundamental
    path)?

    Every candidate is priced by delta_potential, which roots the exchanged
    tree afresh; no closed form is used. One pass walks each cotree edge's
    path and probes a non-monotone path's two edges at its valley (the
    endpoints' common ancestor): on every spanning tree with n <= 5, at
    every root, the first of them improves. A monotone tree answers False
    without a probe. Only when no valley probe improves is every candidate
    searched, so the answer is always that of the full search.
    """
    parent, depth = t.parent, t.depth
    cotree = cotree_edges(t)
    monotone = True
    for e in cotree:
        path = tree_path(parent, depth, *e)
        i = valley_index(depth, path)
        if 0 < i < len(path) - 1:
            if (
                delta_potential(t, e, canonical_edge(path[i - 1], path[i])) >= 1
                or delta_potential(t, e, canonical_edge(path[i], path[i + 1])) >= 1
            ):
                return False
            monotone = False
    if monotone:
        return False
    for e in cotree:
        path = tree_path(parent, depth, *e)
        for j in range(len(path) - 1):
            if delta_potential(t, e, canonical_edge(path[j], path[j + 1])) >= 1:
                return False
    return True


def _tree_witness(t: RootedTree, check: str, detail: str) -> dict:
    return {
        "check": check,
        "detail": detail,
        "root": t.root,
        "tree_edges": [list(e) for e in t.sorted_edges()],
        "depth": list(t.depth),
    }


@dataclass(frozen=True)
class OracleReport:
    """Exhaustive-check outcome for one graph.

    ``witness`` serializes the first tree that broke a check, or None.
    """

    graph_id: str
    root: Vertex
    tree_count: int
    kirchhoff_count: int
    max_psi: int
    max_psi_tree_count: int
    global_max_conforms: bool
    all_local_maxima_conform: bool
    solve_agrees: bool
    witness: dict | None = None

    @property
    def counts_agree(self) -> bool:
        return self.tree_count == self.kirchhoff_count

    @property
    def ok(self) -> bool:
        return (
            self.counts_agree
            and self.global_max_conforms
            and self.all_local_maxima_conform
            and self.solve_agrees
        )

    def to_json_dict(self) -> dict:
        return {
            "graph_id": self.graph_id,
            "root": self.root,
            "tree_count": self.tree_count,
            "kirchhoff_count": self.kirchhoff_count,
            "max_psi": self.max_psi,
            "max_psi_tree_count": self.max_psi_tree_count,
            "global_max_conforms": self.global_max_conforms,
            "all_local_maxima_conform": self.all_local_maxima_conform,
            "solve_agrees": self.solve_agrees,
            "ok": self.ok,
            "witness": self.witness,
        }


def exhaustive_check(
    g: Graph, root: Vertex = 0, max_trees: int = DEFAULT_TREE_CAP
) -> OracleReport:
    """Validate every claim the solver rests on, over all spanning trees.

    (a) every potential-maximal tree has only monotone fundamental paths
        (reported for the lexicographically least one; (b) covers ties),
    (b) every tree admitting no strictly improving exchange has only
        monotone fundamental paths,
    (c) the solver's output passes the alternation verifier,
    (d) the enumerated tree count equals the determinant count.
    """
    witness: dict | None = None
    tree_count = 0
    all_local_maxima_conform = True

    def each_tree() -> Iterator[RootedTree]:
        nonlocal witness, tree_count, all_local_maxima_conform
        for t in enumerate_spanning_trees(g, root, max_trees):
            tree_count += 1
            if _nonconforming_local_max(t):
                all_local_maxima_conform = False
                if witness is None:
                    witness = _tree_witness(
                        t,
                        "local_max_conforms",
                        "non-monotone tree admitting no improving exchange",
                    )
            yield t

    best, best_psi, max_count = _max_potential(each_tree())
    kirchhoff = count_spanning_trees(g)
    global_max_conforms = verify_monotone(g, best).ok
    if not global_max_conforms and witness is None:
        witness = _tree_witness(
            best, "global_max_conforms", "potential-maximal tree with a non-monotone path"
        )

    solution = solve(g, root)
    solve_agrees = solution.verification.ok
    if not solve_agrees and witness is None:
        witness = _tree_witness(
            solution.tree, "solve_agrees", "solver output failed the alternation verifier"
        )

    return OracleReport(
        graph_id=graph_key(g),
        root=root,
        tree_count=tree_count,
        kirchhoff_count=kirchhoff,
        max_psi=best_psi,
        max_psi_tree_count=max_count,
        global_max_conforms=global_max_conforms,
        all_local_maxima_conform=all_local_maxima_conform,
        solve_agrees=solve_agrees,
        witness=witness,
    )


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """Every labeled simple connected graph on ``n`` vertices once, by
    filtering all edge subsets of the complete graph. Guarded to n <= 6
    (the subset count doubles per potential edge); the guard raises on the
    call, before any graph is produced."""
    if not 1 <= n <= 6:
        raise ValueError(f"n={n} out of supported range 1..6")
    all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    subsets = (
        Graph(n, tuple(e for i, e in enumerate(all_edges) if mask >> i & 1))
        for mask in range(1 << len(all_edges))
    )
    return (g for g in subsets if is_connected(g))
