"""Monotone spanning trees and alternating sign labelings.

The solver ascends the potential by edge exchanges until every cotree
edge's fundamental path is strictly monotone in depth, then labels each
tree edge by the parity of its deeper endpoint's depth. Along a strictly
monotone path the deeper-endpoint depths of consecutive edges differ by
exactly 1, so the parity labels alternate; the verifier checks that
property definitionally, independent of how the labeling was produced.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from heapq import heappop, heappush

from .graphs import Edge, Graph, Vertex, canonical_edge
from .trees import (
    RootedTree,
    SwapMove,
    apply_swap,
    bfs_tree,
    cotree_edges,
    cotree_path_is_monotone,
    detached_component,
    fundamental_path,
    monotone_report,
    potential,
    require_connected,
)


class Sign(enum.Enum):
    PLUS = "+"
    MINUS = "-"

    def flipped(self) -> "Sign":
        return Sign.MINUS if self is Sign.PLUS else Sign.PLUS

    def __str__(self) -> str:
        return self.value


SignLabeling = dict[Edge, Sign]


class NoImprovingSwapError(RuntimeError):
    """No strictly improving exchange exists for a non-monotone path.

    This cannot happen: re-hanging the shallow side of the path's valley
    through the cotree edge strictly deepens every moved vertex. The error
    exists as a safety net; it carries the full instance so a firing can
    be reproduced and reported.
    """

    def __init__(self, instance: dict):
        self.instance = instance
        super().__init__(
            "no strictly improving swap for a non-monotone fundamental path; "
            "instance dump: " + json.dumps(instance, sort_keys=True)
        )


def falsification_instance(
    t: RootedTree, e: Edge, path: tuple[Vertex, ...], candidates: list[tuple[Edge, int]]
) -> dict:
    """JSON-ready dump of a would-be counterexample."""
    return {
        "n": t.graph.n,
        "edges": [list(x) for x in t.graph.edges],
        "root": t.root,
        "tree_edges": [list(x) for x in t.sorted_edges()],
        "depth": list(t.depth),
        "cotree_edge": list(e),
        "path": list(path),
        "candidates": [
            {"removed": list(r), "delta_psi": d} for r, d in candidates
        ],
    }


def _subtree_sizes(t: RootedTree, top: Vertex) -> dict[Vertex, int]:
    """Subtree size of every vertex under (and including) ``top``."""
    order = [top]
    stack = [top]
    while stack:
        x = stack.pop()
        for c in t.children[x]:
            order.append(c)
            stack.append(c)
    size = dict.fromkeys(order, 1)
    for x in reversed(order):
        if x != top:
            size[t.parent[x]] += size[x]
    return size


def candidate_deltas(t: RootedTree, e: Edge) -> list[tuple[Edge, int]]:
    """Potential gain of every removal candidate on e's fundamental path.

    The depth sequence of a non-monotone tree path descends to a unique
    valley and ascends after it (an interior local maximum is impossible:
    both its path neighbors would have to be its parent). Removing the
    j-th edge on the descending branch detaches subtree(v_j) and re-hangs
    it through e; a vertex whose lowest path ancestor is v_i then changes
    depth by exactly depth(v_0) + depth(v_l) + 1 - 2*depth(v_i), so the
    gains are prefix sums weighted by subtree sizes along the branch, and
    symmetrically on the ascending side. Each result equals
    delta_potential(t, e, candidate) at a total cost of two subtree
    traversals instead of one per candidate.
    """
    e = canonical_edge(*e)
    path = fundamental_path(t, e)
    dep = [t.depth[v] for v in path]
    last = len(path) - 1
    k = dep.index(min(dep))
    if k == 0 or k == last:
        raise ValueError(f"fundamental path of {e} is monotone; nothing to improve")
    if any(dep[i] <= dep[i + 1] for i in range(k)) or any(
        dep[i] >= dep[i + 1] for i in range(k, last)
    ):
        raise AssertionError(f"tree path depths are not valley-shaped: {dep}")
    gain = dep[0] + dep[last] + 1
    deltas = [0] * last
    left_sizes = _subtree_sizes(t, path[k - 1])
    acc = 0
    prev = 0
    for i in range(k):
        sz = left_sizes[path[i]]
        acc += (sz - prev) * (gain - 2 * dep[i])
        prev = sz
        deltas[i] = acc
    right_sizes = _subtree_sizes(t, path[k + 1])
    acc = 0
    prev = 0
    for i in range(last, k, -1):
        sz = right_sizes[path[i]]
        acc += (sz - prev) * (gain - 2 * dep[i])
        prev = sz
        deltas[i - 1] = acc
    return [
        (canonical_edge(path[j], path[j + 1]), deltas[j]) for j in range(last)
    ]


def find_improving_swap(t: RootedTree, e: Edge) -> SwapMove:
    """Best strictly improving exchange that inserts the cotree edge ``e``.

    Every edge of e's fundamental path is evaluated as the removal
    candidate; the one with maximum potential gain wins, ties going to the
    smallest path index. The path must be non-monotone; a non-monotone
    path always admits a gain of at least 1, so exhausting the candidates
    without one raises NoImprovingSwapError.
    """
    e = canonical_edge(*e)
    candidates = candidate_deltas(t, e)
    best_index = 0
    for j, (_, delta) in enumerate(candidates):
        if delta > candidates[best_index][1]:
            best_index = j
    removed, delta = candidates[best_index]
    if delta < 1:
        path = fundamental_path(t, e)
        raise NoImprovingSwapError(falsification_instance(t, e, path, candidates))
    return SwapMove(added=e, removed=removed, delta_psi=delta)


@dataclass(frozen=True)
class SolveTrace:
    """Record of one local-search run.

    final_psi = initial_psi + the sum of the moves' gains, and every gain
    is at least 1.
    """

    initial_psi: int
    moves: tuple[SwapMove, ...]
    final_psi: int


def _subtree_intervals(t: RootedTree) -> tuple[list[int], list[int]]:
    """Preorder enter/exit times; u is an ancestor of v iff
    tin[u] <= tin[v] < tout[u]. Rebuilt per tree in O(n)."""
    tin = [0] * t.graph.n
    tout = [0] * t.graph.n
    timer = 0
    stack: list[tuple[Vertex, bool]] = [(t.root, False)]
    while stack:
        v, leaving = stack.pop()
        if leaving:
            tout[v] = timer
            continue
        tin[v] = timer
        timer += 1
        stack.append((v, True))
        for c in t.children[v]:
            stack.append((c, False))
    return tin, tout


def monotone_spanning_tree(g: Graph, root: Vertex = 0) -> tuple[RootedTree, SolveTrace]:
    """Spanning tree in which every fundamental path is strictly monotone.

    Starts from the breadth-first tree and repeatedly fixes the
    lexicographically first cotree edge whose fundamental path is not
    monotone, restarting the scan after each exchange. The potential
    strictly increases with every move and is at most (n-1)^2, so the
    loop terminates.

    The rescan skips settled edges: an exchange changes depths only
    inside the detached component, and a tree path between two vertices
    outside that component never enters it, so only cotree edges with an
    endpoint in the component can lose monotonicity. A path is monotone
    iff its shallow endpoint is an ancestor of the deep one, tested in
    O(1) against preorder intervals; after each move, exactly the edges
    incident to the component are re-tested and the violating ones queued.
    The queue pops in lexicographic order with a re-test (entries can be
    healed by later moves), which yields exactly the move sequence of a
    full restart.
    """
    t = bfs_tree(g, root)
    initial_psi = potential(t)
    depth = t.depth
    tin, tout = _subtree_intervals(t)
    adjacency = g.adjacency
    cotree = set(g.edge_set - t.tree_edges)
    heap = []
    for f in cotree:
        a, b = f
        if depth[a] > depth[b]:
            a, b = b, a
        if not tin[a] <= tin[b] < tout[a]:
            heap.append(f)
    heap.sort()
    queued = set(heap)
    moves: list[SwapMove] = []
    while heap:
        e = heappop(heap)
        queued.discard(e)
        if e not in cotree:
            continue
        u, v = e
        if depth[u] > depth[v]:
            u, v = v, u
        if tin[u] <= tin[v] < tout[u]:
            continue
        move = find_improving_swap(t, e)
        comp = detached_component(t, move.removed)
        t = apply_swap(t, move)
        moves.append(move)
        depth = t.depth
        tin, tout = _subtree_intervals(t)
        cotree.discard(move.added)
        cotree.add(move.removed)
        for x in comp:
            for w in adjacency[x]:
                f = (x, w) if x < w else (w, x)
                if f in cotree and f not in queued:
                    a, b = f
                    if depth[a] > depth[b]:
                        a, b = b, a
                    if not tin[a] <= tin[b] < tout[a]:
                        queued.add(f)
                        heappush(heap, f)
    return t, SolveTrace(initial_psi, tuple(moves), potential(t))


def _monotone_spanning_tree_restart(g: Graph, root: Vertex = 0) -> tuple[RootedTree, SolveTrace]:
    """Reference implementation of monotone_spanning_tree that literally
    rescans from the first cotree edge after every exchange. Kept for
    cross-checking the resume-point scan; quadratically slower."""
    t = bfs_tree(g, root)
    initial_psi = potential(t)
    moves: list[SwapMove] = []
    while True:
        violating = None
        for e in cotree_edges(t):
            if not cotree_path_is_monotone(t, e):
                violating = e
                break
        if violating is None:
            break
        move = find_improving_swap(t, violating)
        t = apply_swap(t, move)
        moves.append(move)
    return t, SolveTrace(initial_psi, tuple(moves), potential(t))


def assign_signs(t: RootedTree) -> SignLabeling:
    """Label every tree edge by the parity of its deeper endpoint's depth:
    plus when even, minus when odd. Well-defined on any rooted tree."""
    signs: SignLabeling = {}
    for u, v in t.sorted_edges():
        deeper = max(t.depth[u], t.depth[v])
        signs[(u, v)] = Sign.PLUS if deeper % 2 == 0 else Sign.MINUS
    return signs


@dataclass(frozen=True)
class Violation:
    """One failed check along a cotree edge's fundamental path.

    ``index`` is the first offending position: for alternation, the first
    j whose path edges j and j+1 carry equal signs; for monotonicity, the
    first interior valley or peak.
    """

    cotree_edge: Edge
    path: tuple[Vertex, ...]
    index: int
    failed: str


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[Violation, ...] = field(default=())


def verify_alternating(g: Graph, t: RootedTree, phi: SignLabeling) -> VerificationReport:
    """Check the defining property of an alternating sign labeling.

    Along every cotree edge's fundamental path, consecutive tree edges
    must carry different signs. The check uses only the graph, the tree
    and the labeling, so it accepts hand-made inputs. The labeling must
    be total on the tree edges and name nothing else.
    """
    labeled = set(phi)
    if labeled != t.tree_edges:
        missing = sorted(t.tree_edges - labeled)
        extra = sorted(labeled - t.tree_edges)
        parts = []
        if missing:
            parts.append(f"unlabeled tree edges {missing}")
        if extra:
            parts.append(f"labels for non-tree edges {extra}")
        raise ValueError("labeling does not match the tree edges: " + "; ".join(parts))
    violations: list[Violation] = []
    for e in cotree_edges(t):
        path = fundamental_path(t, e)
        signs = [phi[canonical_edge(path[j], path[j + 1])] for j in range(len(path) - 1)]
        for j in range(len(signs) - 1):
            if signs[j] is signs[j + 1]:
                violations.append(Violation(e, path, j, "alternation"))
                break
    return VerificationReport(ok=not violations, violations=tuple(violations))


def verify_monotone(g: Graph, t: RootedTree) -> VerificationReport:
    """Check that every cotree edge's fundamental path is strictly
    monotone in depth; reports the first valley or peak per failing edge."""
    violations: list[Violation] = []
    for e in cotree_edges(t):
        path = fundamental_path(t, e)
        report = monotone_report(t, path)
        if not report.monotone:
            first = min(report.valley_indices + report.peak_indices)
            violations.append(Violation(e, path, first, "monotonicity"))
    return VerificationReport(ok=not violations, violations=tuple(violations))


@dataclass(frozen=True)
class Solution:
    tree: RootedTree
    signs: SignLabeling
    trace: SolveTrace
    verification: VerificationReport


def solve(g: Graph, root: Vertex = 0) -> Solution:
    """Spanning tree plus alternating sign labeling for a connected graph.

    Composes monotone_spanning_tree and assign_signs, then verifies the
    labeling. The verification cannot fail (monotone paths make the parity
    labels alternate); it is returned, not raised, and every caller treats
    a failed ``solution.verification`` as an internal error.
    """
    require_connected(g)
    tree, trace = monotone_spanning_tree(g, root)
    signs = assign_signs(tree)
    return Solution(tree, signs, trace, verify_alternating(g, tree, signs))
