"""Monotone spanning trees and alternating sign labelings.

The solver ascends the potential by edge exchanges until every cotree
edge's fundamental path is strictly monotone in depth, then labels each
tree edge by the parity of its deeper endpoint's depth. Along a strictly
monotone path the deeper-endpoint depths of consecutive edges differ by
exactly 1, so the parity labels alternate. The verifier checks that
property on any rooted tree and labeling, independent of how they were
produced, in O(n + m): alternating runs of edges and preorder intervals
decide every cotree edge without walking its path.
"""

from __future__ import annotations

import enum
import json
from array import array
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Sequence

from .graphs import Edge, Graph, Vertex, canonical_edge
from .trees import (
    RootedTree,
    SwapMove,
    apply_swap,
    bfs_tree,
    cotree_edges,
    cotree_path_is_monotone,
    delta_potential,
    fundamental_path,
    potential,
    tree_path,
    valley_index,
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


def _path_gains(
    path: Sequence[Vertex], depth: Sequence[int], size: Sequence[int]
) -> tuple[int, list[int]]:
    """Valley index of a non-monotone tree path and the potential gain of
    removing each of its edges, given the depth and subtree size of every
    path vertex but the valley.

    The depth sequence of a non-monotone tree path descends to a unique
    valley and ascends after it (an interior local maximum is impossible:
    both its path neighbors would have to be its parent). Removing the
    j-th edge on the descending branch detaches subtree(v_j) and re-hangs
    it through the cotree edge; a vertex whose lowest path ancestor is v_i
    then changes depth by exactly depth(v_0) + depth(v_l) + 1 - 2*depth(v_i),
    so the gains are prefix sums weighted by subtree sizes along the
    branch, and symmetrically on the ascending side.

    The increments along a branch have the sign of depth(v_0) + depth(v_l)
    + 1 - 2*depth(v_i), which grows toward the valley, so a branch's gains
    fall and then rise; and a gain of at least 1 at the branch's far end
    makes every later increment positive. The best strictly improving
    removal is therefore always one of the two path edges at the valley.
    """
    dep = [depth[v] for v in path]
    last = len(path) - 1
    k = valley_index(depth, path)
    if not 0 < k < last:
        raise ValueError(
            f"fundamental path of {(path[0], path[last])} is monotone; nothing to improve"
        )
    if any(dep[i] <= dep[i + 1] for i in range(k)) or any(
        dep[i] >= dep[i + 1] for i in range(k, last)
    ):
        raise AssertionError(f"tree path depths are not valley-shaped: {dep}")
    gain = dep[0] + dep[last] + 1
    deltas = [0] * last
    acc = 0
    prev = 0
    for i in range(k):
        sz = size[path[i]]
        acc += (sz - prev) * (gain - 2 * dep[i])
        prev = sz
        deltas[i] = acc
    acc = 0
    prev = 0
    for i in range(last, k, -1):
        sz = size[path[i]]
        acc += (sz - prev) * (gain - 2 * dep[i])
        prev = sz
        deltas[i - 1] = acc
    return k, deltas


def _candidates(path: Sequence[Vertex], deltas: list[int]) -> list[tuple[Edge, int]]:
    return [(canonical_edge(path[j], path[j + 1]), d) for j, d in enumerate(deltas)]


def _best_removal(
    path: Sequence[Vertex], deltas: list[int], tree: Callable[[], RootedTree]
) -> int:
    """Path index of the removal with maximum gain, ties going to the
    smallest index. A best gain below 1 raises NoImprovingSwapError, whose
    instance dump is built from ``tree()`` only then."""
    best = max(range(len(deltas)), key=deltas.__getitem__)
    if deltas[best] < 1:
        e = (path[0], path[-1])
        raise NoImprovingSwapError(
            falsification_instance(tree(), e, tuple(path), _candidates(path, deltas))
        )
    return best


def _tree_gains(t: RootedTree, e: Edge) -> tuple[tuple[Vertex, ...], list[int]]:
    """Fundamental path of the non-monotone cotree edge ``e`` and the
    potential gain of removing each of its edges, by delta_potential."""
    path = fundamental_path(t, e)
    if cotree_path_is_monotone(t, e):
        raise ValueError(f"fundamental path of {e} is monotone; nothing to improve")
    return path, [
        delta_potential(t, e, canonical_edge(path[j], path[j + 1]))
        for j in range(len(path) - 1)
    ]


def candidate_deltas(t: RootedTree, e: Edge) -> list[tuple[Edge, int]]:
    """Potential gain of every removal candidate on e's fundamental path.

    This is the reference pricing: each candidate's exchanged tree is
    rooted afresh (delta_potential), so it costs O(path * n), where the
    ascent's closed form (_path_gains) costs O(path). The path must be
    non-monotone.
    """
    return _candidates(*_tree_gains(t, canonical_edge(*e)))


def find_improving_swap(t: RootedTree, e: Edge) -> SwapMove:
    """Best strictly improving exchange that inserts the cotree edge ``e``.

    Every edge of e's fundamental path is evaluated as the removal
    candidate; the one with maximum potential gain wins, ties going to the
    smallest path index. The path must be non-monotone; a non-monotone
    path always admits a gain of at least 1, so exhausting the candidates
    without one raises NoImprovingSwapError.
    """
    e = canonical_edge(*e)
    path, deltas = _tree_gains(t, e)
    j = _best_removal(path, deltas, lambda: t)
    return SwapMove(added=e, removed=canonical_edge(path[j], path[j + 1]), delta_psi=deltas[j])


@dataclass(frozen=True)
class SolveTrace:
    """Record of one local-search run.

    final_psi = initial_psi + the sum of the moves' gains, and every gain
    is at least 1.
    """

    initial_psi: int
    moves: tuple[SwapMove, ...]
    final_psi: int


def monotone_spanning_tree(g: Graph, root: Vertex = 0) -> tuple[RootedTree, SolveTrace]:
    """Spanning tree in which every fundamental path is strictly monotone.

    Starts from the breadth-first tree and repeatedly fixes the
    lexicographically first cotree edge whose fundamental path is not
    monotone, with the exchange find_improving_swap would choose. The
    potential strictly increases with every move and is at most (n-1)^2,
    so the loop terminates. The move sequence is that of rescanning all
    cotree edges after every exchange (_monotone_spanning_tree_restart).

    State. One tree, updated in place by each move: parent, depth and
    subtree-size lists and per-vertex child lists; an edge is a tree edge
    iff one endpoint is the other's parent. The heap holds cotree edges as
    canonical tuples, so it pops lexicographically, and a set names the
    queued ones so that no edge is pushed twice.

    Queue invariant. Every cotree edge whose fundamental path is not
    monotone is queued; a pop re-tests its edge by walking the tree path
    (a path is monotone iff its valley index is an end), so
    healed entries are dropped and the first violating pop is the
    lexicographically first violation. Initially every cotree edge is
    queued.

    Re-queue. Let e's path be a ... top ... b. The best exchange always
    removes an edge (top, child) at the valley (see _path_gains), so the
    component under ``child`` is the branch below top that holds one
    endpoint, ``inner``; it is re-hung from the other endpoint, ``outer``.
    Depths change only inside the component, and a path between two
    outside vertices never enters it, so only edges with an endpoint x in
    the component can turn non-monotone:
    - an edge (x, w) with w outside is monotone iff w is an ancestor-or-
      self of the component's parent. That was top and is now outer, whose
      ancestors include top's, so none of these edges turns non-monotone
      (a removal below top would flip those with w between its upper
      endpoint and top);
    - re-rooting the component from child to inner changes an ancestor
      relation inside it only for pairs with an endpoint on the chain
      inner ... child, which is the branch itself.
    So a move probes only the chain's neighbours, testing each against the
    chain position of its lowest chain ancestor and its new depth. Subtree
    sizes, which price the candidates, change only on the path.
    """
    t = bfs_tree(g, root)
    initial_psi = potential(t)
    n = g.n
    adjacency = g.adjacency
    parent = list(t.parent)
    depth = list(t.depth)
    children: list[list[Vertex]] = [[] for _ in range(n)]
    for v, p in enumerate(parent):
        if p is not None:
            children[p].append(v)
    order = [root]
    for v in order:
        order.extend(children[v])
    size = array("l", [1]) * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    del order
    # g.edges is sorted, so the filtered list is already a heap.
    heap = [(u, v) for u, v in g.edges if parent[u] != v and parent[v] != u]
    queued = set(heap)
    low = [-1] * n  # chain position of a component vertex's lowest chain ancestor
    moves: list[SwapMove] = []
    while heap:
        e = heappop(heap)
        queued.remove(e)
        a, b = e
        path = tree_path(parent, depth, a, b)
        if not 0 < valley_index(depth, path) < len(path) - 1:
            continue  # monotone: one endpoint is an ancestor of the other
        k, deltas = _path_gains(path, depth, size)
        j = _best_removal(
            path, deltas, lambda: RootedTree(g, root, tuple(parent), tuple(depth))
        )
        # The component is the branch below top that holds the inner
        # endpoint; the other branch, outer up to just below top, gains it.
        if j == k - 1:
            chain, gaining = path[:k], path[:k:-1]
        elif j == k:
            chain, gaining = path[:k:-1], path[:k]
        else:
            raise AssertionError(f"best exchange on {path} does not remove a top edge")
        inner, child, outer, top = chain[0], chain[-1], gaining[0], path[k]
        moves.append(SwapMove(e, canonical_edge(top, child), deltas[j]))

        comp_size = size[child]
        for w in gaining:
            size[w] += comp_size
        base = depth[outer] + 1
        comp = []
        below = -1
        for i, c in enumerate(chain):
            shift = base + i - depth[c]
            depth[c] += shift
            low[c] = i
            comp.append(c)
            stack = [y for y in children[c] if y != below]
            while stack:
                x = stack.pop()
                depth[x] += shift
                low[x] = i
                comp.append(x)
                stack.extend(children[x])
            below = c
        children[top].remove(child)
        children[outer].append(inner)
        parent[inner] = outer
        prev_size = size[inner]
        size[inner] = comp_size
        for i in range(1, len(chain)):
            c, prev = chain[i], chain[i - 1]
            children[c].remove(prev)
            children[prev].append(c)
            parent[c] = prev
            prev_size, size[c] = size[c], comp_size - prev_size

        for i, c in enumerate(chain):
            for x in adjacency[c]:
                lx = low[x]
                # x is in the component, c is not its ancestor, x is off the
                # chain. No tree edge passes: c's parent chain[i-1] is on the
                # chain at depth base + lx, outer has low -1, chain[i+1] has
                # low i+1 and c's other children low i. (A tree edge popped
                # anyway would read as monotone.)
                if 0 <= lx < i and depth[x] != base + lx:
                    h = (c, x) if c < x else (x, c)
                    if h not in queued:
                        queued.add(h)
                        heappush(heap, h)
        for x in comp:
            low[x] = -1
    t = RootedTree(g, root, tuple(parent), tuple(depth))
    return t, SolveTrace(initial_psi, tuple(moves), potential(t))


def _monotone_spanning_tree_restart(g: Graph, root: Vertex = 0) -> tuple[RootedTree, SolveTrace]:
    """Reference implementation of monotone_spanning_tree that literally
    rescans from the first cotree edge after every exchange, on immutable
    trees. Kept as the test reference for the in-place ascent and its
    re-queue scan; quadratically slower."""
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
    depth = t.depth
    plus, minus = Sign.PLUS, Sign.MINUS
    return {
        (u, v): minus if (depth[u] if depth[u] > depth[v] else depth[v]) % 2 else plus
        for u, v in t.sorted_edges()
    }


@dataclass(frozen=True)
class Violation:
    """One failed check along a cotree edge's fundamental path.

    ``index`` is the offending position: for alternation, the first j
    whose path edges j and j+1 carry equal signs; for monotonicity, the
    valley index (the endpoints' lowest common ancestor, see valley_index).
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
    must carry different signs. The check uses only the graph, the tree's
    parent and depth maps and the labeling, so it accepts hand-made
    inputs. The labeling must be total on the tree edges and name nothing
    else.

    Pass or fail costs O(n + m), with no path walk. Let up[v] be the sign
    of the edge (v, parent v), and top[v] the highest vertex that an
    alternating run of edges reaches going up from v. A path from b up to
    its ancestor a alternates iff top[b] is no deeper than a. A path
    a ... l ... b through the endpoints' lowest common ancestor l
    alternates iff both runs reach l, that is iff the deeper of top[a]
    and top[b] is an ancestor of both endpoints, and the two edges at l
    differ. A run flips the sign at every step, so those edges carry up[a]
    flipped depth(a) - depth(l) - 1 times and up[b] flipped
    depth(b) - depth(l) - 1 times: they differ iff up[a] and up[b] are
    equal exactly when depth(a) + depth(b) is odd, and l is never needed.
    Ancestry is a preorder interval test. Only failing edges have their
    path walked, to name the first pair of equal signs.
    """
    parent, depth = t.parent, t.depth
    n = len(parent)
    try:
        up = [
            None if p is None else phi[(v, p) if v < p else (p, v)]
            for v, p in enumerate(parent)
        ]
        total = len(phi) == n - 1
    except KeyError:
        total = False
    if not total:
        labeled = set(phi)
        missing = sorted(t.tree_edges - labeled)
        extra = sorted(labeled - t.tree_edges)
        parts = []
        if missing:
            parts.append(f"unlabeled tree edges {missing}")
        if extra:
            parts.append(f"labels for non-tree edges {extra}")
        raise ValueError("labeling does not match the tree edges: " + "; ".join(parts))
    cotree = [e for e in g.edges if parent[e[0]] != e[1] and parent[e[1]] != e[0]]
    if not cotree:
        return VerificationReport(ok=True)

    first = [-1] * n  # first-child / next-sibling lists
    sibling = [-1] * n
    for v, p in enumerate(parent):
        if p is not None:
            sibling[v] = first[p]
            first[p] = v
    root = t.root
    tin = [0] * n
    top = [root] * n
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        tin[v] = len(order)
        order.append(v)
        sv, tv = up[v], top[v]
        c = first[v]
        while c >= 0:
            top[c] = tv if up[c] is not sv else v  # at the root, sv is None
            stack.append(c)
            c = sibling[c]
    end = [1] * n  # subtree size, then one past the subtree's last preorder number
    for v in reversed(order):
        p = parent[v]
        if p is not None:
            end[p] += end[v]
        end[v] += tin[v]

    violations: list[Violation] = []
    for e in cotree:
        a, b = e
        if depth[a] > depth[b]:
            a, b = b, a
        if tin[a] <= tin[b] < end[a]:  # a is an ancestor of b
            if depth[top[b]] <= depth[a]:
                continue
        else:
            x, y = top[a], b
            if depth[x] < depth[top[b]]:
                x, y = top[b], a
            if tin[x] <= tin[y] < end[x] and (up[a] is up[b]) == ((depth[a] + depth[b]) % 2 == 1):
                continue
        path = fundamental_path(t, e)
        signs = [phi[canonical_edge(path[j], path[j + 1])] for j in range(len(path) - 1)]
        for j in range(len(signs) - 1):
            if signs[j] is signs[j + 1]:
                violations.append(Violation(e, path, j, "alternation"))
                break
    return VerificationReport(ok=not violations, violations=tuple(violations))


def verify_monotone(g: Graph, t: RootedTree) -> VerificationReport:
    """Check that every cotree edge's fundamental path is strictly
    monotone in depth; reports the valley index of each failing edge."""
    violations: list[Violation] = []
    for e in cotree_edges(t):
        path = fundamental_path(t, e)
        k = valley_index(t.depth, path)
        if 0 < k < len(path) - 1:
            violations.append(Violation(e, path, k, "monotonicity"))
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
    a failed ``solution.verification`` as an internal error. A disconnected
    graph raises DisconnectedGraphError from the initial breadth-first
    search (bfs_tree).
    """
    tree, trace = monotone_spanning_tree(g, root)
    signs = assign_signs(tree)
    return Solution(tree, signs, trace, verify_alternating(g, tree, signs))
