"""Monotone spanning trees and alternating sign labelings.

The solver ascends the potential by edge exchanges until every cotree
edge's fundamental path is strictly monotone in depth, then labels each
tree edge by the parity of its deeper endpoint's depth. A labeling holds
one sign per vertex: "+" or "-" for the edge to its parent, None at the
root (SignLabeling), since each tree edge has exactly one child endpoint.
The best exchange on a non-monotone path always removes one of the two
path edges at its valley, so the ascent prices only those two, in closed
form; the restart reference in tests/reference.py re-roots every
candidate and takes its own argmax. Along a strictly monotone path the
deeper-endpoint depths of consecutive edges differ by exactly 1, so the
parity labels alternate. The verifier checks that property on any rooted
tree and labeling, independent of how they were produced, in O(n + m):
alternating runs of edges and preorder intervals decide every cotree
edge without walking its path.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Sequence

from .graphs import Edge, Graph, Vertex, canonical_edge
from .trees import (
    RootedTree,
    SwapMove,
    ancestor_related,
    bfs_tree,
    climb,
    cotree_edges,
    fundamental_path,
    potential,
)


# Entry v is the sign of the tree edge (v, parent v); the root's is None.
SignLabeling = tuple[str | None, ...]


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


def _valley_exchanges(
    parent: Sequence[Vertex | None], depth: Sequence[int], size: Sequence[int], a: Vertex, b: Vertex
) -> tuple[Vertex, list[Vertex], list[Vertex], int, int]:
    """The gains of the two valley exchanges of a non-monotone tree path
    a ... top ... b, given parent, depth and subtree-size maps: top, the
    branches below it as trees.climb builds them, up_a = path[:k] and up_b
    = path[:k:-1] with top at index k, and the gains of removing
    (up_a[-1], top) and (top, up_b[-1]). The climb raises the valley-shape
    AssertionError on depths that do not step by exactly 1.

    Removing the edge above v_i on a's branch re-hangs subtree(v_i)
    through the cotree edge: a vertex whose lowest path ancestor is v_j
    changes depth by depth(a) + depth(b) + 1 - 2*depth(v_j), which grows
    by 2 per step up. Weighted by size(v_j) - size(v_{j-1}) and summed by
    parts, the left valley gain is size(up_a[-1]) * len(path) - 2 * (the
    sizes along up_a summed); the right one is the same along up_b.

    Along a branch, the gains' increments have the sign of that depth
    change, which strictly grows toward the valley, and every weight is at
    least 1. So a branch's gains fall and then rise, and an edge off the
    valley with a gain of at least 1 has a positive increment at or before
    it, hence a positive one at every later step: its branch's valley edge
    gains strictly more. The removal of maximum gain, ties going to the
    smallest path index, is therefore the left valley edge when its gain
    is at least the right one's and the right valley edge otherwise,
    whenever that gain is at least 1; and when neither valley edge gains
    1, no edge does.
    """
    top, up_a, up_b = climb(parent, depth, a, b)
    length = len(up_a) + len(up_b) + 1
    left = size[up_a[-1]] * length - 2 * sum(map(size.__getitem__, up_a))
    right = size[up_b[-1]] * length - 2 * sum(map(size.__getitem__, up_b))
    return top, up_a, up_b, left, right


def _candidates(path: Sequence[Vertex], deltas: list[int]) -> list[tuple[Edge, int]]:
    return [(canonical_edge(path[j], path[j + 1]), d) for j, d in enumerate(deltas)]


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
    monotone, with the exchange of maximum gain over the whole path, ties
    going to the smallest path index: that is the better of the two valley
    exchanges, the left one on a tie, and a best gain below 1 raises
    NoImprovingSwapError. The potential strictly increases with every move
    and is at most C(n, 2), since a tree's i-th smallest depth is at most
    i, so the loop terminates. The move sequence is that of rescanning all
    cotree edges after every exchange (the restart reference in
    tests/reference.py).

    State. One tree, updated in place by each move: parent, depth and
    subtree-size lists and per-vertex child lists; an edge is a tree edge
    iff one endpoint is the other's parent. The heap holds cotree edges as
    canonical tuples, so it pops lexicographically, and a set names the
    queued ones so that no edge is pushed twice.

    Queue invariant. Every cotree edge whose fundamental path is not
    monotone is queued; a pop re-tests its edge by the ancestor walk
    (ancestor_related), so healed entries are dropped without building
    anything, and the first violating pop is the lexicographically
    first violation. Initially every cotree edge is queued.

    Pricing. A violating pop climbs once to the valley (trees.climb),
    building the two branches that the move re-hangs and re-sizes, and
    _valley_exchanges prices both valley exchanges; only a failure dump
    joins the path (fundamental_path).

    Re-queue. Let e's path be a ... top ... b. The exchange removes an
    edge (top, child) at the valley, so the
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
    So a move probes only the neighbours of the chain below inner (the
    component's new root, an ancestor of all of it), testing each against
    the chain position of its lowest chain ancestor and its new depth.
    Subtree sizes, which price the candidates, change only on the path.
    One pass up the chain re-hangs, re-sizes and shifts chain vertex i
    with its part of the component, in one walk that also stamps each of
    its vertices low = stamp + i, then probes i's neighbours. ``stamp``
    counts the chain vertices of earlier moves, so a vertex not placed in
    this move holds -1 or an earlier move's stamp, both below ``stamp``,
    and needs no reset: a probe reads only vertices placed at lower
    positions, so it pushes what a probe after the pass would.
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
    # cotree_edges is sorted, so its list is already a heap.
    heap = list(cotree_edges(t))
    queued = set(heap)
    low = [-1] * n  # stamp plus chain position of a component vertex's lowest chain ancestor
    stamp = 0  # chain vertices placed by earlier moves
    moves: list[SwapMove] = []
    while heap:
        e = heappop(heap)
        queued.remove(e)
        a, b = e
        if ancestor_related(parent, depth, a, b):
            continue  # monotone
        top, up_a, up_b, left, right = _valley_exchanges(parent, depth, size, a, b)
        # The component is the branch below top that holds the inner
        # endpoint; the other branch, outer up to just below top, gains it.
        if left >= right:
            gain, chain, gaining = left, up_a, up_b
        else:
            gain, chain, gaining = right, up_b, up_a
        if gain < 1:
            t = RootedTree(g, root, tuple(parent), tuple(depth))
            candidates = _candidates((up_a[-1], top, up_b[-1]), [left, right])
            path = fundamental_path(t, e)
            raise NoImprovingSwapError(falsification_instance(t, e, path, candidates))
        child, outer = chain[-1], gaining[0]
        moves.append(SwapMove(e, canonical_edge(top, child), gain))

        comp_size = size[child]
        for w in gaining:
            size[w] += comp_size
        base = depth[outer] + 1 - stamp
        prev, prev_size = outer, 0
        for i, c in enumerate(chain, stamp):
            # Re-hang c from prev; its subtree is the component minus prev's old one.
            children[parent[c]].remove(c)  # the next chain vertex, or top for child
            children[prev].append(c)
            parent[c] = prev
            prev_size, size[c] = size[c], comp_size - prev_size
            shift = base + i - depth[c]
            part = [c]  # c, then its children off the chain and their subtrees
            for x in part:
                depth[x] += shift
                low[x] = i
                part.extend(children[x])
            prev = c
            if i == stamp:
                continue  # no x has stamp <= low[x] < stamp
            for x in adjacency[c]:
                lx = low[x]
                # x is in the component, c is not its ancestor, x is off the
                # chain. No tree edge passes: c's parent prev is on the chain
                # at depth base + lx, outer and the next chain vertex hold a
                # stamp below this move's, and c's other children low i. (A
                # tree edge popped anyway would read as monotone.)
                if stamp <= lx < i and depth[x] != base + lx:
                    h = (c, x) if c < x else (x, c)
                    if h not in queued:
                        queued.add(h)
                        heappush(heap, h)
        stamp += len(chain)
    t = RootedTree(g, root, tuple(parent), tuple(depth))
    return t, SolveTrace(initial_psi, tuple(moves), potential(t))


def assign_signs(t: RootedTree) -> SignLabeling:
    """Label every tree edge by the parity of its deeper endpoint's depth:
    plus when even, minus when odd. Well-defined on any rooted tree. The
    deeper endpoint of (v, parent v) is v, so entry v is v's parity."""
    signs = [("+", "-")[d & 1] for d in t.depth]
    signs[t.root] = None
    return tuple(signs)


@dataclass(frozen=True)
class Violation:
    """One failed check along a cotree edge's fundamental path.

    ``index`` is the offending position: for alternation, the first j
    whose path edges j and j+1 carry equal signs; for monotonicity (a
    check only tests/reference.py makes), the valley index (the
    endpoints' lowest common ancestor).
    """

    cotree_edge: Edge
    path: tuple[Vertex, ...]
    index: int
    failed: str


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    violations: tuple[Violation, ...] = field(default=())


def verify_alternating(t: RootedTree, phi: SignLabeling) -> VerificationReport:
    """Check the defining property of an alternating sign labeling.

    Along every cotree edge's fundamental path, consecutive tree edges
    must carry different signs. The check uses only the tree's graph,
    parent and depth maps and the labeling, so it accepts hand-made
    inputs. The labeling must hold one entry per vertex: None at the root
    and "+" or "-" at every other vertex v, the sign of the tree edge
    (v, parent v). Any other labeling raises a ValueError that names its
    fault (the length, the root's entry, or the first other entry that is
    not a sign) before any verdict.

    Pass or fail costs O(n + m), with no path walk. Let top[v] be the
    highest vertex that an alternating run of edges reaches going up from
    v. A path from b up to its ancestor a alternates iff top[b] is no
    deeper than a. A path a ... l ... b through the endpoints' lowest
    common ancestor l alternates iff both runs reach l, that is iff the
    deeper of top[a] and top[b] is an ancestor of both endpoints, and the
    two edges at l differ. A run flips the sign at every step, so those
    edges carry phi[a] flipped depth(a) - depth(l) - 1 times and phi[b]
    flipped depth(b) - depth(l) - 1 times: they differ iff phi[a] and
    phi[b] are equal exactly when depth(a) + depth(b) is odd, and l is
    never needed.
    Ancestry is a preorder interval test. Only failing edges have their
    path walked, to name the first pair of equal signs.
    """
    parent, depth, root = t.parent, t.depth, t.root
    n = len(parent)
    if len(phi) != n:
        raise ValueError(f"labeling has {len(phi)} entries for {n} vertices")
    if phi[root] is not None:
        raise ValueError(f"labeling has {phi[root]!r} at the root {root}, which has no parent edge")
    if phi.count("+") + phi.count("-") != n - 1:
        v = next(v for v, s in enumerate(phi) if v != root and s != "+" and s != "-")
        raise ValueError(
            f"labeling has {phi[v]!r} for tree edge ({v}, {parent[v]}), not '+' or '-'"
        )
    cotree = cotree_edges(t)
    if not cotree:
        return VerificationReport(ok=True)

    first = [-1] * n  # first-child / next-sibling lists
    sibling = [-1] * n
    for v, p in enumerate(parent):
        if p is not None:
            sibling[v] = first[p]
            first[p] = v
    tin = [0] * n
    top = [root] * n
    order = []
    stack = [root]
    while stack:
        v = stack.pop()
        tin[v] = len(order)
        order.append(v)
        sv, tv = phi[v], top[v]
        c = first[v]
        while c >= 0:
            top[c] = tv if phi[c] != sv else v  # at the root, sv is None
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
            if tin[x] <= tin[y] < end[x] and (phi[a] == phi[b]) == ((depth[a] + depth[b]) % 2 == 1):
                continue
        path = fundamental_path(t, e)
        # The sign of a path edge sits at its deeper endpoint.
        signs = [phi[x] if depth[x] > depth[y] else phi[y] for x, y in zip(path, path[1:])]
        for j in range(len(signs) - 1):
            if signs[j] == signs[j + 1]:
                violations.append(Violation(e, path, j, "alternation"))
                break
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
    return Solution(tree, signs, trace, verify_alternating(tree, signs))
