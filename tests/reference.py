"""Reference implementations that the tests compare the package against.

The package's ascent fixes one cotree edge at a time on a tree it updates
in place and prices only the two valley exchanges, in closed form, in the
climb that finds the valley (solver._valley_exchanges). The references
share none of that pricing or selection: they re-root every candidate
exchange afresh (trees._swapped, through delta_potential), take their own
argmax, and rescan from the first cotree edge after every move, on
immutable trees, and they locate a path's valley by its length and end
depths (valley_index). They share only the monotonicity test
(trees.ancestor_related) and the failure dump. They are quadratically
slower, and nothing outside the tests runs them.
"""

from treesign import (
    NoImprovingSwapError,
    SolveTrace,
    SwapMove,
    VerificationReport,
    Violation,
    bfs_tree,
    canonical_edge,
    cotree_edges,
    delta_potential,
    fundamental_path,
    potential,
)
from treesign.solver import _candidates, falsification_instance
from treesign.trees import _swapped, ancestor_related


def valley_index(depth, path):
    """Index of the shallowest vertex of a tree path, given the tree's depth
    map. The path is strictly monotone in depth iff this is an end.

    A tree path a ... l ... b falls by 1 per step to the endpoints' lowest
    common ancestor l and rises by 1 after it, so with l at index k,
    depth(a) - depth(b) = k - (len(path) - 1 - k).
    """
    return (len(path) - 1 + depth[path[0]] - depth[path[-1]]) // 2


def apply_swap(t, move):
    """Spanning tree after the exchange, rooted afresh."""
    return _swapped(t, move.added, move.removed)


def find_improving_swap(t, e):
    """Best strictly improving exchange that inserts the cotree edge ``e``.

    Every edge of e's fundamental path is evaluated as the removal
    candidate; the one with maximum potential gain wins, ties going to the
    smallest path index. The path must be non-monotone; a non-monotone
    path always admits a gain of at least 1, so exhausting the candidates
    without one raises NoImprovingSwapError. Each candidate's exchanged
    tree is rooted afresh (delta_potential), which costs O(path * n),
    where the ascent prices only the two valley edges in closed form, in
    O(path), as it climbs to the valley.
    """
    e = canonical_edge(*e)
    path = fundamental_path(t, e)
    if ancestor_related(t.parent, t.depth, *e):
        raise ValueError(f"fundamental path of {e} is monotone; nothing to improve")
    deltas = [
        delta_potential(t, e, canonical_edge(path[j], path[j + 1])) for j in range(len(path) - 1)
    ]
    j = max(range(len(deltas)), key=deltas.__getitem__)
    if deltas[j] < 1:
        raise NoImprovingSwapError(falsification_instance(t, e, path, _candidates(path, deltas)))
    return SwapMove(added=e, removed=canonical_edge(path[j], path[j + 1]), delta_psi=deltas[j])


def verify_monotone(g, t):
    """Check that every cotree edge's fundamental path is strictly
    monotone in depth; reports the valley index of each failing edge."""
    violations = []
    for e in cotree_edges(t):
        path = fundamental_path(t, e)
        k = valley_index(t.depth, path)
        if 0 < k < len(path) - 1:
            violations.append(Violation(e, path, k, "monotonicity"))
    return VerificationReport(ok=not violations, violations=tuple(violations))


def _monotone_spanning_tree_restart(g, root=0):
    """The ascent as first stated: from the breadth-first tree, fix the
    lexicographically first non-monotone cotree edge with
    find_improving_swap, and rescan from the first cotree edge after every
    exchange, on immutable trees. monotone_spanning_tree must make the
    same moves and end at the same tree."""
    t = bfs_tree(g, root)
    initial_psi = potential(t)
    moves = []
    while True:
        violating = None
        for e in cotree_edges(t):
            if not ancestor_related(t.parent, t.depth, *e):
                violating = e
                break
        if violating is None:
            break
        move = find_improving_swap(t, violating)
        t = apply_swap(t, move)
        moves.append(move)
    return t, SolveTrace(initial_psi, tuple(moves), potential(t))
