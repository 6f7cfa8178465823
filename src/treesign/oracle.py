"""Brute-force ground truth for small instances.

Spanning trees are enumerated by backtracking over parent maps, counted
independently by an exact integer determinant, and checked exhaustively:
the potential-maximal trees and every exchange-local-maximal tree must
have all fundamental paths monotone, and the solver's output must verify.
Any failed check is serialized as a witness; none is expected to exist.

The backtracker (_parent_maps) builds each tree's edge mask one bit per
parent choice, and takes its depths once the map is complete. The table
pass reads the parent list, mask and depths straight from it, with no
RootedTree in between, and maps each mask to its potential.
enumerate_spanning_trees wraps the same backtracker for every other
caller. Every exchange neighbour of a tree is an enumerated tree, so an
exchange is priced by lookup: a mask with one cotree bit added and one
tree bit dropped is a spanning tree iff it is in the table, which the
Kirchhoff count shows complete. No tree is re-rooted to price an
exchange, and no exchange is priced by the ascent's closed form. The
table costs O(trees) memory, about 87 bytes per tree: K_8's 262,144 trees
peak at 22.8 MB traced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .graphs import Edge, Graph, Vertex, graph_key, is_connected
from .solver import solve
from .trees import RootedTree, _connected_search, ancestor_related, require_connected, root_edges

DEFAULT_TREE_CAP = 1_000_000


class EnumerationLimitError(RuntimeError):
    """The instance has more spanning trees than the configured cap."""


def enumerate_spanning_trees(
    g: Graph, root: Vertex = 0, max_trees: int = DEFAULT_TREE_CAP
) -> Iterator[RootedTree]:
    """Yield every spanning tree of ``g`` exactly once, rooted at ``root``.

    Each tree is a parent map of the backtracking search described in
    _parent_maps, with its depths. A disconnected graph raises
    require_connected's error, and the root is checked. Intended for small
    graphs; raises EnumerationLimitError past ``max_trees`` trees.
    """
    for parent, _, depth in _parent_maps(g, root, max_trees):
        yield RootedTree(g, root, tuple(parent), tuple(depth))


def _parent_maps(
    g: Graph, root: Vertex, max_trees: int
) -> Iterator[tuple[list[Vertex | None], int, list[int]]]:
    """Every spanning tree of ``g`` rooted at ``root``, once each, as its
    parent list (one list, reused), its edge mask (_edge_bits) and its
    depth list.

    Backtracks over parent maps: each non-root vertex takes each of its
    neighbours in ``g.adjacency`` order as its parent, unless that
    neighbour's parent chain, followed through the vertices already
    assigned, ends at the vertex itself (the choice would close a cycle).
    A complete map is then acyclic with every chain ending at the root, so
    it is a spanning tree already rooted there, and each tree has exactly
    one such map. Vertices are assigned in the reverse of a breadth-first
    visit order from the root, root dropped, so each comes before its
    search parent, a neighbour that is the root or comes later. That
    neighbour's chain ends at itself when the vertex picks, so it is always
    a valid choice: every partial map completes to a tree, and the search
    does work polynomial in n per tree yielded. The mask grows with the
    map: masks[k] holds the bits of the first k choices, so a complete
    map's mask costs nothing more. Depths are taken by chasing each parent
    chain up to the first vertex whose depth is known. The backtracking
    state is a list of next-choice indices, one per non-root vertex, not
    the call stack, so its depth is not bounded by Python's recursion
    limit. The breadth-first search is bfs_tree's
    (trees._connected_search), which refuses a disconnected graph and
    checks the root. Raises EnumerationLimitError past ``max_trees`` trees.
    """
    visit = _connected_search(g, root)[0]
    order = visit[:0:-1]
    adjacency = g.adjacency
    bit_of: dict[Edge, int] = {}
    for (u, v), bit in _edge_bits(g):
        bit_of[u, v] = bit_of[v, u] = bit
    # bits[k][i]: the mask bit of the edge from order[k] to its i-th neighbour.
    bits = [[bit_of[v, w] for w in adjacency[v]] for v in order]
    last = len(order)
    parent: list[Vertex | None] = [None] * g.n
    masks = [0] * (last + 1)
    # nxt[k]: index in adjacency[order[k]] of the next parent to try.
    nxt = [0] * last
    yielded = 0
    k = 0
    while k >= 0:
        if k == last:
            yielded += 1
            if yielded > max_trees:
                raise EnumerationLimitError(
                    f"more than {max_trees} spanning trees; raise --max-trees to enumerate"
                )
            depth = [-1] * g.n
            depth[root] = 0
            for v in visit:
                if depth[v] < 0:
                    chain = []
                    x = v
                    while depth[x] < 0:
                        chain.append(x)
                        x = parent[x]
                    d = depth[x]
                    for y in reversed(chain):
                        d += 1
                        depth[y] = d
            yield parent, masks[last], depth
            k -= 1
            continue
        v = order[k]
        parent[v] = None
        neighbours = adjacency[v]
        i = nxt[k]
        while i < len(neighbours):
            w = neighbours[i]
            i += 1
            x = w
            while parent[x] is not None:
                x = parent[x]
            if x != v:
                parent[v] = w
                masks[k + 1] = masks[k] | bits[k][i - 1]
                nxt[k] = i
                k += 1
                break
        else:
            nxt[k] = 0
            k -= 1


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
    A disconnected graph raises require_connected's error. Too few edges
    are refused before any matrix is built; otherwise the determinant is 0
    iff the graph is disconnected (matrix-tree theorem), so the components
    are listed only then.
    """
    n = g.n
    if g.m < n - 1:
        require_connected(g)
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for u, v in g.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    count = _integer_determinant([row[: n - 1] for row in lap[: n - 1]])
    if count == 0:
        require_connected(g)
    return count


def _edge_bits(g: Graph) -> list[tuple[Edge, int]]:
    """Each edge of ``g`` with its bit in an edge mask: g.edges[i] is bit
    m - 1 - i, so among edge sets of one size the larger mask is the
    lexicographically smaller sorted edge tuple."""
    top = g.m - 1
    return [(e, 1 << (top - i)) for i, e in enumerate(g.edges)]


def _potential_table(
    g: Graph, root: Vertex, max_trees: int
) -> tuple[dict[int, int], int, list[int]]:
    """One pass over _parent_maps: every tree's potential keyed by its edge
    mask, the number of trees yielded, and the masks of the non-monotone
    trees in enumeration order. A tree is non-monotone when some cotree
    edge joins two vertices neither of which is an ancestor of the other.
    The count is kept apart from the table's size, so a tree yielded twice
    still breaks the Kirchhoff check."""
    edge_bits = _edge_bits(g)
    table: dict[int, int] = {}
    count = 0
    non_monotone: list[int] = []
    for count, (parent, mask, depth) in enumerate(_parent_maps(g, root, max_trees), 1):
        table[mask] = sum(depth)
        for (u, v), bit in edge_bits:
            if not mask & bit and not ancestor_related(parent, depth, u, v):
                non_monotone.append(mask)
                break
    return table, count, non_monotone


def _maximum(table: dict[int, int]) -> tuple[int, int, int]:
    """The maximal potential's largest mask (the least sorted edge tuple
    among ties), the potential, and the number of trees attaining it."""
    best_psi = max(table.values())
    ties = [mask for mask, psi in table.items() if psi == best_psi]
    return max(ties), best_psi, len(ties)


def _improvable(table: dict[int, int], mask: int, bits: list[int]) -> bool:
    """Does some exchange strictly raise the potential of the tree with edge
    mask ``mask``? ``bits`` holds every edge's bit. Adding a cotree edge
    and dropping a tree edge gives a spanning tree iff the dropped edge is
    on the added edge's fundamental path; the table holds every spanning
    tree, so a miss is no exchange."""
    psi = table[mask]
    for c in bits:
        if not mask & c:
            added = mask | c
            for b in bits:
                if mask & b and table.get(added ^ b, -1) > psi:
                    return True
    return False


def _tree_of(g: Graph, root: Vertex, mask: int) -> RootedTree:
    """The spanning tree with edge mask ``mask``, rooted at ``root``."""
    t = root_edges(g, [e for e, bit in _edge_bits(g) if mask & bit], root)
    assert t is not None, f"edge mask {mask:#x} is not a spanning tree"
    return t


def max_potential_tree(
    g: Graph, root: Vertex, max_trees: int = DEFAULT_TREE_CAP
) -> tuple[RootedTree, int, int]:
    """Potential-maximal spanning tree by exhaustive enumeration.

    Returns the maximizer with the lexicographically least edge set among
    ties, the maximal potential, and the number of trees attaining it.
    """
    mask, psi, count = _maximum(_potential_table(g, root, max_trees)[0])
    return _tree_of(g, root, mask), psi, count


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
        # vars, not dataclasses.asdict: asdict deep-copies the witness, at
        # about 20x the cost per report line.
        return {**vars(self), "ok": self.ok}


def exhaustive_check(
    g: Graph, root: Vertex = 0, max_trees: int = DEFAULT_TREE_CAP
) -> OracleReport:
    """Validate every claim the solver rests on, over all spanning trees.

    (a) every potential-maximal tree has only monotone fundamental paths
        (reported for the lexicographically least one, as the table pass
        classified it; (b) covers ties),
    (b) every tree admitting no strictly improving exchange has only
        monotone fundamental paths,
    (c) the solver's output passes the alternation verifier,
    (d) the enumerated tree count equals the determinant count.
    """
    table, tree_count, non_monotone = _potential_table(g, root, max_trees)
    best_mask, best_psi, max_count = _maximum(table)
    kirchhoff = count_spanning_trees(g)
    witness: dict | None = None
    bits = [1 << i for i in range(g.m)]
    local_max = next((k for k in non_monotone if not _improvable(table, k, bits)), None)
    all_local_maxima_conform = local_max is None
    if local_max is not None:
        witness = _tree_witness(
            _tree_of(g, root, local_max),
            "local_max_conforms",
            "non-monotone tree admitting no improving exchange",
        )
    # The maximiser is never improvable: if non-monotone, it broke (b), which set the witness.
    global_max_conforms = best_mask not in non_monotone

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
