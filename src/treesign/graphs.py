"""Simple undirected graphs: construction, search, parsing and edge-list
emission, generation.

Graphs are immutable, use dense 0-based vertex ids, and store each edge
once in canonical orientation (u < v), lexicographically sorted. Inputs
that are not simple are normalized (loops dropped, parallel edges merged)
and the cleanup is reported rather than rejected. breadth_first is the
package's one graph search: connectivity, breadth-first trees, the rooting
of edge sets and the oracle's assignment order all run it.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

Vertex = int
Edge = tuple[int, int]

FAMILIES = (
    "path",
    "cycle",
    "complete",
    "complete_bipartite",
    "grid",
    "hypercube",
)


class ParseError(ValueError):
    """Malformed graph input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def canonical_edge(u: int, v: int) -> Edge:
    """Order the endpoints as (min, max); loops are rejected."""
    if u == v:
        raise ValueError(f"loop edge {u}-{u} is not allowed")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class NormalizationLog:
    """What input cleanup did: loops dropped, parallel edges merged."""

    dropped_loops: int = 0
    merged_duplicates: int = 0
    warnings: tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return self.dropped_loops == 0 and self.merged_duplicates == 0


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    ``edges`` must be canonical (u < v), strictly increasing
    lexicographically, and within range; the constructor validates this.
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        prev: Edge | None = None
        for u, v in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge {u}-{v} invalid for n={self.n}")
            if prev is not None and (u, v) <= prev:
                raise ValueError("edges must be sorted and unique")
            prev = (u, v)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[Vertex, ...], ...]:
        """Sorted neighbor list per vertex (symmetric closure of edges)."""
        neighbors: list[list[Vertex]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            neighbors[u].append(v)
            neighbors[v].append(u)
        # Already sorted: edges are sorted and unique, so vertex x receives
        # its lower neighbours from (u, x), u ascending, before its higher
        # ones from (x, w), w ascending.
        return tuple(tuple(ns) for ns in neighbors)

    def degree(self, v: Vertex) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u != v and canonical_edge(u, v) in self.edge_set


def make_graph(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[Graph, NormalizationLog]:
    """Build the simple graph on n vertices from arbitrary endpoint pairs.

    Loops are dropped and duplicate (or reversed duplicate) edges merged;
    the log reports how many of each.
    """
    pairs = list(pairs)
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex index out of range for n={n}: {u}-{v}")
    canonical = [(u, v) if u < v else (v, u) for u, v in pairs if u != v]
    # The sort is linear on sorted input and makes duplicates adjacent;
    # dict.fromkeys drops them and keeps the order.
    edges = tuple(dict.fromkeys(sorted(canonical)))
    graph = Graph(n, edges)
    return graph, NormalizationLog(len(pairs) - len(canonical), len(canonical) - len(edges))


def breadth_first(
    neighbors: Sequence[Sequence[Vertex]],
    root: Vertex,
    parent: list[Vertex | None],
    depth: list[int],
) -> list[Vertex]:
    """Vertices a breadth-first search from ``root`` over a neighbor list
    reaches, in visit order, skipping any vertex whose depth is already set
    (not -1). Records each new vertex's search parent and depth in
    ``parent`` and ``depth``; each vertex is visited after its parent."""
    n = len(neighbors)
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range for n={n}")
    depth[root] = 0
    visited = [root]
    for u in visited:
        d = depth[u] + 1
        for w in neighbors[u]:
            if depth[w] < 0:
                depth[w] = d
                parent[w] = u
                visited.append(w)
    return visited


def is_connected(g: Graph) -> bool:
    """True iff every vertex is reachable from vertex 0 (true for n <= 1).
    Counts the vertices one search reaches, without listing components;
    fewer than n - 1 edges answer False before any search."""
    if g.m < g.n - 1:
        return False
    return g.n <= 1 or len(breadth_first(g.adjacency, 0, [None] * g.n, [-1] * g.n)) == g.n


def connected_components(g: Graph) -> list[list[Vertex]]:
    """Vertex lists of the connected components, each sorted, in order of
    smallest member. The searches share one parent and depth map, so each
    vertex is entered once."""
    parent: list[Vertex | None] = [None] * g.n
    depth = [-1] * g.n
    return [
        sorted(breadth_first(g.adjacency, start, parent, depth))
        for start in range(g.n)
        if depth[start] < 0
    ]


def graph_key(g: Graph) -> str:
    """Canonical one-line identifier of a labeled graph."""
    return f"n={g.n};m={g.m};" + ",".join(f"{u}-{v}" for u, v in g.edges)


# ---------------------------------------------------------------------------
# parsing and emission


# A plain edge list, as emit_edge_list writes it: a decimal header line,
# then "u v" lines of ASCII digits and one space, every line ending in "\n".
# Up to 18 digits, which int() always converts; a longer index takes the
# line loop.
_PLAIN_HEADER = re.compile(r"([0-9]{1,18})\n")
_PLAIN_LINES = re.compile(r"(?:[0-9]{1,18} [0-9]{1,18}\n)*")
_BLOCK_CHARS = 1 << 16


def parse_edge_list(text: str) -> tuple[Graph, NormalizationLog]:
    """Parse the plain edge-list format.

    An optional first content line holding a single integer declares the
    vertex count; every other content line holds two whitespace-separated
    0-based endpoints. Blank lines and lines starting with '#' are skipped.
    Without a header, the vertex count is 1 + the largest index seen.

    A plain edge list (emit_edge_list's shape) is read in blocks of about
    64 KiB, so no token list spans the whole text. Any other text, and a
    plain one with a fault, is read line by line; only that reading names
    a faulty line.
    """
    return _parse_plain_edge_list(text) or _parse_edge_list_lines(text)


def _parse_plain_edge_list(text: str) -> tuple[Graph, NormalizationLog] | None:
    """The graph of a plain edge list with every index below the header's
    count, or None for any other text. Each block is cut at a line end and
    checked whole by one regular expression before it is split."""
    header = _PLAIN_HEADER.match(text)
    if header is None:
        return None
    n = int(header[1])
    pairs: list[tuple[int, int]] = []
    start = header.end()
    while start < len(text):
        end = text.find("\n", start + _BLOCK_CHARS) + 1 or len(text)
        block = text[start:end]
        if _PLAIN_LINES.fullmatch(block) is None:
            return None
        indices = list(map(int, block.split()))
        if max(indices) >= n:
            return None
        it = iter(indices)
        pairs.extend(zip(it, it))
        start = end
    try:
        # Graph refuses pairs that are not canonical and strictly increasing.
        return Graph(n, tuple(pairs)), NormalizationLog()
    except ValueError:
        return make_graph(n, pairs)


def _parse_edge_list_lines(text: str) -> tuple[Graph, NormalizationLog]:
    """parse_edge_list line by line; a ParseError names the faulty line."""
    pairs: list[tuple[int, int]] = []
    declared_n: int | None = None
    first_content = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if first_content and len(tokens) == 1:
            declared_n = _parse_index(tokens[0], lineno)
            first_content = False
            continue
        first_content = False
        if len(tokens) != 2:
            raise ParseError("expected two vertex indices", lineno)
        u = _parse_index(tokens[0], lineno)
        v = _parse_index(tokens[1], lineno)
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise ParseError(
                f"vertex index out of range for n={declared_n}", lineno
            )
        pairs.append((u, v))
    if declared_n is None and not pairs:
        raise ParseError("empty input: no header and no edges")
    n = declared_n if declared_n is not None else 1 + max(max(p) for p in pairs)
    return make_graph(n, pairs)


def emit_edge_list(g: Graph) -> str:
    """Inverse of parse_edge_list: header line, then sorted edges."""
    lines = [str(g.n)]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> tuple[Graph, NormalizationLog]:
    """Parse the DIMACS-like format: 'c' comments, one 'p edge <n> <m>'
    header, then 1-indexed 'e <u> <v>' lines.

    A mismatch between the declared and actual edge count is recorded as a
    warning in the log, not an error.
    """
    declared: tuple[int, int] | None = None
    pairs: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("c"):
            continue
        if tokens[0] == "p":
            if declared is not None:
                raise ParseError("duplicate problem header", lineno)
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError("malformed header, expected 'p edge <n> <m>'", lineno)
            declared = (_parse_index(tokens[2], lineno), _parse_index(tokens[3], lineno))
        elif tokens[0] == "e":
            if declared is None:
                raise ParseError("edge descriptor before 'p edge' header", lineno)
            if len(tokens) != 3:
                raise ParseError("malformed edge descriptor", lineno)
            u = _parse_index(tokens[1], lineno)
            v = _parse_index(tokens[2], lineno)
            n = declared[0]
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex index out of range for n={n}", lineno)
            pairs.append((u - 1, v - 1))
        else:
            raise ParseError(f"unknown descriptor {tokens[0]!r}", lineno)
    if declared is None:
        raise ParseError("missing 'p edge' header")
    graph, log = make_graph(declared[0], pairs)
    if len(pairs) != declared[1]:
        warning = f"header declares {declared[1]} edges, found {len(pairs)}"
        log = NormalizationLog(
            log.dropped_loops, log.merged_duplicates, log.warnings + (warning,)
        )
    return graph, log


def _parse_index(token: str, lineno: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"not an integer: {token!r}", lineno) from None
    if value < 0:
        raise ParseError(f"negative index: {value}", lineno)
    return value


# ---------------------------------------------------------------------------
# generators


def named_graph(family: str, params: Iterable[int]) -> Graph:
    """Standard labeled graph of the given family.

    Labelings: path/cycle use 0..n-1 in order; complete_bipartite(a, b)
    puts the left side at 0..a-1; grid(a, b) labels (row, col) as
    row*b + col; hypercube(d) joins words differing in one bit.
    """
    params = tuple(params)
    if family == "path":
        (n,) = _family_params(family, params, 1)
        _require(n >= 1, "path needs n >= 1")
        return Graph(n, tuple((i, i + 1) for i in range(n - 1)))
    if family == "cycle":
        (n,) = _family_params(family, params, 1)
        _require(n >= 3, "cycle needs n >= 3")
        return Graph(n, tuple(sorted([(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])))
    if family == "complete":
        (n,) = _family_params(family, params, 1)
        _require(n >= 1, "complete needs n >= 1")
        return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))
    if family == "complete_bipartite":
        a, b = _family_params(family, params, 2)
        _require(a >= 1 and b >= 1, "complete_bipartite needs a, b >= 1")
        return Graph(a + b, tuple((u, v) for u in range(a) for v in range(a, a + b)))
    if family == "grid":
        a, b = _family_params(family, params, 2)
        _require(a >= 1 and b >= 1, "grid needs a, b >= 1")
        edges = []
        for r in range(a):
            for c in range(b):
                v = r * b + c
                if c + 1 < b:
                    edges.append((v, v + 1))
                if r + 1 < a:
                    edges.append((v, v + b))
        return Graph(a * b, tuple(sorted(edges)))
    if family == "hypercube":
        (d,) = _family_params(family, params, 1)
        _require(d >= 0, "hypercube needs d >= 0")
        n = 1 << d
        edges = [(x, x | (1 << k)) for x in range(n) for k in range(d) if not x & (1 << k)]
        return Graph(n, tuple(sorted(edges)))
    raise ValueError(f"unknown family {family!r}; expected one of {', '.join(FAMILIES)}")


def _family_params(family: str, params: tuple[int, ...], count: int) -> tuple[int, ...]:
    if len(params) != count:
        raise ValueError(f"{family} takes {count} parameter(s), got {len(params)}")
    return params


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def gnp_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with a reproducible draw.

    Pairs are visited in lexicographic order and included when the next
    float from random.Random(seed) falls below p. random.Random is
    MT19937, whose seeded float sequence is the same on every platform
    and CPython version, so identical (n, p, seed) give identical graphs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = random.Random(seed)
    edges = tuple(
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    )
    return Graph(n, edges)
