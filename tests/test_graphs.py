import tracemalloc
from unittest import mock

import pytest
import hypothesis.strategies as st
from hypothesis import given, settings

from conftest import connected_graphs
from treesign import (
    Graph,
    NormalizationLog,
    ParseError,
    canonical_edge,
    connected_components,
    emit_edge_list,
    gnp_graph,
    graph_key,
    graphs,
    is_connected,
    make_graph,
    named_graph,
    parse_dimacs,
    parse_edge_list,
    to_dot,
    bfs_tree,
    assign_signs,
)


def test_canonical_edge_orders_endpoints():
    assert canonical_edge(3, 1) == (1, 3)
    assert canonical_edge(1, 3) == (1, 3)
    with pytest.raises(ValueError):
        canonical_edge(2, 2)


def test_graph_validates_edges():
    with pytest.raises(ValueError):
        Graph(3, ((0, 3),))
    with pytest.raises(ValueError):
        Graph(3, ((1, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        Graph(3, ((0, 2), (0, 1)))
    with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
        Graph(-1, ())


def test_make_graph_normalizes():
    g, log = make_graph(3, [(0, 1), (1, 0), (2, 2), (1, 2)])
    assert g.edges == ((0, 1), (1, 2))
    assert log.dropped_loops == 1
    assert log.merged_duplicates == 1
    assert not log.clean


def test_make_graph_clean_log():
    g, log = make_graph(3, [(0, 1)])
    assert log.clean
    with pytest.raises(ValueError):
        make_graph(2, [(0, 2)])


def test_adjacency_and_degree():
    g, _ = make_graph(4, [(0, 1), (0, 2), (2, 3)])
    assert g.adjacency == ((1, 2), (0,), (0, 3), (2,))
    assert g.degree(0) == 2
    assert g.has_edge(1, 0)
    assert not g.has_edge(1, 2)
    assert not g.has_edge(2, 2)
    assert g.m == 3


@given(connected_graphs())
def test_adjacency_is_the_sorted_neighbours_of_the_edges(g):
    for v, ns in enumerate(g.adjacency):
        assert all(x < y for x, y in zip(ns, ns[1:]))
        assert list(ns) == sorted(
            [w for u, w in g.edges if u == v] + [u for u, w in g.edges if w == v]
        )


def test_connectivity():
    path = named_graph("path", (4,))
    assert is_connected(path)
    g, _ = make_graph(4, [(0, 1), (2, 3)])
    assert not is_connected(g)
    assert connected_components(g) == [[0, 1], [2, 3]]
    assert is_connected(Graph(1, ()))
    assert is_connected(Graph(0, ()))


def test_is_connected_agrees_with_the_component_listing():
    all_edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    graphs = [Graph(0, ()), Graph(1, ())] + [
        Graph(5, tuple(e for i, e in enumerate(all_edges) if mask >> i & 1))
        for mask in range(1 << len(all_edges))
    ]
    for g in graphs:
        assert is_connected(g) == (len(connected_components(g)) <= 1), g.edges
    # 728 connected labeled graphs on 5 vertices (OEIS A001187)
    assert sum(map(is_connected, graphs)) == 2 + 728


def test_graph_key():
    g, _ = make_graph(3, [(0, 1), (1, 2)])
    assert graph_key(g) == "n=3;m=2;0-1,1-2"


class TestEdgeListFormat:
    def test_header_and_comments(self):
        g, log = parse_edge_list("# triangle\n3\n0 1\n\n0 2\n1 2\n")
        assert g.n == 3 and g.m == 3
        assert log.clean

    def test_without_header(self):
        g, _ = parse_edge_list("0 1\n1 4\n")
        assert g.n == 5
        assert g.edges == ((0, 1), (1, 4))

    def test_single_vertex(self):
        g, _ = parse_edge_list("1\n")
        assert g.n == 1 and g.m == 0

    def test_rejects_bad_lines(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("3\n0 1 2\n")
        with pytest.raises(ParseError, match="not an integer"):
            parse_edge_list("3\n0 x\n")
        with pytest.raises(ParseError, match="out of range"):
            parse_edge_list("3\n0 3\n")
        with pytest.raises(ParseError, match="empty input"):
            parse_edge_list("# nothing\n")
        with pytest.raises(ParseError, match="negative"):
            parse_edge_list("0 -1\n")

    def test_emit_exact_bytes(self):
        g = named_graph("path", (4,))
        assert emit_edge_list(g) == "4\n0 1\n1 2\n2 3\n"

    @given(connected_graphs(min_n=1, max_n=8))
    def test_roundtrip(self, g):
        parsed, log = parse_edge_list(emit_edge_list(g))
        assert parsed == g
        assert log.clean

    def test_plain_text_peak_memory_stays_near_the_graph(self):
        text = emit_edge_list(named_graph("path", (20000,)))
        tracemalloc.start()
        try:
            parsed = parse_edge_list(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parsed[0].m == 19999
        assert peak <= 1.5 * held


# References for the parsers: one strip, startswith and split per line,
# _parse_index per token, and make_graph canonicalising pair by pair.


def reference_make_graph(n, pairs):
    dropped = 0
    seen = set()
    merged = 0
    for u, v in pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex index out of range for n={n}: {u}-{v}")
        if u == v:
            dropped += 1
            continue
        e = canonical_edge(u, v)
        if e in seen:
            merged += 1
        else:
            seen.add(e)
    return Graph(n, tuple(sorted(seen))), NormalizationLog(dropped, merged)


def reference_index(token, lineno):
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"not an integer: {token!r}", lineno) from None
    if value < 0:
        raise ParseError(f"negative index: {value}", lineno)
    return value


def reference_parse_edge_list(text):
    pairs = []
    declared_n = None
    first_content = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if first_content and len(tokens) == 1:
            declared_n = reference_index(tokens[0], lineno)
            first_content = False
            continue
        first_content = False
        if len(tokens) != 2:
            raise ParseError("expected two vertex indices", lineno)
        u = reference_index(tokens[0], lineno)
        v = reference_index(tokens[1], lineno)
        if declared_n is not None and (u >= declared_n or v >= declared_n):
            raise ParseError(f"vertex index out of range for n={declared_n}", lineno)
        pairs.append((u, v))
    if declared_n is None and not pairs:
        raise ParseError("empty input: no header and no edges")
    n = declared_n if declared_n is not None else 1 + max(max(p) for p in pairs)
    return reference_make_graph(n, pairs)


def reference_parse_dimacs(text):
    declared = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tokens = line.split()
        if tokens[0] == "p":
            if declared is not None:
                raise ParseError("duplicate problem header", lineno)
            if len(tokens) != 4 or tokens[1] != "edge":
                raise ParseError("malformed header, expected 'p edge <n> <m>'", lineno)
            declared = (reference_index(tokens[2], lineno), reference_index(tokens[3], lineno))
        elif tokens[0] == "e":
            if declared is None:
                raise ParseError("edge descriptor before 'p edge' header", lineno)
            if len(tokens) != 3:
                raise ParseError("malformed edge descriptor", lineno)
            u = reference_index(tokens[1], lineno)
            v = reference_index(tokens[2], lineno)
            n = declared[0]
            if not (1 <= u <= n and 1 <= v <= n):
                raise ParseError(f"vertex index out of range for n={n}", lineno)
            pairs.append((u - 1, v - 1))
        else:
            raise ParseError(f"unknown descriptor {tokens[0]!r}", lineno)
    if declared is None:
        raise ParseError("missing 'p edge' header")
    graph, log = reference_make_graph(declared[0], pairs)
    if len(pairs) != declared[1]:
        warning = f"header declares {declared[1]} edges, found {len(pairs)}"
        log = NormalizationLog(log.dropped_loops, log.merged_duplicates, log.warnings + (warning,))
    return graph, log


# Texts for the parser references: headers, comments, blank lines,
# three-token lines, unusual whitespace (tab, \x0b, which also ends a line,
# and the ideographic space \u3000) and tokens that int() reads or refuses
# in ways a plain digit string does not show, among mostly well-formed lines.
INDICES = st.sampled_from(["0", "1", "2", "3", "4"] * 3 + ["+3", "-0", "-1", "1_0", "\u0663", "x"])
TOKENS = INDICES | st.sampled_from(["#", "#1", "c", "cx", "p", "edge", "e"])
SPACES = st.sampled_from([" "] * 8 + ["  ", "\t", "\x0b", "\u3000"])
ODD_LINES = st.lists(TOKENS, max_size=4) | st.lists(INDICES, min_size=3, max_size=3)


def comment_lines(*heads):
    return st.builds(lambda head, rest: [head, *rest], st.sampled_from(heads), st.lists(TOKENS, max_size=2))


def mostly(common, *rare):
    """Lines from ``common`` eight times in eleven, else from one of three ``rare``."""
    return st.sampled_from([common] * 8 + list(rare)).flatmap(lambda lines: lines)


HEADER = st.lists(INDICES, min_size=1, max_size=1)
PAIR = st.lists(INDICES, min_size=2, max_size=2)
EDGE_LIST_LINES = mostly(PAIR, HEADER, comment_lines("#", "#1", "#x"), ODD_LINES)
P_LINE = st.builds(lambda n, m: ["p", "edge", n, m], INDICES, INDICES)
E_LINE = st.builds(lambda u, v: ["e", u, v], INDICES, INDICES)
DIMACS_LINES = mostly(E_LINE, P_LINE, comment_lines("c", "c1", "cx"), ODD_LINES)


@st.composite
def graph_texts(draw, first, lines):
    """Lines of tokens, most often after a header line ``first``."""
    rows = [draw(first)] if draw(st.sampled_from([True, True, True, False])) else []
    rows += draw(st.lists(lines, max_size=8))
    text = []
    for tokens in rows:
        lead = draw(st.sampled_from(["", " ", "\t"]))
        trail = draw(st.sampled_from(["", " ", "\u3000"]))
        text.append(lead + draw(SPACES).join(tokens) + trail)
    return draw(st.sampled_from(["\n", "\r\n"])).join(text)


@st.composite
def plain_texts(draw):
    """Plain edge lists (a header line, then "u v" lines of ASCII digits,
    one space and "\\n") with indices up to the vertex count, so some are
    out of range, and with loops, duplicates, reversed and unsorted pairs,
    no edges at all, and leading zeros. Half are canonical edge lists."""
    n = draw(st.integers(0, 6))
    index = st.integers(0, n + 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=10))
    if draw(st.booleans()):
        pairs = sorted({(u, v) if u < v else (v, u) for u, v in pairs if u != v})
    zeros = st.sampled_from([""] * 8 + ["0", "00"])
    lines = [draw(zeros) + str(n)]
    lines += [f"{draw(zeros)}{u} {draw(zeros)}{v}" for u, v in pairs]
    if draw(st.integers(0, 9)) == 0:
        # One index longer than int() reads on CPython 3.11 and later.
        line = draw(st.integers(0, len(lines) - 1))
        lines[line] = "0" * 4300 + lines[line]
    return "".join(line + "\n" for line in lines)


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line


class TestParsersAgainstReferences:
    @given(graph_texts(HEADER, EDGE_LIST_LINES))
    @settings(max_examples=400)
    def test_edge_list(self, text):
        assert parse_outcome(parse_edge_list, text) == parse_outcome(reference_parse_edge_list, text)

    @given(plain_texts(), st.sampled_from([1, 5, 1 << 16]))
    @settings(max_examples=400)
    def test_plain_edge_list(self, text, block_chars):
        # Blocks of 1 or 5 characters cut a small text after every line or two.
        with mock.patch.object(graphs, "_BLOCK_CHARS", block_chars):
            assert parse_outcome(parse_edge_list, text) == parse_outcome(reference_parse_edge_list, text)

    @pytest.mark.parametrize(
        "edit",
        [None, ("\n19998 19999\n", "\n19998 20000\n"), ("\n10000 10001\n", "\n10001 10000\n")],
        ids=["unchanged", "out-of-range-in-the-last-block", "reversed-pair-mid-file"],
    )
    def test_plain_edge_list_in_several_blocks(self, edit):
        text = emit_edge_list(named_graph("path", (20000,)))
        if edit is not None:
            assert text.count(edit[0]) == 1
            text = text.replace(*edit)
        assert len(text) > 3 * graphs._BLOCK_CHARS
        assert parse_outcome(parse_edge_list, text) == parse_outcome(reference_parse_edge_list, text)

    def test_plain_edge_list_is_read_in_blocks(self, monkeypatch):
        def line_loop(text):
            raise AssertionError("a plain edge list fell back to the line loop")

        monkeypatch.setattr(graphs, "_parse_edge_list_lines", line_loop)
        graph, log = parse_edge_list(emit_edge_list(named_graph("path", (20000,))))
        assert graph == named_graph("path", (20000,)) and log.clean

    @given(graph_texts(P_LINE, DIMACS_LINES))
    @settings(max_examples=400)
    def test_dimacs(self, text):
        assert parse_outcome(parse_dimacs, text) == parse_outcome(reference_parse_dimacs, text)

    @given(st.integers(0, 5), st.lists(st.tuples(st.integers(-1, 5), st.integers(-1, 5)), max_size=12))
    def test_make_graph(self, n, pairs):
        def outcome(build):
            try:
                return build(n, pairs)
            except ValueError as exc:
                return str(exc)

        assert outcome(make_graph) == outcome(reference_make_graph)


class TestDimacsFormat:
    def test_parses_one_indexed(self):
        text = "c a triangle\np edge 3 3\ne 1 2\ne 1 3\ne 2 3\n"
        g, log = parse_dimacs(text)
        assert g.edges == ((0, 1), (0, 2), (1, 2))
        assert log.clean and not log.warnings

    def test_count_mismatch_is_a_warning(self):
        g, log = parse_dimacs("p edge 3 5\ne 1 2\n")
        assert g.m == 1
        assert any("declares 5" in w for w in log.warnings)

    def test_rejects_malformed(self):
        with pytest.raises(ParseError, match="header"):
            parse_dimacs("e 1 2\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_dimacs("p edge 2 1\np edge 2 1\n")
        with pytest.raises(ParseError, match="unknown descriptor"):
            parse_dimacs("p edge 2 1\nq 1 2\n")
        with pytest.raises(ParseError, match="out of range"):
            parse_dimacs("p edge 2 1\ne 1 3\n")
        with pytest.raises(ParseError, match="malformed header"):
            parse_dimacs("p edge 2\n")


class TestFamilies:
    def test_path(self):
        assert named_graph("path", (1,)).m == 0
        assert named_graph("path", (4,)).edges == ((0, 1), (1, 2), (2, 3))

    def test_cycle(self):
        g = named_graph("cycle", (4,))
        assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
        with pytest.raises(ValueError):
            named_graph("cycle", (2,))

    def test_complete(self):
        g = named_graph("complete", (5,))
        assert g.m == 10
        assert all(g.degree(v) == 4 for v in range(5))

    def test_complete_bipartite(self):
        g = named_graph("complete_bipartite", (2, 3,))
        assert g.n == 5 and g.m == 6
        assert not g.has_edge(0, 1) and g.has_edge(0, 2)

    def test_grid(self):
        g = named_graph("grid", (2, 3))
        assert g.n == 6 and g.m == 7
        assert g.has_edge(0, 1) and g.has_edge(0, 3) and not g.has_edge(2, 3)

    def test_hypercube(self):
        g = named_graph("hypercube", (3,))
        assert g.n == 8 and g.m == 12
        assert all(g.degree(v) == 3 for v in range(8))
        assert named_graph("hypercube", (0,)).n == 1

    def test_bad_family_and_arity(self):
        with pytest.raises(ValueError, match="unknown family"):
            named_graph("star", (3,))
        with pytest.raises(ValueError, match="parameter"):
            named_graph("grid", (3,))


class TestGnp:
    def test_extremes(self):
        assert gnp_graph(10, 0.0, 1).m == 0
        assert gnp_graph(10, 1.0, 1) == named_graph("complete", (10,))

    def test_deterministic(self):
        assert gnp_graph(30, 0.3, 7) == gnp_graph(30, 0.3, 7)
        assert gnp_graph(30, 0.3, 7) != gnp_graph(30, 0.3, 8)

    def test_validates(self):
        with pytest.raises(ValueError):
            gnp_graph(0, 0.5, 1)
        with pytest.raises(ValueError):
            gnp_graph(5, 1.5, 1)


class TestDot:
    def test_tree_overlay_with_signs(self):
        g = named_graph("complete", (3,))
        t = bfs_tree(g, 0)
        out = to_dot(t, assign_signs(t))
        assert '0 -- 1 [style=solid, label="-"];' in out
        assert "1 -- 2 [style=dashed];" in out
        assert '[label="0 (d=0)"]' in out

    def test_labels_sit_at_each_edges_child(self):
        g = named_graph("path", (4,))
        t = bfs_tree(g, 2)
        assert to_dot(t, ("+", "-", None, "+")) == (
            "graph {\n"
            '  0 [label="0 (d=2)"];\n'
            '  1 [label="1 (d=1)"];\n'
            '  2 [label="2 (d=0)"];\n'
            '  3 [label="3 (d=1)"];\n'
            '  0 -- 1 [style=solid, label="+"];\n'
            '  1 -- 2 [style=solid, label="-"];\n'
            '  2 -- 3 [style=solid, label="+"];\n'
            "}\n"
        )
        # an entry of None leaves its edge unlabelled
        assert "  1 -- 2 [style=solid];\n" in to_dot(t, ("+", None, None, "+"))

    def test_rejects_inconsistent_labeling(self):
        g = named_graph("complete", (3,))
        t = bfs_tree(g, 0)
        for phi in [(None, "-"), (None, "-", "-", "+"), ()]:
            with pytest.raises(ValueError) as refused:
                to_dot(t, phi)
            assert str(refused.value) == f"labeling has {len(phi)} entries for 3 vertices"
