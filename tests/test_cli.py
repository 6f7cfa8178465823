import gc
import hashlib
import io
import json
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import child, flipped
from treesign import (
    DisconnectedGraphError,
    ParseError,
    cli,
    emit_edge_list,
    enumerate_connected_graphs,
    exhaustive_check,
    gnp_graph,
    make_graph,
    named_graph,
    oracle,
    require_connected,
    solve,
    solver,
)
from treesign.cli import (
    build_parser,
    build_solve_report,
    canonical_json,
    load_solution_document,
    main,
    parse_sizes,
    run_bench,
)

P4_TEXT = "4\n0 1\n1 2\n2 3\n"
K3_TEXT = "3\n0 1\n0 2\n1 2\n"

K3_REPORT = {
    "input": {"m": 3, "n": 3, "root": 0},
    "schema_version": 2,
    "signs": {"0-2": "-", "1-2": "+"},
    "trace": {
        "final_psi": 3,
        "initial_psi": 2,
        "moves": [{"add": [1, 2], "delta": 1, "remove": [0, 1]}],
    },
    "tree": {"depth": [0, 2, 1], "edges": [[0, 2], [1, 2]]},
    "verification": {"failures": [], "ok": True},
}


# The oracle's witness for K3 when the solver's labeling fails verification
# (TestInternalFailure), byte for byte.
K3_WITNESS = """\
{
  "failing": [
    {
      "all_local_maxima_conform": true,
      "global_max_conforms": true,
      "graph_id": "n=3;m=3;0-1,0-2,1-2",
      "kirchhoff_count": 3,
      "max_psi": 3,
      "max_psi_tree_count": 2,
      "ok": false,
      "root": 0,
      "solve_agrees": false,
      "tree_count": 3,
      "witness": {
        "check": "solve_agrees",
        "depth": [
          0,
          2,
          1
        ],
        "detail": "solver output failed the alternation verifier",
        "root": 0,
        "tree_edges": [
          [
            0,
            2
          ],
          [
            1,
            2
          ]
        ]
      }
    }
  ]
}
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def put(doc, where, value):
    """Set the dotted field ``where`` (e.g. "input.root") of ``doc``."""
    *parents, key = where.split(".")
    for name in parents:
        doc = doc[name]
    doc[key] = value


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


# Graph inputs for the parser fuzz: arbitrary text, arbitrary bytes (mostly
# invalid UTF-8), and lines of tokens either format might accept.
NUMBERS = st.sampled_from(["0", "1", "2", "3", "4", "-1", "1000000000000"])
GRAPH_LINES = (
    st.lists(
        NUMBERS | st.sampled_from(["p", "edge", "e", "c", "#"]) | st.text(max_size=3),
        max_size=4,
    ).map(" ".join)
    | st.builds("p edge {} {}".format, NUMBERS, NUMBERS)
    | st.builds("e {} {}".format, NUMBERS, NUMBERS)
)
GRAPH_BYTES = (
    st.text(max_size=60).map(str.encode)
    | st.binary(max_size=60)
    | st.lists(GRAPH_LINES, max_size=8).map(lambda lines: "\n".join(lines).encode())
)


def assert_canonical(text: str) -> None:
    """``text`` is what json.dumps(sort_keys=True, indent=2) writes for the
    value it holds, plus a final newline."""
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def reference_report(solution, timing_ms: int) -> dict:
    """The solve report as a document: the fields build_solve_report writes,
    built as plain JSON values."""
    tree, trace, verification = solution.tree, solution.trace, solution.verification
    return {
        "schema_version": 2,
        "input": {"n": tree.graph.n, "m": tree.graph.m, "root": tree.root},
        "tree": {"edges": [list(e) for e in tree.sorted_edges()], "depth": list(tree.depth)},
        "signs": {
            f"{min(v, p)}-{max(v, p)}": s
            for v, (p, s) in enumerate(zip(tree.parent, solution.signs))
            if p is not None
        },
        "trace": {
            "initial_psi": trace.initial_psi,
            "final_psi": trace.final_psi,
            "moves": [
                {"add": list(m.added), "remove": list(m.removed), "delta": m.delta_psi}
                for m in trace.moves
            ],
        },
        "verification": {
            "ok": verification.ok,
            "failures": [
                {
                    "cotree_edge": list(v.cotree_edge),
                    "path": list(v.path),
                    "index": v.index,
                    "failed": v.failed,
                }
                for v in verification.violations
            ],
        },
        "timing_ms": timing_ms,
    }


def assert_report_bytes(solution, timing_ms: int = 17) -> str:
    text = build_solve_report(solution, timing_ms)
    reference = reference_report(solution, timing_ms)
    assert text == json.dumps(reference, sort_keys=True, indent=2) + "\n"
    return text


def report_of(capsys):
    doc = json.loads(capsys.readouterr().out)
    assert isinstance(doc.pop("timing_ms"), int)
    return doc


class TestUsage:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_help(self, capsys):
        assert main(["--help"]) == 0
        assert "usage:" in capsys.readouterr().out


class TestCollectorPause:
    """main runs a command with the cyclic collector paused and hands the
    collector back in the state the caller left it, however the command
    ends."""

    @pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
    def caller_state(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_the_command_runs_paused(self, tmp_path, monkeypatch, capsys):
        seen = []
        monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(gc.isenabled()) or 0)
        assert gc.isenabled()
        assert main(["solve", write(tmp_path, "p4.edges", P4_TEXT)]) == 0
        assert seen == [False]

    @pytest.mark.parametrize(
        "text, options, code",
        [
            (P4_TEXT, [], 0),
            ("3\n0 1 2\n", [], 2),
            ("4\n0 1\n2 3\n", [], 3),
            (P4_TEXT, ["--root", "x"], 2),
        ],
        ids=["exit-0", "malformed", "disconnected", "argparse-error"],
    )
    def test_the_caller_state_is_restored(self, tmp_path, capsys, caller_state, text, options, code):
        assert main(["solve", write(tmp_path, "g.edges", text), *options]) == code
        assert gc.isenabled() is caller_state

    def test_the_caller_state_is_restored_after_an_escaping_error(
        self, tmp_path, monkeypatch, caller_state
    ):
        def crash(args):
            raise RuntimeError("escapes main")

        monkeypatch.setattr(cli, "cmd_solve", crash)
        with pytest.raises(RuntimeError, match="escapes main"):
            main(["solve", write(tmp_path, "p4.edges", P4_TEXT)])
        assert gc.isenabled() is caller_state


class TestGen:
    def test_path(self, capsys):
        assert main(["gen", "path", "4"]) == 0
        assert capsys.readouterr().out == "4\n0 1\n1 2\n2 3\n"

    def test_complete(self, capsys):
        assert main(["gen", "complete", "3"]) == 0
        assert capsys.readouterr().out == "3\n0 1\n0 2\n1 2\n"

    def test_two_parameter_family(self, capsys):
        assert main(["gen", "grid", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("6\n") and len(out.splitlines()) == 8

    def test_gnp_with_p_one_is_complete(self, capsys):
        assert main(["gen", "--gnp", "10", "1.0", "1"]) == 0
        assert capsys.readouterr().out == emit_edge_list(named_graph("complete", (10,)))

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "g.edges"
        assert main(["gen", "path", "3", "--out", str(out)]) == 0
        assert out.read_text() == "3\n0 1\n1 2\n"
        assert capsys.readouterr().out == ""

    def test_errors(self, capsys):
        assert main(["gen"]) == 2
        assert main(["gen", "path"]) == 2
        assert main(["gen", "path", "4", "--gnp", "3", "0.5", "1"]) == 2
        assert main(["gen", "--gnp", "x", "0.5", "1"]) == 2
        assert main(["gen", "bogus", "4"]) == 2

    def test_missing_parameter_message(self, capsys):
        assert main(["gen", "path"]) == 2
        assert capsys.readouterr().err == "error: path takes 1 parameter(s), got 0\n"


class TestSolve:
    def test_path_report(self, tmp_path, capsys):
        path = write(tmp_path, "p4.edges", P4_TEXT)
        assert main(["solve", path]) == 0
        doc = report_of(capsys)
        assert doc["input"] == {"m": 3, "n": 4, "root": 0}
        assert doc["tree"] == {"depth": [0, 1, 2, 3], "edges": [[0, 1], [1, 2], [2, 3]]}
        assert doc["signs"] == {"0-1": "-", "1-2": "+", "2-3": "-"}
        assert doc["trace"]["moves"] == []
        assert doc["verification"] == {"failures": [], "ok": True}

    def test_triangle_report_is_fully_pinned(self, tmp_path, capsys):
        path = write(tmp_path, "k3.edges", K3_TEXT)
        assert main(["solve", path]) == 0
        assert report_of(capsys) == K3_REPORT
        # A repeated edge, reversed, is merged, a loop is dropped and a wrong
        # DIMACS edge count is read past, each with a note, and none of them
        # changes the report.
        for name, text, fmt, note in [
            ("k3dup.edges", K3_TEXT + "1 0\n", "edgelist", "merged 1 duplicate edge(s)"),
            ("k3loop.edges", K3_TEXT + "2 2\n", "edgelist", "dropped 1 loop edge(s)"),
            ("k3.col", "p edge 3 4\ne 1 2\ne 1 3\ne 2 3\n", "dimacs", "header declares 4 edges, found 3"),
        ]:
            assert main(["solve", write(tmp_path, name, text), "--format", fmt]) == 0
            out, err = capsys.readouterr()
            assert err == f"note: {note}\n"
            doc = json.loads(out)
            doc.pop("timing_ms")
            assert doc == K3_REPORT

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(K3_TEXT))
        assert main(["solve", "-"]) == 0
        assert report_of(capsys) == K3_REPORT

    def test_no_improving_swap_exits_5(self, tmp_path, capsys, monkeypatch):
        climb = solver._valley_exchanges
        monkeypatch.setattr(solver, "_valley_exchanges", lambda *args: climb(*args)[:3] + (0, 0))
        path = write(tmp_path, "k3.edges", K3_TEXT)
        assert main(["solve", path]) == 5
        assert capsys.readouterr().err.startswith("falsification: ")

    def test_dimacs(self, tmp_path, capsys):
        path = write(tmp_path, "k3.col", "c complete graph\np edge 3 3\ne 1 2\ne 1 3\ne 2 3\n")
        assert main(["solve", path, "--format", "dimacs"]) == 0
        assert report_of(capsys) == K3_REPORT

    def test_json_and_dot_files(self, tmp_path, capsys):
        path = write(tmp_path, "k3.edges", K3_TEXT)
        out = tmp_path / "report.json"
        dot = tmp_path / "graph.dot"
        assert main(["solve", path, "--json", str(out), "--dot", str(dot)]) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        doc.pop("timing_ms")
        assert doc == K3_REPORT
        text = dot.read_text()
        assert 'style=solid, label="-"' in text and "style=dashed" in text

    def test_nonzero_root(self, tmp_path, capsys):
        path = write(tmp_path, "p4.edges", P4_TEXT)
        assert main(["solve", path, "--root", "3"]) == 0
        doc = report_of(capsys)
        assert doc["input"]["root"] == 3
        assert doc["tree"]["depth"] == [3, 2, 1, 0]

    def test_deterministic_output(self, tmp_path, capsys):
        path = write(tmp_path, "g.edges", emit_edge_list(gnp_graph(15, 0.4, seed=3)))
        assert main(["solve", path]) == 0
        first = report_of(capsys)
        assert main(["solve", path]) == 0
        assert report_of(capsys) == first

    def test_malformed_input(self, tmp_path, capsys):
        path = write(tmp_path, "bad.edges", "3\nzero one\n")
        assert main(["solve", path]) == 2
        assert "error:" in capsys.readouterr().err
        # argparse lets only the known formats through; the reader refuses
        # any other itself.
        with pytest.raises(ParseError, match="^unknown format 'xml'$"):
            cli.read_graph(path, "xml")

    def test_missing_file(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.edges")]) == 2
        # A directory cannot be read or written as a file: exit 2, no traceback.
        graph = write(tmp_path, "k3.edges", K3_TEXT)
        for argv in (
            ["solve", str(tmp_path)],
            ["solve", graph, "--json", str(tmp_path)],
            ["verify", graph, str(tmp_path)],
            ["oracle", "--n", "3", "--jsonl", str(tmp_path)],
        ):
            capsys.readouterr()
            assert main(argv) == 2, argv
            assert "error:" in capsys.readouterr().err, argv

    @given(data=GRAPH_BYTES, fmt=st.sampled_from(["edgelist", "dimacs"]))
    @settings(max_examples=300)
    def test_any_input_exits_with_a_documented_code(self, tmp_path_factory, data, fmt):
        path = tmp_path_factory.mktemp("fuzz") / "graph"
        path.write_bytes(data)
        assert main(["solve", str(path), "--format", fmt]) in range(6)

    def test_disconnected(self, tmp_path, capsys):
        path = write(tmp_path, "split.edges", "4\n0 1\n2 3\n")
        assert main(["solve", path]) == 3
        assert "not connected" in capsys.readouterr().err
        # enough edges for a tree, so the search finds the missed vertices
        path = write(tmp_path, "split5.edges", "5\n0 1\n0 2\n1 2\n3 4\n")
        assert main(["solve", path]) == 3
        assert "not connected: 2 components (sizes 3, 2)" in capsys.readouterr().err
        # refused from the edge count, before any per-vertex work
        path = write(tmp_path, "huge.edges", "1000000000\n0 1\n")
        assert main(["solve", path]) == 3
        assert "1000000000 vertices need at least 999999999 edges, got 1" in capsys.readouterr().err

    def test_disconnected_exits_3_whatever_the_root(self, tmp_path, capsys):
        # Enough edges for a tree, two components: solve and oracle refuse
        # the graph before they check the root, so a root out of range
        # exits 3 too, with require_connected's message.
        g, _ = make_graph(5, [(0, 1), (0, 2), (1, 2), (3, 4)])
        with pytest.raises(DisconnectedGraphError) as expected:
            require_connected(g)
        path = write(tmp_path, "split5.edges", emit_edge_list(g))
        for command in (["solve", path], ["oracle", "--input", path]):
            for root in ("0", "4", "9"):
                assert main([*command, "--root", root]) == 3, (command, root)
                assert capsys.readouterr().err == f"error: {expected.value}\n", (command, root)


class TestCanonicalJson:
    def test_bytes_equal_json_dumps(self):
        # One fixed document pins the layout json.dumps(sort_keys=True,
        # indent=2) gives: keys sorted at every level though given out of
        # order, a two-space indent, one list item a line, empty containers
        # inline, true and null, non-ASCII text escaped, and a final newline.
        doc = {"z": [3, [1, []], {}], "b": {"é": "ü€", "a": True}, "A": None}
        assert canonical_json(doc) == (
            "{\n"
            '  "A": null,\n'
            '  "b": {\n'
            '    "a": true,\n'
            '    "\\u00e9": "\\u00fc\\u20ac"\n'
            "  },\n"
            '  "z": [\n'
            "    3,\n"
            "    [\n"
            "      1,\n"
            "      []\n"
            "    ],\n"
            "    {}\n"
            "  ]\n"
            "}\n"
        )

    def test_verify_output_is_pinned(self, tmp_path, capsys):
        graph = write(tmp_path, "k3.edges", K3_TEXT)
        report = write(tmp_path, "report.json", json.dumps(K3_REPORT))
        assert main(["verify", graph, report]) == 0
        assert capsys.readouterr() == ('{\n  "failures": [],\n  "ok": true\n}\n', "")
        doc = json.loads(json.dumps(K3_REPORT))
        doc["signs"]["1-2"] = "-"
        broken = write(tmp_path, "broken.json", json.dumps(doc))
        assert main(["verify", graph, broken]) == 1
        assert capsys.readouterr() == (
            "{\n"
            '  "failures": [\n'
            "    {\n"
            '      "cotree_edge": [\n        0,\n        1\n      ],\n'
            '      "failed": "alternation",\n'
            '      "index": 0,\n'
            '      "path": [\n        0,\n        2,\n        1\n      ]\n'
            "    }\n"
            "  ],\n"
            '  "ok": false\n'
            "}\n",
            "cotree edge 0-1: equal signs at path index 0 (path 0-2-1)\n",
        )

    def test_solve_reports(self, tmp_path, capsys):
        for g in (gnp_graph(30, 0.3, 1), named_graph("grid", (3, 4)), named_graph("complete", (7,))):
            graph = write(tmp_path, "g.edges", emit_edge_list(g))
            out = tmp_path / "report.json"
            assert main(["solve", graph, "--json", str(out)]) == 0
            assert_canonical(out.read_text())


class TestSolveReport:
    """build_solve_report writes, without building it, the canonical JSON
    of the report document."""

    def test_every_small_graph_at_every_root(self):
        for n in range(1, 5):
            for g in enumerate_connected_graphs(n):
                for root in range(n):
                    assert_report_bytes(solve(g, root))

    def test_single_vertex(self):
        solution = solve(named_graph("path", (1,)))
        doc = json.loads(assert_report_bytes(solution))
        assert doc["tree"]["edges"] == [] and doc["signs"] == {} and doc["trace"]["moves"] == []

    def test_sign_keys_sort_as_strings(self):
        star, _ = make_graph(31, [(1, v) for v in range(31) if v != 1])
        keys = list(json.loads(assert_report_bytes(solve(star, 1)))["signs"])
        assert keys.index("1-2") < keys.index("1-20") < keys.index("1-29") < keys.index("1-3")

    @pytest.mark.parametrize(
        "graph, root",
        [
            (named_graph("complete", (12,)), 0),
            (named_graph("complete", (12,)), 11),
            (named_graph("hypercube", (4,)), 0),
            (gnp_graph(40, 0.3, 1), 0),
        ],
        ids=["K12-root0", "K12-root11", "hypercube4", "gnp40"],
    )
    def test_long_move_lists(self, graph, root):
        """The per-move template at list length and vertex width beyond
        the small graphs'."""
        moves = json.loads(assert_report_bytes(solve(graph, root)))["trace"]["moves"]
        assert len(moves) >= 10
        assert any(max(m["add"] + m["remove"]) >= 10 for m in moves)

    def test_failed_verification(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(
            solver, "assign_signs", lambda t: tuple(None if p is None else "+" for p in t.parent)
        )
        k4 = named_graph("complete", (4,))
        solution = solve(k4)
        assert not solution.verification.ok
        assert_report_bytes(solution)
        assert main(["solve", write(tmp_path, "k4.edges", emit_edge_list(k4))]) == 4
        out = capsys.readouterr().out
        assert_canonical(out)
        assert json.loads(out)["verification"]["failures"]


class TestVerify:
    def solve_to_file(self, tmp_path, capsys):
        graph = write(tmp_path, "k3.edges", K3_TEXT)
        report = str(tmp_path / "report.json")
        assert main(["solve", graph, "--json", report]) == 0
        capsys.readouterr()
        return graph, report

    def test_round_trip(self, tmp_path, capsys):
        graph, report = self.solve_to_file(tmp_path, capsys)
        assert main(["verify", graph, report]) == 0
        assert json.loads(capsys.readouterr().out) == {"failures": [], "ok": True}

    def test_loads_one_sign_per_vertex(self):
        tree, signs = load_solution_document(named_graph("complete", (3,)), K3_REPORT)
        assert (tree.parent, signs, tree.root) == ((None, 2, 0), (None, "+", "-"), 0)

    def test_flipped_sign_fails(self, tmp_path, capsys):
        graph, report = self.solve_to_file(tmp_path, capsys)
        doc = json.loads(Path(report).read_text())
        doc["signs"]["1-2"] = "-"
        broken = write(tmp_path, "broken.json", json.dumps(doc))
        assert main(["verify", graph, broken]) == 1
        out, err = capsys.readouterr()
        assert json.loads(out) == {
            "failures": [
                {"cotree_edge": [0, 1], "failed": "alternation", "index": 0, "path": [0, 2, 1]}
            ],
            "ok": False,
        }
        assert_canonical(out)
        assert "cotree edge 0-1: equal signs at path index 0" in err

    def test_rejects_contract_violations(self, tmp_path, capsys):
        graph, report = self.solve_to_file(tmp_path, capsys)
        base = json.loads(Path(report).read_text())

        for mutate in (
            lambda d: d["signs"].update({"0-5": "+"}),
            lambda d: d["signs"].update({"2-1": "+"}),
            lambda d: d["signs"].update({"0-2": "zero"}),
            lambda d: d["signs"].update({"0-02": "+" if d["signs"]["0-2"] == "-" else "-"}),
            lambda d: d["signs"].update({" 0-2": d["signs"].pop("0-2")}),
            lambda d: d["signs"].pop("0-2"),
            lambda d: d["tree"]["edges"].append([0, 1]),
            lambda d: d.pop("tree"),
            lambda d: d["input"].update({"root": 9}),
        ):
            doc = json.loads(json.dumps(base))
            mutate(doc)
            bad = write(tmp_path, "bad.json", json.dumps(doc))
            assert main(["verify", graph, bad]) == 2, mutate
            capsys.readouterr()

    def test_disconnected_graph_exits_3(self, tmp_path, capsys):
        # A report whose tree cannot fit is refused for the graph's sake
        # when the graph is disconnected (exit 3, as solve and oracle do,
        # whatever the report's root, even one out of range), and for the
        # tree's otherwise (exit 2).
        report = {"tree": {"edges": [[0, 1], [1, 2]]}, "signs": {"0-1": "-", "1-2": "+"}}
        solution = write(tmp_path, "path.json", json.dumps(report))
        split, _ = make_graph(5, [(0, 1), (1, 2), (3, 4)])
        with pytest.raises(DisconnectedGraphError) as expected:
            require_connected(split)
        graph = write(tmp_path, "split.edges", emit_edge_list(split))
        assert main(["verify", graph, solution]) == 3
        assert capsys.readouterr().err == f"error: {expected.value}\n"
        for root in (0, 4, 9):
            rooted = write(tmp_path, f"root{root}.json", json.dumps({**report, "input": {"root": root}}))
            assert main(["verify", graph, rooted]) == 3, root
            assert capsys.readouterr().err == f"error: {expected.value}\n", root
        graph = write(tmp_path, "p5.edges", emit_edge_list(named_graph("path", (5,))))
        assert main(["verify", graph, solution]) == 2
        assert capsys.readouterr().err == (
            "error: tree does not fit the graph: a spanning tree of n=5 needs 4 edges, got 2\n"
        )

    @pytest.mark.parametrize(
        "where, value",
        [
            ("input", [1]),
            ("signs", [1]),
            ("tree.edges", [["a", 1], [1, 2]]),
            ("tree.edges", 5),
            ("input.root", True),
        ],
    )
    def test_rejects_values_of_the_wrong_type(self, tmp_path, capsys, where, value):
        graph = write(tmp_path, "k3.edges", K3_TEXT)
        doc = json.loads(json.dumps(K3_REPORT))
        put(doc, where, value)
        bad = write(tmp_path, "bad.json", json.dumps(doc))
        assert main(["verify", graph, bad]) == 2
        assert "error:" in capsys.readouterr().err

    @given(where=st.sampled_from(["input", "input.root", "tree.edges", "signs"]), value=JSON_VALUES)
    def test_any_json_value_exits_with_a_documented_code(self, tmp_path_factory, where, value):
        work = tmp_path_factory.mktemp("fuzz")
        graph = write(work, "k3.edges", K3_TEXT)
        doc = json.loads(json.dumps(K3_REPORT))
        put(doc, where, value)
        solution = write(work, "doc.json", json.dumps(doc))
        assert main(["verify", graph, solution]) in (0, 1, 2)

    @given(value=JSON_VALUES)
    def test_any_sign_value_exits_with_a_documented_code(self, tmp_path_factory, value):
        work = tmp_path_factory.mktemp("fuzz")
        graph = write(work, "k3.edges", K3_TEXT)
        doc = json.loads(json.dumps(K3_REPORT))
        doc["signs"]["0-2"] = value
        solution = write(work, "doc.json", json.dumps(doc))
        assert main(["verify", graph, solution]) in (0, 1, 2)

    @given(key=st.text(max_size=6) | st.sampled_from(["0-2", "2-0", "0-1", "1-2", "0-3", "-1-2", "0--2"]))
    def test_any_sign_key_exits_with_a_documented_code(self, tmp_path_factory, key):
        work = tmp_path_factory.mktemp("fuzz")
        graph = write(work, "k3.edges", K3_TEXT)
        doc = json.loads(json.dumps(K3_REPORT))
        doc["signs"][key] = doc["signs"].pop("0-2")
        solution = write(work, "doc.json", json.dumps(doc))
        assert main(["verify", graph, solution]) in (0, 1, 2)

    def test_malformed_json(self, tmp_path, capsys):
        graph = write(tmp_path, "k3.edges", K3_TEXT)
        bad = write(tmp_path, "bad.json", "not json {")
        assert main(["verify", graph, bad]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        bad = write(tmp_path, "list.json", "[]")
        assert main(["verify", graph, bad]) == 2
        assert capsys.readouterr().err == "error: solution document must be a JSON object\n"

    def test_deeply_nested_json(self, tmp_path, capsys):
        # json.loads recurses once per level and gives up long before this.
        graph = write(tmp_path, "k3.edges", K3_TEXT)
        deep = write(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
        assert main(["verify", graph, deep]) == 2
        assert "error: solution is not valid JSON" in capsys.readouterr().err

    def test_graph_without_vertices(self, tmp_path, capsys):
        graph = write(tmp_path, "empty.edges", "0\n")
        solution = write(tmp_path, "doc.json", json.dumps({"tree": {"edges": []}, "signs": {}}))
        assert main(["verify", graph, solution]) == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "signs, err",
        [
            ({"0-1": "+"}, "labeling does not match the tree edges: unlabeled tree edges [(0, 2)]"),
            (
                {"0-1": "+", "0-2": "-", "1-2": "+"},
                "labeling does not match the tree edges: labels for non-tree edges [(1, 2)]",
            ),
            ({"0-1": "+", "2-0": "-"}, "edge key '2-0' is not in canonical u<v order"),
            (
                {"0-1": "+", "1-2": "-"},
                "labeling does not match the tree edges: unlabeled tree edges [(0, 2)]; "
                "labels for non-tree edges [(1, 2)]",
            ),
        ],
        ids=["missing", "extra", "reversed-key", "missing-and-extra"],
    )
    def test_rejects_partial_labelings(self, tmp_path, capsys, signs, err):
        # The tree is K3's breadth-first tree at 0, edges (0, 1) and (0, 2).
        graph = write(tmp_path, "k3.edges", K3_TEXT)
        doc = {"input": {"root": 0}, "tree": {"edges": [[0, 1], [0, 2]]}, "signs": signs}
        with pytest.raises(ParseError) as refused:
            load_solution_document(named_graph("complete", (3,)), doc)
        assert str(refused.value) == err
        solution = write(tmp_path, "doc.json", json.dumps(doc))
        assert main(["verify", graph, solution]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")

    def test_label_on_a_non_tree_edge(self, tmp_path, capsys):
        graph = write(tmp_path, "k3.edges", K3_TEXT)
        doc = json.loads(json.dumps(K3_REPORT))
        doc["signs"]["0-1"] = "+"
        solution = write(tmp_path, "doc.json", json.dumps(doc))
        assert main(["verify", graph, solution]) == 2
        assert capsys.readouterr().err == (
            "error: labeling does not match the tree edges: labels for non-tree edges [(0, 1)]\n"
        )


class TestOracle:
    def test_all_graphs_on_three_vertices(self, capsys):
        assert main(["oracle", "--n", "3"]) == 0
        out, err = capsys.readouterr()
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert all(json.loads(line)["ok"] for line in lines)
        assert "4 graph(s) checked, 0 failed" in err

    def test_single_input(self, tmp_path, capsys):
        k4 = write(tmp_path, "k4.edges", emit_edge_list(named_graph("complete", (4,))))
        assert main(["oracle", "--input", k4]) == 0
        (line,) = capsys.readouterr().out.strip().splitlines()
        doc = json.loads(line)
        assert doc["tree_count"] == doc["kirchhoff_count"] == 16
        assert doc["max_psi"] == 6 and doc["ok"]

    def test_jsonl_file(self, tmp_path, capsys):
        out = tmp_path / "reports.jsonl"
        assert main(["oracle", "--n", "2", "--jsonl", str(out)]) == 0
        assert json.loads(out.read_text())["tree_count"] == 1

    def test_flag_validation(self, tmp_path, capsys):
        assert main(["oracle"]) == 2
        k3 = write(tmp_path, "k3.edges", K3_TEXT)
        assert main(["oracle", "--n", "3", "--input", k3]) == 2
        assert main(["oracle", "--n", "7"]) == 2
        assert main(["oracle", "--n", "2..7"]) == 2
        assert main(["oracle", "--n", "two"]) == 2
        assert capsys.readouterr().out == ""
        assert main(["oracle", "--n", "2..x"]) == 2
        assert capsys.readouterr() == ("", "error: malformed size range '2..x'\n")

    def test_size_range(self, capsys):
        assert main(["oracle", "--n", "2..3"]) == 0
        out, err = capsys.readouterr()
        assert len(out.strip().splitlines()) == 5
        assert "5 graph(s) checked, 0 failed" in err

    def test_tree_cap(self, tmp_path, capsys):
        k4 = write(tmp_path, "k4.edges", emit_edge_list(named_graph("complete", (4,))))
        assert main(["oracle", "--input", k4, "--max-trees", "5"]) == 2
        err = capsys.readouterr().err
        assert "more than 5 spanning trees; raise --max-trees to enumerate" in err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_tree_cap_below_one(self, capsys, cap):
        assert main(["oracle", "--n", "3", "--max-trees", cap]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: --max-trees must be at least 1, got {cap}" in err

    def test_tree_cap_defaults_to_the_oracle_cap(self):
        args = build_parser().parse_args(["oracle", "--n", "3"])
        assert args.max_trees == oracle.DEFAULT_TREE_CAP

    def test_tree_cap_on_more_edges_than_the_recursion_limit(self, tmp_path, capsys):
        # K_8 with a 1,000-vertex tail: the enumerator picks a parent for
        # each of the 1,007 non-root vertices before its first tree.
        tail = [(v, v + 1) for v in range(7, 1007)]
        k8 = [(u, v) for u in range(8) for v in range(u + 1, 8)]
        text = "1008\n" + "".join(f"{u} {v}\n" for u, v in k8 + tail)
        lollipop = write(tmp_path, "lollipop.edges", text)
        assert main(["oracle", "--input", lollipop, "--max-trees", "5"]) == 2
        assert "more than 5 spanning trees" in capsys.readouterr().err

    def test_disconnected_input(self, tmp_path, capsys):
        path = write(tmp_path, "split5.edges", "5\n0 1\n0 2\n1 2\n3 4\n")
        out = tmp_path / "reports.jsonl"
        assert main(["oracle", "--input", path, "--jsonl", str(out)]) == 3
        assert "not connected: 2 components (sizes 3, 2)" in capsys.readouterr().err
        assert not out.exists()

    def test_small_sizes_digest(self, capsys):
        # sha256 of the JSONL for every connected graph on 2 to 4 and on 2 to
        # 5 vertices, at root 0 and (for 2 to 5) at root 1; it does not
        # depend on the order in which trees are enumerated
        for sizes, root, lines, digest in [
            ("2..4", "0", 43, "aab7485e4c7c9dcc9f18d12bfe681f62b3f0eee99c00b67d142b306db9f3cdb6"),
            ("2..5", "0", 771, "b79c31c0a87b2d811b6025391b03ad34706fdd9732e25fe330ba83febce9d6f3"),
            ("2..5", "1", 771, "ea4ad965d656b780df9388cf5085f5be85869a6c6f40a01db29be93982c7ced5"),
        ]:
            assert main(["oracle", "--n", sizes, "--root", root]) == 0
            out = capsys.readouterr().out
            assert len(out.splitlines()) == lines, (sizes, root)
            assert hashlib.sha256(out.encode()).hexdigest() == digest, (sizes, root)


class TestBench:
    def test_path_sweep(self, capsys):
        assert main(["bench", "--family", "path", "--sizes", "5,10"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "family,n,m,seed,moves,initial_psi,final_psi,ms"
        assert len(lines) == 3
        assert lines[1].startswith("path,5,4,0,0,10,10,")
        assert lines[2].startswith("path,10,9,0,0,45,45,")

    def test_complete_ends_at_the_path_potential(self, capsys):
        assert main(["bench", "--family", "complete", "--sizes", "6"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[:3] == ["complete", "6", "15"]
        assert row[5] == "5" and row[6] == "15"

    def test_gnp_seeds(self, capsys):
        assert main(["bench", "--family", "gnp", "--sizes", "12", "--seeds", "2", "--p", "0.9"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[3] == "0" and lines[2].split(",")[3] == "1"

    def test_csv_file(self, tmp_path, capsys):
        out = tmp_path / "rows.csv"
        assert main(["bench", "--family", "cycle", "--sizes", "4..6", "--csv", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4

    def test_family_list(self, capsys):
        assert main(["bench", "--family", "path,cycle", "--sizes", "4,5"]) == 0
        rows = [line.split(",")[:2] for line in capsys.readouterr().out.splitlines()[1:]]
        assert rows == [["path", "4"], ["path", "5"], ["cycle", "4"], ["cycle", "5"]]

    def test_unknown_family(self, capsys):
        assert main(["bench", "--family", "grid", "--sizes", "4"]) == 2
        assert "unknown bench family" in capsys.readouterr().err
        assert main(["bench", "--family", "path,grid", "--sizes", "4"]) == 2
        assert "unknown bench family 'grid'" in capsys.readouterr().err

    def test_bad_sizes(self, capsys):
        assert main(["bench", "--family", "path", "--sizes", "9x"]) == 2
        assert main(["bench", "--family", "path", "--sizes", "5..3"]) == 2
        assert main(["bench", "--family", "path", "--sizes", ""]) == 2
        capsys.readouterr()
        assert main(["bench", "--family", "path", "--sizes", "a..5"]) == 2
        assert capsys.readouterr().err == "error: malformed size range 'a..5'\n"
        assert main(["bench", "--family", "gnp", "--sizes", "5", "--seeds", "-2"]) == 2
        assert capsys.readouterr() == ("", "error: --seeds must be at least 1, got -2\n")


class TestBenchHelpers:
    def test_parse_sizes(self):
        assert parse_sizes("10,20") == (10, 20)
        assert parse_sizes("1..4") == (1, 2, 3, 4)
        assert parse_sizes("1, 3..5") == (1, 3, 4, 5)

    def test_disconnected_draws_are_skipped(self, capsys):
        rows, skipped = run_bench("gnp", (20,), seeds=1, p=0.01)
        assert rows == [] and skipped == 1
        assert "skipped disconnected draw" in capsys.readouterr().err


class TestInternalFailure:
    """A labeling that fails verification, made by flipping the sign
    assign_signs gives the lexicographically first tree edge: every caller
    of solve() must report it."""

    @pytest.fixture(autouse=True)
    def flip_one_sign(self, monkeypatch):
        assign_signs = solver.assign_signs

        def flip_first(t):
            return flipped(assign_signs(t), child(t, t.sorted_edges()[0]))

        monkeypatch.setattr(solver, "assign_signs", flip_first)

    def test_exhaustive_check_names_the_solver(self):
        report = exhaustive_check(named_graph("complete", (3,)), 0)
        assert not report.ok and not report.solve_agrees
        assert report.witness["check"] == "solve_agrees"

    def test_oracle_exits_5_and_writes_the_witness(self, tmp_path, capsys):
        k3 = write(tmp_path, "k3.edges", K3_TEXT)
        out = tmp_path / "reports.jsonl"
        assert main(["oracle", "--input", k3, "--jsonl", str(out)]) == 5
        assert json.loads(out.read_text())["ok"] is False
        witness_text = (tmp_path / "reports.jsonl.witness.json").read_text()
        assert json.loads(witness_text)["failing"][0]["witness"]["check"] == "solve_agrees"
        assert_canonical(witness_text)
        assert witness_text == K3_WITNESS

    def test_solve_writes_the_report_and_exits_4(self, tmp_path, capsys):
        k3 = write(tmp_path, "k3.edges", K3_TEXT)
        out = tmp_path / "report.json"
        assert main(["solve", k3, "--json", str(out)]) == 4
        verification = json.loads(out.read_text())["verification"]
        assert verification["ok"] is False and verification["failures"]
        assert "internal error" in capsys.readouterr().err

    def test_bench_exits_4(self, capsys):
        assert main(["bench", "--family", "complete", "--sizes", "3"]) == 4
        assert "bench instance failed verification" in capsys.readouterr().err
