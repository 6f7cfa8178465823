import hashlib
import io
import json
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from treesign import emit_edge_list, exhaustive_check, gnp_graph, named_graph, solver
from treesign.cli import BenchConfig, canonical_json, main, parse_sizes, run_bench

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


# Documents for the writer's byte-equality test: the shapes reports are made
# of, nested, and arbitrary JSON values, including the ones json.dumps alone
# writes (floats with NaN, bools, None, any text, non-str keys) and deep
# nesting.
INTS = st.integers(-(2**70), 2**70)
PAIRS = st.lists(st.lists(INTS, min_size=2, max_size=2), max_size=4)
REPORT_PARTS = (
    st.lists(INTS, max_size=5)
    | PAIRS
    | st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=4)
    | st.fixed_dictionaries({"add": PAIRS, "remove": PAIRS, "delta": INTS})
    | st.fixed_dictionaries(
        {
            "cotree_edge": st.lists(INTS, min_size=2, max_size=2),
            "path": st.lists(INTS, max_size=5),
            "index": INTS,
            "failed": st.text(max_size=4),
        }
    )
    | st.sampled_from([[], {}])
)
ANY_JSON = st.recursive(
    st.none() | st.booleans() | INTS | st.floats() | st.text(max_size=6) | REPORT_PARTS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | st.dictionaries(st.integers(-3, 3) | st.floats() | st.booleans(), inner, max_size=3),
    max_leaves=20,
)


def nested(x, levels: int):
    for level in range(levels):
        x = [x] if level % 2 else {"k": x}
    return x


def assert_canonical(text: str) -> None:
    """``text`` is what json.dumps(sort_keys=True, indent=2) writes for the
    value it holds, plus a final newline."""
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


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

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(K3_TEXT))
        assert main(["solve", "-"]) == 0
        assert report_of(capsys) == K3_REPORT

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


class TestCanonicalJson:
    @given(doc=ANY_JSON | st.builds(nested, ANY_JSON, st.integers(0, 40)))
    @settings(max_examples=300)
    def test_bytes_equal_json_dumps(self, doc):
        assert canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"

    def test_solve_reports(self, tmp_path, capsys):
        for g in (gnp_graph(30, 0.3, 1), named_graph("grid", (3, 4)), named_graph("complete", (7,))):
            graph = write(tmp_path, "g.edges", emit_edge_list(g))
            out = tmp_path / "report.json"
            assert main(["solve", graph, "--json", str(out)]) == 0
            assert_canonical(out.read_text())


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

    def test_malformed_json(self, tmp_path, capsys):
        graph = write(tmp_path, "k3.edges", K3_TEXT)
        bad = write(tmp_path, "bad.json", "not json {")
        assert main(["verify", graph, bad]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_deeply_nested_json(self, tmp_path, capsys):
        # json.loads recurses once per level and gives up long before this.
        graph = write(tmp_path, "k3.edges", K3_TEXT)
        deep = write(tmp_path, "deep.json", "[" * 100_000 + "]" * 100_000)
        assert main(["verify", graph, deep]) == 2
        assert "error: solution is not valid JSON" in capsys.readouterr().err


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

    def test_size_range(self, capsys):
        assert main(["oracle", "--n", "2..3"]) == 0
        out, err = capsys.readouterr()
        assert len(out.strip().splitlines()) == 5
        assert "5 graph(s) checked, 0 failed" in err

    def test_tree_cap(self, tmp_path, capsys):
        k4 = write(tmp_path, "k4.edges", emit_edge_list(named_graph("complete", (4,))))
        assert main(["oracle", "--input", k4, "--max-trees", "5"]) == 2
        assert "more than 5" in capsys.readouterr().err

    def test_tree_cap_on_more_edges_than_the_recursion_limit(self, tmp_path, capsys):
        # K_8 with a 1,000-vertex tail: the enumerator descends through all
        # 1,028 edges before its first tree.
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
        # sha256 of the JSONL for every connected graph on 2 to 4 vertices
        assert main(["oracle", "--n", "2..4", "--root", "0"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 43
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "aab7485e4c7c9dcc9f18d12bfe681f62b3f0eee99c00b67d142b306db9f3cdb6"
        )


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


class TestBenchHelpers:
    def test_parse_sizes(self):
        assert parse_sizes("10,20") == (10, 20)
        assert parse_sizes("1..4") == (1, 2, 3, 4)
        assert parse_sizes("1, 3..5") == (1, 3, 4, 5)

    def test_disconnected_draws_are_skipped(self, capsys):
        config = BenchConfig(family="gnp", sizes=(20,), seeds=1, p=0.01)
        rows, skipped = run_bench(config)
        assert rows == [] and skipped == 1
        assert "skipped disconnected draw" in capsys.readouterr().err


class TestInternalFailure:
    """A labeling that fails verification, made by flipping the first sign
    assign_signs returns: every caller of solve() must report it."""

    @pytest.fixture(autouse=True)
    def flip_one_sign(self, monkeypatch):
        assign_signs = solver.assign_signs

        def flipped(t):
            signs = assign_signs(t)
            first = min(signs)
            signs[first] = signs[first].flipped()
            return signs

        monkeypatch.setattr(solver, "assign_signs", flipped)

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
