"""Command-line surface.

Subcommands: solve (tree + signs + JSON report), verify (re-check a
report against its graph), oracle (exhaustive small-graph validation;
``--n`` takes sizes such as ``5`` or ``2..5``), gen (graph family
emission), bench (solver timing sweeps to CSV; ``--family`` takes a comma
list such as ``path,cycle,complete``). Every bench row times one
``solve()``, verification included.

Exit codes: 0 success; 1 verification failure (verify); 2 unreadable or
malformed input, an unreadable or unwritable path (missing, a directory,
no permission), bad arguments; 3 disconnected input graph; 4 internal
verification failure; 5 falsification (a non-monotone fundamental path
with no improving exchange, or a failed oracle check — never expected).

Reports are canonical JSON (schema_version 2): the bytes of
``json.dumps(doc, sort_keys=True, indent=2)`` plus a final newline, with
sorted edge lists. The solve report is written straight from the solution
(build_solve_report): its bulk fields from ``%`` templates, its ``input``
and ``verification`` fields by json.dumps itself, which also writes verify
output and oracle witnesses (canonical_json). Identical inputs give
byte-identical reports except for the timing_ms field. The report's
``signs`` map, keyed "u-v", meets the solver's per-vertex labeling only in
build_solve_report and load_solution_document.

main runs each command with the cyclic garbage collector paused and
restores the caller's setting afterwards. The commands build large acyclic
data (10^5 edge tuples, neighbour lists, a parsed report), which the
collector would re-walk for nothing, and leave a few hundred cyclic objects
whatever their input's size.
"""

from __future__ import annotations

import argparse
import csv
import gc
import io
import itertools
import json
import sys
import time
from typing import Sequence

from .graphs import (
    FAMILIES,
    Edge,
    Graph,
    NormalizationLog,
    ParseError,
    emit_edge_list,
    gnp_graph,
    graph_key,
    is_connected,
    named_graph,
    parse_dimacs,
    parse_edge_list,
)
from .oracle import (
    DEFAULT_TREE_CAP, EnumerationLimitError, enumerate_connected_graphs, exhaustive_check
)
from .solver import NoImprovingSwapError, SignLabeling, Solution, solve, verify_alternating
from .trees import DisconnectedGraphError, RootedTree, to_dot, tree_from_edges

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DISCONNECTED = 3
EXIT_INTERNAL = 4
EXIT_FALSIFIED = 5


def canonical_json(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` plus a final newline:
    verify output and oracle witnesses."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def read_graph(path: str, fmt: str) -> Graph:
    """Load a graph from a file or stdin ('-'); normalization notes go to
    stderr so the data stream stays clean."""
    text = _read_text(path)
    if fmt == "edgelist":
        graph, log = parse_edge_list(text)
    elif fmt == "dimacs":
        graph, log = parse_dimacs(text)
    else:
        raise ParseError(f"unknown format {fmt!r}")
    _report_normalization(log)
    return graph


def _report_normalization(log: NormalizationLog) -> None:
    if log.dropped_loops:
        print(f"note: dropped {log.dropped_loops} loop edge(s)", file=sys.stderr)
    if log.merged_duplicates:
        print(f"note: merged {log.merged_duplicates} duplicate edge(s)", file=sys.stderr)
    for warning in log.warnings:
        print(f"note: {warning}", file=sys.stderr)


def _failures_json(violations) -> list[dict]:
    return [
        {
            "cotree_edge": list(v.cotree_edge),
            "path": list(v.path),
            "index": v.index,
            "failed": v.failed,
        }
        for v in violations
    ]


def build_solve_report(solution: Solution, timing_ms: int) -> str:
    """The solve report's canonical text, written from the solution.

    The bytes are canonical_json's for the report document, which is never
    built: each bulk field is formatted in one pass, tree edges and moves
    with one ``%`` template per item, and the small ``input`` and
    ``verification`` objects by json.dumps. Each vertex but the root
    gives one sign line, keyed by its parent edge; the lines are sorted as
    strings, which sorts their keys, because a key's closing quote sorts
    before '-' and every digit ("1-2" before "1-23").
    """
    tree, trace, verification = solution.tree, solution.trace, solution.verification
    pair = "[\n        %d,\n        %d\n      ]"
    edges = ",\n      ".join([pair % e for e in tree.sorted_edges()])
    signs = ",\n".join(sorted([
        f'    "{v}-{p}": "{s}"' if v < p else f'    "{p}-{v}": "{s}"'
        for v, p, s in zip(range(tree.graph.n), tree.parent, solution.signs)
        if p is not None
    ]))
    move = (
        '{\n        "add": [\n          %d,\n          %d\n        ],\n        "delta": %d,'
        '\n        "remove": [\n          %d,\n          %d\n        ]\n      }'
    )
    moves = ",\n      ".join([move % (*m.added, m.delta_psi, *m.removed) for m in trace.moves])

    def field(doc: dict) -> str:
        # Re-indented one level; a JSON text holds no raw newline outside its layout.
        return json.dumps(doc, sort_keys=True, indent=2).replace("\n", "\n  ")

    return "".join((
        '{\n  "input": ', field({"n": tree.graph.n, "m": tree.graph.m, "root": tree.root}),
        ',\n  "schema_version": ', str(SCHEMA_VERSION),
        ',\n  "signs": ', ("{\n" + signs + "\n  }") if signs else "{}",
        ',\n  "timing_ms": ', str(timing_ms),
        ',\n  "trace": {\n    "final_psi": ', str(trace.final_psi),
        ',\n    "initial_psi": ', str(trace.initial_psi),
        ',\n    "moves": ', ("[\n      " + moves + "\n    ]") if moves else "[]",
        '\n  },\n  "tree": {\n    "depth": [\n      ', ",\n      ".join(map(str, tree.depth)),
        '\n    ],\n    "edges": ', ("[\n      " + edges + "\n    ]") if edges else "[]",
        '\n  },\n  "verification": ',
        field({"ok": verification.ok, "failures": _failures_json(verification.violations)}),
        "\n}\n",
    ))


def cmd_solve(args: argparse.Namespace) -> int:
    g = read_graph(args.input, args.format)
    started = time.perf_counter()
    solution = solve(g, args.root)
    timing_ms = int((time.perf_counter() - started) * 1000)
    _write_text(args.json, build_solve_report(solution, timing_ms))
    if args.dot is not None:
        _write_text(args.dot, to_dot(solution.tree, solution.signs))
    if not solution.verification.ok:
        print("internal error: produced labeling failed verification", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def _parse_sign_key(key: str) -> Edge:
    """Edge named by a signs key. Only the plain decimal spelling 'u-v' is
    accepted, so no two keys can name one edge."""
    u, _, v = key.partition("-")
    try:
        a, b = int(u), int(v)
    except ValueError:
        raise ParseError(f"malformed edge key {key!r}, expected 'u-v'") from None
    if key != f"{a}-{b}":
        raise ParseError(f"malformed edge key {key!r}, expected 'u-v'")
    if not a < b:
        raise ParseError(f"edge key {key!r} is not in canonical u<v order")
    return (a, b)


def load_solution_document(g: Graph, doc: dict) -> tuple[RootedTree, SignLabeling]:
    """Rebuild (tree, signs) from a solve report against ``g``.

    Everything recomputable (depths) is recomputed; contract violations
    (values of the wrong JSON type, tree edges outside the graph, malformed
    keys, unknown signs, labels that miss a tree edge or name another edge)
    raise ParseError. JSON booleans are not integers here, although Python
    treats them as such.
    """
    if not isinstance(doc, dict):
        raise ParseError("solution document must be a JSON object")
    try:
        edge_rows = doc["tree"]["edges"]
        sign_rows = doc["signs"]
    except (KeyError, TypeError):
        raise ParseError("solution document needs tree.edges and signs") from None
    if not isinstance(edge_rows, list):
        raise ParseError("tree.edges must be a list of [u, v] pairs")
    if not isinstance(sign_rows, dict):
        raise ParseError("signs must be a JSON object")
    inputs = doc.get("input", {})
    if not isinstance(inputs, dict):
        raise ParseError("input must be a JSON object")
    root = inputs.get("root", 0)
    if type(root) is not int or not 0 <= root < g.n:
        raise ParseError(f"root {root!r} out of range")
    edges = []
    for row in edge_rows:
        if not (
            isinstance(row, list) and len(row) == 2 and type(row[0]) is int and type(row[1]) is int
        ):
            raise ParseError(f"malformed tree edge {row!r}")
        edges.append((row[0], row[1]))
    try:
        tree = tree_from_edges(g, edges, root)
    except ValueError as exc:
        raise ParseError(f"tree does not fit the graph: {exc}") from None
    # A key that names a tree edge labels its child; any other key is
    # parsed, and is then refused or collected as a non-tree label.
    child = {"%d-%d" % ((v, p) if v < p else (p, v)): v
             for v, p in enumerate(tree.parent) if p is not None}
    signs: list[str | None] = [None] * g.n
    extra = []
    for key, value in sign_rows.items():
        v = child.get(key)
        if v is None:
            extra.append(_parse_sign_key(key))
        if value != "+" and value != "-":
            raise ParseError(f"unknown sign {value!r} for edge {key}")
        if v is not None:
            signs[v] = value
    if extra or len(sign_rows) != g.n - 1:
        missing = sorted(_parse_sign_key(key) for key, v in child.items() if signs[v] is None)
        parts = [f"unlabeled tree edges {missing}"] if missing else []
        parts += [f"labels for non-tree edges {sorted(extra)}"] if extra else []
        raise ParseError("labeling does not match the tree edges: " + "; ".join(parts))
    return tree, tuple(signs)


def cmd_verify(args: argparse.Namespace) -> int:
    g = read_graph(args.graph, args.format)
    try:
        doc = json.loads(_read_text(args.solution))
    except (json.JSONDecodeError, RecursionError) as exc:
        # json.loads recurses once per nesting level.
        raise ParseError(f"solution is not valid JSON: {exc}") from None
    tree, signs = load_solution_document(g, doc)
    report = verify_alternating(tree, signs)
    failures = _failures_json(report.violations)
    sys.stdout.write(canonical_json({"ok": report.ok, "failures": failures}))
    if report.ok:
        return EXIT_OK
    for f in failures:
        u, v = f["cotree_edge"]
        print(
            f"cotree edge {u}-{v}: equal signs at path index {f['index']} "
            f"(path {'-'.join(map(str, f['path']))})",
            file=sys.stderr,
        )
    return EXIT_VERIFY_FAILED


def cmd_oracle(args: argparse.Namespace) -> int:
    if (args.n is None) == (args.input is None):
        raise ParseError("exactly one of --n and --input is required")
    if args.max_trees < 1:
        raise ParseError(f"--max-trees must be at least 1, got {args.max_trees}")
    if args.n is not None:
        # The list calls every size's generator now, so an unsupported size
        # fails before any graph is checked.
        graphs = itertools.chain(*[enumerate_connected_graphs(n) for n in parse_sizes(args.n)])
    else:
        # exhaustive_check's enumerator refuses a disconnected graph first.
        graphs = iter([read_graph(args.input, args.format)])
    lines: list[str] = []
    failing: list[dict] = []
    checked = 0
    for g in graphs:
        report = exhaustive_check(g, args.root, args.max_trees)
        checked += 1
        lines.append(json.dumps(report.to_json_dict(), sort_keys=True))
        if not report.ok:
            failing.append(report.to_json_dict())
    _write_text(args.jsonl, "\n".join(lines) + "\n")
    print(f"{checked} graph(s) checked, {len(failing)} failed", file=sys.stderr)
    if failing:
        witness_path = (
            args.jsonl + ".witness.json"
            if args.jsonl not in (None, "-")
            else "treesign-witness.json"
        )
        with open(witness_path, "w", encoding="utf-8") as handle:
            handle.write(canonical_json({"failing": failing}))
        print(f"witness written to {witness_path}", file=sys.stderr)
        return EXIT_FALSIFIED
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    if args.gnp is not None:
        if args.family is not None or args.params:
            raise ParseError("--gnp excludes a positional family")
        n_text, p_text, seed_text = args.gnp
        try:
            n, p, seed = int(n_text), float(p_text), int(seed_text)
        except ValueError:
            raise ParseError("--gnp takes integers n, seed and float p") from None
        g = gnp_graph(n, p, seed)
    elif args.family is not None:
        g = named_graph(args.family, args.params)
    else:
        raise ParseError("a family (or --gnp) is required")
    _write_text(args.out, emit_edge_list(g))
    return EXIT_OK


BENCH_FAMILIES = ("path", "cycle", "complete", "hypercube", "gnp")

CSV_HEADER = ("family", "n", "m", "seed", "moves", "initial_psi", "final_psi", "ms")


def parse_sizes(text: str) -> tuple[int, ...]:
    """Sizes as comma-separated integers and inclusive a..b ranges."""
    sizes: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if ".." in token:
            lo_text, _, hi_text = token.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise ParseError(f"malformed size range {token!r}") from None
            if lo > hi:
                raise ParseError(f"empty size range {token!r}")
            sizes.extend(range(lo, hi + 1))
        else:
            try:
                sizes.append(int(token))
            except ValueError:
                raise ParseError(f"malformed size {token!r}") from None
    return tuple(sizes)


def run_bench(
    family: str, sizes: Sequence[int], seeds: int = 1, p: float = 0.3
) -> tuple[list[tuple], int]:
    """Solve one instance of ``family`` per size, or ``seeds`` G(size, p)
    draws for gnp, timing each solve() with its verification; returns
    (rows, skipped count). Disconnected draws are skipped with a note."""
    rows: list[tuple] = []
    skipped = 0
    gnp = family == "gnp"
    for size in sizes:
        for seed in range(seeds) if gnp else (0,):
            g = gnp_graph(size, p, seed) if gnp else named_graph(family, (size,))
            if gnp and not is_connected(g):
                skipped += 1
                print(f"note: skipped disconnected draw gnp n={size} seed={seed}", file=sys.stderr)
                continue
            started = time.perf_counter()
            solution = solve(g)
            ms = int((time.perf_counter() - started) * 1000)
            if not solution.verification.ok:
                raise AssertionError(f"bench instance failed verification: {graph_key(g)}")
            trace = solution.trace
            rows.append(
                (family, g.n, g.m, seed, len(trace.moves), trace.initial_psi, trace.final_psi, ms)
            )
    return rows, skipped


def cmd_bench(args: argparse.Namespace) -> int:
    families = [family.strip() for family in args.family.split(",")]
    for family in families:
        if family not in BENCH_FAMILIES:
            raise ParseError(
                f"unknown bench family {family!r}; expected one of {', '.join(BENCH_FAMILIES)}"
            )
    sizes = parse_sizes(args.sizes)
    if args.seeds < 1:
        raise ParseError(f"--seeds must be at least 1, got {args.seeds}")
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for family in families:
        rows, _ = run_bench(family, sizes, args.seeds, args.p)
        writer.writerows(rows)
    _write_text(args.csv, buffer.getvalue())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treesign",
        description="Spanning trees whose fundamental paths are monotone, "
        "with alternating sign labelings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one graph and emit a JSON report")
    p_solve.add_argument("input", help="graph file, or - for stdin")
    p_solve.add_argument("--root", type=int, default=0)
    p_solve.add_argument("--format", choices=("edgelist", "dimacs"), default="edgelist")
    p_solve.add_argument("--json", default=None, help="report destination (default stdout)")
    p_solve.add_argument("--dot", default=None, help="also write a DOT rendering")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="re-check a solve report against its graph")
    p_verify.add_argument("graph", help="graph file, or - for stdin")
    p_verify.add_argument("solution", help="solve report JSON")
    p_verify.add_argument("--format", choices=("edgelist", "dimacs"), default="edgelist")
    p_verify.set_defaults(func=cmd_verify)

    p_oracle = sub.add_parser("oracle", help="exhaustive checks on small graphs")
    p_oracle.add_argument(
        "--n", default=None, help="check all connected graphs on these vertex counts, e.g. 4 or 2..5"
    )
    p_oracle.add_argument("--input", default=None, help="check a single graph file")
    p_oracle.add_argument("--root", type=int, default=0, help="root of every tree (default 0)")
    p_oracle.add_argument("--format", choices=("edgelist", "dimacs"), default="edgelist")
    p_oracle.add_argument("--jsonl", default=None, help="reports destination (default stdout)")
    p_oracle.add_argument(
        "--max-trees",
        type=int,
        default=DEFAULT_TREE_CAP,
        help="exit 2 on a graph with more spanning trees; the check keeps about "
        "90 bytes per tree (default %(default)s)",
    )
    p_oracle.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("gen", help="emit a graph in edge-list format")
    p_gen.add_argument("family", nargs="?", choices=FAMILIES, default=None)
    p_gen.add_argument("params", nargs="*", type=int)
    p_gen.add_argument("--gnp", nargs=3, metavar=("N", "P", "SEED"), default=None)
    p_gen.add_argument("--out", default=None, help="destination (default stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="timing sweep over graph families, as CSV")
    p_bench.add_argument(
        "--family", required=True, help=f"comma list of: {', '.join(BENCH_FAMILIES)}"
    )
    p_bench.add_argument("--sizes", required=True, help="e.g. 10,20,50 or 10..100")
    p_bench.add_argument("--seeds", type=int, default=1, help="gnp draws per size")
    p_bench.add_argument("--p", type=float, default=0.3, help="gnp edge probability")
    p_bench.add_argument("--csv", default=None, help="destination (default stdout)")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # The cyclic collector is paused for the command: left running, it
    # re-walks the command's large acyclic data (a parsed report, 10^5 edge
    # tuples and neighbour lists), about a third of a bulk solve or verify.
    # Every command leaves only 265-331 cyclic objects, however large its
    # input: argparse's parser, and the closures of each indented json.dumps
    # (at most two per command). So the pause cannot grow memory with the
    # input; reference counting frees everything else.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except NoImprovingSwapError as exc:
        print(f"falsification: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except (ValueError, OSError, EnumerationLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
