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
sorted edge lists. Identical inputs give byte-identical reports except for
the timing_ms field.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
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
    to_dot,
)
from .oracle import EnumerationLimitError, enumerate_connected_graphs, exhaustive_check
from .solver import NoImprovingSwapError, Sign, SignLabeling, Solution, solve, verify_alternating
from .trees import DisconnectedGraphError, RootedTree, tree_from_edges

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_DISCONNECTED = 3
EXIT_INTERNAL = 4
EXIT_FALSIFIED = 5


def canonical_json(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` plus a final newline.

    CPython's C encoder runs only without ``indent``, so the bytes are
    written here, specialised to the shapes of the reports: dicts with
    ``str`` keys, lists of ints and lists of [int, int] pairs. Any other
    value is handed to ``json.dumps`` itself.
    """
    return _dump(doc, "\n") + "\n"


def _dump(x, nl: str) -> str:
    """``x`` as json.dumps(x, sort_keys=True, indent=2) writes it when it
    starts a line indented by ``nl`` (a newline and the indent)."""
    if type(x) is int:
        return str(x)
    if isinstance(x, (list, dict)) and not x:
        return "[]" if isinstance(x, list) else "{}"
    inner = nl + "  "
    if isinstance(x, dict) and all(type(k) is str for k in x):
        keys = sorted(x)
        values = [x[k] for k in keys]
        if all(type(v) is str for v in values):
            body = [_quote(k) + ": " + _quote(v) for k, v in zip(keys, values)]
        else:
            body = [_quote(k) + ": " + _dump(v, inner) for k, v in zip(keys, values)]
        return "{" + inner + ("," + inner).join(body) + nl + "}"
    if isinstance(x, list):
        if all(type(v) is int for v in x):
            body = map(str, x)
        elif all(
            type(v) is list and len(v) == 2 and type(v[0]) is int and type(v[1]) is int for v in x
        ):
            deeper = inner + "  "
            body = [f"[{deeper}{a},{deeper}{b}{inner}]" for a, b in x]
        else:
            body = [_dump(v, inner) for v in x]
        return "[" + inner + ("," + inner).join(body) + nl + "]"
    # Byte-exact: a JSON text holds no raw newline outside its layout.
    return json.dumps(x, sort_keys=True, indent=2).replace("\n", nl)


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


def _edge_json(e: Edge) -> list[int]:
    return [e[0], e[1]]


def _signs_json(signs: SignLabeling) -> dict[str, str]:
    # _value_ is the member's value without the Enum.value descriptor.
    return {f"{u}-{v}": s._value_ for (u, v), s in signs.items()}


def _failures_json(violations) -> list[dict]:
    return [
        {
            "cotree_edge": _edge_json(v.cotree_edge),
            "path": list(v.path),
            "index": v.index,
            "failed": v.failed,
        }
        for v in violations
    ]


def build_solve_report(solution: Solution, timing_ms: int) -> dict:
    tree, trace, verification = solution.tree, solution.trace, solution.verification
    return {
        "schema_version": SCHEMA_VERSION,
        "input": {"n": tree.graph.n, "m": tree.graph.m, "root": tree.root},
        "tree": {
            "edges": [_edge_json(e) for e in tree.sorted_edges()],
            "depth": list(tree.depth),
        },
        "signs": _signs_json(solution.signs),
        "trace": {
            "initial_psi": trace.initial_psi,
            "final_psi": trace.final_psi,
            "moves": [
                {
                    "add": _edge_json(m.added),
                    "remove": _edge_json(m.removed),
                    "delta": m.delta_psi,
                }
                for m in trace.moves
            ],
        },
        "verification": {
            "ok": verification.ok,
            "failures": _failures_json(verification.violations),
        },
        "timing_ms": timing_ms,
    }


def cmd_solve(args: argparse.Namespace) -> int:
    g = read_graph(args.input, args.format)
    started = time.perf_counter()
    solution = solve(g, args.root)
    timing_ms = int((time.perf_counter() - started) * 1000)
    _write_text(args.json, canonical_json(build_solve_report(solution, timing_ms)))
    if args.dot is not None:
        _write_text(args.dot, to_dot(g, solution.tree, solution.signs))
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


def load_solution_document(g: Graph, doc: dict) -> tuple[RootedTree, SignLabeling, int]:
    """Rebuild (tree, signs, root) from a solve report against ``g``.

    Everything recomputable (depths) is recomputed; contract violations
    (values of the wrong JSON type, tree edges outside the graph, malformed
    keys, unknown signs) raise ParseError. JSON booleans are not integers
    here, although Python treats them as such.
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
    if type(root) is not int or not 0 <= root < max(g.n, 1):
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
    signs: SignLabeling = {}
    for key, value in sign_rows.items():
        edge = _parse_sign_key(key)
        try:
            signs[edge] = Sign(value)
        except ValueError:
            raise ParseError(f"unknown sign {value!r} for edge {key}") from None
    return tree, signs, root


def cmd_verify(args: argparse.Namespace) -> int:
    g = read_graph(args.graph, args.format)
    try:
        doc = json.loads(_read_text(args.solution))
    except (json.JSONDecodeError, RecursionError) as exc:
        # json.loads recurses once per nesting level.
        raise ParseError(f"solution is not valid JSON: {exc}") from None
    tree, signs, _ = load_solution_document(g, doc)
    try:
        report = verify_alternating(g, tree, signs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
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
        try:
            g = named_graph(args.family, args.params)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    else:
        raise ParseError("a family (or --gnp) is required")
    _write_text(args.out, emit_edge_list(g))
    return EXIT_OK


@dataclass(frozen=True)
class BenchConfig:
    """One bench sweep: a family, instance sizes, seed count for random
    draws, and the edge probability for gnp."""

    family: str
    sizes: tuple[int, ...]
    seeds: int = 1
    p: float = 0.3

    def instances(self):
        """Yield (size, seed, graph); disconnected random draws yield a
        graph of None so callers can record the skip."""
        for size in self.sizes:
            if self.family == "gnp":
                for seed in range(self.seeds):
                    g = gnp_graph(size, self.p, seed)
                    yield size, seed, (g if is_connected(g) else None)
            else:
                yield size, 0, named_graph(self.family, (size,))


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
    if not sizes:
        raise ParseError("no sizes given")
    return tuple(sizes)


def run_bench(config: BenchConfig) -> tuple[list[tuple], int]:
    """Solve every instance, timing each solve() with its verification;
    returns (rows, skipped count)."""
    rows: list[tuple] = []
    skipped = 0
    for size, seed, g in config.instances():
        if g is None:
            skipped += 1
            print(
                f"note: skipped disconnected draw {config.family} n={size} seed={seed}",
                file=sys.stderr,
            )
            continue
        started = time.perf_counter()
        solution = solve(g)
        ms = int((time.perf_counter() - started) * 1000)
        if not solution.verification.ok:
            raise AssertionError(f"bench instance failed verification: {graph_key(g)}")
        trace = solution.trace
        rows.append(
            (
                config.family,
                g.n,
                g.m,
                seed,
                len(trace.moves),
                trace.initial_psi,
                trace.final_psi,
                ms,
            )
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
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for family in families:
        rows, _ = run_bench(BenchConfig(family, sizes, args.seeds, args.p))
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
    p_oracle.add_argument("--root", type=int, default=0)
    p_oracle.add_argument("--format", choices=("edgelist", "dimacs"), default="edgelist")
    p_oracle.add_argument("--jsonl", default=None, help="reports destination (default stdout)")
    p_oracle.add_argument("--max-trees", type=int, default=1_000_000)
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
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except EnumerationLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except DisconnectedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISCONNECTED
    except NoImprovingSwapError as exc:
        print(f"falsification: {exc}", file=sys.stderr)
        return EXIT_FALSIFIED
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
