"""End-to-end benchmark of the treesign command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense --seed 1 --seconds 25 --trace 0

One workload runs per process. The benchmark writes the workload's
graphs as edge-list files, then drives ``treesign.cli.main`` in-process
as a closed loop of one caller: each pass runs ``solve`` on every graph,
``verify`` on every report that pass wrote, then the workload's
``oracle`` commands. Every operation is checked, and a failed check is
counted, not raised. ``--trace 0`` times untraced rounds, in which an
operation shorter than REP_TARGET_S repeats, and prints the end-to-end
metrics. Each time is scaled to a reference host speed by a fixed
kernel timed throughout the rounds (``Speedometer``), and a command's
time is the sum of its operations' median scaled times.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics (see tracer.py). The last line
of standard output is one JSON object: correct, attempted, failed,
metrics.

Files are written only under perfbench/out/: a record of each run, the
trace of each traced run, and a work directory removed at exit.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 1
MIN_ROUNDS = 3
SETUP_SPAWNS = 7
REP_TARGET_S = 0.5  # untraced rounds repeat a shorter operation up to this long
MAX_REPS = 25
PROBE_GRID = (30, 30)  # Speedometer's kernel: reach every vertex of this grid
PROBE_INTERVAL_S = 0.025
PROBE_MIN = 4  # a span with fewer probes in it also counts the probes just before it
PROBE_REF_S = 0.0003  # the kernel's median time on the development host (README.md)
SETUP_CODE = "import treesign.cli; treesign.cli.build_parser()"


# -- graph generators: (n, sorted canonical edges) ---------------------


def complete(n):
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)]


def grid(rows, cols):
    edges = []
    for r in range(rows):
        for c in range(cols):
            x = r * cols + c
            if c + 1 < cols:
                edges.append((x, x + 1))
            if r + 1 < rows:
                edges.append((x, x + cols))
    return rows * cols, sorted(edges)


def hypercube(d):
    n = 1 << d
    return n, [(x, x | 1 << b) for x in range(n) for b in range(d) if not x >> b & 1]


def path(n):
    return n, [(x, x + 1) for x in range(n - 1)]


def cycle(n):
    return n, sorted(path(n)[1] + [(0, n - 1)])


def _adjacency(n, edges):
    adjacency = [[] for _ in range(n)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    return adjacency


def _reached(adjacency) -> int:
    """Vertices reachable from vertex 0."""
    seen = {0}
    stack = [0]
    while stack:
        for w in adjacency[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen)


def _connected(n, edges):
    return _reached(_adjacency(n, edges)) == n


def gnp(name, n, p, seed):
    """G(n, p) drawn from random.Random(f"{name}:{s}") for s = seed,
    seed + 1, ...: a disconnected draw is skipped for the next seed.
    Returns (n, edges, the seed that was used)."""
    s = seed
    while True:
        rand = random.Random(f"{name}:{s}").random
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rand() < p]
        if _connected(n, edges):
            return n, edges, s
        s += 1


# -- workloads ---------------------------------------------------------
# Each workload lists graphs for solve + verify and inputs for oracle. An
# oracle input is either a graph or ("n", N, ROOT) for all connected
# graphs on N vertices. Every workload runs all three commands so each
# end-to-end metric exists on each; the reasons are in README.md.

FIXED = {
    "K120": lambda: complete(120),
    "K6": lambda: complete(6),
    "K5": lambda: complete(5),
    "grid30x30": lambda: grid(30, 30),
    "grid3x4": lambda: grid(3, 4),
    "grid2x3": lambda: grid(2, 3),
    "hypercube9": lambda: hypercube(9),
    "path100000": lambda: path(100_000),
    "cycle50000": lambda: cycle(50_000),
    "cycle100": lambda: cycle(100),
}
SEEDED = {  # name: (n, p)
    "gnp160": (160, 0.5),
    "gnp1000": (1000, 0.01),
    **{f"gnp12.{i}": (12, 0.35) for i in range(16)},
}
WORKLOADS = {
    "dense": (["K120", "gnp160"], ["K6"]),
    "sparse": (["gnp1000", "grid30x30", "hypercube9"], ["grid3x4"]),
    "bulk": (["path100000", "cycle50000"], ["cycle100"]),
    "oracle": ([f"gnp12.{i}" for i in range(16)], [("n", 5, r) for r in range(5)]),
    "tiny": (["K5", "grid2x3"], [("n", 3, 0)]),  # harness self-check only
}


@dataclass
class Op:
    kind: str  # "solve", "verify" or "oracle"
    key: str  # kind:instance, the key into expected.json
    argv: list[str]
    seeded: bool
    graph: tuple | None = None  # (n, edges) for solve checks
    report: Path | None = None
    reference: str | None = None  # digest this run's later passes must repeat
    counts: dict | None = None  # traced counts this run's later passes must repeat
    reps: int = 1  # runs of this operation in each untraced round after the first
    times: list[float] = field(default_factory=list)  # untraced seconds, one per run
    scaled: list[float] = field(default_factory=list)  # times scaled to PROBE_REF_S, in rounds
    traced_times: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)


def build_ops(workload: str, seed: int, work: Path) -> tuple[list[Op], dict]:
    """Write the workload's inputs under ``work``; returns the operations
    of one pass and the draw seed used for each random graph."""
    solve_names, oracle_inputs = WORKLOADS[workload]
    draws = {}

    def write(name):
        if name in SEEDED:
            n, edges, draws[name] = gnp(name, *SEEDED[name], seed)
        else:
            n, edges = FIXED[name]()
        target = work / f"{name}.edges"
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(f"{n}\n")
            handle.writelines(f"{u} {v}\n" for u, v in edges)
        return target, (n, edges)

    solves, verifies, oracles = [], [], []
    for name in solve_names:
        graph_file, graph = write(name)
        report = work / f"{name}.report.json"
        seeded = name in SEEDED
        solves.append(Op("solve", f"solve:{name}", ["solve", str(graph_file), "--json", str(report)],
                         seeded, graph=graph, report=report))
        verifies.append(Op("verify", f"verify:{name}", ["verify", str(graph_file), str(report)], seeded))
    for entry in oracle_inputs:
        if isinstance(entry, tuple):
            _, n, root = entry
            name, args = f"n{n}r{root}", ["--n", str(n), "--root", str(root)]
        else:
            name, args = entry, ["--input", str(write(entry)[0])]
        out = work / f"oracle-{name}.jsonl"
        oracles.append(Op("oracle", f"oracle:{name}", ["oracle", *args, "--jsonl", str(out)],
                          False, report=out))
    return solves + verifies + oracles, draws


# -- output checks -----------------------------------------------------


def solution_digest(doc: dict) -> str:
    """Digest of the canonical part of a solve report. timing_ms and
    cotree_scan_passes are left out on purpose."""
    trace = doc["trace"]
    canonical = [trace["initial_psi"], trace["final_psi"], trace["moves"],
                 doc["tree"]["edges"], doc["signs"]]
    return hashlib.sha256(json.dumps(canonical, sort_keys=True).encode()).hexdigest()


def alternates(graph: tuple, doc: dict) -> bool:
    """Independent check of a solve report: the tree spans the graph, the
    signs label exactly its edges, and they alternate along every cotree
    edge's tree path."""
    n, edges = graph
    tree = {(min(u, v), max(u, v)) for u, v in doc["tree"]["edges"]}
    signs = doc["signs"]
    if len(tree) != n - 1 or not tree <= set(edges):
        return False
    if set(signs) != {f"{u}-{v}" for u, v in tree} or not set(signs.values()) <= {"+", "-"}:
        return False
    adjacency = [[] for _ in range(n)]
    for u, v in tree:
        adjacency[u].append(v)
        adjacency[v].append(u)
    root = doc["input"]["root"]
    parent, depth, up = [-1] * n, [-1] * n, [""] * n
    depth[root] = 0
    order = [root]
    for x in order:
        for w in adjacency[x]:
            if depth[w] < 0:
                depth[w], parent[w] = depth[x] + 1, x
                up[w] = signs[f"{min(x, w)}-{max(x, w)}"]
                order.append(w)
    if len(order) != n:
        return False
    for u, v in edges:
        if (u, v) in tree:
            continue
        left, right = [], []
        while depth[u] > depth[v]:
            left.append(up[u])
            u = parent[u]
        while depth[v] > depth[u]:
            right.append(up[v])
            v = parent[v]
        while u != v:
            left.append(up[u])
            right.append(up[v])
            u, v = parent[u], parent[v]
        seq = left + right[::-1]
        if any(a == b for a, b in zip(seq, seq[1:])):
            return False
    return True


def check(op: Op, rc, stdout: str, expected: dict | None) -> list[str]:
    """Failed checks of one finished operation (empty when it passed)."""
    if rc != 0:
        return [f"exit code {rc}"]
    if op.kind == "verify":
        result = json.loads(stdout)
        return [] if result.get("ok") is True else ["verifier rejected the report"]
    text = op.report.read_text(encoding="utf-8")
    if op.kind == "oracle":
        lines = [json.loads(line) for line in text.splitlines() if line]
        problems = [f"oracle line not ok: {x['graph_id']}" for x in lines if x.get("ok") is not True]
        problems += [f"tree count {x['tree_count']} != Kirchhoff {x['kirchhoff_count']}: {x['graph_id']}"
                     for x in lines if x["tree_count"] != x["kirchhoff_count"]]
        digest = hashlib.sha256(text.encode()).hexdigest()
    else:
        doc = json.loads(text)
        problems = [] if doc["verification"]["ok"] is True else ["report says verification failed"]
        digest = solution_digest(doc)
    if expected is not None:
        if digest != expected["digest"]:
            problems.append("output digest differs from expected.json")
    elif op.reference is None and op.kind == "solve" and not alternates(op.graph, doc):
        problems.append("labeling does not alternate (independent check)")
    if op.reference is not None and digest != op.reference:
        problems.append("output differs from this run's first pass")
    op.reference = op.reference or digest
    return problems


# -- passes --------------------------------------------------------------


def run_op(cli, op: Op, expected: dict, seed: int, meter: Speedometer | None = None) -> tuple[float, bool]:
    """Run and check one operation; returns (seconds, passed). The
    seconds leave out the time ``meter`` spent in its probes."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    probed = meter.spent if meter else 0.0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        started = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except Exception:  # a crash is a failed operation, not a failed run
            rc = "exception: " + traceback.format_exc()
        seconds = time.perf_counter() - started
        if meter is not None:
            seconds -= meter.spent - probed
    want = expected.get(op.key) if (not op.seeded or seed == DEFAULT_SEED) else None
    try:
        problems = check(op, rc, out.getvalue(), want)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    if problems:
        op.failures.extend(problems)
        print(f"FAILED {op.key}: {'; '.join(problems)}", file=sys.stderr)
        print(err.getvalue(), file=sys.stderr, end="")
    return seconds, not problems


def run_pass(cli, ops: list[Op], expected: dict, seed: int, tracer: Tracer | None = None) -> int:
    """Run every operation once; returns how many failed."""
    failed = 0
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            if tracer is not None:
                tracer.op = op.key
            seconds, passed = run_op(cli, op, expected, seed)
            (op.times if tracer is None else op.traced_times).append(seconds)
            failed += not passed
    finally:
        if tracer is not None:
            tracer.uninstall()
    return failed


class Speedometer:
    """Samples the speed the host gives this process while operations run.

    The development host slows the same code by up to 1.6x for seconds
    to minutes at a time (README.md). Every PROBE_INTERVAL_S a SIGALRM
    handler times a fixed pure-Python kernel (the benchmark's own
    reachability search on a PROBE_GRID grid). ``scale`` turns a timed
    span into seconds at the reference speed PROBE_REF_S by the median
    probe time during the span. The kernel is the benchmark's, so its
    time moves only with the host, not with the program."""

    def __init__(self):
        self.adjacency = _adjacency(*grid(*PROBE_GRID))
        self.ends: list[float] = []  # perf_counter at the end of each probe
        self.times: list[float] = []  # seconds of each probe
        self.spent = 0.0

    def _probe(self, signum, frame):
        started = time.perf_counter()
        _reached(self.adjacency)
        ended = time.perf_counter()
        self.ends.append(ended)
        self.times.append(ended - started)
        self.spent += ended - started

    def __enter__(self):
        self._probe(None, None)  # so that scale() always has a probe
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, started: float, ended: float) -> float:
        """Factor from seconds measured between ``started`` and ``ended``
        (perf_counter) to seconds at the reference speed."""
        first = bisect.bisect_left(self.ends, started)
        last = bisect.bisect_right(self.ends, ended)
        first = max(0, min(first, last - PROBE_MIN))
        return PROBE_REF_S / statistics.median(self.times[first:last])


def run_rounds(cli, ops: list[Op], expected: dict, seed: int, deadline: float,
               meter: Speedometer) -> tuple[int, int]:
    """Untraced rounds over every operation until the next one would end
    after ``deadline``, with at least MIN_ROUNDS whole rounds. After the
    first round an operation repeats until it has taken about
    REP_TARGET_S, so short operations get many samples. Each block of
    runs of one operation is scaled by ``meter``. Returns (attempted,
    failed)."""
    attempted = failed = rounds = 0
    while True:
        for op in ops:
            if rounds >= MIN_ROUNDS and time.perf_counter() + op.reps * min(op.times) > deadline:
                return attempted, failed
            block = []
            started = time.perf_counter()
            for _ in range(op.reps):
                seconds, passed = run_op(cli, op, expected, seed, meter)
                block.append(seconds)
                attempted += 1
                failed += not passed
            factor = meter.scale(started, time.perf_counter())
            op.times += block
            op.scaled += [t * factor for t in block]
        rounds += 1
        if rounds == 1:
            for op in ops:
                op.reps = max(1, min(MAX_REPS, round(REP_TARGET_S / max(op.times[0], 1e-6))))


def count_drift(ops: list[Op], tracer, expected: dict, seed: int) -> tuple[int, list[str]]:
    """Compare each operation's traced counts with its earlier traced pass
    (a mismatch is a failure: the program is not deterministic) and with
    expected.json (a mismatch is reported as drift, since moving or
    renaming a traced function legitimately changes what is counted)."""
    failed, drift = 0, []
    for op in ops:
        counts = tracer.op_counts(op.key)
        if op.counts is not None and counts != op.counts:
            failed += 1
            print(f"FAILED {op.key}: traced counts differ between passes", file=sys.stderr)
        op.counts = counts
        want = expected.get(op.key) if (not op.seeded or seed == DEFAULT_SEED) else None
        if want is not None and counts != want.get("counts"):
            drift.append(op.key)
    return failed, drift


def setup_times(spawns: int, meter: Speedometer) -> tuple[list[float], int]:
    """Wall time to start an interpreter that imports the CLI and builds
    its parser, each scaled by ``meter``; returns the scaled times and
    the number of failed spawns."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, failed = [], 0
    for _ in range(spawns):
        started = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        ended = time.perf_counter()
        times.append((ended - started) * meter.scale(started, ended))
        if proc.returncode != 0:
            failed += 1
            print(f"FAILED setup spawn: {proc.stderr.decode(errors='replace')}", file=sys.stderr)
    return times, failed


def summary(values: list, value=statistics.median) -> dict:
    """``value`` of the samples, with their median, quartiles and count."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"value": value(values), "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values)}


def pass_summary(samples: list[list[float]]) -> dict:
    """Seconds of one pass, given each operation's times: the sum of each
    operation's median time, and likewise of its quartiles. The count is
    the smallest number of times of one operation."""
    per_op = [summary(times) for times in samples]
    totals = {key: sum(s[key] for s in per_op) for key in ("value", "median", "q1", "q3")}
    return {**totals, "n": min(s["n"] for s in per_op)}


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def load_expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("seed") != DEFAULT_SEED:
        raise SystemExit(f"error: {EXPECTED} was recorded for another default seed")
    return doc["ops"]


def run(workload: str, seed: int, seconds: float, trace: bool, expected: dict) -> dict:
    import treesign.cli as cli

    deadline = time.perf_counter() + seconds
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{os.getpid()}"
    work.mkdir()
    try:
        ops, draws = build_ops(workload, seed, work)
        attempted = failed = 0
        setup: list[float] = []
        probes: list[float] = []
        if not trace:
            with Speedometer() as meter:
                setup, failed = setup_times(SETUP_SPAWNS, meter)
                attempted, bad = run_rounds(cli, ops, expected, seed, deadline, meter)
            attempted, failed = attempted + len(setup), failed + bad
            probes = meter.times
        passes, tracers, drift, wall = 0, [], [], 0.0
        while trace:
            if tracers and time.perf_counter() + wall > deadline:
                break
            tracer = Tracer() if passes % 2 else None
            begun = time.perf_counter()
            failed += run_pass(cli, ops, expected, seed, tracer)
            wall = time.perf_counter() - begun
            attempted += len(ops)
            passes += 1
            if tracer is not None:
                tracers.append(tracer)
                bad, drift = count_drift(ops, tracer, expected, seed)
                failed += bad
        record = {"workload": workload, "seed": seed, "trace": int(trace), "draw_seeds": draws,
                  **environment(), "attempted": attempted, "failed": failed,
                  "failures": {op.key: sorted(set(op.failures)) for op in ops if op.failures},
                  "op_seconds": {op.key: op.times + op.traced_times for op in ops},
                  "op_scaled_seconds": {op.key: op.scaled for op in ops if op.scaled},
                  "probe_seconds": summary(probes) if probes else None}
        if not trace:
            metrics = {"setup_s": ("s", summary(setup))}
            for kind in ("solve", "verify", "oracle"):
                metrics[f"{kind}_s"] = ("s", pass_summary([op.scaled for op in ops if op.kind == kind]))
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["peak_rss_mb"] = ("MB", summary([peak_mb]))
        else:
            layers = [t.layer_metrics() for t in tracers]
            metrics = {name: (unit, summary([m[name] for m in layers], statistics.mean))
                       for name, unit, *_ in LAYERS}
            overhead = (pass_summary([op.traced_times for op in ops])["value"]
                        - pass_summary([op.times for op in ops])["value"])
            metrics["trace.overhead_s"] = ("s", summary([overhead]))
            record["count_drift"] = drift
            record["counts"] = {op.key: op.counts for op in ops}
            with open(OUT / f"trace-{workload}-seed{seed}.json", "w", encoding="utf-8") as handle:
                json.dump(tracers[-1].to_json(), handle)
        record["metrics"] = {name: {"unit": unit, **s} for name, (unit, s) in metrics.items()}
        record["digests"] = {op.key: op.reference for op in ops if op.reference}
        return record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "treesign" / "cli.py").is_file():
        print(f"error: no treesign sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = run(args.workload, args.seed, args.seconds, bool(args.trace), load_expected())
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"python {record['python']}  nproc {record['nproc']}  cpu {record['cpu']}")
    for name, m in record["metrics"].items():
        print(f"{name:34} {m['value']:14.6f} {m['unit']:5}  "
              f"median {m['median']:.6f}  q1 {m['q1']:.6f}  q3 {m['q3']:.6f}  n {m['n']}")
    print(f"{'ops_failed':34} {record['failed']:7d} of {record['attempted']} (ops_total)")
    if record.get("count_drift"):
        print(f"count drift against expected.json: {', '.join(record['count_drift'])}")
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                                  for name, m in record["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
