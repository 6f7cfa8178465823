"""Self-check of the benchmark harness on tiny inputs.

    python3 perfbench/selfcheck.py

Runs the ``tiny`` workload (K_5, grid 2x3, oracle --n 3) in a few
seconds and exits non-zero with an AssertionError unless:

- an untraced run prints every end-to-end metric of BENCHMARK.json by
  name with its unit, and a traced run every per-layer metric, with no
  failed operation;
- a tampered solve report fails the verify operation and the digest
  check;
- without the treesign sources the benchmark exits non-zero and prints
  no result.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys

import run


def bench(trace: int, root=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny", "--seed", str(run.DEFAULT_SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=120,
    )


def check_metrics_printed() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = bench(trace)
        assert proc.returncode == 0, proc.stderr
        *lines, last = proc.stdout.splitlines()
        result = json.loads(last)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, result
        units = {m["name"]: m["unit"] for m in spec[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units, result["metrics"]
        for name, unit in units.items():
            assert any(line.split()[:1] == [name] and f" {unit} " in line for line in lines), name
        assert any(line.startswith("ops_failed") for line in lines), lines


def check_tampered_report() -> None:
    sys.path.insert(0, str(run.SRC))
    import treesign.cli as cli

    expected = run.load_expected()
    work = run.OUT / "selfcheck-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops, _ = run.build_ops("tiny", run.DEFAULT_SEED, work)
        assert run.run_pass(cli, ops, expected, run.DEFAULT_SEED) == 0
        solve = next(op for op in ops if op.key == "solve:K5")
        verify = next(op for op in ops if op.key == "verify:K5")
        doc = json.loads(solve.report.read_text(encoding="utf-8"))
        edge = min(doc["signs"])
        doc["signs"][edge] = "+" if doc["signs"][edge] == "-" else "-"
        solve.report.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stderr(io.StringIO()):  # the expected FAILED line
            assert not run.run_op(cli, verify, expected, run.DEFAULT_SEED)[1]
        assert run.check(solve, 0, "", expected[solve.key])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_fails_without_sources() -> None:
    bare = run.OUT / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = bench(0, root=bare)
        assert proc.returncode != 0, proc.stdout
        assert not proc.stdout.strip(), proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    check_metrics_printed()
    check_tampered_report()
    check_fails_without_sources()
    print("selfcheck: ok")
