"""Mutation check: each mutant below must fail the tests named with it.

Run from anywhere, with pytest and hypothesis installed:

    python3 tests/mutants.py

A mutant replaces one exact snippet of one source file. For each mutant
the script copies src/, tests/ and pyproject.toml into a temporary
directory, applies the mutant there and runs pytest on the mutant's test
ids; the working tree is never changed. It exits 1 when a mutant
survives (its tests pass), when a snippet does not occur exactly once in
its file, or when the unmutated copy fails one of the listed tests, so a
stale entry is reported rather than counted as a kill. Each entry says
what it breaks.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PINNED = "tests/test_solver.py::TestMonotoneSpanningTree::test_move_traces_are_pinned"
CORRUPT = "tests/test_solver.py::TestValleyClimb::test_one_corrupt_depth_on_the_path_is_refused"

# (file, snippet, replacement, test ids that must fail)
MUTANTS = [
    # The re-queue probes vertices stamped by earlier moves: extra pushes.
    ("src/treesign/solver.py", "if stamp <= lx < i", "if 0 <= lx < i", [PINNED]),
    # The re-queue probes c's own off-chain children: extra pushes.
    ("src/treesign/solver.py", "if stamp <= lx < i", "if stamp <= lx <= i", [PINNED]),
    # Every move reuses stamp 0, so earlier moves' marks read as this one's.
    ("src/treesign/solver.py", "        stamp += len(chain)\n", "", [PINNED]),
    # A climb past the root reads depth[None]: a TypeError, not the
    # valley-shape AssertionError.
    ("src/treesign/trees.py", "if x is None or depth[x] != dx:", "if depth[x] != dx:", [CORRUPT]),
    # Ties between the two valley exchanges go right instead of left.
    (
        "src/treesign/solver.py",
        "if left >= right:",
        "if left > right:",
        [PINNED, "tests/test_solver.py::TestMonotoneSpanningTree::test_complete_four"],
    ),
    # The block reader pairs each index with itself, so every plain edge
    # list falls back to the line loop.
    (
        "src/treesign/graphs.py",
        "pairs.extend(zip(it, it))",
        "pairs.extend(zip(indices, indices))",
        ["tests/test_graphs.py::TestParsersAgainstReferences::test_plain_edge_list_is_read_in_blocks"],
    ),
]


def pytest_exit(copy: Path, ids: list[str]) -> int:
    """pytest's exit status on ``ids`` in the copy: 0 all passed, 1 some
    failed, anything else an error (an unknown id exits 4)."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *ids],
        cwd=copy,
        env={**os.environ, "PYTHONPATH": str(copy / "src")},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    ).returncode


def fresh_copy(scratch: Path, name: str) -> Path:
    copy = scratch / name
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")
    return copy


def main() -> int:
    problems = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        scratch = Path(tmp)
        listed = sorted({i for *_, ids in MUTANTS for i in ids})
        status = pytest_exit(fresh_copy(scratch, "clean"), listed)
        if status:
            print(f"the unmutated copy fails the listed tests (pytest exit {status})")
            return 1
        for k, (path, snippet, replacement, ids) in enumerate(MUTANTS):
            label = f"mutant {k}: {path}: {snippet.strip()!r} -> {replacement.strip()!r}"
            copy = fresh_copy(scratch, f"mutant{k}")
            text = (copy / path).read_text()
            if text.count(snippet) != 1:
                problems.append(f"{label}: the snippet occurs {text.count(snippet)} times, not once")
                continue
            (copy / path).write_text(text.replace(snippet, replacement))
            status = pytest_exit(copy, ids)
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"error (pytest exit {status})")
            print(f"{label}: {verdict}", flush=True)
            if status != 1:
                problems.append(f"{label}: {verdict}")
    print("\n".join(problems) or f"all {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
