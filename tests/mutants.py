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
NO_WALK = "tests/test_solver.py::TestVerifyAlternating::test_passing_edges_walk_no_path"
NON_MONOTONE = "tests/test_oracle.py::TestNonMonotoneList::test_matches_the_valley_rule_at_every_root"
EXIT_3 = [
    "tests/test_cli.py::TestVerify::test_disconnected_graph_exits_3",
    "tests/test_cli.py::TestSolve::test_disconnected_exits_3_whatever_the_root",
]

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
    # The block reader accepts the index n, one past the last vertex.
    (
        "src/treesign/graphs.py",
        "if max(indices) >= n:",
        "if max(indices) > n:",
        [
            "tests/test_graphs.py::TestParsersAgainstReferences::test_plain_edge_list_in_several_blocks",
            "tests/test_graphs.py::TestEdgeListFormat::test_rejects_bad_lines",
        ],
    ),
    # The ascent's initial subtree sizes stay 1, so the valley gains are mispriced.
    ("src/treesign/solver.py", "            size[p] += size[v]\n", "", [PINNED]),
    # The verifier numbers every subtree as one vertex, so the intervals
    # overlap and ancestry answers are wrong.
    (
        "src/treesign/solver.py",
        "end[p] = i + end[v]",
        "end[p] = i + 1",
        ["tests/test_solver.py::TestVerifyAlternating::test_matches_walking_verifier_mid_size"],
    ),
    # Every alternating run stops after one edge: passing edges get walked.
    ("src/treesign/solver.py", "top[v] = top[p] if phi[v] != phi[p] else p", "top[v] = p", [NO_WALK]),
    # A run that reaches exactly the ancestor endpoint counts as failing.
    ("src/treesign/solver.py", "if depth[top[b]] <= depth[a]:", "if depth[top[b]] < depth[a]:", [NO_WALK]),
    # The edge-mask bits run backwards, so the tie-break among maximisers flips.
    (
        "src/treesign/oracle.py",
        "1 << (top - i)",
        "1 << i",
        ["tests/test_oracle.py::TestMaxPotentialTree::test_triangle"],
    ),
    # The backtracker does not extend the edge mask: every tree keys mask 0.
    (
        "src/treesign/oracle.py",
        "masks[k + 1] = masks[k] | bits[k][i - 1]",
        "masks[k + 1] = masks[k]",
        [NON_MONOTONE, "tests/test_oracle.py::TestMaxPotentialTree::test_triangle"],
    ),
    # The monotone test reads tree edges, which are always monotone, so no
    # tree is listed as non-monotone.
    ("src/treesign/oracle.py", "if not mask & bit and", "if mask & bit and", [NON_MONOTONE]),
    # The enumerator may yield more trees than Kirchhoff counts.
    (
        "src/treesign/oracle.py",
        "return self.tree_count == self.kirchhoff_count",
        "return self.tree_count >= self.kirchhoff_count",
        ["tests/test_oracle.py::TestFailuresTheTableMustNotHide::test_a_tree_yielded_twice_breaks_the_count"],
    ),
    # A zero Kirchhoff count is returned instead of refusing the graph.
    (
        "src/treesign/oracle.py",
        "    if count == 0:\n",
        "    if False:\n",
        ["tests/test_oracle.py::TestCounting::test_disconnected_message_is_require_connected"],
    ),
    # main leaves the cyclic collector off for its caller.
    (
        "src/treesign/cli.py",
        "            gc.enable()",
        "            pass",
        ["tests/test_cli.py::TestCollectorPause::test_the_caller_state_is_restored_after_an_escaping_error"],
    ),
    # A disconnected graph exits 2, not its documented 3.
    ("src/treesign/cli.py", "        return EXIT_DISCONNECTED", "        return EXIT_BAD_INPUT", EXIT_3),
    # A failed verification exits 0, not its documented 1.
    (
        "src/treesign/cli.py",
        "    return EXIT_VERIFY_FAILED",
        "    return EXIT_OK",
        ["tests/test_cli.py::TestCanonicalJson::test_verify_output_is_pinned"],
    ),
    # Malformed input exits 4, not its documented 2.
    (
        "src/treesign/cli.py",
        "        return EXIT_BAD_INPUT",
        "        return EXIT_INTERNAL",
        ["tests/test_cli.py::TestSolve::test_malformed_input"],
    ),
    # solve exits 0 after its own labeling failed verification, not 4.
    (
        "src/treesign/cli.py",
        "        return EXIT_INTERNAL\n    return EXIT_OK",
        "        return EXIT_OK\n    return EXIT_OK",
        [
            "tests/test_cli.py::TestSolveReport::test_failed_verification",
            "tests/test_cli.py::TestInternalFailure::test_solve_writes_the_report_and_exits_4",
        ],
    ),
    # An internal AssertionError exits 2, not its documented 4.
    (
        "src/treesign/cli.py",
        "        return EXIT_INTERNAL\n    finally:",
        "        return EXIT_BAD_INPUT\n    finally:",
        ["tests/test_cli.py::TestInternalFailure::test_bench_exits_4"],
    ),
    # An oracle run with a failing graph exits 0, not its documented 5.
    (
        "src/treesign/cli.py",
        "        return EXIT_FALSIFIED\n    return EXIT_OK",
        "        return EXIT_OK\n    return EXIT_OK",
        ["tests/test_cli.py::TestInternalFailure::test_oracle_exits_5_and_writes_the_witness"],
    ),
    # A solve with no improving exchange exits 2, not its documented 5.
    (
        "src/treesign/cli.py",
        "        return EXIT_FALSIFIED\n    except",
        "        return EXIT_BAD_INPUT\n    except",
        ["tests/test_cli.py::TestSolve::test_no_improving_swap_exits_5"],
    ),
]
# Not listed, because it is equivalent: the verifier's "end[v] = i + 1" ->
# "end[v] = i" gives v the number of its first child, which only makes v
# look like a descendant of that child, and the verifier never tests a
# vertex against a top that it is an ancestor of.


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
