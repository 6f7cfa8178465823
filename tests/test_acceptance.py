"""Acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL
line directly to the terminal (bypassing capture), with the measured
quantities inline. Time limits are asserted, not just reported.
"""

import json
import random
import time

import pytest

from conftest import child, flipped, tree_edges
from treesign import (
    bfs_tree,
    cotree_edges,
    count_spanning_trees,
    delta_potential,
    enumerate_connected_graphs,
    enumerate_spanning_trees,
    fundamental_path,
    gnp_graph,
    is_connected,
    named_graph,
    potential,
    solve,
    tree_from_edges,
    verify_alternating,
)
from treesign.cli import canonical_json, main, run_bench

CORPUS_SIZES = {2: 1, 3: 4, 4: 38, 5: 728}


@pytest.fixture
def report(capsys):
    def _report(num: int, passed: bool, detail: str) -> None:
        with capsys.disabled():
            status = "PASS" if passed else "FAIL"
            print(f"acceptance criterion {num}: {status} ({detail})", flush=True)

    return _report


def corpus():
    for n in sorted(CORPUS_SIZES):
        yield from enumerate_connected_graphs(n)


def connected_gnp_draws(n: int, p: float, count: int, seed_start: int = 0):
    """Deterministic stream of connected G(n, p) draws; disconnected
    seeds are skipped, not resampled."""
    produced = 0
    seed = seed_start
    while produced < count:
        g = gnp_graph(n, p, seed)
        seed += 1
        if is_connected(g):
            produced += 1
            yield g


def test_criterion_1_alternation_on_the_full_corpus_all_roots(report):
    passed = False
    solves = 0
    started = time.perf_counter()
    try:
        for n, expected in CORPUS_SIZES.items():
            assert sum(1 for _ in enumerate_connected_graphs(n)) == expected
        for g in corpus():
            for root in range(g.n):
                s = solve(g, root)
                assert verify_alternating(s.tree, s.signs).ok, (g.edges, root)
                solves += 1
        elapsed = time.perf_counter() - started
        assert solves == 3806
        assert elapsed < 60.0, f"took {elapsed:.1f}s, budget 60s"
        passed = True
    finally:
        elapsed = time.perf_counter() - started
        report(1, passed, f"{solves} solves over 771 graphs x all roots, {elapsed:.1f}s < 60s")


def test_criterion_2_maximal_trees_are_monotone_on_the_full_corpus(report):
    from treesign import exhaustive_check

    passed = False
    checked = 0
    started = time.perf_counter()
    try:
        for g in corpus():
            r = exhaustive_check(g, 0)
            assert r.global_max_conforms and r.all_local_maxima_conform, json.dumps(
                r.to_json_dict(), sort_keys=True
            )
            checked += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s"
        passed = True
    finally:
        elapsed = time.perf_counter() - started
        report(2, passed, f"{checked} graphs, max and local-max trees all monotone, {elapsed:.1f}s < 600s")


def test_criterion_3_enumerator_agrees_with_determinant(report):
    passed = False
    checked = 0
    try:
        for g in connected_gnp_draws(8, 0.4, count=200):
            enumerated = sum(1 for _ in enumerate_spanning_trees(g, 0))
            assert enumerated == count_spanning_trees(g), g.edges
            checked += 1
        passed = True
    finally:
        report(3, passed, f"{checked}/200 random G(8, 0.4) instances, counts equal exactly")


# Criterion 4's instances: (n, p, connected draws) of G(n, p).
CRITERION_4_CASES = [(20, 0.2, 250), (20, 0.5, 250), (50, 0.1, 250), (50, 0.3, 250)]


def test_criterion_4_strict_ascent_and_move_bound(report):
    passed = False
    solved = 0
    total_moves = 0
    try:
        for n, p, count in CRITERION_4_CASES:
            for g in connected_gnp_draws(n, p, count):
                s = solve(g)
                trace = s.trace
                assert all(m.delta_psi >= 1 for m in trace.moves)
                assert trace.final_psi == trace.initial_psi + sum(
                    m.delta_psi for m in trace.moves
                )
                assert len(trace.moves) <= (n - 1) ** 2 - trace.initial_psi
                solved += 1
                total_moves += len(trace.moves)
        assert solved == 1000
        passed = True
    finally:
        report(
            4,
            passed,
            f"{solved} instances (n in {{20, 50}}), strict ascent, "
            f"moves bounded, {total_moves} moves, zero falsifications",
        )


def test_moves_within_the_proven_bound():
    """The proven move bound, tighter than criterion 4's: the depth levels
    0..D of a spanning tree are all non-empty, so its i-th smallest depth
    is at most i and no tree's potential exceeds C(n, 2); every move gains
    at least 1, so moves <= C(n, 2) - initial_psi. Checked on criterion
    4's instances and at every root of every connected graph with n <= 5."""
    pairs = [
        (g, 0) for n, p, count in CRITERION_4_CASES for g in connected_gnp_draws(n, p, count)
    ]
    pairs += [
        (g, root) for n in range(1, 6) for g in enumerate_connected_graphs(n) for root in range(n)
    ]
    assert len(pairs) == 1000 + 3807
    for g, root in pairs:
        trace = solve(g, root).trace
        bound = g.n * (g.n - 1) // 2
        assert trace.final_psi <= bound, (g.edges, root)
        assert len(trace.moves) <= bound - trace.initial_psi, (g.edges, root)


def test_criterion_5_path_graphs_need_no_moves_and_alternate(report):
    passed = False
    try:
        for n in range(2, 51):
            g = named_graph("path", (n,))
            s = solve(g)
            assert s.trace.moves == ()
            # With no moves the tree is the path, so i + 1 hangs from i and
            # carries the sign of the edge (i, i + 1).
            sequence = [s.signs[i + 1] for i in range(n - 1)]
            assert all(a != b for a, b in zip(sequence, sequence[1:]))
            assert sequence[0] == "-"
        passed = True
    finally:
        report(5, passed, "P_2..P_50 solved with 0 moves, signs strictly alternate")


def test_criterion_6_swap_delta_equals_full_recomputation(report):
    passed = False
    samples = 0
    try:
        rng = random.Random(20260813)
        while samples < 10_000:
            n = rng.randint(4, 24)
            g = gnp_graph(n, rng.uniform(0.2, 0.7), seed=rng.randrange(1 << 30))
            if not is_connected(g):
                continue
            t = bfs_tree(g, rng.randrange(n))
            options = []
            for e in cotree_edges(t):
                path = fundamental_path(t, e)
                options.extend(
                    (e, (min(a, b), max(a, b))) for a, b in zip(path, path[1:])
                )
            if not options:
                continue
            rng.shuffle(options)
            for e, removed in options[:25]:
                delta = delta_potential(t, e, removed)
                rebuilt = tree_from_edges(g, (tree_edges(t) - {removed}) | {e}, t.root)
                assert delta == potential(rebuilt) - potential(t), (g.edges, e, removed)
                samples += 1
                if samples == 10_000:
                    break
        passed = True
    finally:
        report(6, passed, f"{samples} sampled swaps, delta equals recomputed difference exactly")


def test_criterion_7_reports_are_byte_identical(report, tmp_path, capsys):
    passed = False
    try:
        g = next(connected_gnp_draws(60, 0.15, count=1, seed_start=11))
        graph_file = tmp_path / "g.edges"
        from treesign import emit_edge_list

        graph_file.write_text(emit_edge_list(g))
        blobs = []
        for run in range(2):
            out = tmp_path / f"report-{run}.json"
            assert main(["solve", str(graph_file), "--root", "3", "--json", str(out)]) == 0
            doc = json.loads(out.read_text())
            doc.pop("timing_ms")
            blobs.append(canonical_json(doc).encode())
        assert blobs[0] == blobs[1]
        passed = True
    finally:
        report(7, passed, "same (graph, root) solved twice, canonical JSON byte-identical sans timing")


def test_criterion_8_desk_scale_performance(report):
    passed = False
    solve_s = bench_s = float("nan")
    try:
        g = gnp_graph(500, 0.05, seed=0)
        assert is_connected(g)
        started = time.perf_counter()
        s = solve(g)
        solve_s = time.perf_counter() - started
        assert verify_alternating(s.tree, s.signs).ok
        assert solve_s < 10.0, f"solve took {solve_s:.1f}s, budget 10s"

        started = time.perf_counter()
        rows, skipped = run_bench("complete", (50, 100, 150, 200))
        bench_s = time.perf_counter() - started
        assert len(rows) == 4 and skipped == 0
        assert bench_s < 60.0, f"bench took {bench_s:.1f}s, budget 60s"
        passed = True
    finally:
        report(
            8,
            passed,
            f"G(500, 0.05) solved+verified in {solve_s:.1f}s < 10s; "
            f"K_50..K_200 bench in {bench_s:.1f}s < 60s",
        )


def test_criterion_9_single_sign_flips_are_caught(report):
    passed = False
    flips = 0
    try:
        for g in corpus():
            s = solve(g)
            eligible = set()
            for e in cotree_edges(s.tree):
                path = fundamental_path(s.tree, e)
                if len(path) >= 3:
                    eligible.update(
                        (min(a, b), max(a, b)) for a, b in zip(path, path[1:])
                    )
            for edge in sorted(eligible):
                mutated = flipped(s.signs, child(s.tree, edge))
                assert not verify_alternating(s.tree, mutated).ok, (g.edges, edge)
                flips += 1
        passed = True
    finally:
        report(9, passed, f"{flips} single-sign flips over corpus solutions, every one rejected")
