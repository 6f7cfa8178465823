"""In-memory span tracer for the treesign benchmark.

The tracer wraps the public treesign functions that bound a layer, in
every ``treesign.*`` module namespace that binds them: ``solver`` calls
``apply_swap`` through its own import of it, so wrapping only
``treesign.trees.apply_swap`` would miss those calls. Each call becomes a
span with a name, start, end and parent (the innermost enclosing traced
call). Spans are aggregated per (operation, name, parent) while they
close, and the first ``SPAN_CAP`` raw spans are kept for the trace file.

A layer's self time is its span time minus the time of its child spans.
Each child's account includes the tracer's own bookkeeping for it, so
tracing cost lands on the traced calls rather than on their parents'
self time. A function that no longer exists or is no longer called
leaves its layer at zero.
"""

from __future__ import annotations

import inspect
import sys
import time

SPAN_CAP = 50_000

# Functions wrapped in the traced run. Private helpers are not wrapped,
# so their time is part of the caller's self time.
TRACED = (
    "parse_edge_list",
    "parse_dimacs",
    "connected_components",
    "is_connected",
    "bfs_tree",
    "tree_from_edges",
    "fundamental_path",
    "detached_component",
    "apply_swap",
    "delta_potential",
    "monotone_spanning_tree",
    "find_improving_swap",
    "assign_signs",
    "verify_alternating",
    "verify_monotone",
    "solve",
    "enumerate_spanning_trees",
    "count_spanning_trees",
    "exhaustive_check",
    "build_solve_report",
    "load_solution_document",
    "cmd_solve",
    "cmd_verify",
    "cmd_oracle",
)

ASCENT = "monotone_spanning_tree"

# Per-layer metrics: (name, unit, field, traced functions, parent filter).
# Fields: "total" span seconds, "self" span minus child seconds, "calls"
# span count, "items" and "items2" the counters of _items(). A parent
# filter of None accepts any parent.
LAYERS = (
    ("graphs.parse_s", "s", "total", ("parse_edge_list", "parse_dimacs"), None),
    ("graphs.connectivity_s", "s", "total", ("connected_components", "is_connected"), None),
    ("trees.bfs_s", "s", "total", ("bfs_tree",), None),
    ("trees.tree_from_edges_s", "s", "total", ("tree_from_edges",), None),
    ("solver.ascent_s", "s", "total", (ASCENT,), None),
    ("solver.ascent.self_s", "s", "self", (ASCENT,), None),
    ("solver.ascent.candidate_s", "s", "total", ("find_improving_swap",), ASCENT),
    ("solver.ascent.swap_s", "s", "total", ("apply_swap",), ASCENT),
    ("solver.ascent.component_s", "s", "total", ("detached_component",), ASCENT),
    ("solver.ascent.moves", "count", "calls", ("apply_swap",), ASCENT),
    ("solver.ascent.path_steps", "count", "items", ("fundamental_path",), "find_improving_swap"),
    ("solver.ascent.component_vertices", "count", "items", ("detached_component",), ASCENT),
    ("solver.ascent.scan_probes", "count", "items2", ("detached_component",), ASCENT),
    ("solver.sign_s", "s", "total", ("assign_signs",), None),
    ("solver.verify_s", "s", "total", ("verify_alternating",), None),
    ("solver.verify.path_steps", "count", "items", ("fundamental_path",), "verify_alternating"),
    ("solver.verify.cotree_edges", "count", "calls", ("fundamental_path",), "verify_alternating"),
    ("cli.report_s", "s", "total", ("build_solve_report",), None),
    ("cli.load_s", "s", "total", ("load_solution_document",), None),
    ("cli.solve.self_s", "s", "self", ("cmd_solve",), None),
    ("cli.verify.self_s", "s", "self", ("cmd_verify",), None),
    ("oracle.graphs", "count", "calls", ("exhaustive_check",), None),
    ("oracle.enumerate_s", "s", "total", ("enumerate_spanning_trees",), None),
    ("oracle.trees", "count", "items", ("enumerate_spanning_trees",), None),
    ("oracle.kirchhoff_s", "s", "total", ("count_spanning_trees",), None),
    ("oracle.monotone_check_s", "s", "total", ("verify_monotone",), "exhaustive_check"),
    ("oracle.swap_probe_s", "s", "total", ("delta_potential", "fundamental_path"), "exhaustive_check"),
    ("oracle.swap_probes", "count", "calls", ("delta_potential",), "exhaustive_check"),
    ("oracle.solve_s", "s", "total", ("solve",), "exhaustive_check"),
    ("oracle.self_s", "s", "self", ("exhaustive_check", "cmd_oracle"), None),
)

_FIELD = {"calls": 0, "total": 1, "self": 2, "items": 3, "items2": 4}


def _items(name: str, args: tuple, result) -> tuple[int, int]:
    """Work counters of one call: path steps of a fundamental path; size
    and degree sum of a detached component (the degree sum is the number
    of (vertex, neighbour) pairs the ascent's re-queue scan probes)."""
    try:
        if name == "fundamental_path":
            return len(result) - 1, 0
        if name == "detached_component":
            adjacency = args[0].graph.adjacency
            return len(result), sum(len(adjacency[x]) for x in result)
    except (AttributeError, IndexError, TypeError):
        pass  # a changed signature reads zero rather than failing the call
    return 0, 0


class Tracer:
    """Collects spans while installed; ``op`` labels the spans of the
    operation being run."""

    def __init__(self) -> None:
        self.op = ""
        self.agg: dict[tuple[str, str, str | None], list] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "treesign" or name.startswith("treesign."))
        ]
        wrappers: dict[int, object] = {}
        for name in TRACED:
            for module in modules:
                fn = module.__dict__.get(name)
                if not (inspect.isfunction(fn) and fn.__module__.startswith("treesign")):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn)
                self._patched.append((module, name, fn))
                setattr(module, name, wrappers[id(fn)])

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        enter, leave = self._enter, self._leave
        if inspect.isgeneratorfunction(fn):
            # One span per resume, so the consumer's work between items is
            # not charged to the generator; items counts yielded values.
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        leave(frame, time.perf_counter(), 0, 0)
                        return
                    except BaseException:
                        leave(frame, time.perf_counter(), 0, 0)
                        raise
                    leave(frame, time.perf_counter(), 1, 0)
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(frame, time.perf_counter(), 0, 0)
                raise
            end = time.perf_counter()
            leave(frame, end, *_items(name, args, result))
            return result

        return traced

    # -- spans --------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [name, self._next_id, 0.0, time.perf_counter()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, end: float, items: int, items2: int) -> None:
        self._stack.pop()
        name, span_id, child_s, start = frame
        parent = self._stack[-1] if self._stack else None
        duration = end - start
        key = (self.op, name, parent[0] if parent else None)
        rec = self.agg.get(key)
        if rec is None:
            rec = self.agg[key] = [0, 0.0, 0.0, 0, 0]
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - child_s
        rec[3] += items
        rec[4] += items2
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent[1] if parent else -1, name, self.op, start, end))
        else:
            self.dropped += 1
        if parent is not None:
            parent[2] += time.perf_counter() - start

    # -- results ------------------------------------------------------

    def layer_metrics(self, ops=None) -> dict[str, float | int]:
        """Every LAYERS metric summed over the given operations (all by
        default)."""
        out: dict[str, float | int] = {}
        for metric, unit, field, names, parent in LAYERS:
            index = _FIELD[field]
            value = 0.0 if unit == "s" else 0
            for (op, name, par), rec in self.agg.items():
                if name in names and (parent is None or par == parent) and (ops is None or op in ops):
                    value += rec[index]
            out[metric] = value
        return out

    def op_counts(self, op: str) -> dict[str, int]:
        """The nonzero count metrics of one operation."""
        metrics = self.layer_metrics({op})
        return {
            metric: metrics[metric]
            for metric, unit, *_ in LAYERS
            if unit == "count" and metrics[metric]
        }

    def to_json(self) -> dict:
        return {
            "spans_fields": ["id", "parent", "name", "op", "start", "end"],
            "spans": self.spans,
            "spans_dropped": self.dropped,
            "aggregate_fields": ["op", "name", "parent", "calls", "total_s", "self_s", "items", "items2"],
            "aggregate": [[*key, *rec] for key, rec in sorted(self.agg.items(), key=lambda kv: str(kv[0]))],
        }
