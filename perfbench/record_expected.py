"""Rewrite expected.json from the current program.

    python3 perfbench/record_expected.py

Runs one untraced and one traced pass of every workload at the default
seed, with every solve report checked independently, and records each
operation's output digest and traced counts. Rerun it only when the
program's output is meant to change; the benchmark reports everything
that no longer matches.
"""

import json
import sys

import run

sys.path.insert(0, str(run.SRC))

ops = {}
for workload in run.WORKLOADS:
    record = run.run(workload, run.DEFAULT_SEED, 0, True, {})
    if record["failed"]:
        raise SystemExit(f"{workload}: {record['failures']}")
    for key, counts in record["counts"].items():
        ops[key] = {"digest": record["digests"].get(key), "counts": counts}
    print(workload, "recorded", file=sys.stderr)
with open(run.EXPECTED, "w", encoding="utf-8") as handle:
    json.dump({"seed": run.DEFAULT_SEED, "ops": ops}, handle, indent=1, sort_keys=True)
    handle.write("\n")
