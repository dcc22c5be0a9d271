"""Fast self-check of the benchmark itself (about a minute).

    python3 bench/selfcheck.py

Runs every workload briefly in both modes, with shortened simulated
durations where the workload's checks allow it, and fails (exit 1) unless:

* every run passes its correctness checks;
* every metric named in BENCHMARK.json is printed with its unit and lands in
  the JSON result with the same unit;
* BENCHMARK.json lists exactly the workloads and metrics this benchmark
  defines, with the same units and directions, and the layer mapping in
  baseline.json names only those;
* after a traced run every wrapped module and class attribute holds its
  original object again.
"""

from __future__ import annotations

import json
import os
import sys

import run_bench
from run_bench import END_TO_END, HERE, PER_LAYER, ROOT

# Simulated seconds per workload for the check; land4 keeps its full length
# because every pair must touch down.
SHORT = {"cross3": 4.0, "land4": None, "grid64": 0.6}


def check_spec(workloads, problems: list[str]) -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = {w["name"]: w["why"] for w in spec["workloads"]}
    if listed != {name: w.why for name, w in workloads.items()}:
        problems.append(f"BENCHMARK.json workloads {sorted(listed)} differ "
                        f"from bench/workloads.py")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        if listed != list(table):
            problems.append(f"BENCHMARK.json {key} differs from run_bench.py")
    with open(os.path.join(HERE, "baseline.json")) as f:
        baseline = json.load(f)
    layer_metrics = {m for m, _, _ in PER_LAYER}
    e2e_metrics = {m for m, _, _ in END_TO_END}
    for entry in baseline["mapping"]:
        if not (set(entry["metrics"]) <= layer_metrics
                and set(entry["should_move"]) <= e2e_metrics
                and set(entry["mostly_on"]) <= set(workloads)):
            problems.append(f"baseline.json mapping names unknown metrics or "
                            f"workloads: {entry}")


def check_result(name: str, trace: bool, result: dict, lines: list[str],
                 problems: list[str]) -> None:
    table = PER_LAYER if trace else END_TO_END
    where = f"{name} trace={int(trace)}"
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']} attempted={result['attempted']}")
    if list(result["metrics"]) != [m for m, _, _ in table]:
        problems.append(f"{where}: metrics {list(result['metrics'])}")
    for metric, unit, _ in table:
        got = result["metrics"].get(metric, {})
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {metric} reported as {got}")
        if not any(line.split()[:1] == [metric] and f" {unit}" in line for line in lines):
            problems.append(f"{where}: {metric} not printed with unit {unit}")


def main() -> int:
    ag = run_bench.bootstrap()
    import tracing
    from workloads import WORKLOADS

    problems: list[str] = []
    check_spec(WORKLOADS, problems)
    originals = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _, _ in tracing.TARGETS] + [
                (owner, attr, owner.__dict__[attr]) for owner, attr in tracing.COUNTED]
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            lines: list[str] = []
            result = run_bench.bench(ag, workload, seed=7, seconds=1.0,
                                     trace=trace, duration=SHORT[name],
                                     log=lines.append)
            check_result(name, trace, result, lines, problems)
            for owner, attr, original in originals:
                if owner.__dict__.get(attr) is not original:
                    problems.append(f"{name}: {owner.__name__}.{attr} not restored")
            print(f"{name} trace={int(trace)}: "
                  f"{'ok' if not problems else 'FAILED'}", flush=True)
    for problem in problems:
        print(f"FAILED: {problem}")
    print("selfcheck ok" if not problems else f"selfcheck: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
