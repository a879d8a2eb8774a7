"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 hobench/selftest.py

Checks, for every workload (``sweep`` too, which ``BENCHMARK.json``
leaves out):

* an untraced and a traced run exit 0 and print, as their last line,
  exactly the metrics ``BENCHMARK.json`` names, each with its unit;
* another seed gives the same runs per pass;
* two traced runs with one seed agree exactly on the runs per pass and
  on the deterministic counts (adapter and batch-planner calls, cache
  gets and hit ratio).  On ``fleet`` only the runs per pass and adapter
  calls must repeat: when a thief's cut lands inside work its victim
  already reserved, the two workers both look the run up (and may both
  execute it), so planner calls and cache gets vary with scheduling.
  There the test checks that cache gets never fall below the race-free
  count of two per run;

and that a tampered reference row makes a run exit non-zero without
printing metrics.
"""

from __future__ import annotations

import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Per-layer values that must repeat exactly across runs with one seed.
DETERMINISTIC = (
    "adversary.adapter.calls",
    "adversary.batch_plan.calls",
    "runner.cache.get.calls",
    "runner.cache.hit_ratio",
)


def bench(workload: str, seed: int, trace: int) -> Tuple[int, Dict[str, object]]:
    """(runs per pass, parsed result) of one tiny run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    runs = int(re.search(r"(\d+) runs per pass", done.stdout).group(1))
    return runs, json.loads(lines[-1])


def check_metrics(result: Dict[str, object], declared: List[Dict[str, str]], label: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        raise AssertionError(f"{label}: {result}")
    metrics = result["metrics"]
    if set(metrics) != {entry["name"] for entry in declared}:
        raise AssertionError(f"{label}: metrics {sorted(metrics)} differ from BENCHMARK.json")
    for entry in declared:
        if metrics[entry["name"]]["unit"] != entry["unit"]:
            raise AssertionError(f"{label}: {entry['name']} unit {metrics[entry['name']]['unit']}")


def tampered_run(workload: str, part: str) -> int:
    """A run whose reference output has one row altered (child process)."""
    sys.path.insert(0, str(HERE))
    import run
    import workloads

    cls = workloads.WORKLOADS[workload]
    original = cls.reference

    def reference(self):
        sub = original(self)
        if part == "report":
            lines = sub.report.splitlines()
            lines[-1] = lines[-1].replace("1.0", "0.9", 1) + " "
            sub.report = "\n".join(lines)
        else:
            first = sub.records[0]
            sub.records[0] = dataclasses.replace(first, rounds_executed=first.rounds_executed + 1)
        return sub

    cls.reference = reference
    return run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--tiny"])


def main() -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for name in WORKLOADS:
        runs_other, result = bench(name, 8, 0)
        check_metrics(result, spec["end_to_end"], f"{name} trace=0")
        runs_a, traced_a = bench(name, 7, 1)
        runs_b, traced_b = bench(name, 7, 1)
        check_metrics(traced_a, spec["per_layer"], f"{name} trace=1")
        if not runs_a == runs_b == runs_other:
            raise AssertionError(f"{name}: runs per pass {runs_a}, {runs_b}, {runs_other} (seed 8)")
        values = {m: (traced_a["metrics"][m]["value"], traced_b["metrics"][m]["value"])
                  for m in DETERMINISTIC}
        exact = DETERMINISTIC if name != "fleet" else ("adversary.adapter.calls",)
        for metric in exact:
            a, b = values[metric]
            if a != b:
                raise AssertionError(f"{name}: {metric} {a} != {b} across runs with one seed")
        if name == "fleet":
            # Submitter and executing worker each look every run up once.
            for gets in values["runner.cache.get.calls"]:
                if gets < 2 * runs_a:
                    raise AssertionError(f"fleet: {gets} cache gets for {runs_a} runs")
        print(f"ok {name}: {runs_a} runs per pass, "
              + ", ".join(f"{m}={a:g}/{b:g}" for m, (a, b) in values.items()))
    for workload, part in (("sweep", "report"), ("resubmit", "record")):
        done = subprocess.run(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {str(HERE)!r}); import selftest; "
             f"sys.exit(selftest.tampered_run({workload!r}, {part!r}))"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if done.returncode == 0 or '"metrics"' in done.stdout or "check failed" not in done.stderr:
            raise AssertionError(f"tampered {part} of {workload} was not caught:\n{done.stdout}")
        print(f"ok tampered {part} of {workload}: exit {done.returncode}, no metrics")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
