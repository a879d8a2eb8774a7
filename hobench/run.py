"""Benchmark of the Heard-Of reproduction, run from the repository root.

    python3 hobench/run.py --workload paper --seed 1 --seconds 12 --trace 0

Runs one workload (see ``workloads.py`` and ``NOTES.md``) as a closed
loop for ``--seconds`` of timed passes, checks every pass against the
``reference`` backend's output, and prints one JSON object as the last
line of standard output.  ``--trace 0`` reports the end-to-end metrics
of untraced passes; ``--trace 1`` alternates traced and untraced passes
and reports the per-layer metrics of ``tracing.PER_LAYER``.  Any
mismatch exits non-zero without printing metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Program knobs the benchmark always runs without.
PROGRAM_ENV = (
    "REPRO_BATCH_MEMORY_BUDGET",
    "REPRO_BATCH_PACKED",
    "REPRO_BATCH_PLANNING",
    "REPRO_METRICS",
)

#: Fresh-interpreter imports (and workload set-ups) per run; setup_s is
#: their median.
SETUP_REPS = 3
#: Timed passes a run makes at least, whatever ``--seconds`` says.
MIN_PASSES = 3

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.cli; "
    "print(time.perf_counter() - t)"
)


class CheckFailed(Exception):
    """The program's output differs from what it must be."""


def fresh_import_s() -> float:
    """Seconds a fresh interpreter spends on ``import repro.cli``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def check_same(label: str, got: List[str], want: List[str]) -> None:
    """Raise unless ``got`` equals ``want`` row for row."""
    if len(got) != len(want):
        raise CheckFailed(f"{label}: {len(got)} rows, expected {len(want)}")
    for index, (a, b) in enumerate(zip(got, want)):
        if a != b:
            raise CheckFailed(f"{label}: row {index} differs\n  got:  {a[:300]}\n  want: {b[:300]}")


def completed(sub) -> int:
    return sum(1 for record in sub.records if record.ok)


def tail_note(rates: List[float]) -> str:
    """The highest percentile of pass time with ten passes beyond it,
    as a rate: the rate that exactly ten passes fell below."""
    if len(rates) < 11:
        return f"no percentile has 10 passes beyond it ({len(rates)} passes)"
    pct = math.floor(100 * (len(rates) - 10) / len(rates))
    return f"p{pct} of pass time = {sorted(rates)[10]:.2f} runs/s"


def run(args: argparse.Namespace, work: Path) -> Dict[str, object]:
    import repro.cli  # noqa: F401  (the surface setup_s measures)

    import tracing
    from workloads import WORKLOADS

    tracer = tracing.Tracer() if args.trace else None
    workload = WORKLOADS[args.workload](args.seed, args.tiny, work, tracer)
    try:
        return measure(args, workload, tracer)
    finally:
        workload.close()


def measure(args, workload, tracer) -> Dict[str, object]:
    import tracing
    from workloads import peak_rss_mb

    # -- set-up, several times; the first import compiles bytecode -----------
    fresh_import_s()
    imports, setups = [], []
    for _ in range(SETUP_REPS):
        imports.append(fresh_import_s())
        started = time.perf_counter()
        workload.prepare()
        setups.append(imports[-1] + time.perf_counter() - started)

    # -- the reference backend's output, then the check pass ------------------
    reference = workload.reference()
    want_rows = reference.record_rows()
    want_report = reference.report.splitlines()
    workload.open_pass()
    first_completed: List[int] = []
    attempted = 0
    for rep in range(workload.reps):
        sub = workload.submit(rep, check=True)
        check_same("records vs reference", sub.record_rows(), want_rows)
        check_same("report vs reference", sub.report.splitlines(), want_report)
        first_completed.append(completed(sub))
        attempted += sub.runs
    runs_per_pass = attempted
    completed_runs = sum(first_completed)
    peak = workload.close_pass().peak_rss_mb

    # -- timed passes: untraced, or alternating traced/untraced ---------------
    walls: Dict[bool, List[float]] = {False: [], True: []}
    rates: List[float] = []
    per_layer: List[Dict[str, float]] = []
    started = time.perf_counter()

    def enough() -> bool:
        kinds = (False, True) if tracer is not None else (False,)
        return (time.perf_counter() - started >= args.seconds
                and all(len(walls[kind]) >= MIN_PASSES for kind in kinds))

    while not enough():
        traced = tracer is not None and len(walls[True]) <= len(walls[False])
        if traced:
            tracer.pass_id = len(walls[True]) + 1
            del tracer.spans[:]
            tracing.install_wrappers(tracer)
        runs = unaccounted = 0
        wall = 0.0
        try:
            gc.collect()  # before open_pass: fleet workers fork from a collected heap
            workload.open_pass()
            t0 = time.perf_counter()
            for rep in range(workload.reps):
                # Submissions are timed one by one, so checking each
                # (and dropping its records) stays outside the window.
                began = time.perf_counter()
                sub = workload.submit(rep)
                wall += time.perf_counter() - began
                check_same("pass report vs reference", sub.report.splitlines(), want_report)
                if sub.records:
                    check_same("pass records vs reference", sub.record_rows(), want_rows)
                # paper keeps no records when timed: a report equal to the
                # reference's stands for the check pass's records.
                done = completed(sub) if sub.records else first_completed[rep]
                completed_runs += done
                unaccounted += done - sub.executed
                runs += sub.runs
            t1 = time.perf_counter()
            extra = workload.close_pass()
        finally:
            if traced:
                tracer.uninstall()
        if runs != runs_per_pass:
            raise CheckFailed(f"pass delivered {runs} runs, the first pass {runs_per_pass}")
        attempted += runs
        walls[traced].append(wall)
        if not traced:
            rates.append(runs / wall)
        peak = max(peak, extra.peak_rss_mb)
        if traced:
            layers = trace_pass(tracer, workload, extra, t0, t1, wall)
            layers["runner.distributed.unaccounted_runs"] = (
                float(unaccounted) if workload.workers else 0.0)
            per_layer.append(layers)

    result = {"correct": True, "attempted": attempted, "failed": attempted - completed_runs}
    print(f"{workload.name}: {runs_per_pass} runs per pass, {len(walls[False])} untraced "
          f"and {len(walls[True])} traced passes; runs/s per untraced pass: "
          f"{' '.join(f'{rate:.1f}' for rate in rates)}; {tail_note(rates)}")
    if tracer is None:
        metrics = {
            "runs_per_s": (statistics.median(rates), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (max(peak, peak_rss_mb()), "MB"),
            "completed_frac": (completed_runs / attempted, "ratio"),
        }
    else:
        values = tracing.median_metrics(per_layer)
        values["setup.import_s"] = statistics.median(imports)
        values["trace.overhead_frac"] = (
            statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        metrics = {name: (values[name], units[name]) for name in units}
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    return result


def trace_pass(tracer, workload, extra, t0: float, t1: float, wall: float) -> Dict[str, float]:
    """Fold one traced pass's spans (this process and fleet workers).

    Spans are kept from the pass's first submission to its last; the
    checks between submissions call nothing traced, and ``wall`` (the
    summed submission time) excludes them.
    """
    import tracing

    processes = [tracing.window(tracer.spans, 0, t0, t1)]
    processes += [tracing.window(spans, 0, t0, t1) for spans in extra.worker_spans]
    sums: Dict[str, float] = {}
    coverage = []
    for spans in processes:
        folded = tracing.fold(spans)
        coverage.append(folded.get("covered", 0.0) / wall)
        for name, value in folded.items():
            sums[name] = sums.get(name, 0.0) + value
    if max(coverage) > 1.0:
        raise CheckFailed(f"trace coverage {max(coverage):.4f} > 1: spans double-counted")
    metrics = tracing.layer_metrics(sums, wall, workload.workers)
    metrics["trace.coverage_frac"] = coverage[0]
    return metrics


def parse_args(argv: List[str]) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the benchmark's own self-test")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"hobench: no program source under {SRC}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an error: fleet workers stopped, work files removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for name in PROGRAM_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    work = ROOT / ".hobench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    except CheckFailed as exc:
        print(f"hobench: check failed: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
