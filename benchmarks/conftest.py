"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables/figures by calling
the corresponding experiment driver under ``pytest-benchmark`` (a single
measured iteration — the drivers are full simulation sweeps, not
micro-benchmarks), printing the resulting table, and writing it as JSON
to ``benchmarks/results/`` so EXPERIMENTS.md can reference the artefacts.
"""

from __future__ import annotations

import resource
import sys
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


#: Linux: writing ``5`` here resets the ``VmHWM`` high-water mark.
_CLEAR_REFS = Path("/proc/self/clear_refs")
_STATUS = Path("/proc/self/status")


def reset_peak_rss() -> None:
    """Start a new peak-RSS window: call at the start of each benchmark cell.

    On Linux, writing ``5`` to ``/proc/self/clear_refs`` resets the
    process's ``VmHWM`` to its current resident set size.  Where the
    file is missing or not writable this does nothing, and
    :func:`peak_rss_mb` reports the lifetime peak.
    """
    try:
        _CLEAR_REFS.write_text("5", encoding="ascii")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """The peak resident set size since the last :func:`reset_peak_rss`, in MiB.

    On Linux this reads ``VmHWM`` from ``/proc/self/status``, which
    :func:`reset_peak_rss` resets, so each cell reports its own peak.
    Elsewhere it falls back to ``ru_maxrss`` — kibibytes on Linux,
    bytes on macOS — which is the process's *lifetime* peak and never
    decreases.
    """
    try:
        for line in _STATUS.read_text(encoding="ascii").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return peak / 1024.0


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ so CI can (de)select it by marker.

    The hook receives the whole session's items, so filter by location —
    only the files next to this conftest get the marker.
    """
    here = Path(__file__).parent
    for item in items:
        if Path(str(item.fspath)).parent == here:
            item.add_marker(pytest.mark.bench)


@pytest.fixture
def record_report(capsys):
    """Return a callable that prints and persists an ExperimentReport."""

    def _record(report):
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        report.to_json(RESULTS_DIR / f"{report.experiment_id}.json")
        with capsys.disabled():
            print()
            print(report.render())
        return report

    return _record


def run_once(benchmark, func, **kwargs):
    """Run an experiment driver exactly once under the benchmark timer."""
    return benchmark.pedantic(lambda: func(**kwargs), rounds=1, iterations=1)
