"""The four benchmark workloads, each a closed loop with one client.

A *submission* is one client request: a campaign submitted to the
program and its report rendered.  A *pass* is ``reps`` submissions back
to back, timed as one window; the next pass starts only after the
previous pass's last report is rendered.  Every workload can also
produce its expected output from the ``reference`` backend, which the
benchmark compares against outside the timed window.

All inputs derive from the one ``seed`` argument: the grids' base seed
and the seed kwarg of every experiment driver.  Another seed changes
the fault schedules and initial values, never the run counts or sizes.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import json
import multiprocessing
import os
import random
import shutil
import signal
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

#: Seconds between queue polls of the fleet's submitter and workers —
#: far below one pass (the library defaults are 0.2 s and 0.5 s).
FLEET_POLL_S = 0.02

#: linux/prctl.h
PR_SET_PDEATHSIG = 1


@dataclass
class Submission:
    """What one client request delivered."""

    runs: int
    report: str
    records: List[object] = field(default_factory=list)
    #: Runs the program says it executed (``RunnerStats.executed``).
    executed: int = 0

    def record_rows(self) -> List[str]:
        return [json.dumps(record.as_dict(), sort_keys=True) for record in self.records]


@dataclass
class PassExtra:
    """Untimed by-products of a pass (fleet workers only)."""

    peak_rss_mb: float = 0.0
    worker_spans: List[List[list]] = field(default_factory=list)


def usable_cpus() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def peak_rss_mb() -> float:
    """This process's peak resident set size (VmHWM), in MB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _grid(seed: int, ns, runs: int, campaign_id: str):
    from repro.runner import AdversarySpec, AlgorithmSpec, CampaignSpec, PredicateSpec

    return CampaignSpec(
        campaign_id=campaign_id,
        algorithms=[AlgorithmSpec("ate", {"alpha": 2}), AlgorithmSpec("ute", {"alpha": 2})],
        adversaries=[
            AdversarySpec("random-omission", {"drop_probability": 0.1}),
            AdversarySpec("random-corruption", {"alpha": 2}),
        ],
        ns=list(ns),
        runs=runs,
        base_seed=seed,
        predicates=[PredicateSpec("alpha-safe", {"alpha": 2})],
    )


def _run_grid(spec, runner) -> Submission:
    from repro.runner import campaign_report

    result = runner.run_campaign(spec)
    report = campaign_report(spec, result.records).render()
    return Submission(
        runs=len(result.records),
        report=report,
        records=result.records,
        executed=result.stats.executed,
    )


def _reference_grid(spec, jobs: int) -> Submission:
    from repro.runner import CampaignRunner

    with CampaignRunner(jobs=jobs, backend="reference") as runner:
        return _run_grid(spec, runner)


class Workload:
    """Base: subclasses fill in the grid/driver specifics."""

    name = ""
    #: Submissions per timed pass.
    reps = 1
    #: Fleet workers the workload starts per pass.
    workers = 0

    def __init__(self, seed: int, tiny: bool, root: Path, tracer=None) -> None:
        self.seed = seed
        self.tiny = tiny
        self.root = root
        self.tracer = tracer
        self.pass_dir: Optional[Path] = None
        self._passes = 0

    def prepare(self) -> None:
        """The workload's own set-up, timed into ``setup_s``."""

    def open_pass(self) -> None:
        self._passes += 1
        self.pass_dir = self.root / f"pass{self._passes:03d}"
        self.pass_dir.mkdir(parents=True)

    def submit(self, rep: int, check: bool = False) -> Submission:
        raise NotImplementedError

    def close_pass(self) -> PassExtra:
        # Pass directories are deleted with the whole work root when the
        # run ends, so no deletion's disk traffic overlaps a later pass.
        return PassExtra()

    def reference(self) -> Submission:
        raise NotImplementedError

    def close(self) -> None:
        """Stop anything still running (after a failure)."""


# ----------------------------------------------------------------------
# paper: the E1-E12 campaign, `repro-ho campaign all --backend batch --no-cache`
# ----------------------------------------------------------------------
@contextlib.contextmanager
def capturing(sink: list):
    """Collect every record the program's runners return (check passes only)."""
    from repro.runner.executor import CampaignRunner

    originals = {attr: CampaignRunner.__dict__[attr] for attr in ("run_tasks", "run_reduced")}

    def capture(original):
        def run(self, *args, **kwargs):
            records = original(self, *args, **kwargs)
            sink.extend(records)
            return records

        return run

    for attr, original in originals.items():
        setattr(CampaignRunner, attr, capture(original))
    try:
        yield
    finally:
        for attr, original in originals.items():
            setattr(CampaignRunner, attr, original)


class Paper(Workload):
    name = "paper"

    def _driver_kwargs(self, eid: str) -> Dict[str, int]:
        kwargs = {"seed": random.Random(f"{self.seed}/{eid}").randrange(1 << 31)}
        if self.tiny:
            kwargs["runs"] = 1
        return kwargs

    def _campaign(self, backend: str, jobs: int, check: bool) -> Submission:
        from repro.experiments import ALL_EXPERIMENTS
        from repro.runner import CampaignRunner

        sink: list = []
        reports, runs, executed = [], 0, 0
        with capturing(sink) if check else contextlib.nullcontext():
            for eid in sorted(ALL_EXPERIMENTS, key=lambda key: int(key[1:])):
                runner = CampaignRunner(jobs=jobs, backend=backend)
                try:
                    # Looked up per call: a traced pass swaps in wrapped drivers.
                    report = ALL_EXPERIMENTS[eid](runner=runner, **self._driver_kwargs(eid))
                finally:
                    runner.close()
                reports.append(report.render())
                runs += runner.stats.total
                executed += runner.stats.executed
        if check and len(sink) != runs:
            raise RuntimeError(f"captured {len(sink)} records for {runs} runs")
        return Submission(runs=runs, report="\n".join(reports), records=sink, executed=executed)

    def submit(self, rep: int, check: bool = False) -> Submission:
        return self._campaign("batch", 1, check)

    def reference(self) -> Submission:
        return self._campaign("reference", min(2, usable_cpus()), True)


# ----------------------------------------------------------------------
# sweep: a native-planned CampaignSpec grid over both reception tiers
# ----------------------------------------------------------------------
class Sweep(Workload):
    name = "sweep"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.reps = 1 if self.tiny else 8
        self.spec = _grid(self.seed, (40, 256), 1 if self.tiny else 5, "sweep")

    def open_pass(self) -> None:
        from repro.runner import ResultCache

        super().open_pass()
        self._caches = [ResultCache(self.pass_dir / f"cache{rep}") for rep in range(self.reps)]

    def submit(self, rep: int, check: bool = False) -> Submission:
        from repro.runner import CampaignRunner

        return _run_grid(self.spec, CampaignRunner(jobs=1, backend="batch", cache=self._caches[rep]))

    def reference(self) -> Submission:
        return _reference_grid(self.spec, jobs=min(2, usable_cpus()))


# ----------------------------------------------------------------------
# resubmit: the n=40 grid against a cache set-up filled (all hits)
# ----------------------------------------------------------------------
class Resubmit(Workload):
    name = "resubmit"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.reps = 1 if self.tiny else 20
        self.spec = _grid(self.seed, (40,), 2 if self.tiny else 100, "resubmit")
        self._fills = 0
        self.cache_dir: Optional[Path] = None

    def prepare(self) -> None:
        from repro.runner import CampaignRunner, ResultCache

        self._fills += 1
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir = self.root / f"filled{self._fills}"
        CampaignRunner(jobs=1, backend="batch", cache=ResultCache(self.cache_dir)).run_campaign(self.spec)

    def submit(self, rep: int, check: bool = False) -> Submission:
        from repro.runner import CampaignRunner, ResultCache

        runner = CampaignRunner(jobs=1, backend="batch", cache=ResultCache(self.cache_dir))
        sub = _run_grid(self.spec, runner)
        if sub.executed:
            raise RuntimeError(f"resubmit executed {sub.executed} runs instead of hitting the cache")
        return sub

    def reference(self) -> Submission:
        return _reference_grid(self.spec, jobs=min(2, usable_cpus()))


# ----------------------------------------------------------------------
# fleet: the n=40 grid through DistributedCampaignRunner and forked workers
# ----------------------------------------------------------------------
def _die_with_parent() -> None:
    """Have the kernel kill this process if the benchmark dies first."""
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")


def _fleet_worker(queue_dir: str, worker_id: str, ready, out_path: str, tracer) -> None:
    from repro.runner import run_worker

    from tracing import window

    _die_with_parent()
    # A forked worker inherits the benchmark's whole heap (reference check
    # included); freezing it keeps the worker's collections from touching,
    # and so copying, those pages, as a freshly started worker would.
    gc.freeze()
    since = len(tracer.spans) if tracer is not None else 0
    ready.set()
    try:
        run_worker(queue_dir, worker_id=worker_id, jobs=1, backend="batch",
                   poll_interval=FLEET_POLL_S)
    finally:
        spans = tracer.spans[since:] if tracer is not None else []
        payload = {
            "peak_rss_mb": peak_rss_mb(),
            "spans": window(spans, since, float("-inf"), float("inf")),
        }
        Path(out_path).write_text(json.dumps(payload), encoding="utf-8")


class Fleet(Workload):
    name = "fleet"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.workers = min(2, usable_cpus())
        self.spec = _grid(self.seed, (40,), 2 if self.tiny else 60, "fleet")
        self._procs: List[multiprocessing.Process] = []

    def _spawn(self, queue_dir: Path) -> None:
        context = multiprocessing.get_context("fork")
        events = []
        for index in range(self.workers):
            ready = context.Event()
            proc = context.Process(
                target=_fleet_worker,
                args=(str(queue_dir), f"w{index}", ready,
                      str(queue_dir.parent / f"worker{index}.json"), self.tracer),
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
            events.append(ready)
        for ready in events:
            if not ready.wait(60):
                raise RuntimeError("fleet worker did not start")

    def _stop(self, queue_dir: Path) -> None:
        from repro.runner import WorkQueue

        queue = WorkQueue(queue_dir)
        for index in range(len(self._procs)):
            queue.request_retire(f"w{index}")
        procs, self._procs = self._procs, []
        for proc in procs:
            proc.join(60)
            if proc.is_alive():
                proc.kill()
                proc.join()
                raise RuntimeError("fleet worker did not retire")
            if proc.exitcode != 0:
                raise RuntimeError(f"fleet worker exited with code {proc.exitcode}")

    def prepare(self) -> None:
        # Set-up cost of the fleet: spawning it until every worker is ready.
        queue_dir = self.root / "spawn-probe" / "queue"
        self._spawn(queue_dir)
        self._stop(queue_dir)
        shutil.rmtree(queue_dir.parent, ignore_errors=True)

    def open_pass(self) -> None:
        super().open_pass()
        self._spawn(self.pass_dir / "queue")

    def submit(self, rep: int, check: bool = False) -> Submission:
        from repro.runner import DistributedCampaignRunner

        runner = DistributedCampaignRunner(
            self.pass_dir / "queue", backend="batch", poll_interval=FLEET_POLL_S, wait_timeout=60)
        return _run_grid(self.spec, runner)

    def close_pass(self) -> PassExtra:
        self._stop(self.pass_dir / "queue")
        extra = PassExtra()
        for index in range(self.workers):
            payload = json.loads(
                (self.pass_dir / f"worker{index}.json").read_text(encoding="utf-8"))
            extra.peak_rss_mb = max(extra.peak_rss_mb, payload["peak_rss_mb"])
            extra.worker_spans.append(payload["spans"])
        super().close_pass()
        return extra

    def reference(self) -> Submission:
        return _reference_grid(self.spec, jobs=1)

    def close(self) -> None:
        for proc in self._procs:
            proc.kill()
            proc.join()
        self._procs = []


WORKLOADS = {cls.name: cls for cls in (Paper, Sweep, Resubmit, Fleet)}
