"""The campaign executor: serial or multiprocessing-backed run execution.

Two execution surfaces are offered:

* :meth:`CampaignRunner.run_tasks` — execute concrete
  :class:`RunTask`s (constructed algorithm/adversary objects) and
  return compact :class:`RunRecord`s.  This is what
  :func:`repro.experiments.common.run_batch` routes through, and the
  only path with result caching (tasks carry stable keys).
* :meth:`CampaignRunner.run_reduced` — execute tasks and apply a
  picklable :class:`repro.runner.reduce.Reducer` *inside* the worker
  process, shipping back only compact JSON-able
  :class:`ReducedRecord`s.  Cached under reducer-fingerprinted keys.
  This is what the collection-inspecting experiment drivers (E3-E12)
  route through: IPC volume stays flat in ``n`` instead of growing
  with the n² × rounds heard-of collection.
* :meth:`CampaignRunner.run_simulations` — like ``run_tasks`` but
  returning full :class:`SimulationResult`s for callers that genuinely
  need whole collections in the parent.  No caching (full results are
  too heavy to persist per run).
* :meth:`CampaignRunner.run_campaign` /
  :meth:`CampaignRunner.run_reduced_campaign` — expand a declarative
  :class:`CampaignSpec` into tasks and execute them with caching.

Parallel execution uses :class:`concurrent.futures.ProcessPoolExecutor`;
tasks are pickled to workers, so they must be built from picklable
objects (every algorithm/adversary in this repository is).  Results are
re-ordered by task index, which makes ``--jobs N`` output byte-identical
to serial output.  Per-run timeouts are enforced *inside* the worker via
``SIGALRM`` (POSIX), so a hung run cannot wedge the whole campaign; on
platforms without ``SIGALRM`` the timeout is a no-op.
"""

from __future__ import annotations

import signal
import sys
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.adversary.base import Adversary
from repro.core.algorithm import HOAlgorithm
from repro.core.predicates import CommunicationPredicate
from repro.core.process import ProcessId, Value
from repro.runner.cache import ResultCache
from repro.runner.metrics import UNIT_SECONDS_BUCKETS, MetricsRegistry
from repro.runner.factories import (
    build_adversary,
    build_algorithm,
    build_predicate,
    build_workload,
)
from repro.runner.records import RunRecord, RunnerStats
from repro.runner.reduce import Reducer, ReducedRecord, reduced_cache_key
from repro.runner.spec import CampaignSpec, RunSpec
from repro.simulation.backends import EngineBackend, get_backend, run_simulation
from repro.simulation.batch_engine import SimulationRequest
from repro.simulation.engine import SimulationConfig, SimulationResult


class RunTimeoutError(RuntimeError):
    """A single simulated run exceeded its wall-clock budget."""


@dataclass
class RunTask:
    """One concrete run: live objects plus execution parameters.

    ``key`` is the stable cache key (``None`` disables caching for this
    task); ``cell``/``run_index``/``seed`` are carried through into the
    resulting :class:`RunRecord` for aggregation and reporting.
    """

    algorithm: HOAlgorithm
    adversary: Adversary
    initial_values: Mapping[ProcessId, Value]
    max_rounds: int = 60
    min_rounds: int = 0
    record_states: bool = False
    predicate: Optional[CommunicationPredicate] = None
    key: Optional[str] = None
    cell: Dict[str, object] = field(default_factory=dict)
    run_index: int = 0
    seed: Optional[int] = None
    #: Engine backend for this task (``None`` = the runner's default):
    #: a registry name, or an :class:`EngineBackend` instance — used
    #: as-is, never re-resolved through the registry, even when its
    #: ``name`` shadows a registered backend.  Never part of the cache
    #: key; non-result-identical backends are excluded from caching
    #: instead (see :meth:`CampaignRunner._cacheable_key`).
    backend: Optional[Union[str, EngineBackend]] = None

    def __post_init__(self) -> None:
        # Same fail-fast as CampaignSpec: a typoed backend should raise
        # here, with a did-you-mean, not once per run inside a worker.
        if isinstance(self.backend, str):
            get_backend(self.backend)


@dataclass
class CampaignResult:
    """Outcome of one :meth:`CampaignRunner.run_campaign` invocation.

    ``stats`` is a per-campaign snapshot (the delta accrued by this
    invocation), not the runner's lifetime counters — a reused runner's
    second campaign reports only its own totals.
    """

    spec: CampaignSpec
    records: List[RunRecord]
    stats: RunnerStats


@dataclass
class ReducedCampaignResult:
    """Outcome of one :meth:`CampaignRunner.run_reduced_campaign` invocation."""

    spec: CampaignSpec
    reducer: Reducer
    records: List[ReducedRecord]
    stats: RunnerStats


@contextmanager
def _deadline(seconds: Optional[float]):
    """Raise :class:`RunTimeoutError` if the body runs longer than ``seconds``.

    Uses ``SIGALRM``, which is only available on POSIX and only from the
    main thread of the process; anywhere else the timeout silently
    degrades to "no limit" rather than failing the run.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    # An outer deadline (or any other caller-armed ITIMER_REAL) must not
    # be silently cancelled: we arm whichever budget expires first and
    # re-arm the outer timer's remainder on exit.
    prior_remaining, prior_interval = signal.getitimer(signal.ITIMER_REAL)
    effective = (
        min(float(seconds), prior_remaining) if prior_remaining > 0.0 else float(seconds)
    )

    def _on_alarm(signum, frame):
        raise RunTimeoutError(f"run exceeded timeout of {effective}s")

    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    started = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, effective)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)
        if prior_remaining > 0.0:
            remaining = prior_remaining - (time.monotonic() - started)
            timed_out = isinstance(sys.exc_info()[1], RunTimeoutError)
            if remaining > 0.0:
                signal.setitimer(signal.ITIMER_REAL, remaining, prior_interval)
            elif not timed_out:
                # The outer deadline expired while we held the timer and
                # nothing has fired yet: deliver it as soon as possible
                # (setitimer(0) would cancel it instead).
                signal.setitimer(signal.ITIMER_REAL, 1e-6, prior_interval)


def _task_backend(task: RunTask) -> EngineBackend:
    """The task's backend object: registry lookup for names, instances as-is."""
    backend = task.backend or "reference"
    return get_backend(backend) if isinstance(backend, str) else backend


def _task_config(task: RunTask) -> SimulationConfig:
    return SimulationConfig(
        max_rounds=task.max_rounds,
        min_rounds=task.min_rounds,
        stop_when_all_decided=True,
        record_states=task.record_states,
    )


def _task_request(task: RunTask) -> SimulationRequest:
    """The task as a batch-API request (predicate/key stay task-side)."""
    return SimulationRequest(
        algorithm=task.algorithm,
        initial_values=task.initial_values,
        adversary=task.adversary,
        config=_task_config(task),
    )


def _execute_task(task: RunTask, timeout: Optional[float]) -> SimulationResult:
    config = _task_config(task)
    with _deadline(timeout):
        return run_simulation(
            algorithm=task.algorithm,
            initial_values=task.initial_values,
            adversary=task.adversary,
            config=config,
            backend=task.backend or "reference",
        )


def _record_worker(
    payload: Tuple[int, RunTask, Optional[float], bool]
) -> Tuple[int, RunRecord]:
    """Worker: run one task and reduce it to a :class:`RunRecord`."""
    index, task, timeout, capture_errors = payload
    try:
        result = _execute_task(task, timeout)
    except RunTimeoutError as exc:
        return index, RunRecord.failure(
            str(exc), timed_out=True, key=task.key, cell=task.cell,
            run_index=task.run_index, seed=task.seed,
        )
    except Exception as exc:
        if not capture_errors:
            raise
        return index, RunRecord.failure(
            f"{type(exc).__name__}: {exc}", key=task.key, cell=task.cell,
            run_index=task.run_index, seed=task.seed,
        )
    return index, _record_from_result(result, task)


def _record_from_result(result: SimulationResult, task: RunTask) -> RunRecord:
    return RunRecord.from_result(
        result,
        predicate=task.predicate,
        key=task.key,
        cell=task.cell,
        run_index=task.run_index,
        seed=task.seed,
    )


def _engine_stats(results: Sequence[SimulationResult]) -> RunnerStats:
    """The engine-side counters of batch-executed runs, as a stats delta.

    Batch-capable backends report per run, in result metadata, the
    rounds a batch planner scheduled array-at-a-time
    (``batch_planned_rounds``), a memory-budget split marker
    (``batch_chunks``: a group split into k chunks under
    ``REPRO_BATCH_MEMORY_BUDGET`` carries k - 1 markers) and whether
    :class:`~repro.adversary.plan.MatrixPlanAdapter` planned the run
    (``adapter_planned``).  Other backends report nothing, read as 0.
    """
    return RunnerStats(
        batch_planned=sum(r.metadata.get("batch_planned_rounds", 0) for r in results),
        batch_chunks=sum(r.metadata.get("batch_chunks", 0) for r in results),
        adapter_planned=sum(bool(r.metadata.get("adapter_planned")) for r in results),
    )


def _run_task_batch(
    tasks_with_index: Sequence[Tuple[int, RunTask]], capture_errors: bool
) -> Tuple[List[Tuple[int, RunRecord]], RunnerStats]:
    """Execute one same-backend task group through ``run_batch``.

    A batch aborts as a unit, and the aborted group may already have
    consumed adversary RNG — so on any error the adversaries' seeded
    schedules are reset (their documented replay contract) and the
    group re-executes run by run, isolating the failing run exactly as
    per-run dispatch would.  Returns the indexed records plus the
    group's engine counters (:func:`_engine_stats`; all 0 on the
    recovery path).
    """
    pairs = list(tasks_with_index)
    chosen = _task_backend(pairs[0][1])
    try:
        results = chosen.run_batch([_task_request(task) for _, task in pairs])
    except Exception:
        for _, task in pairs:
            task.adversary.reset()
        return (
            [
                _record_worker((index, task, None, capture_errors))
                for index, task in pairs
            ],
            RunnerStats(),
        )
    return (
        [
            (index, _record_from_result(result, task))
            for (index, task), result in zip(pairs, results)
        ],
        _engine_stats(results),
    )


def _record_batch_worker(
    payload: Tuple[Sequence[Tuple[int, RunTask]], bool]
) -> Tuple[List[Tuple[int, RunRecord]], RunnerStats]:
    """Worker: run one batch chunk and return its records, indexed."""
    tasks_with_index, capture_errors = payload
    return _run_task_batch(tasks_with_index, capture_errors)


def _batch_chunks(items: List, parts: int) -> List[List]:
    """Split a batch group into at most ``parts`` similar-size chunks."""
    parts = max(1, min(parts, len(items)))
    size = -(-len(items) // parts)
    return [items[start : start + size] for start in range(0, len(items), size)]


def _simulation_worker(
    payload: Tuple[int, RunTask, Optional[float]]
) -> Tuple[int, SimulationResult]:
    """Worker: run one task and return the full simulation result."""
    index, task, timeout = payload
    return index, _execute_task(task, timeout)


def _reduced_worker(
    payload: Tuple[int, RunTask, Optional[float], Reducer, Optional[str], bool]
) -> Tuple[int, ReducedRecord]:
    """Worker: run one task and reduce it in-process, shipping back only
    the compact :class:`ReducedRecord` (never the full result)."""
    index, task, timeout, reducer, key, capture_errors = payload
    try:
        result = _execute_task(task, timeout)
        data = reducer.reduce(result)
    except RunTimeoutError as exc:
        return index, ReducedRecord.failure(
            str(exc), timed_out=True, reducer_name=reducer.name, key=key,
            cell=task.cell, run_index=task.run_index, seed=task.seed,
        )
    except Exception as exc:
        if not capture_errors:
            raise
        return index, ReducedRecord.failure(
            f"{type(exc).__name__}: {exc}", reducer_name=reducer.name, key=key,
            cell=task.cell, run_index=task.run_index, seed=task.seed,
        )
    return index, ReducedRecord.from_data(
        data,
        reducer_name=reducer.name,
        key=key,
        cell=task.cell,
        run_index=task.run_index,
        seed=task.seed,
    )


def _require_complete(results: List, surface: str) -> List:
    """Every task must produce a result; a silent gap would desynchronise
    drivers that zip results with their inputs."""
    missing = [index for index, result in enumerate(results) if result is None]
    if missing:
        raise RuntimeError(
            f"{surface} produced no result for task indices {missing}; "
            f"refusing to return a desynchronised result list"
        )
    return results


def materialise_specs(run_specs: Sequence[RunSpec], stats: RunnerStats):
    """Build live tasks from specs, collecting infeasible cells.

    Returns ``(tasks, task_positions, failures)`` where ``failures``
    maps spec positions to ``(message, run_spec)`` for cells whose
    objects could not be constructed (bad name/params); each failure is
    counted into ``stats``.
    """
    tasks: List[RunTask] = []
    task_positions: List[int] = []
    failures: Dict[int, Tuple[str, RunSpec]] = {}
    for position, run_spec in enumerate(run_specs):
        try:
            tasks.append(task_from_spec(run_spec))
            task_positions.append(position)
        except Exception as exc:  # infeasible cell (bad name/params)
            failures[position] = (f"{type(exc).__name__}: {exc}", run_spec)
            stats.total += 1
            stats.failures += 1
    return tasks, task_positions, failures


def cacheable_key(task: RunTask) -> Optional[str]:
    """The task's cache key, or None when it must not be cached.

    Cache keys are backend-independent because backends are
    result-identical — which the ``async`` engine is *not* (its
    adversary sees submissions in event-loop order, so seeded fault
    schedules can diverge).  Tasks on a non-equivalent backend
    therefore never read from or write to the shared cache.
    """
    if not task.key:
        return None
    # Resolve instances directly: an instance whose name shadows a
    # registered backend must be judged by its *own* equivalence flag,
    # not the registry entry it shadows.
    if not _task_backend(task).equivalent_to_reference:
        return None
    return task.key


def task_from_spec(spec: RunSpec) -> RunTask:
    """Materialise a declarative :class:`RunSpec` into a live task."""
    return RunTask(
        algorithm=build_algorithm(spec.algorithm, spec.n),
        adversary=build_adversary(spec.adversary, spec.n, spec.seed),
        initial_values=build_workload(spec.workload, spec.n, spec.seed),
        max_rounds=spec.max_rounds,
        min_rounds=spec.min_rounds,
        predicate=build_predicate(spec.predicate, spec.n),
        key=spec.config_hash(),
        cell=spec.cell(),
        run_index=spec.run_index,
        seed=spec.seed,
        backend=spec.backend,
    )


class CampaignRunner:
    """Executes batches of runs serially or across worker processes.

    Parameters
    ----------
    jobs:
        Number of worker processes.  ``1`` (the default) executes
        in-process, which is what the experiment drivers use when no
        runner is supplied — behaviour and results are identical either
        way, only wall-clock time differs.
    timeout:
        Per-run wall-clock budget in seconds (``None`` = unlimited).
    cache:
        Optional :class:`ResultCache` (or a directory path, which is
        wrapped in one).  Only tasks carrying a ``key`` participate.
    backend:
        Default engine backend for tasks that do not pin one
        (:attr:`RunTask.backend`).  Backends are semantically invisible
        (see :mod:`repro.simulation.backends`), so cached records are
        shared across backends and ``backend="fast"`` is always safe.
    metrics:
        Optional :class:`~repro.runner.metrics.MetricsRegistry`; when
        set, every ``run_tasks``/``run_reduced``/``run_simulations``
        call observes its wall-clock seconds into
        ``repro_runner_window_seconds``.  Pure observation — records,
        stats and ordering are identical with and without it.
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout: Optional[float] = None,
        cache: Optional[Union[ResultCache, str]] = None,
        backend: Union[str, EngineBackend] = "reference",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.timeout = timeout
        self.cache = (
            cache if cache is None or isinstance(cache, ResultCache) else ResultCache(cache)
        )
        if isinstance(backend, str):
            get_backend(backend)  # fail fast on typos, before any run executes
        self.backend = backend
        self.stats = RunnerStats()
        self.metrics = metrics
        self._m_window = (
            None
            if metrics is None
            else metrics.histogram(
                "repro_runner_window_seconds", buckets=UNIT_SECONDS_BUCKETS
            )
        )
        self._pool: Optional[ProcessPoolExecutor] = None

    def _observe_window(self, started: float) -> float:
        """Elapsed seconds since ``started``, observed when instrumented."""
        elapsed = time.perf_counter() - started
        if self._m_window is not None:
            self._m_window.observe(max(0.0, elapsed))
        return elapsed

    def _with_backend(self, tasks: Sequence[RunTask]) -> List[RunTask]:
        """Tasks with the runner's default backend filled in where unset.

        Returns copies rather than mutating the caller's tasks, so the
        same task list can be run through differently configured
        runners (e.g. to compare backends).
        """
        if self.backend == "reference":
            return list(tasks)
        return [
            replace(task, backend=self.backend) if task.backend is None else task
            for task in tasks
        ]

    _cacheable_key = staticmethod(cacheable_key)

    def _batchable(self, task: RunTask) -> bool:
        """Whether this task may join a whole-group ``run_batch`` call.

        Requires a batch-capable backend that supports the run
        natively, and no per-run timeout: ``SIGALRM`` deadlines budget
        one run, which does not compose with whole-group execution —
        timed campaigns keep per-run dispatch.
        """
        if self.timeout is not None:
            return False
        chosen = _task_backend(task)
        if not getattr(chosen, "supports_batch", False):
            return False
        return chosen.supports(task.algorithm, task.adversary, _task_config(task), None)

    @staticmethod
    def _batch_group_key(task: RunTask) -> object:
        """Group batchable tasks per backend (instances by identity)."""
        backend = task.backend or "reference"
        return backend if isinstance(backend, str) else id(backend)

    # ------------------------------------------------------------------
    # Worker-pool lifecycle
    # ------------------------------------------------------------------
    def _get_pool(self) -> ProcessPoolExecutor:
        # One pool per runner, reused across run_tasks/run_simulations
        # calls: drivers invoke the runner once per sweep cell, and
        # respawning workers per call would dominate small batches on
        # spawn-start platforms.
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (a later call lazily recreates it)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Record-producing execution (cacheable)
    # ------------------------------------------------------------------
    def run_tasks(
        self, tasks: Sequence[RunTask], capture_errors: bool = False
    ) -> List[RunRecord]:
        """Execute ``tasks`` and return one :class:`RunRecord` each, in order.

        Cached tasks (``task.key`` present in the cache) are not
        re-executed.  With ``capture_errors`` worker exceptions become
        failure records instead of propagating — campaigns over
        user-supplied grids use this so one infeasible cell cannot sink
        the whole sweep.
        """
        started = time.perf_counter()
        tasks = self._with_backend(tasks)
        records: List[Optional[RunRecord]] = [None] * len(tasks)
        pending: List[Tuple[int, RunTask]] = []

        for index, task in enumerate(tasks):
            key = self._cacheable_key(task)
            cached = self.cache.get(key) if self.cache is not None and key else None
            if cached is not None:
                self.stats.cache_hits += 1
                records[index] = cached
            else:
                if self.cache is not None and key:
                    self.stats.cache_misses += 1
                pending.append((index, task))

        singles: List[Tuple[int, RunTask]] = []
        groups: Dict[object, List[Tuple[int, RunTask]]] = {}
        for index, task in pending:
            if self._batchable(task):
                groups.setdefault(self._batch_group_key(task), []).append((index, task))
            else:
                singles.append((index, task))

        def _store(index: int, record: RunRecord) -> None:
            records[index] = record
            key = self._cacheable_key(tasks[index])
            if record.ok and self.cache is not None and key:
                self.cache.put(key, record)

        payloads = [
            (index, task, self.timeout, capture_errors) for index, task in singles
        ]
        for index, record in self._run_payloads(_record_worker, payloads):
            _store(index, record)

        # Whole same-backend groups go to run_batch; with a worker pool
        # each group is split into per-worker chunks so the sweep still
        # parallelises (records stay byte-identical either way).
        batch_payloads = []
        for group in groups.values():
            self.stats.batched += len(group)
            for chunk in _batch_chunks(group, self.jobs):
                batch_payloads.append((chunk, capture_errors))
        for pairs, engine_stats in self._run_payloads(_record_batch_worker, batch_payloads):
            self.stats.merge(engine_stats)
            for index, record in pairs:
                _store(index, record)

        self.stats.total += len(tasks)
        self.stats.executed += len(pending)
        self.stats.failures += sum(1 for r in records if r is not None and r.error and not r.timed_out)
        self.stats.timeouts += sum(1 for r in records if r is not None and r.timed_out)
        self.stats.elapsed_seconds += self._observe_window(started)
        return _require_complete(records, "run_tasks")

    def _run_payloads(self, worker, payloads: Sequence[tuple]):
        """Run indexed payloads through ``worker``, in-process or pooled.

        Yields ``(index, result)`` pairs as they complete (unordered in
        the pooled case; callers re-order by index).
        """
        if not payloads:
            return
        if self.jobs == 1:
            for payload in payloads:
                yield worker(payload)
            return
        try:
            pool = self._get_pool()
            futures = {pool.submit(worker, payload) for payload in payloads}
            while futures:
                done, futures = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    yield future.result()
        except BrokenProcessPool:
            # A dead worker poisons the pool; drop it so the next call
            # starts from a fresh one.
            self.close()
            raise

    # ------------------------------------------------------------------
    # In-worker reduction (cacheable; the E3-E12 driver path)
    # ------------------------------------------------------------------
    def run_reduced(
        self,
        tasks: Sequence[RunTask],
        reducer: Reducer,
        capture_errors: bool = False,
    ) -> List[ReducedRecord]:
        """Execute ``tasks``, applying ``reducer`` inside the worker.

        Returns one :class:`ReducedRecord` per task, in task order.
        Only the reduced data crosses the process boundary — the full
        :class:`SimulationResult` (process objects plus the n² × rounds
        heard-of collection) never leaves the worker.  Records are
        cached under keys that mix the task's stable key with the
        reducer's fingerprint, so different reducers (or differently
        parametrised ones) never share entries with each other or with
        plain :class:`RunRecord`s.
        """
        started = time.perf_counter()
        tasks = self._with_backend(tasks)
        records: List[Optional[ReducedRecord]] = [None] * len(tasks)
        pending: List[Tuple[int, RunTask, Optional[str]]] = []

        for index, task in enumerate(tasks):
            base_key = self._cacheable_key(task)
            key = reduced_cache_key(base_key, reducer) if base_key else None
            cached = (
                self.cache.get_reduced(key) if self.cache is not None and key else None
            )
            if cached is not None:
                self.stats.cache_hits += 1
                records[index] = cached
            else:
                if self.cache is not None and key:
                    self.stats.cache_misses += 1
                pending.append((index, task, key))

        singles: List[Tuple[int, RunTask, Optional[str]]] = []
        groups: Dict[object, List[Tuple[int, RunTask, Optional[str]]]] = {}
        for entry in pending:
            # Batched reduction stays serial: pooled workers already
            # reduce in-process per run, and chunked batches would ship
            # full results between stages.
            if self.jobs == 1 and self._batchable(entry[1]):
                groups.setdefault(self._batch_group_key(entry[1]), []).append(entry)
            else:
                singles.append(entry)

        def _store(index: int, record: ReducedRecord) -> None:
            records[index] = record
            if record.ok and self.cache is not None and record.key:
                self.cache.put_reduced(record.key, record)

        for group in groups.values():
            chosen = _task_backend(group[0][1])
            self.stats.batched += len(group)
            try:
                results = chosen.run_batch([_task_request(task) for _, task, _ in group])
            except Exception:
                # Same recovery as _run_task_batch: reset the seeded
                # schedules and isolate failures on the per-run path.
                for _, task, _ in group:
                    task.adversary.reset()
                singles.extend(group)
                continue
            self.stats.merge(_engine_stats(results))
            for (index, task, key), result in zip(group, results):
                try:
                    data = reducer.reduce(result)
                except Exception as exc:
                    if not capture_errors:
                        raise
                    _store(index, ReducedRecord.failure(
                        f"{type(exc).__name__}: {exc}", reducer_name=reducer.name,
                        key=key, cell=task.cell, run_index=task.run_index, seed=task.seed,
                    ))
                else:
                    _store(index, ReducedRecord.from_data(
                        data, reducer_name=reducer.name, key=key, cell=task.cell,
                        run_index=task.run_index, seed=task.seed,
                    ))

        payloads = [
            (index, task, self.timeout, reducer, key, capture_errors)
            for index, task, key in singles
        ]
        for index, record in self._run_payloads(_reduced_worker, payloads):
            _store(index, record)

        self.stats.total += len(tasks)
        self.stats.executed += len(pending)
        self.stats.failures += sum(1 for r in records if r is not None and r.error and not r.timed_out)
        self.stats.timeouts += sum(1 for r in records if r is not None and r.timed_out)
        self.stats.elapsed_seconds += self._observe_window(started)
        return _require_complete(records, "run_reduced")

    # ------------------------------------------------------------------
    # Full-result execution (uncached; for collection-inspecting drivers)
    # ------------------------------------------------------------------
    def run_simulations(self, tasks: Sequence[RunTask]) -> List[SimulationResult]:
        """Execute ``tasks`` and return full results in task order.

        Serial execution hands whole same-backend groups to
        batch-capable backends; pooled execution stays per-run (full
        results are too heavy to ship back in batches).
        """
        started = time.perf_counter()
        tasks = self._with_backend(tasks)
        results: List[Optional[SimulationResult]] = [None] * len(tasks)
        if self.jobs == 1:
            groups: Dict[object, List[int]] = {}
            for index, task in enumerate(tasks):
                if self._batchable(task):
                    groups.setdefault(self._batch_group_key(task), []).append(index)
            batched: set = set()
            for indices in groups.values():
                chosen = _task_backend(tasks[indices[0]])
                requests = [_task_request(tasks[i]) for i in indices]
                batch_results = chosen.run_batch(requests)
                for index, result in zip(indices, batch_results):
                    results[index] = result
                batched.update(indices)
                self.stats.batched += len(indices)
                self.stats.merge(_engine_stats(batch_results))
            for index, task in enumerate(tasks):
                if index not in batched:
                    results[index] = _execute_task(task, self.timeout)
        else:
            payloads = [(index, task, self.timeout) for index, task in enumerate(tasks)]
            try:
                for index, result in self._get_pool().map(_simulation_worker, payloads):
                    results[index] = result
            except BrokenProcessPool:
                self.close()
                raise
        self.stats.total += len(tasks)
        self.stats.executed += len(tasks)
        self.stats.elapsed_seconds += self._observe_window(started)
        return _require_complete(results, "run_simulations")

    # ------------------------------------------------------------------
    # Declarative campaigns
    # ------------------------------------------------------------------
    def _materialise_specs(self, run_specs: Sequence[RunSpec]):
        """Build live tasks from specs, collecting infeasible cells."""
        return materialise_specs(run_specs, self.stats)

    def run_campaign(self, spec: CampaignSpec) -> CampaignResult:
        """Expand ``spec`` into tasks, execute (with caching), aggregate.

        The returned ``stats`` cover this campaign only (a snapshot
        delta), so reusing one runner across campaigns never leaks the
        first campaign's counters into the second's report.
        """
        before = self.stats.snapshot()
        run_specs = spec.expand()
        tasks, task_positions, failures = self._materialise_specs(run_specs)
        records_by_index: Dict[int, RunRecord] = {
            position: RunRecord.failure(
                message,
                key=run_spec.config_hash(),
                cell=run_spec.cell(),
                run_index=run_spec.run_index,
                seed=run_spec.seed,
            )
            for position, (message, run_spec) in failures.items()
        }
        executed = self.run_tasks(tasks, capture_errors=True)
        for position, record in zip(task_positions, executed):
            records_by_index[position] = record
        records = [records_by_index[position] for position in range(len(run_specs))]
        return CampaignResult(spec=spec, records=records, stats=self.stats.since(before))

    def run_reduced_campaign(
        self, spec: CampaignSpec, reducer: Reducer
    ) -> ReducedCampaignResult:
        """Like :meth:`run_campaign`, but reducing inside the workers."""
        before = self.stats.snapshot()
        run_specs = spec.expand()
        tasks, task_positions, failures = self._materialise_specs(run_specs)
        records_by_index: Dict[int, ReducedRecord] = {
            position: ReducedRecord.failure(
                message,
                reducer_name=reducer.name,
                key=reduced_cache_key(run_spec.config_hash(), reducer),
                cell=run_spec.cell(),
                run_index=run_spec.run_index,
                seed=run_spec.seed,
            )
            for position, (message, run_spec) in failures.items()
        }
        executed = self.run_reduced(tasks, reducer, capture_errors=True)
        for position, record in zip(task_positions, executed):
            records_by_index[position] = record
        records = [records_by_index[position] for position in range(len(run_specs))]
        return ReducedCampaignResult(
            spec=spec, reducer=reducer, records=records, stats=self.stats.since(before)
        )
