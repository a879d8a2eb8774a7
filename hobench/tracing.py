"""Outside-in span tracing for the benchmark.

The program is not instrumented for this benchmark: this module wraps
public functions and methods of the ``repro`` package from the outside
(``setattr`` on classes and modules) while a traced pass runs, and
restores the originals afterwards.  Each wrapped call records a span —
key, start, end, parent span and pass id — in memory; forked fleet
workers inherit the wrappers and export their own spans when they exit.

A layer's *self time* is the duration of its spans minus the part of
that interval covered by their child spans, so nested layers are never
double-counted.  ``layer_metrics`` folds the spans of one pass into the
per-layer metrics listed in ``PER_LAYER`` (see ``NOTES.md``).
"""

from __future__ import annotations

import functools
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

# Span tuple layout: [key, start, end, parent, pass_id, main_thread, info].
KEY, START, END, PARENT, PASS, MAIN, INFO = range(7)

#: The per-layer metrics a traced run prints, with their units.  Every
#: workload prints all of them; a layer its passes never enter reads 0.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("setup.import_s", "s", "lower"),
    ("runner.spec.self_s", "s", "lower"),
    ("runner.factories.self_s", "s", "lower"),
    ("runner.factories.calls", "count", "lower"),
    ("adversary.adapter.self_s", "s", "lower"),
    ("adversary.adapter.calls", "count", "lower"),
    ("adversary.adapter.runs", "count", "lower"),
    ("adversary.native.self_s", "s", "lower"),
    ("adversary.batch_plan.self_s", "s", "lower"),
    ("adversary.batch_plan.calls", "count", "lower"),
    ("adversary.native_run_frac", "ratio", "higher"),
    ("simulation.batch.self_s", "s", "lower"),
    ("simulation.batch.runs_per_call", "runs", "higher"),
    ("simulation.fallback.runs", "count", "lower"),
    ("simulation.fallback.self_s", "s", "lower"),
    ("core.predicates.self_s", "s", "lower"),
    ("core.predicates.calls", "count", "lower"),
    ("runner.records.self_s", "s", "lower"),
    ("runner.reduce.self_s", "s", "lower"),
    ("runner.aggregate.self_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("runner.executor.self_s", "s", "lower"),
    ("runner.cache.get.self_s", "s", "lower"),
    ("runner.cache.get.calls", "count", "lower"),
    ("runner.cache.hit_ratio", "ratio", "higher"),
    ("runner.cache.put.self_s", "s", "lower"),
    ("runner.cache.put.calls", "count", "lower"),
    ("runner.store.read.self_s", "s", "lower"),
    ("runner.store.write.self_s", "s", "lower"),
    ("runner.store.ops", "count", "lower"),
    ("runner.distributed.wait_s", "s", "lower"),
    ("runner.distributed.submit_s", "s", "lower"),
    ("runner.distributed.collect_s", "s", "lower"),
    ("runner.distributed.claims", "count", "lower"),
    ("runner.distributed.steals", "count", "lower"),
    ("runner.distributed.worker_busy_frac", "ratio", "higher"),
    ("runner.distributed.unaccounted_runs", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
]


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.pass_id: Optional[int] = None
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, key: str, fn: Callable, info: Optional[Callable] = None) -> Callable:
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = [key, 0.0, 0.0, stack[-1] if stack else -1, tracer.pass_id,
                    threading.current_thread() is threading.main_thread(), None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, result)
            return result

        return traced

    def _counter(self, key: str, fn: Callable, info: Callable) -> Callable:
        """A wrapper that records a zero-length marker span (a count)."""
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            now = time.perf_counter()
            spans.append([key, now, now, -2, tracer.pass_id, False, info(args, result)])
            return result

        return counted

    # -- installation ------------------------------------------------------------
    def _set(self, owner: object, attr: str, value: object) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def wrap_method(self, cls: type, attr: str, key: str, info=None) -> None:
        raw = cls.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind else raw
        wrapper = self._wrap(key, fn, info)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, kind(wrapper) if kind else wrapper)

    def wrap_overrides(self, base: type, attr: str, key: str, info=None) -> None:
        """Wrap ``attr`` on ``base`` and on every subclass defining it."""
        for cls in _all_subclasses(base):
            if attr in cls.__dict__ and not getattr(cls.__dict__[attr], "__isabstractmethod__", False):
                self.wrap_method(cls, attr, key, info)

    def wrap_function(self, fn: Callable, key: str, info=None, count=False,
                      modules: Optional[Iterable[str]] = None) -> None:
        """Replace ``fn`` wherever a ``repro`` module (or dict) holds it."""
        wrapper = (self._counter if count else self._wrap)(key, fn, info)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            if modules is not None and name not in modules:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)
                elif isinstance(value, dict) and modules is None:
                    for dkey, dvalue in list(value.items()):
                        if dvalue is fn and isinstance(dkey, str):
                            self._set(value, dkey, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()


def window(spans: List[list], offset: int, t0: float, t1: float) -> List[list]:
    """The spans that started inside [t0, t1], cut off at ``t1``, with
    parent indices (absolute: ``offset`` + position) rebased onto the result."""
    out: List[list] = []
    remap: Dict[int, int] = {}
    for position, span in enumerate(spans):
        if not t0 <= span[START] <= t1:
            continue
        copy = list(span)
        copy[END] = min(span[END], t1)
        parent = span[PARENT]
        copy[PARENT] = remap.get(parent, -1) if parent >= 0 else parent
        remap[offset + position] = len(out)
        out.append(copy)
    return out


def _all_subclasses(base: type) -> List[type]:
    seen, todo = [base], [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def install_wrappers(tracer: Tracer) -> None:
    """Wrap every public function of the layer table (see NOTES.md)."""
    import repro.experiments as experiments
    import repro.runner.aggregate as aggregate
    import repro.runner.executor as executor
    import repro.runner.reduce as reduce
    import repro.simulation.batch_engine as batch_engine
    from repro.adversary import batch_plan  # noqa: F401  (registers the batch planners)
    from repro.adversary.plan import BatchPlanner, MaskPlanner, MatrixPlanAdapter
    from repro.core.predicates import CommunicationPredicate
    from repro.experiments.common import ExperimentReport
    from repro.runner.cache import ResultCache
    from repro.runner.distributed import DistributedCampaignRunner, Worker, WorkQueue
    from repro.runner.records import RunRecord
    from repro.runner.spec import CampaignSpec, RunSpec
    from repro.runner.store import LocalDirStore
    from repro.simulation.backends import BatchBackend, FastBackend, ReferenceBackend

    w = tracer
    w.wrap_method(CampaignSpec, "expand", "runner.spec:expand")
    w.wrap_method(RunSpec, "config_hash", "runner.spec:config_hash")
    w.wrap_function(executor.materialise_specs, "runner.factories:materialise_specs")
    w.wrap_function(executor.task_from_spec, "runner.factories:task_from_spec")

    w.wrap_method(MatrixPlanAdapter, "plan_round", "adversary.adapter:plan_round")
    for cls in _all_subclasses(MaskPlanner):
        if cls is not MatrixPlanAdapter and "plan_round" in cls.__dict__ and cls is not MaskPlanner:
            w.wrap_method(cls, "plan_round", "adversary.native:plan_round")
    w.wrap_overrides(BatchPlanner, "plan_rounds", "adversary.batch_plan:plan_rounds")
    # Counts only: which planner tier each run reaching the batch engine got.
    w.wrap_function(
        batch_engine.planner_for, "count:planner_for", count=True,
        info=lambda args, planner: "adapter" if isinstance(planner, MatrixPlanAdapter) else "native",
        modules=["repro.simulation.batch_engine"],
    )
    w.wrap_function(
        batch_engine.batch_planner_for, "count:batch_planner_for", count=True,
        info=lambda args, planner: len(args[0]) if planner is not None else 0,
        modules=["repro.simulation.batch_engine"],
    )

    w.wrap_method(BatchBackend, "run_batch", "simulation.batch:run_batch",
                  info=lambda args, result: len(result))
    for cls in (ReferenceBackend, FastBackend, BatchBackend):
        w.wrap_method(cls, "run", "simulation.fallback:run")

    w.wrap_overrides(CommunicationPredicate, "holds", "core.predicates:holds")
    w.wrap_overrides(CommunicationPredicate, "violations", "core.predicates:violations")
    w.wrap_method(RunRecord, "from_result", "runner.records:from_result")
    w.wrap_overrides(reduce.Reducer, "reduce", "runner.reduce:reduce")

    for fn in (aggregate.campaign_report, aggregate.batch_report_from_records,
               aggregate.reduced_campaign_report, reduce.batch_report_from_reduced):
        w.wrap_function(fn, "runner.aggregate:" + fn.__name__)
    for driver in list(experiments.ALL_EXPERIMENTS.values()):
        w.wrap_function(driver, "experiments:driver")
    w.wrap_method(ExperimentReport, "render", "experiments:render")

    for attr in ("run_tasks", "run_reduced", "run_simulations"):
        w.wrap_method(executor.CampaignRunner, attr, "runner.executor:" + attr)

    hit = lambda args, record: record is not None  # noqa: E731
    w.wrap_method(ResultCache, "get", "runner.cache.get:get", info=hit)
    w.wrap_method(ResultCache, "get_reduced", "runner.cache.get:get_reduced", info=hit)
    w.wrap_method(ResultCache, "put", "runner.cache.put:put")
    w.wrap_method(ResultCache, "put_reduced", "runner.cache.put:put_reduced")

    for attr in ("read_text", "exists", "list"):
        w.wrap_method(LocalDirStore, attr, "runner.store.read:" + attr)
    for attr in ("write_text", "try_create", "delete"):
        w.wrap_method(LocalDirStore, attr, "runner.store.write:" + attr)

    w.wrap_method(DistributedCampaignRunner, "wait", "runner.distributed:wait")
    w.wrap_method(WorkQueue, "submit", "runner.distributed:submit")
    w.wrap_method(WorkQueue, "try_acquire", "runner.distributed:try_acquire",
                  info=lambda args, lease: lease is not None)
    w.wrap_method(WorkQueue, "write_result", "runner.distributed:write_result")
    w.wrap_method(WorkQueue, "collect", "runner.distributed:collect")
    executed = lambda args, count: count  # noqa: E731
    w.wrap_method(Worker, "run_once", "runner.distributed:run_once", info=executed)
    w.wrap_method(Worker, "steal_once", "runner.distributed:steal_once", info=executed)


# ----------------------------------------------------------------------
# Folding spans into per-layer metrics
# ----------------------------------------------------------------------
def fold(spans: List[list]) -> Dict[str, float]:
    """Raw per-process sums for one pass: self/duration time per layer,
    call counts per key (outermost within a key) and info tallies."""
    child = [0.0] * len(spans)
    for span in spans:
        parent = span[PARENT]
        if parent >= 0:
            child[parent] += span[END] - span[START]
    out: Dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        key = span[KEY]
        info = span[INFO]
        if span[PARENT] == -2:  # a count marker
            if key == "count:planner_for":
                out["runs." + info] += 1
            elif key == "count:batch_planner_for":
                out["runs.batch"] += info
            continue
        layer, op = key.split(":", 1)
        duration = span[END] - span[START]
        own = duration - child[index]
        out["self." + layer] += own
        out["dur." + key] += duration
        if span[MAIN]:
            out["covered"] += own
        parent = span[PARENT]
        if parent < 0 or spans[parent][KEY] != key:
            out["calls." + key] += 1
            out["calls." + layer] += 1
        if info is not None:
            out["info." + key] += float(info)
            if op in ("run_once", "steal_once") and info:
                out["busy"] += duration
                if op == "steal_once":
                    out["steals"] += 1
    return out


def layer_metrics(sums: Dict[str, float], wall: float, workers: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass from process-summed ``fold``s."""
    g = lambda name: float(sums.get(name, 0.0))  # noqa: E731
    ratio = lambda num, den: num / den if den else 0.0  # noqa: E731
    planned = g("runs.adapter") + g("runs.native") + g("runs.batch")
    gets = g("calls.runner.cache.get")
    return {
        "runner.spec.self_s": g("self.runner.spec"),
        "runner.factories.self_s": g("self.runner.factories"),
        "runner.factories.calls": g("calls.runner.factories:task_from_spec"),
        "adversary.adapter.self_s": g("self.adversary.adapter"),
        "adversary.adapter.calls": g("calls.adversary.adapter"),
        "adversary.adapter.runs": g("runs.adapter"),
        "adversary.native.self_s": g("self.adversary.native"),
        "adversary.batch_plan.self_s": g("self.adversary.batch_plan"),
        "adversary.batch_plan.calls": g("calls.adversary.batch_plan"),
        "adversary.native_run_frac": ratio(g("runs.native") + g("runs.batch"), planned),
        "simulation.batch.self_s": g("self.simulation.batch"),
        "simulation.batch.runs_per_call": ratio(
            g("info.simulation.batch:run_batch"), g("calls.simulation.batch")),
        "simulation.fallback.runs": g("calls.simulation.fallback"),
        "simulation.fallback.self_s": g("self.simulation.fallback"),
        "core.predicates.self_s": g("self.core.predicates"),
        "core.predicates.calls": g("calls.core.predicates"),
        "runner.records.self_s": g("self.runner.records"),
        "runner.reduce.self_s": g("self.runner.reduce"),
        "runner.aggregate.self_s": g("self.runner.aggregate"),
        "experiments.self_s": g("self.experiments"),
        "runner.executor.self_s": g("self.runner.executor"),
        "runner.cache.get.self_s": g("self.runner.cache.get"),
        "runner.cache.get.calls": gets,
        "runner.cache.hit_ratio": ratio(
            g("info.runner.cache.get:get") + g("info.runner.cache.get:get_reduced"), gets),
        "runner.cache.put.self_s": g("self.runner.cache.put"),
        "runner.cache.put.calls": g("calls.runner.cache.put"),
        "runner.store.read.self_s": g("self.runner.store.read"),
        "runner.store.write.self_s": g("self.runner.store.write"),
        "runner.store.ops": g("calls.runner.store.read") + g("calls.runner.store.write"),
        "runner.distributed.wait_s": g("dur.runner.distributed:wait"),
        "runner.distributed.submit_s": g("dur.runner.distributed:submit"),
        "runner.distributed.collect_s": g("dur.runner.distributed:collect"),
        "runner.distributed.claims": g("info.runner.distributed:try_acquire"),
        "runner.distributed.steals": g("steals"),
        "runner.distributed.worker_busy_frac": ratio(g("busy"), workers * wall),
    }


def median_metrics(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
