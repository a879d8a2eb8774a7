"""Dependency-free metrics registry for the distributed fleet.

The fleet (``repro.runner.distributed``) needs operational visibility —
claim latency, lease breaks, deposit rates, cache hit ratios, scale
events — without adding a dependency or perturbing the determinism
contract.  This module provides a small Prometheus-flavoured registry:

* :class:`Counter`, :class:`Gauge` and :class:`Histogram` children with
  fixed buckets, grouped into labelled families
  (:class:`CounterFamily`, :class:`GaugeFamily`,
  :class:`HistogramFamily`) under a thread-safe
  :class:`MetricsRegistry`;
* a deterministic strict-JSON :meth:`MetricsRegistry.snapshot` /
  :meth:`MetricsRegistry.merge_snapshot` pair for cross-process
  aggregation (workers deposit snapshot files, readers merge them);
* Prometheus text exposition via :meth:`MetricsRegistry.expose_text`.

The registry is deliberately clock-free: histograms observe durations
*measured by the caller* (``time.perf_counter`` deltas), so importing
this module never touches wall-clock entropy and the repro-lint D202
clock seam stays confined to ``distributed.py``.

Merge semantics are purely additive — counters, histogram bucket
counts/sums and gauges all sum — which makes ``merge`` associative and
commutative (property-tested), the only semantics under which the order
in which worker snapshot shards arrive cannot change the fleet totals.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "UNIT_SECONDS_BUCKETS",
    "Counter",
    "CounterFamily",
    "FLEET_METRICS",
    "FleetMetricSpec",
    "Gauge",
    "GaugeFamily",
    "Histogram",
    "HistogramFamily",
    "MetricsRegistry",
    "escape_label_value",
    "fleet_registry",
    "metric_catalogue_markdown",
    "unescape_label_value",
]

#: Bucket upper bounds (seconds) for store round-trip latencies such as
#: lease claims: sub-millisecond local filesystems up to multi-second
#: remote object stores.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
)

#: Bucket upper bounds (seconds) for whole work-unit execution times,
#: which run from sub-second cached replays to minutes-long sweeps.
UNIT_SECONDS_BUCKETS: Tuple[float, ...] = (
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    30.0,
    120.0,
)


def escape_label_value(value: str) -> str:
    """Escape a label value for Prometheus text exposition.

    Backslash, double-quote and newline are escaped exactly as the
    Prometheus exposition format specifies; everything else passes
    through untouched.
    """
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def unescape_label_value(value: str) -> str:
    """Invert :func:`escape_label_value` (used by tests and scrapers)."""
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "\\":
                out.append("\\")
                i += 2
                continue
            if nxt == '"':
                out.append('"')
                i += 2
                continue
            if nxt == "n":
                out.append("\n")
                i += 2
                continue
        out.append(ch)
        i += 1
    return "".join(out)


def _escape_help(text: str) -> str:
    """Escape a HELP string (backslash and newline only, per the spec)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    """Render a sample value: integral floats without a trailing ``.0``."""
    if math.isfinite(value) and float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _check_finite(value: float, what: str) -> float:
    """Reject NaN/inf so snapshots always survive strict JSON."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return value


class Counter:
    """A monotonically non-decreasing counter child."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be finite and non-negative)."""
        amount = _check_finite(amount, "counter increment")
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount!r}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current total."""
        with self._lock:
            return self._value


class Gauge:
    """A gauge child: a value that can go up, down, or be set outright."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        value = _check_finite(value, "gauge value")
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative)."""
        amount = _check_finite(amount, "gauge increment")
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount``."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """The current value."""
        with self._lock:
            return self._value


class Histogram:
    """A fixed-bucket histogram child.

    Buckets are defined by their finite upper bounds; an implicit
    ``+Inf`` bucket catches everything above the last bound.  Counts are
    stored per-bucket (non-cumulative) and accumulated at exposition
    time, which keeps :meth:`observe` O(log buckets) and merges exact.
    """

    __slots__ = ("_lock", "_bounds", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock, bounds: Tuple[float, ...]) -> None:
        self._lock = lock
        self._bounds = bounds
        self._counts = [0.0] * (len(bounds) + 1)
        self._sum = 0.0
        self._count = 0.0

    def observe(self, value: float) -> None:
        """Record one observation (a caller-measured duration or size)."""
        value = _check_finite(value, "histogram observation")
        index = len(self._bounds)
        for i, bound in enumerate(self._bounds):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum

    @property
    def count(self) -> float:
        """Number of observations."""
        with self._lock:
            return self._count

    @property
    def bucket_counts(self) -> List[float]:
        """Per-bucket (non-cumulative) counts, ``+Inf`` bucket last."""
        with self._lock:
            return list(self._counts)


def _label_key(
    labelnames: Tuple[str, ...], labels: Mapping[str, str]
) -> Tuple[str, ...]:
    """Validate a label mapping against the family and key the child."""
    if sorted(labels) != sorted(labelnames):
        raise ValueError(
            f"expected labels {sorted(labelnames)}, got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class CounterFamily:
    """A named family of :class:`Counter` children keyed by label values."""

    kind = "counter"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        lock: threading.Lock,
    ) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self._lock = lock
        self._children: Dict[Tuple[str, ...], Counter] = {}

    def labels(self, **labels: str) -> Counter:
        """The child for exactly these label values (created on demand)."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = Counter(self._lock)
                self._children[key] = child
            return child

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabelled child (only valid without labels)."""
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")
        self.labels().inc(amount)

    @property
    def value(self) -> float:
        """The unlabelled child's total (only valid without labels)."""
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")
        return self.labels().value


class GaugeFamily:
    """A named family of :class:`Gauge` children keyed by label values."""

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        lock: threading.Lock,
    ) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self._lock = lock
        self._children: Dict[Tuple[str, ...], Gauge] = {}

    def labels(self, **labels: str) -> Gauge:
        """The child for exactly these label values (created on demand)."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = Gauge(self._lock)
                self._children[key] = child
            return child

    def set(self, value: float) -> None:
        """Set the unlabelled child (only valid without labels)."""
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")
        self.labels().set(value)

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabelled child (only valid without labels)."""
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        """Decrement the unlabelled child (only valid without labels)."""
        self.inc(-amount)

    @property
    def value(self) -> float:
        """The unlabelled child's value (only valid without labels)."""
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")
        return self.labels().value


class HistogramFamily:
    """A named family of :class:`Histogram` children keyed by label values."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Tuple[str, ...],
        buckets: Tuple[float, ...],
        lock: threading.Lock,
    ) -> None:
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self.buckets = buckets
        self._lock = lock
        self._children: Dict[Tuple[str, ...], Histogram] = {}

    def labels(self, **labels: str) -> Histogram:
        """The child for exactly these label values (created on demand)."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = Histogram(self._lock, self.buckets)
                self._children[key] = child
            return child

    def observe(self, value: float) -> None:
        """Observe on the unlabelled child (only valid without labels)."""
        if self.labelnames:
            raise ValueError(f"{self.name} requires labels {self.labelnames}")
        self.labels().observe(value)


_SCALAR_FAMILIES = (CounterFamily, GaugeFamily)


def _validate_metric_name(name: str) -> str:
    """Reject names the exposition format cannot carry."""
    if not name or not all(ch.isalnum() or ch in "_:" for ch in name):
        raise ValueError(f"invalid metric name {name!r}")
    if name[0].isdigit():
        raise ValueError(f"invalid metric name {name!r}")
    return name


class MetricsRegistry:
    """A thread-safe collection of metric families.

    One registry is owned per process (the fleet hangs it off the
    :class:`~repro.runner.distributed.WorkQueue`); workers serialise it
    with :meth:`snapshot`, deposit the JSON beside their leases, and
    readers rebuild fleet totals by merging the per-worker shards with
    :meth:`merge_snapshot`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, object] = {}

    def _register(self, family: object) -> object:
        name = getattr(family, "name")
        with self._lock:
            existing = self._families.get(name)
            if existing is None:
                self._families[name] = family
                return family
            if type(existing) is not type(family) or getattr(
                existing, "labelnames"
            ) != getattr(family, "labelnames"):
                raise ValueError(f"metric {name!r} re-registered with a new shape")
            if isinstance(existing, HistogramFamily) and existing.buckets != getattr(
                family, "buckets"
            ):
                raise ValueError(f"metric {name!r} re-registered with new buckets")
            return existing

    def counter(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> CounterFamily:
        """Get or create the counter family ``name`` (idempotent)."""
        family = CounterFamily(
            _validate_metric_name(name), help_text, tuple(labelnames), self._lock
        )
        out = self._register(family)
        assert isinstance(out, CounterFamily)
        return out

    def gauge(
        self, name: str, help_text: str = "", labelnames: Sequence[str] = ()
    ) -> GaugeFamily:
        """Get or create the gauge family ``name`` (idempotent)."""
        family = GaugeFamily(
            _validate_metric_name(name), help_text, tuple(labelnames), self._lock
        )
        out = self._register(family)
        assert isinstance(out, GaugeFamily)
        return out

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> HistogramFamily:
        """Get or create the histogram family ``name`` (idempotent)."""
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds or any(not math.isfinite(b) for b in bounds):
            raise ValueError("histogram buckets must be finite and non-empty")
        if len(set(bounds)) != len(bounds):
            raise ValueError("histogram buckets must be distinct")
        family = HistogramFamily(
            _validate_metric_name(name),
            help_text,
            tuple(labelnames),
            bounds,
            self._lock,
        )
        out = self._register(family)
        assert isinstance(out, HistogramFamily)
        return out

    def _sorted_families(self) -> List[object]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> Dict[str, object]:
        """A deterministic, strict-JSON-safe dump of every sample.

        Families are sorted by name and children by label values, so two
        registries holding the same samples snapshot byte-identically.
        The payload round-trips through ``json.dumps(allow_nan=False)``
        by construction (observations are validated finite on entry).
        """
        metrics: List[Dict[str, object]] = []
        for family in self._sorted_families():
            entry: Dict[str, object] = {
                "name": getattr(family, "name"),
                "kind": getattr(family, "kind"),
                "help": getattr(family, "help"),
                "labelnames": list(getattr(family, "labelnames")),
            }
            children = getattr(family, "_children")
            with self._lock:
                keys = sorted(children)
            samples: List[Dict[str, object]] = []
            if isinstance(family, _SCALAR_FAMILIES):
                for key in keys:
                    samples.append(
                        {"labels": list(key), "value": children[key].value}
                    )
            else:
                assert isinstance(family, HistogramFamily)
                entry["buckets"] = list(family.buckets)
                for key in keys:
                    child = children[key]
                    samples.append(
                        {
                            "labels": list(key),
                            "bucket_counts": child.bucket_counts,
                            "sum": child.sum,
                            "count": child.count,
                        }
                    )
            entry["samples"] = samples
            metrics.append(entry)
        return {"metrics": metrics}

    def merge_snapshot(self, payload: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` payload into this registry, additively.

        Counters, gauges, histogram bucket counts and sums all add;
        unknown families are created from the payload's declaration.
        Raises :class:`ValueError` on a malformed payload or a shape
        conflict with an already-registered family.
        """
        metrics = payload.get("metrics")
        if not isinstance(metrics, list):
            raise ValueError("snapshot payload has no 'metrics' list")
        for entry in metrics:
            if not isinstance(entry, Mapping):
                raise ValueError("snapshot metric entry is not a mapping")
            name = str(entry["name"])
            kind = str(entry["kind"])
            help_text = str(entry.get("help", ""))
            labelnames = [str(n) for n in entry.get("labelnames", [])]
            samples = entry.get("samples", [])
            if not isinstance(samples, list):
                raise ValueError(f"metric {name!r} samples is not a list")
            if kind == "counter":
                family = self.counter(name, help_text, labelnames)
                for sample in samples:
                    child = family.labels(
                        **dict(zip(labelnames, [str(v) for v in sample["labels"]]))
                    )
                    child.inc(float(sample["value"]))
            elif kind == "gauge":
                gfamily = self.gauge(name, help_text, labelnames)
                for sample in samples:
                    gchild = gfamily.labels(
                        **dict(zip(labelnames, [str(v) for v in sample["labels"]]))
                    )
                    gchild.inc(float(sample["value"]))
            elif kind == "histogram":
                buckets = [float(b) for b in entry.get("buckets", [])]
                hfamily = self.histogram(name, help_text, labelnames, buckets)
                for sample in samples:
                    hchild = hfamily.labels(
                        **dict(zip(labelnames, [str(v) for v in sample["labels"]]))
                    )
                    counts = [float(c) for c in sample["bucket_counts"]]
                    if len(counts) != len(hfamily.buckets) + 1:
                        raise ValueError(
                            f"metric {name!r} bucket_counts length mismatch"
                        )
                    with self._lock:
                        for i, c in enumerate(counts):
                            hchild._counts[i] += c
                        hchild._sum += float(sample["sum"])
                        hchild._count += float(sample["count"])
            else:
                raise ValueError(f"unknown metric kind {kind!r}")

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's samples into this one, additively."""
        self.merge_snapshot(other.snapshot())

    def flat_values(self) -> Dict[str, float]:
        """Samples as a flat ``{'name{a="b"}': value}`` mapping.

        Histograms contribute ``name_count`` and ``name_sum`` entries.
        The mapping is deterministic (insertion-ordered by sorted family
        name, then sorted label values) and is what ``repro-ho status
        --json`` exposes for scrapers asserting counter monotonicity.
        """
        flat: Dict[str, float] = {}
        for family in self._sorted_families():
            labelnames = getattr(family, "labelnames")
            children = getattr(family, "_children")
            with self._lock:
                keys = sorted(children)
            for key in keys:
                suffix = _label_suffix(labelnames, key)
                if isinstance(family, _SCALAR_FAMILIES):
                    flat[f"{getattr(family, 'name')}{suffix}"] = children[key].value
                else:
                    child = children[key]
                    flat[f"{getattr(family, 'name')}_count{suffix}"] = child.count
                    flat[f"{getattr(family, 'name')}_sum{suffix}"] = child.sum
        return flat

    def expose_text(self) -> str:
        """Render every family in the Prometheus text exposition format."""
        lines: List[str] = []
        for family in self._sorted_families():
            name = getattr(family, "name")
            labelnames = getattr(family, "labelnames")
            children = getattr(family, "_children")
            help_text = getattr(family, "help")
            if help_text:
                lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {getattr(family, 'kind')}")
            with self._lock:
                keys = sorted(children)
            for key in keys:
                if isinstance(family, _SCALAR_FAMILIES):
                    suffix = _label_suffix(labelnames, key)
                    value = children[key].value
                    lines.append(f"{name}{suffix} {_format_value(value)}")
                else:
                    assert isinstance(family, HistogramFamily)
                    child = children[key]
                    cumulative = 0.0
                    bounds = [*[_format_value(b) for b in family.buckets], "+Inf"]
                    for bound_text, count in zip(bounds, child.bucket_counts):
                        cumulative += count
                        suffix = _label_suffix(
                            (*labelnames, "le"), (*key, bound_text)
                        )
                        lines.append(
                            f"{name}_bucket{suffix} {_format_value(cumulative)}"
                        )
                    suffix = _label_suffix(labelnames, key)
                    lines.append(f"{name}_sum{suffix} {_format_value(child.sum)}")
                    lines.append(
                        f"{name}_count{suffix} {_format_value(child.count)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _label_suffix(labelnames: Sequence[str], values: Sequence[str]) -> str:
    """Render ``{a="x",b="y"}`` (empty string when there are no labels)."""
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{escape_label_value(value)}"'
        for name, value in zip(labelnames, values)
    )
    return "{" + pairs + "}"


@dataclass(frozen=True)
class FleetMetricSpec:
    """Declaration of one fleet metric (drives both wiring and docs)."""

    name: str
    kind: str
    help: str
    labelnames: Tuple[str, ...] = ()
    buckets: Optional[Tuple[float, ...]] = None


#: Canonical catalogue of every metric the fleet emits.  Instrumentation
#: sites obtain their families through :func:`fleet_registry`, and
#: ``docs/observability.md`` renders this table via
#: :func:`metric_catalogue_markdown`, so the docs cannot drift from the
#: wiring.
FLEET_METRICS: Tuple[FleetMetricSpec, ...] = (
    FleetMetricSpec(
        name="repro_queue_claims_total",
        kind="counter",
        help="Batch leases won by this process (work units claimed for execution).",
    ),
    FleetMetricSpec(
        name="repro_queue_claim_latency_seconds",
        kind="histogram",
        help="Store round-trip time spent winning one batch lease.",
        buckets=DEFAULT_LATENCY_BUCKETS,
    ),
    FleetMetricSpec(
        name="repro_queue_lease_breaks_total",
        kind="counter",
        help="Expired or corrupt leases broken so their batches could be reclaimed.",
    ),
    FleetMetricSpec(
        name="repro_queue_deposits_total",
        kind="counter",
        help="Result part files deposited into the queue (the fleet's output rate).",
    ),
    FleetMetricSpec(
        name="repro_queue_requeues_total",
        kind="counter",
        help="Deposited results discarded so their batches re-execute "
        "(failures and corrupt payloads).",
    ),
    FleetMetricSpec(
        name="repro_worker_units_total",
        kind="counter",
        help="Work units (whole batches or stolen tails) a worker executed.",
    ),
    FleetMetricSpec(
        name="repro_worker_steals_total",
        kind="counter",
        help="Cooperative steals: live leases cut so an idle worker took the tail.",
    ),
    FleetMetricSpec(
        name="repro_runner_unit_seconds",
        kind="histogram",
        help="Wall-clock seconds executing one work unit (caller-measured).",
        buckets=UNIT_SECONDS_BUCKETS,
    ),
    FleetMetricSpec(
        name="repro_runner_window_seconds",
        kind="histogram",
        help="Wall-clock seconds per CampaignRunner execution window "
        "(the executor's scheduling granularity within a unit).",
        buckets=UNIT_SECONDS_BUCKETS,
    ),
    FleetMetricSpec(
        name="repro_runner_runs_total",
        kind="counter",
        help="RunnerStats counters folded in from executed units; the "
        "'counter' label names the RunnerStats field (executed, batched, "
        "batch_planned, batch_chunks, adapter_planned, cache_hits, "
        "cache_misses, failures, timeouts, total).",
        labelnames=("counter",),
    ),
    FleetMetricSpec(
        name="repro_cache_corrupt_total",
        kind="counter",
        help="Corrupt cache payloads dropped so their runs re-execute.",
    ),
    FleetMetricSpec(
        name="repro_supervisor_scale_events_total",
        kind="counter",
        help="Supervisor fleet resizes; the 'direction' label is up or down.",
        labelnames=("direction",),
    ),
    FleetMetricSpec(
        name="repro_supervisor_target_workers",
        kind="gauge",
        help="Workers the scaling policy currently wants.",
    ),
    FleetMetricSpec(
        name="repro_supervisor_live_workers",
        kind="gauge",
        help="Worker processes currently alive under the supervisor.",
    ),
)


def fleet_registry() -> MetricsRegistry:
    """A fresh registry pre-declaring every :data:`FLEET_METRICS` family.

    Pre-declaration means snapshots always carry the full catalogue
    (zero-valued families included for unlabelled metrics) and any
    instrumentation site asking for a family with a drifted shape fails
    loudly instead of silently forking the name.
    """
    registry = MetricsRegistry()
    for spec in FLEET_METRICS:
        if spec.kind == "counter":
            family: object = registry.counter(spec.name, spec.help, spec.labelnames)
        elif spec.kind == "gauge":
            family = registry.gauge(spec.name, spec.help, spec.labelnames)
        else:
            family = registry.histogram(
                spec.name,
                spec.help,
                spec.labelnames,
                spec.buckets or DEFAULT_LATENCY_BUCKETS,
            )
        # Materialise the unlabelled child so zero values are visible in
        # snapshots before the first event; labelled children appear as
        # label values are first used.
        if not spec.labelnames:
            getattr(family, "labels")()
    return registry


def metric_catalogue_markdown() -> str:
    """The metric catalogue as a Markdown table (rendered into docs).

    ``docs/build.py --write-metric-catalogue`` splices this between the
    ``METRIC-CATALOGUE`` markers in ``docs/observability.md``; the docs
    build fails while the committed table is stale, exactly like the
    lint rule catalogue.
    """
    lines = [
        "| Metric | Type | Labels | Description |",
        "| --- | --- | --- | --- |",
    ]
    for spec in sorted(FLEET_METRICS, key=lambda s: s.name):
        labels = ", ".join(f"`{n}`" for n in spec.labelnames) or "—"
        help_text = " ".join(spec.help.split())
        lines.append(f"| `{spec.name}` | {spec.kind} | {labels} | {help_text} |")
    return "\n".join(lines) + "\n"


def snapshot_json(registry: MetricsRegistry) -> str:
    """Serialise ``registry.snapshot()`` as canonical strict JSON."""
    return json.dumps(
        registry.snapshot(), allow_nan=False, sort_keys=True, separators=(",", ":")
    )
