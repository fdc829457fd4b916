"""Typed metrics: counters, gauges, histograms, and Prometheus export.

The SLO layer of the telemetry subsystem.  Where spans
(:mod:`repro.telemetry.recorder`) answer *where did this one run spend
its time*, the instruments here answer *how is the fleet doing*:
per-endpoint latency distributions, queue depths, error rates —
aggregable across processes and scrapeable by Prometheus.

Three typed instruments behind one :class:`MetricsRegistry`:

* :class:`Counter` — monotonically increasing totals (``inc``);
* :class:`Gauge` — last-written level (``set``/``inc``/``dec``);
* :class:`Histogram` — observation distributions over **fixed
  exponential buckets** (``observe``), carrying an exemplar — the
  last observation's value plus the :func:`~repro.telemetry.recorder.current_trace_id`
  active when it was recorded — so a slow bucket links straight back
  to one request's span tree in the JSONL/Perfetto trace.

Every instrument is a *family*: a name plus a fixed tuple of label
names, materializing one series per distinct label-value set.  Label
cardinality is capped per family (:data:`DEFAULT_CARDINALITY_CAP`);
series beyond the cap collapse into a single ``__overflow__`` series
instead of growing without bound — a mis-labelled hot path cannot OOM
the process or melt the scrape.

The registry follows the :data:`~repro.telemetry.NULL_RECORDER`
discipline exactly: the process-wide default is :data:`NULL_METRICS`,
whose instruments are shared no-op objects, and hot paths branch once
on :attr:`MetricsRegistry.enabled` (the enabled path itself is gated
<= 3 % on the core executor in ``benchmarks/bench_core.py``).  The
registry is the only place a number is recorded — the span recorder
keeps durations only.  Turn metrics on with ``REPRO_METRICS=1`` (metrics
alone), ``REPRO_TELEMETRY=1`` (spans *and* metrics) or programmatically
via :func:`set_metrics_registry`.  The serve front door always meters
itself, into a registry of its own that it never installs.

Cross-process aggregation goes through **snapshots**: a registry
serializes to a schema-versioned dict (:meth:`MetricsRegistry.snapshot`),
snapshots merge exactly (:func:`merge_snapshots` — counters and
histogram buckets add, gauges keep the max), and the campaign runner
persists one snapshot per shard in the artifact store so
``python -m repro campaign report`` and ``python -m repro telemetry
summary`` can render fleet-wide latency histograms.

Prometheus text exposition (format version 0.0.4, what the serve front
door answers on ``GET /metrics``) is
rendered by :func:`render_prometheus` and round-trip-checked by
:func:`parse_prometheus`, a deliberately strict line-format validator
used by the golden-format tests and the CI scrape drill.
"""

from __future__ import annotations

import gc
import math
import os
import re
import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping, Sequence

from repro.telemetry.recorder import (
    _TRUTHY,
    current_trace_id,
    telemetry_env_enabled,
)

#: Environment switch: a truthy value ("1", "true", "yes", "on") makes
#: :func:`get_metrics_registry` start a real registry on first use.
METRICS_ENV = "REPRO_METRICS"

#: Version stamp of the snapshot dict layout; :func:`merge_snapshots`
#: and the store readers refuse snapshots from a different version.
METRICS_SCHEMA_VERSION = 1

#: Default cap on distinct label sets per instrument family; series
#: beyond it collapse into one :data:`OVERFLOW_LABEL` series.
DEFAULT_CARDINALITY_CAP = 64

#: The label value every capped-out series collapses into.
OVERFLOW_LABEL = "__overflow__"

#: The content type of Prometheus text exposition format 0.0.4 — what
#: ``GET /metrics`` answers with.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def metrics_env_enabled(environ: Mapping[str, str] | None = None) -> bool:
    """Whether the environment asks for metrics.

    Either switch does: ``REPRO_METRICS`` (metrics alone) or
    ``REPRO_TELEMETRY`` (spans, which always bring metrics with them).

    Args:
        environ: mapping to consult (default ``os.environ``).

    Returns:
        True when either variable holds a truthy spelling
        ``1``/``true``/``yes``/``on`` (case-insensitive); False for
        anything else, including unset.
    """
    if environ is None:
        environ = os.environ
    return (environ.get(METRICS_ENV, "").strip().lower() in _TRUTHY
            or telemetry_env_enabled(environ))


def exponential_buckets(start: float, factor: float,
                        count: int) -> tuple[float, ...]:
    """``count`` histogram upper bounds growing geometrically.

    Args:
        start: the first (smallest) finite upper bound, > 0.
        factor: the ratio between consecutive bounds, > 1.
        count: number of finite bounds, >= 1 (the implicit ``+Inf``
            overflow bucket is always appended by the histogram).

    Returns:
        Strictly increasing finite upper bounds
        ``(start, start*factor, ...)``.

    Raises:
        ValueError: on non-positive ``start``, ``factor`` <= 1, or
            ``count`` < 1.
    """
    if start <= 0.0:
        raise ValueError(f"start must be > 0, got {start}")
    if factor <= 1.0:
        raise ValueError(f"factor must be > 1, got {factor}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return tuple(start * factor ** i for i in range(count))


#: The default latency buckets: 100 µs doubling up to ~3.3 s, plus the
#: implicit ``+Inf`` overflow — wide enough for a cache-hit health
#: check and a cohort-heavy estimation job on one scale.
DEFAULT_LATENCY_BUCKETS_S = exponential_buckets(1e-4, 2.0, 16)


def format_metric_value(value: float) -> str:
    """One canonical string per float — the exposition value format.

    Integral values render without a fractional part (``3`` not
    ``3.0``), everything else through ``repr`` so no precision is
    lost; infinities use the Prometheus ``+Inf``/``-Inf`` spelling.
    """
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _render_labels(labels: Mapping[str, str],
                   extra: "tuple[str, str] | None" = None) -> str:
    """The ``{name="value",...}`` block (empty string when unlabelled)."""
    pairs = [(name, labels[name]) for name in sorted(labels)]
    if extra is not None:
        pairs.append(extra)
        pairs.sort()
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{_escape_label_value(str(value))}"'
                     for name, value in pairs)
    return "{" + inner + "}"


class _NullSeries:
    """The shared no-op series: every verb of every type, doing nothing.

    One slotted object serves as the disabled counter, gauge *and*
    histogram series (and family — ``labels()`` returns itself), so
    code holding instruments from :data:`NULL_METRICS` pays neither
    allocation nor branching.
    """

    __slots__ = ()

    def labels(self, **values: str) -> "_NullSeries":
        """No-op family access: the shared series itself."""
        return self

    def inc(self, value: float = 1.0) -> None:
        """No-op."""

    def dec(self, value: float = 1.0) -> None:
        """No-op."""

    def set(self, value: float) -> None:
        """No-op."""

    def observe(self, value: float) -> None:
        """No-op."""


_NULL_SERIES = _NullSeries()


class _CounterSeries:
    """One monotonic counter series (a label-value set of a family)."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    @property
    def value(self) -> float:
        """The accumulated total."""
        return self._value

    def inc(self, value: float = 1.0) -> None:
        """Add ``value`` (must be >= 0: counters only go up)."""
        if value < 0.0:
            raise ValueError(
                f"counters are monotonic; cannot inc by {value}")
        with self._lock:
            self._value += value


class _GaugeSeries:
    """One gauge series: a level that can move both ways."""

    __slots__ = ("_lock", "_value")

    def __init__(self, lock: threading.RLock) -> None:
        self._lock = lock
        self._value = 0.0

    @property
    def value(self) -> float:
        """The last written level."""
        return self._value

    def set(self, value: float) -> None:
        """Overwrite the level."""
        with self._lock:
            self._value = float(value)

    def inc(self, value: float = 1.0) -> None:
        """Move the level up by ``value``."""
        with self._lock:
            self._value += value

    def dec(self, value: float = 1.0) -> None:
        """Move the level down by ``value``."""
        with self._lock:
            self._value -= value


class _HistogramSeries:
    """One histogram series: per-bucket counts, sum, count, exemplar."""

    __slots__ = ("_lock", "_bounds", "bucket_counts", "sum", "count",
                 "exemplar")

    def __init__(self, lock: threading.RLock,
                 bounds: "tuple[float, ...]") -> None:
        self._lock = lock
        self._bounds = bounds
        #: Per-bucket (non-cumulative) observation counts; the last
        #: entry is the ``+Inf`` overflow bucket.
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        #: The most recent observation recorded while a trace id was
        #: active: ``{"value": v, "trace_id": t}`` (None before one).
        self.exemplar: "dict | None" = None

    def observe(self, value: float) -> None:
        """Record one observation (and its trace-id exemplar, if any)."""
        value = float(value)
        index = bisect_left(self._bounds, value)
        trace_id = current_trace_id()
        with self._lock:
            self.bucket_counts[index] += 1
            self.sum += value
            self.count += 1
            if trace_id is not None:
                self.exemplar = {"value": value, "trace_id": trace_id}


class _Family:
    """Shared family machinery: label validation, series, the cap."""

    kind = "untyped"
    _series_type: type

    def __init__(self, name: str, help_text: str,
                 label_names: "tuple[str, ...]",
                 lock: threading.RLock,
                 cardinality_cap: int) -> None:
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self.cardinality_cap = cardinality_cap
        self.overflowed = 0
        self._lock = lock
        self._series: "dict[tuple[str, ...], Any]" = {}

    def _new_series(self):
        return self._series_type(self._lock)

    def labels(self, **values: str):
        """The series for one label-value set (created on first use).

        Label names must match the family's declared names exactly;
        values are coerced to ``str``.  Once the family holds
        :attr:`cardinality_cap` distinct series, any *new* label set
        collapses into the single :data:`OVERFLOW_LABEL` series (and
        :attr:`overflowed` counts the collapses) — bounded memory and
        scrape size by construction.
        """
        if set(values) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {sorted(self.label_names)}, "
                f"got {sorted(values)}")
        key = tuple(str(values[name]) for name in self.label_names)
        with self._lock:
            series = self._series.get(key)
            if series is not None:
                return series
            if len(self._series) >= self.cardinality_cap:
                self.overflowed += 1
                overflow_key = tuple(OVERFLOW_LABEL
                                     for __ in self.label_names)
                series = self._series.get(overflow_key)
                if series is None:
                    series = self._new_series()
                    self._series[overflow_key] = series
                return series
            series = self._new_series()
            self._series[key] = series
            return series

    def items(self) -> "list[tuple[dict[str, str], Any]]":
        """``(labels_dict, series)`` pairs, sorted by label values."""
        with self._lock:
            pairs = sorted(self._series.items())
        return [(dict(zip(self.label_names, key)), series)
                for key, series in pairs]


class Counter(_Family):
    """A monotonically increasing total (requests served, errors seen).

    An unlabelled family may call :meth:`inc` directly; every other
    verb goes through :meth:`~_Family.labels` first.
    """

    kind = "counter"
    _series_type = _CounterSeries

    def inc(self, value: float = 1.0) -> None:
        """Add ``value`` to the unlabelled series."""
        self.labels().inc(value)


class Gauge(_Family):
    """A level that moves both ways (queue depth, in-flight jobs, RSS).

    An unlabelled family may call :meth:`set` directly; every other
    verb goes through :meth:`~_Family.labels` first.
    """

    kind = "gauge"
    _series_type = _GaugeSeries

    def set(self, value: float) -> None:
        """Overwrite the unlabelled series' level."""
        self.labels().set(value)


class Histogram(_Family):
    """An observation distribution over fixed exponential buckets.

    Args:
        buckets: strictly increasing finite upper bounds (the ``+Inf``
            overflow bucket is implicit).  Defaults to
            :data:`DEFAULT_LATENCY_BUCKETS_S`.

    Each series keeps per-bucket counts, the sum and count of all
    observations, and an **exemplar**: the last observation recorded
    while a :func:`~repro.telemetry.recorder.current_trace_id` was
    active, linking the distribution back to one concrete traced
    request or shard.
    """

    kind = "histogram"
    _series_type = _HistogramSeries

    def __init__(self, name: str, help_text: str,
                 label_names: "tuple[str, ...]",
                 lock: threading.RLock, cardinality_cap: int,
                 buckets: "Sequence[float] | None" = None) -> None:
        super().__init__(name, help_text, label_names, lock,
                         cardinality_cap)
        bounds = tuple(float(b) for b in (
            buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS_S))
        if not bounds:
            raise ValueError(f"{name}: histogram needs >= 1 bucket")
        if any(not math.isfinite(b) for b in bounds):
            raise ValueError(
                f"{name}: buckets must be finite (+Inf is implicit)")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(
                f"{name}: buckets must be strictly increasing")
        self.buckets = bounds

    def _new_series(self) -> _HistogramSeries:
        return _HistogramSeries(self._lock, self.buckets)


class MetricsRegistry:
    """The process-wide home of every instrument family.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call registers the family, later calls with a matching signature
    return the same object, and a mismatched re-registration (same
    name, different type, labels or buckets) raises — silent aliasing
    is how dashboards lie.

    Thread-safe throughout (one registry lock shared with every
    series), so serve's thread pool, the asyncio loop and campaign
    shard code can all write concurrently.
    """

    enabled = True

    def __init__(self,
                 cardinality_cap: int = DEFAULT_CARDINALITY_CAP) -> None:
        """An empty registry with the given per-family label cap."""
        if cardinality_cap < 1:
            raise ValueError(
                f"cardinality_cap must be >= 1, got {cardinality_cap}")
        self.cardinality_cap = cardinality_cap
        self._lock = threading.RLock()
        self._families: "dict[str, _Family]" = {}

    def _register(self, kind: type, name: str, help_text: str,
                  labels: Iterable[str], **kwargs):
        if not _NAME_RE.match(name):
            raise ValueError(
                f"invalid metric name {name!r} (want "
                "[a-zA-Z_:][a-zA-Z0-9_:]*)")
        label_names = tuple(labels)
        for label in label_names:
            if not _LABEL_NAME_RE.match(label) \
                    or label.startswith("__"):
                raise ValueError(f"invalid label name {label!r}")
        if len(set(label_names)) != len(label_names):
            raise ValueError(f"duplicate label names {label_names}")
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if type(family) is not kind \
                        or family.label_names != label_names \
                        or kwargs.get("buckets") is not None \
                        and getattr(family, "buckets", None) \
                        != tuple(float(b) for b in kwargs["buckets"]):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}{family.label_names} and cannot "
                        "be re-registered with a different signature")
                return family
            family = kind(name, help_text, label_names, self._lock,
                          self.cardinality_cap, **kwargs)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labels: Iterable[str] = ()) -> Counter:
        """Get or create the :class:`Counter` family ``name``."""
        return self._register(Counter, name, help_text, labels)

    def gauge(self, name: str, help_text: str = "",
              labels: Iterable[str] = ()) -> Gauge:
        """Get or create the :class:`Gauge` family ``name``."""
        return self._register(Gauge, name, help_text, labels)

    def histogram(self, name: str, help_text: str = "",
                  labels: Iterable[str] = (),
                  buckets: "Sequence[float] | None" = None) -> Histogram:
        """Get or create the :class:`Histogram` family ``name``."""
        return self._register(Histogram, name, help_text, labels,
                              buckets=buckets)

    def families(self) -> "list[_Family]":
        """Every registered family, sorted by name."""
        with self._lock:
            return [self._families[name]
                    for name in sorted(self._families)]

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> dict:
        """The registry as a schema-versioned, JSON-clean dict.

        The cross-process wire format: campaign workers persist one
        snapshot per shard into the artifact store, and
        :func:`merge_snapshots` adds any number of them exactly.
        """
        instruments = {}
        for family in self.families():
            entry: "dict[str, Any]" = {
                "type": family.kind,
                "help": family.help,
                "label_names": list(family.label_names),
                "overflowed": family.overflowed,
            }
            if isinstance(family, Histogram):
                entry["buckets"] = list(family.buckets)
                entry["series"] = [
                    {"labels": labels,
                     "bucket_counts": list(series.bucket_counts),
                     "sum": series.sum, "count": series.count,
                     "exemplar": series.exemplar}
                    for labels, series in family.items()]
            else:
                entry["series"] = [
                    {"labels": labels, "value": series.value}
                    for labels, series in family.items()]
            instruments[family.name] = entry
        return {"metrics_schema_version": METRICS_SCHEMA_VERSION,
                "instruments": instruments}

    def merge_snapshot(self, snapshot: Mapping) -> None:
        """Fold one snapshot into this registry's live instruments.

        Counters and histogram buckets add, gauges keep the maximum —
        the same semantics as :func:`merge_snapshots`.  Used by the
        campaign runner to roll per-shard registries up into the
        process registry.
        """
        require_snapshot(snapshot)
        for name, entry in snapshot["instruments"].items():
            kind = entry["type"]
            label_names = tuple(entry["label_names"])
            if kind == "counter":
                family = self.counter(name, entry.get("help", ""),
                                      label_names)
                for row in entry["series"]:
                    family.labels(**row["labels"]).inc(row["value"])
            elif kind == "gauge":
                family = self.gauge(name, entry.get("help", ""),
                                    label_names)
                for row in entry["series"]:
                    series = family.labels(**row["labels"])
                    series.set(max(series.value, row["value"]))
            elif kind == "histogram":
                family = self.histogram(name, entry.get("help", ""),
                                        label_names,
                                        buckets=entry["buckets"])
                for row in entry["series"]:
                    series = family.labels(**row["labels"])
                    with self._lock:
                        for i, n in enumerate(row["bucket_counts"]):
                            series.bucket_counts[i] += int(n)
                        series.sum += row["sum"]
                        series.count += int(row["count"])
                        if row.get("exemplar") is not None:
                            series.exemplar = dict(row["exemplar"])
            else:
                raise ValueError(
                    f"snapshot instrument {name!r} has unknown type "
                    f"{kind!r}")

    # -- exposition ----------------------------------------------------

    def render_prometheus(self) -> str:
        """This registry in Prometheus text exposition format 0.0.4."""
        return render_prometheus(self.snapshot())


class NullMetricsRegistry(MetricsRegistry):
    """The disabled registry: every instrument is one shared no-op.

    ``counter``/``gauge``/``histogram`` validate nothing and return
    the same slotted series object whose methods are empty — code that
    does not branch on :attr:`enabled` still pays no allocation.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, help_text: str = "",
                labels: Iterable[str] = ()) -> Any:
        """The shared no-op instrument."""
        return _NULL_SERIES

    def gauge(self, name: str, help_text: str = "",
              labels: Iterable[str] = ()) -> Any:
        """The shared no-op instrument."""
        return _NULL_SERIES

    def histogram(self, name: str, help_text: str = "",
                  labels: Iterable[str] = (),
                  buckets: "Sequence[float] | None" = None) -> Any:
        """The shared no-op instrument."""
        return _NULL_SERIES


#: The process-wide disabled registry (the default active registry).
NULL_METRICS = NullMetricsRegistry()

_ACTIVE_METRICS: "MetricsRegistry | None" = None


def metrics_registry_from_env(
        environ: Mapping[str, str] | None = None) -> MetricsRegistry:
    """The registry the environment asks for.

    ``REPRO_METRICS`` or ``REPRO_TELEMETRY`` truthy yields a fresh
    enabled :class:`MetricsRegistry`; anything else yields
    :data:`NULL_METRICS`.
    """
    if metrics_env_enabled(environ):
        return MetricsRegistry()
    return NULL_METRICS


def get_metrics_registry() -> MetricsRegistry:
    """The process-local active registry.

    Lazily initialized from the environment on first call;
    :data:`NULL_METRICS` unless metrics were enabled.  Hot paths call
    this once per operation and branch on
    :attr:`MetricsRegistry.enabled`.
    """
    global _ACTIVE_METRICS
    if _ACTIVE_METRICS is None:
        _ACTIVE_METRICS = metrics_registry_from_env()
    return _ACTIVE_METRICS


def set_metrics_registry(
        registry: "MetricsRegistry | None") -> "MetricsRegistry | None":
    """Install ``registry`` as the process-local active registry.

    Args:
        registry: the new active registry, or None to fall back to
            lazy re-initialization from the environment on the next
            :func:`get_metrics_registry` call.

    Returns:
        The previously active registry (None if never initialized) —
        hand it back to ``set_metrics_registry`` to restore.
    """
    global _ACTIVE_METRICS
    previous = _ACTIVE_METRICS
    _ACTIVE_METRICS = registry
    return previous


# -- snapshot algebra --------------------------------------------------


def require_snapshot(snapshot: Mapping) -> Mapping:
    """Validate a snapshot envelope (returns it for chaining).

    Raises:
        ValueError: missing/mismatched ``metrics_schema_version`` or
            missing ``instruments`` mapping.
    """
    version = snapshot.get("metrics_schema_version")
    if version != METRICS_SCHEMA_VERSION:
        raise ValueError(
            f"snapshot has metrics schema version {version!r} (this "
            f"build reads version {METRICS_SCHEMA_VERSION})")
    if not isinstance(snapshot.get("instruments"), Mapping):
        raise ValueError("snapshot has no 'instruments' mapping")
    return snapshot


def merge_snapshots(snapshots: Iterable[Mapping]) -> dict:
    """Merge any number of registry snapshots into one.

    Counter values, histogram bucket counts/sums/counts and overflow
    tallies add exactly; gauges keep the maximum across sources (the
    peak — summing levels sampled at different instants would invent
    a number no process ever saw); histogram exemplars keep the last
    non-None one.  Families must agree on type, label names and
    buckets across snapshots.

    Returns:
        A snapshot dict of the same schema (empty instruments when
        ``snapshots`` is empty).
    """
    registry = MetricsRegistry(cardinality_cap=1 << 30)
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry.snapshot()


def histogram_quantile(bounds: Sequence[float],
                       bucket_counts: Sequence[int],
                       q: float) -> float:
    """Quantile estimate from per-bucket counts (``q`` in [0, 1]).

    Linear interpolation inside the owning bucket, the standard
    Prometheus ``histogram_quantile`` estimator; observations in the
    ``+Inf`` overflow bucket clamp to the largest finite bound.

    Args:
        bounds: finite upper bounds, strictly increasing.
        bucket_counts: non-cumulative counts, one per bound plus the
            overflow bucket (``len(bounds) + 1``).
        q: quantile in [0, 1].

    Raises:
        ValueError: on a count/bound length mismatch, ``q`` outside
            [0, 1], or zero total observations.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if len(bucket_counts) != len(bounds) + 1:
        raise ValueError(
            f"expected {len(bounds) + 1} bucket counts, "
            f"got {len(bucket_counts)}")
    total = sum(bucket_counts)
    if total <= 0:
        raise ValueError("histogram_quantile of an empty histogram")
    target = q * total
    cumulative = 0.0
    for index, count in enumerate(bucket_counts):
        cumulative += count
        if cumulative >= target and count > 0:
            upper = (bounds[index] if index < len(bounds)
                     else bounds[-1])
            if index >= len(bounds):
                return upper  # overflow bucket: clamp
            lower = bounds[index - 1] if index > 0 else 0.0
            fraction = (target - (cumulative - count)) / count
            return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
    return bounds[-1]


def snapshot_histogram_rows(snapshot: Mapping) -> list[dict]:
    """Flat per-series quantile rows for every histogram in a snapshot.

    Returns:
        One ``{"name", "labels", "count", "sum", "p50", "p95", "p99",
        "exemplar"}`` row per histogram series with observations,
        sorted by name then labels — the table ``campaign report``
        and ``telemetry summary`` render.
    """
    require_snapshot(snapshot)
    rows = []
    for name in sorted(snapshot["instruments"]):
        entry = snapshot["instruments"][name]
        if entry["type"] != "histogram":
            continue
        bounds = entry["buckets"]
        for series in entry["series"]:
            if not series["count"]:
                continue
            rows.append({
                "name": name,
                "labels": dict(series["labels"]),
                "count": int(series["count"]),
                "sum": float(series["sum"]),
                "p50": histogram_quantile(bounds,
                                          series["bucket_counts"], 0.50),
                "p95": histogram_quantile(bounds,
                                          series["bucket_counts"], 0.95),
                "p99": histogram_quantile(bounds,
                                          series["bucket_counts"], 0.99),
                "exemplar": series.get("exemplar"),
            })
    return rows


def histogram_table(snapshot: Mapping) -> list[str]:
    """:func:`snapshot_histogram_rows` as aligned text lines: a header
    and one count / p50 / p95 / p99 line per series, or no lines when
    no histogram has observations."""
    rows = snapshot_histogram_rows(snapshot)
    if not rows:
        return []
    lines = [f"  {'histogram':<44} {'count':>7} {'p50':>10} "
             f"{'p95':>10} {'p99':>10}"]
    for row in rows:
        label = row["name"] + _render_labels(row["labels"])
        lines.append(
            f"  {label:<44} {row['count']:>7d} "
            f"{row['p50'] * 1e3:>8.2f}ms {row['p95'] * 1e3:>8.2f}ms "
            f"{row['p99'] * 1e3:>8.2f}ms")
    return lines


def render_snapshot(snapshot: Mapping) -> str:
    """A snapshot as the aligned human table ``telemetry summary`` prints."""
    require_snapshot(snapshot)
    lines = ["metrics summary "
             f"(schema v{snapshot['metrics_schema_version']})"]
    lines.extend(histogram_table(snapshot))
    scalar_lines = []
    for name in sorted(snapshot["instruments"]):
        entry = snapshot["instruments"][name]
        if entry["type"] == "histogram":
            continue
        for series in entry["series"]:
            label = name + _render_labels(series["labels"])
            scalar_lines.append(
                f"  {entry['type']} {label} = "
                f"{format_metric_value(series['value'])}")
    lines.extend(scalar_lines)
    if len(lines) == 1:
        lines.append("  (no instruments recorded)")
    return "\n".join(lines)


# -- Prometheus exposition ---------------------------------------------


def render_prometheus(snapshot: Mapping) -> str:
    """A snapshot in Prometheus text exposition format 0.0.4.

    ``# HELP`` / ``# TYPE`` headers per family, one sample line per
    series (histograms expand into cumulative ``_bucket`` lines with
    ``le`` labels plus ``_sum`` / ``_count``), everything sorted so
    the output is byte-deterministic — the property the golden-format
    test pins.  Serve this with content type
    :data:`PROMETHEUS_CONTENT_TYPE`.
    """
    require_snapshot(snapshot)
    lines: list[str] = []
    for name in sorted(snapshot["instruments"]):
        entry = snapshot["instruments"][name]
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {entry['type']}")
        if entry["type"] == "histogram":
            bounds = entry["buckets"]
            for series in entry["series"]:
                labels = series["labels"]
                cumulative = 0
                for bound, count in zip(
                        list(bounds) + [math.inf],
                        series["bucket_counts"]):
                    cumulative += count
                    le = format_metric_value(bound)
                    lines.append(
                        f"{name}_bucket"
                        f"{_render_labels(labels, ('le', le))} "
                        f"{cumulative}")
                lines.append(f"{name}_sum{_render_labels(labels)} "
                             f"{format_metric_value(series['sum'])}")
                lines.append(f"{name}_count{_render_labels(labels)} "
                             f"{series['count']}")
        else:
            for series in entry["series"]:
                lines.append(
                    f"{name}{_render_labels(series['labels'])} "
                    f"{format_metric_value(series['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)"
    r"(?: (?P<timestamp>-?\d+))?$")

_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

_EXPOSITION_TYPES = frozenset(
    {"counter", "gauge", "histogram", "summary", "untyped"})


def _parse_exposition_value(text: str, where: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{where}: malformed sample value {text!r}") \
            from None


def parse_prometheus(text: str) -> list[dict]:
    """A strict line-format checker for text exposition format 0.0.4.

    Parses ``# HELP`` / ``# TYPE`` headers and sample lines, raising
    ``ValueError`` naming the offending line for anything malformed:
    bad metric or label syntax, unknown ``# TYPE``, values that are
    not valid floats, non-cumulative histogram ``_bucket`` series or a
    ``_count`` that disagrees with the ``+Inf`` bucket.  The checker
    behind the exposition golden tests and the CI scrape drill.

    Returns:
        One ``{"name", "labels", "value"}`` dict per sample line.
    """
    samples: list[dict] = []
    types: dict[str, str] = {}
    # (family, labels-minus-le) -> [(le, cumulative_value), ...]
    buckets: dict[tuple, list] = {}
    counts: dict[tuple, float] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        where = f"line {number}"
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                    raise ValueError(
                        f"{where}: malformed {parts[1]} comment: "
                        f"{line!r}")
                if parts[1] == "TYPE":
                    kind = parts[3].strip() if len(parts) > 3 else ""
                    if kind not in _EXPOSITION_TYPES:
                        raise ValueError(
                            f"{where}: unknown TYPE {kind!r} for "
                            f"{parts[2]}")
                    types[parts[2]] = kind
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"{where}: malformed sample line {line!r}")
        labels: dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            consumed = 0
            for pair in _LABEL_PAIR_RE.finditer(raw):
                labels[pair.group(1)] = pair.group(2)
                consumed = pair.end()
                if consumed < len(raw) and raw[consumed] == ",":
                    consumed += 1
            if consumed != len(raw):
                raise ValueError(
                    f"{where}: malformed label block {{{raw}}}")
        value = _parse_exposition_value(match.group("value"), where)
        name = match.group("name")
        samples.append({"name": name, "labels": labels, "value": value})
        for suffix in ("_bucket", "_sum", "_count"):
            family = name[: -len(suffix)]
            if name.endswith(suffix) \
                    and types.get(family) == "histogram":
                key_labels = tuple(sorted(
                    (k, v) for k, v in labels.items() if k != "le"))
                if suffix == "_bucket":
                    if "le" not in labels:
                        raise ValueError(
                            f"{where}: histogram bucket without an "
                            f"'le' label: {line!r}")
                    le = _parse_exposition_value(labels["le"],
                                                 where)
                    buckets.setdefault((family, key_labels),
                                       []).append((le, value))
                elif suffix == "_count":
                    counts[(family, key_labels)] = value
                break
    for (family, key_labels), series in buckets.items():
        bounds = [le for le, __ in series]
        values = [v for __, v in series]
        if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(
                f"histogram {family}: 'le' bounds not strictly "
                f"increasing: {bounds}")
        if bounds[-1] != math.inf:
            raise ValueError(
                f"histogram {family}: missing the '+Inf' bucket")
        if any(v2 < v1 for v1, v2 in zip(values, values[1:])):
            raise ValueError(
                f"histogram {family}: bucket values not cumulative: "
                f"{values}")
        count = counts.get((family, key_labels))
        if count is not None and count != values[-1]:
            raise ValueError(
                f"histogram {family}: _count {count} disagrees with "
                f"the +Inf bucket {values[-1]}")
    return samples


# -- runtime collectors ------------------------------------------------


def rss_bytes() -> float:
    """The process's current resident set size in bytes.

    Reads ``/proc/self/statm`` where available (Linux), falling back
    to the peak RSS from ``resource.getrusage`` elsewhere; 0.0 when
    neither source exists.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            pages = int(handle.read().split()[1])
        return float(pages * os.sysconf("SC_PAGE_SIZE"))
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return float(peak_kb) * 1024.0
    except (ImportError, OSError):
        return 0.0


def gc_collection_counts() -> tuple[int, ...]:
    """Cumulative garbage collections per generation (0, 1, 2)."""
    return tuple(stat["collections"] for stat in gc.get_stats())
