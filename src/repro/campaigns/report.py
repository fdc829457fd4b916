"""Campaign telemetry reporting: stragglers, workers, slowest spans.

The read side of the artifact store's ``telemetry`` table.  The runner
records shard lifecycle events (``queued -> running -> done/failed``
with worker pid and duration) unconditionally, and span summaries when
the process recorder is enabled; this module turns those rows into

* :func:`shard_timings` — one start/duration/worker record per
  finished shard attempt;
* :func:`duration_stats` — count / p50 / p95 / min / max over the
  shard durations (the straggler view);
* :func:`worker_utilization` — per-worker shard counts, busy seconds
  and utilization over the campaign's wall-clock span;
* :func:`span_breakdown` — the merged slowest-span table across every
  shard that recorded spans;
* :func:`merged_metrics` — every shard's
  :class:`~repro.telemetry.MetricsRegistry` snapshot merged into one
  fleet-wide snapshot (cross-worker latency histograms);
* :func:`retry_budgets` — retry telemetry grouped by exception class:
  failures, retries consumed vs ``max_retries``, recovered shards;
* :func:`report_payload` — all of the above as one JSON-clean dict
  (the ``campaign report --json`` output);
* :func:`render_report` — the text block ``python -m repro campaign
  report`` prints;
* :func:`perfetto_trace` — a Chrome/Perfetto ``trace_event``
  timeline, one track per worker process, that
  :func:`~repro.telemetry.write_perfetto` writes to a file loadable
  as-is at https://ui.perfetto.dev.

Everything here reads wall-clock telemetry and is therefore strictly
outside the deterministic export surface: ``campaign export`` never
includes these rows, and two byte-identical exports may carry entirely
different telemetry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.campaigns.store import ArtifactStore
from repro.telemetry.aggregate import percentile
from repro.telemetry.metrics import (
    histogram_table,
    merge_snapshots,
    snapshot_histogram_rows,
)
from repro.telemetry.perfetto import (
    complete_event,
    process_name_event,
    thread_name_event,
)


@dataclass(frozen=True)
class ShardTiming:
    """One finished shard attempt on the campaign's wall-clock line.

    Attributes:
        shard_index: which shard ran.
        worker: the recording worker's identity (``pid:<n>``).
        started_wall_s: wall-clock start (``time.time`` seconds),
            back-computed as the terminal event's timestamp minus the
            measured duration so start and duration stay consistent.
        duration_s: measured shard duration (monotonic-clock based).
        status: terminal status, ``done`` or ``failed``.
    """

    shard_index: int
    worker: str | None
    started_wall_s: float
    duration_s: float
    status: str


def shard_timings(events: Iterable[Mapping]) -> list[ShardTiming]:
    """Extract one :class:`ShardTiming` per terminal telemetry event.

    Args:
        events: rows from
            :meth:`~repro.campaigns.ArtifactStore.telemetry_events`.

    Shards that were queued or interrupted but never finished have no
    terminal event and simply do not appear — the report reflects work
    actually completed.
    """
    timings = []
    for event in events:
        if event["event"] in ("done", "failed") \
                and event["duration_s"] is not None:
            timings.append(ShardTiming(
                shard_index=event["shard_index"],
                worker=event["worker"],
                started_wall_s=event["wall_s"] - event["duration_s"],
                duration_s=event["duration_s"],
                status=event["event"]))
    return timings


def duration_stats(timings: Iterable[ShardTiming]) -> dict | None:
    """Straggler statistics over finished-shard durations.

    Returns:
        ``{"count", "p50_s", "p95_s", "min_s", "max_s", "total_s"}``,
        or None when no shard has finished yet.
    """
    durations = [timing.duration_s for timing in timings]
    if not durations:
        return None
    return {
        "count": len(durations),
        "p50_s": percentile(durations, 0.50),
        "p95_s": percentile(durations, 0.95),
        "min_s": min(durations),
        "max_s": max(durations),
        "total_s": sum(durations),
    }


def worker_utilization(timings: Iterable[ShardTiming]) -> dict[str, dict]:
    """Per-worker shard counts, busy time, and utilization.

    Utilization is each worker's busy seconds divided by the
    campaign's overall wall-clock span (first shard start to last
    shard end) — on an evenly loaded pool every worker sits near 1.0,
    and a worker that went idle early (straggler imbalance) shows the
    gap directly.

    Returns:
        ``{worker: {"shards", "busy_s", "utilization"}}`` sorted by
        worker name; empty when nothing finished.
    """
    timings = list(timings)
    if not timings:
        return {}
    start = min(timing.started_wall_s for timing in timings)
    end = max(timing.started_wall_s + timing.duration_s
              for timing in timings)
    span = end - start
    table: dict[str, dict] = {}
    for timing in timings:
        worker = timing.worker or "?"
        row = table.setdefault(worker, {"shards": 0, "busy_s": 0.0})
        row["shards"] += 1
        row["busy_s"] += timing.duration_s
    for row in table.values():
        row["utilization"] = (row["busy_s"] / span if span > 0.0
                              else 1.0)
    return dict(sorted(table.items()))


def span_breakdown(events: Iterable[Mapping]) -> dict[str, dict]:
    """Merge every shard's span summary into one slowest-span table.

    Each ``spans`` telemetry event carries one shard's per-span-name
    ``{count, total_s, p50_s, p95_s}``; counts and totals add exactly
    across shards, and ``max_p95_s`` keeps the worst per-shard p95 as
    the tail indicator (per-shard percentiles cannot be merged into an
    exact campaign percentile without the raw durations).

    Returns:
        ``{span_name: {"count", "total_s", "mean_s", "max_p95_s"}}``
        sorted slowest-first by ``total_s``; empty when no shard
        recorded spans (telemetry was off in the workers).
    """
    merged: dict[str, dict] = {}
    for event in events:
        if event["event"] != "spans" or not event["payload"]:
            continue
        for name, stats in event["payload"].get("summary", {}).items():
            row = merged.setdefault(
                name, {"count": 0, "total_s": 0.0, "max_p95_s": 0.0})
            row["count"] += int(stats["count"])
            row["total_s"] += float(stats["total_s"])
            row["max_p95_s"] = max(row["max_p95_s"],
                                   float(stats["p95_s"]))
    for row in merged.values():
        row["mean_s"] = row["total_s"] / row["count"]
    return dict(sorted(merged.items(),
                       key=lambda item: -item[1]["total_s"]))


def merged_metrics(events: Iterable[Mapping]) -> dict | None:
    """Merge every shard's metrics snapshot into one fleet-wide view.

    Each ``metrics`` telemetry event carries one shard's
    :meth:`~repro.telemetry.MetricsRegistry.snapshot`;
    :func:`~repro.telemetry.merge_snapshots` adds them exactly
    (counter values and histogram buckets sum, gauges keep the max),
    so the campaign's ``repro_core_execute_seconds`` histogram is the
    true cross-worker latency distribution, not an average of
    averages.

    Returns:
        The merged snapshot dict, or None when no shard recorded
        metrics (the campaign ran without ``REPRO_METRICS=1``).
    """
    snapshots = [event["payload"]["snapshot"] for event in events
                 if event["event"] == "metrics" and event["payload"]
                 and event["payload"].get("snapshot")]
    if not snapshots:
        return None
    return merge_snapshots(snapshots)


def retry_budgets(events: Iterable[Mapping],
                  max_retries: int) -> dict[str, dict]:
    """Group the retry telemetry by exception class.

    For every ``failed`` event (whose payload carries the raising
    exception's ``error_class`` since telemetry schema v2), counts the
    class's total failures and distinct shards, how many of those
    failures were re-queued by a retry round (a later ``queued`` event
    with a ``retry`` payload on the same shard), the worst per-shard
    retry consumption against the campaign's ``max_retries`` budget,
    and how many of the class's shards ultimately recovered (final
    terminal event ``done``).

    Args:
        events: rows from
            :meth:`~repro.campaigns.ArtifactStore.telemetry_events`.
        max_retries: the campaign's per-shard retry budget
            (:attr:`~repro.campaigns.CampaignSpec.max_retries`).

    Returns:
        ``{error_class: {"failures", "shards", "retries_used",
        "max_retries_used", "max_retries", "recovered_shards"}}``
        sorted by descending failures; empty when nothing failed.
        Pre-v2 ``failed`` events without a payload group under
        ``"unknown"``.
    """
    per_shard: dict[int, list] = {}
    for event in events:
        if event["shard_index"] is not None:
            per_shard.setdefault(event["shard_index"], []).append(event)
    table: dict[str, dict] = {}
    for shard, rows in per_shard.items():
        terminal = [row for row in rows
                    if row["event"] in ("done", "failed")]
        recovered = bool(terminal) and terminal[-1]["event"] == "done"
        shard_classes: dict[str, int] = {}
        for position, event in enumerate(rows):
            if event["event"] != "failed":
                continue
            error_class = ((event["payload"] or {})
                           .get("error_class", "unknown"))
            requeued = any(
                later["event"] == "queued" and later["payload"]
                and "retry" in later["payload"]
                for later in rows[position + 1:])
            row = table.setdefault(error_class, {
                "failures": 0, "shards": set(), "retries_used": 0,
                "max_retries_used": 0, "max_retries": max_retries,
                "recovered_shards": set()})
            row["failures"] += 1
            row["shards"].add(shard)
            if requeued:
                row["retries_used"] += 1
                shard_classes[error_class] = \
                    shard_classes.get(error_class, 0) + 1
            if recovered:
                row["recovered_shards"].add(shard)
        for error_class, used in shard_classes.items():
            table[error_class]["max_retries_used"] = max(
                table[error_class]["max_retries_used"], used)
    result = {}
    for error_class, row in sorted(table.items(),
                                   key=lambda item:
                                   (-item[1]["failures"], item[0])):
        result[error_class] = {
            "failures": row["failures"],
            "shards": len(row["shards"]),
            "retries_used": row["retries_used"],
            "max_retries_used": row["max_retries_used"],
            "max_retries": row["max_retries"],
            "recovered_shards": len(row["recovered_shards"]),
        }
    return result


def report_payload(store: ArtifactStore) -> dict:
    """The full campaign report as one JSON-clean dict.

    The machine-readable mirror of :func:`render_report` — the exact
    payload ``python -m repro campaign report --json`` prints:
    identity (name, workload, store path, spec hash), per-status
    counts, shard-duration statistics, throughput, per-worker
    utilization, the merged span breakdown, per-error-class
    :func:`retry_budgets`, and the fleet-wide :func:`merged_metrics`
    snapshot with its derived histogram quantile rows.
    """
    events = store.telemetry_events()
    timings = shard_timings(events)
    metrics = merged_metrics(events)
    return {
        "campaign": store.spec.name,
        "workload": store.workload,
        "store": str(store.path),
        "spec_hash": store.spec_hash,
        "n_shards": store.n_shards(),
        "counts": store.counts(),
        "duration_stats": duration_stats(timings),
        "completion_rate_per_s": store.completion_rate_per_s(),
        "workers": worker_utilization(timings),
        "spans": span_breakdown(events),
        "retry_budgets": retry_budgets(events,
                                       store.spec.max_retries),
        "metrics": metrics,
        "metric_histograms": (snapshot_histogram_rows(metrics)
                              if metrics is not None else []),
    }


def render_report(store: ArtifactStore) -> str:
    """The full ``campaign report`` text block for one store.

    Status header, per-shard duration percentiles, throughput,
    per-worker utilization, and the merged slowest-span breakdown
    (with a pointer to ``REPRO_TELEMETRY=1`` when no worker recorded
    spans).
    """
    events = store.telemetry_events()
    timings = shard_timings(events)
    lines = [store.status_summary(), ""]
    stats = duration_stats(timings)
    if stats is None:
        lines.append("no finished shards yet — run or resume the "
                     "campaign first")
        return "\n".join(lines)
    lines.append(
        f"shard durations ({stats['count']} finished): "
        f"p50 {stats['p50_s'] * 1e3:.0f} ms, "
        f"p95 {stats['p95_s'] * 1e3:.0f} ms, "
        f"min {stats['min_s'] * 1e3:.0f} ms, "
        f"max {stats['max_s'] * 1e3:.0f} ms")
    rate = store.completion_rate_per_s()
    if rate is not None:
        lines.append(f"throughput: {rate * 60.0:.1f} shards/min")
    workers = worker_utilization(timings)
    lines.append(f"workers ({len(workers)}):")
    for worker, row in workers.items():
        lines.append(
            f"  {worker:<12} {row['shards']:>4} shards  "
            f"{row['busy_s']:>8.2f} s busy  "
            f"{100.0 * row['utilization']:>5.1f} % utilized")
    spans = span_breakdown(events)
    if spans:
        lines.append("slowest spans (all shards):")
        lines.append(f"  {'span':<28} {'count':>7} {'total':>10} "
                     f"{'mean':>10} {'max p95':>10}")
        for name, row in spans.items():
            lines.append(
                f"  {name:<28} {row['count']:>7d} "
                f"{row['total_s'] * 1e3:>8.1f}ms "
                f"{row['mean_s'] * 1e3:>8.2f}ms "
                f"{row['max_p95_s'] * 1e3:>8.2f}ms")
    else:
        lines.append("no span telemetry recorded — run the campaign "
                     "with REPRO_TELEMETRY=1 for a span breakdown")
    budgets = retry_budgets(events, store.spec.max_retries)
    if budgets:
        lines.append(
            f"retry budgets (max_retries={store.spec.max_retries}):")
        lines.append(f"  {'error class':<24} {'failures':>8} "
                     f"{'shards':>6} {'retries':>10} {'recovered':>9}")
        for error_class, row in budgets.items():
            lines.append(
                f"  {error_class:<24} {row['failures']:>8d} "
                f"{row['shards']:>6d} "
                f"{row['max_retries_used']:>6d}/{row['max_retries']:<3d}"
                f" {row['recovered_shards']:>8d}")
    metrics = merged_metrics(events)
    if metrics is not None:
        histograms = histogram_table(metrics)
        if histograms:
            lines.append("fleet-wide latency histograms (all workers):")
            lines.extend(histograms)
    else:
        lines.append("no metrics snapshots recorded — run the campaign "
                     "with REPRO_METRICS=1 for fleet-wide histograms")
    return "\n".join(lines)


def perfetto_trace(store: ArtifactStore) -> dict:
    """The campaign's shard timeline as a Perfetto ``trace_event`` dict.

    One process (the campaign), one track per worker, one complete
    event per finished shard; failed shards carry ``args.status`` so
    they stand out in the UI.  Timestamps are normalized so the first
    shard starts at 0 — the trace is a relative timeline, not a
    wall-clock artifact.
    """
    events = store.telemetry_events()
    timings = shard_timings(events)
    name = f"campaign {store.spec.name}"
    trace_events = [process_name_event(1, name)]
    workers = sorted({timing.worker or "?" for timing in timings})
    tids = {worker: tid for tid, worker in enumerate(workers, start=1)}
    for worker, tid in tids.items():
        trace_events.append(thread_name_event(1, tid, worker))
    if timings:
        t0 = min(timing.started_wall_s for timing in timings)
        for timing in timings:
            trace_events.append(complete_event(
                f"shard {timing.shard_index}",
                timing.started_wall_s - t0, timing.duration_s,
                pid=1, tid=tids[timing.worker or "?"],
                args={"shard": timing.shard_index,
                      "status": timing.status}))
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}
