"""The sharded campaign runner: fan out, stream to disk, resume.

:func:`run_campaign` expands a :class:`~repro.campaigns.CampaignSpec`
into an :class:`~repro.campaigns.ArtifactStore` and drives every
``pending`` shard to ``done``/``failed``; :func:`resume_campaign`
reopens a store — typically one whose run was killed — requeues the
shards the dead run never finished and drives the rest.  Both return a
:class:`CampaignReport`.

The execution unit is :func:`execute_shard`: mark the shard
``running``, run its resolved scenario through the registered
workload (:func:`repro.scenarios.run_scenario` — so all four engine
workloads, and any later-registered one, shard identically), record
its ``summary_row()``.  Crucially the *worker writes its own row*:
results stream to disk as they finish, so a ``SIGKILL`` at any instant
loses at most the shards that were mid-flight — and those are exactly
the rows ``resume`` finds as ``running``/``pending`` and re-runs.
Because every shard scenario carries an explicit position-stable seed,
re-running a shard reproduces the identical result row, which makes a
killed-and-resumed campaign export byte-identical to an uninterrupted
one (the resume guarantee, gated in ``tests/campaigns/test_resume.py``
and ``benchmarks/bench_campaign.py``).

``workers > 1`` fans shards across a ``ProcessPoolExecutor``: each
worker opens one SQLite connection after the fork and writes every
shard it runs through it (WAL serializes the writes); ``workers=1``
runs the same :func:`execute_shard` loop in-process on one connection
for the batch — one code path, one crash model.  Holding the
connection changes no transaction: every write still commits on its
own.  It saves the store bookkeeping a close does when it is the last
connection (checkpoint the WAL, fsync, delete it) and the next open
redoes.
"""

from __future__ import annotations

import logging
import os
import random
import signal
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing.util import Finalize
from pathlib import Path

from repro.campaigns.spec import CampaignSpec
from repro.campaigns.store import ArtifactStore
from repro.scenarios.runner import (
    _exit_with_parent,
    fork_context,
    run_isolated,
)

#: Environment knob: artificial per-shard delay in seconds.  Exists for
#: crash drills — the kill/resume tests and the CI campaign smoke use
#: it to guarantee the SIGKILL lands mid-campaign — and is harmless
#: (default 0) in production runs.
THROTTLE_ENV = "REPRO_CAMPAIGN_THROTTLE_S"

#: Environment knob: base delay [s] of the shard-retry exponential
#: backoff (round ``r`` waits ``base * 2**(r-1)`` +- 50 % jitter).
#: Tests set it to 0 so retry rounds run immediately.
RETRY_BASE_ENV = "REPRO_CAMPAIGN_RETRY_BASE_S"

#: Default retry-backoff base delay [s] when the env knob is unset.
DEFAULT_RETRY_BASE_S = 0.5

#: Worker-path logger under the single ``repro`` root (wired to the
#: console by the CLI's ``--log-level`` / ``-v`` flags) — never bare
#: prints, so library embedders keep control of the output stream.
_LOG = logging.getLogger("repro.campaigns.runner")

#: The store connection this process holds across shards: a pool
#: worker's for its whole life, the in-process batch's for the batch.
#: None outside a dispatch, so a direct :func:`execute_shard` call
#: opens and closes its own.
_held: "ArtifactStore | None" = None


@dataclass(frozen=True)
class CampaignReport:
    """Outcome of one :func:`run_campaign` / :func:`resume_campaign` call.

    Attributes:
        name: campaign name (from the spec in the store manifest).
        store_path: the SQLite artifact store the run wrote to.
        workers: worker processes used (1 means in-process).
        n_shards: total shards in the campaign.
        n_executed: shards this call actually ran (a resume of an
            almost-finished campaign executes only the remainder).
        counts: final per-status shard counts
            (``pending``/``running``/``done``/``failed``).
        elapsed_s: wall-clock duration of this call.
    """

    name: str
    store_path: Path
    workers: int
    n_shards: int
    n_executed: int
    counts: dict[str, int]
    elapsed_s: float

    @property
    def throughput_shards_per_s(self) -> float:
        """Executed shards per wall-clock second of this call."""
        if self.elapsed_s <= 0.0:
            return float("inf")
        return self.n_executed / self.elapsed_s

    def summary(self) -> str:
        """One human-readable block: progress, throughput, store path."""
        return (
            f"campaign {self.name!r}: ran {self.n_executed} of "
            f"{self.n_shards} shards on {self.workers} worker(s) in "
            f"{self.elapsed_s:.2f} s "
            f"({self.throughput_shards_per_s:.1f} shards/s)\n"
            f"  done {self.counts['done']}, "
            f"failed {self.counts['failed']}, "
            f"pending {self.counts['pending']}\n"
            f"  store -> {self.store_path}")


def execute_shard(store_path: "str | Path",
                  shard_index: int) -> tuple[int, str]:
    """Run one shard against the store at ``store_path``.

    The worker entry point, also used verbatim by the in-process path:
    marks the shard ``running``, runs its stored scenario, records the
    ``summary_row()`` (or the failure).  Inside a dispatch it writes
    through the connection its process holds; called directly, it
    opens one for the shard and closes it after.  It holds write
    transactions only for the status flips, never across the engine
    run: each write commits on its own.  Every lifecycle transition
    also lands in the store's telemetry table (``running`` / ``done``
    / ``failed`` with the worker's pid and the shard duration), which
    is what ``python -m repro campaign {status,report}`` read back.

    Returns:
        ``(shard_index, final_status)`` with status ``"done"`` or
        ``"failed"`` — scenario failures are recorded as data, not
        raised, so one bad shard cannot take down a million-shard
        campaign.

    Every shard runs under its own freshly minted trace id
    (:func:`repro.telemetry.trace_context`): the id rides on the
    shard's spans, metric exemplars and log lines and is stamped into the
    ``done`` / ``failed`` / ``metrics`` telemetry payloads, so a slow
    or failing shard in ``campaign report`` can be chased into the
    Perfetto timeline.  ``failed`` payloads additionally carry the
    exception's ``error_class`` — the grouping key of the report's
    per-error-class retry-budget table.
    """
    if _held is not None and _held.path == Path(store_path):
        return _run_shard(_held, shard_index)
    with ArtifactStore.open(store_path) as store:
        return _run_shard(store, shard_index)


def _run_shard(store: ArtifactStore, shard_index: int) -> tuple[int, str]:
    """:func:`execute_shard` on an open store."""
    from repro.telemetry import (
        get_metrics_registry,
        get_recorder,
        new_trace_id,
        summarize_spans,
        trace_context,
    )

    worker = f"pid:{os.getpid()}"
    trace_id = new_trace_id()
    scenario = store.shard_scenario(shard_index)
    store.mark_running(shard_index)
    store.record_event("running", shard_index, worker=worker,
                       payload={"trace_id": trace_id})
    with trace_context(trace_id):  # also on the shard's log lines
        _LOG.info("shard %d running on %s", shard_index, worker)
        throttle = float(os.environ.get(THROTTLE_ENV, "0") or "0")
        if throttle > 0.0:
            time.sleep(throttle)
        recorder, registry = get_recorder(), get_metrics_registry()
        start = time.perf_counter()
        try:
            result, spans, metrics_snapshot = run_isolated(
                scenario, spans=recorder.enabled,
                metrics=registry.enabled)
            row = result.summary_row()
        except Exception as error:  # one shard's failure is campaign data
            elapsed = time.perf_counter() - start
            message = f"{type(error).__name__}: {error}"
            _LOG.warning("shard %d failed after %.2f s: %s",
                         shard_index, elapsed, message)
            store.record_failure(shard_index, message)
            store.record_event(
                "failed", shard_index, worker=worker,
                duration_s=elapsed,
                payload={"error_class": type(error).__name__,
                         "trace_id": trace_id})
            return shard_index, "failed"
        elapsed = time.perf_counter() - start
        _LOG.info("shard %d done in %.2f s", shard_index, elapsed)
    # The shard's private telemetry rolls up into this process: spans
    # reach any attached trace sink, metrics the process registry.
    for record in spans or ():
        recorder.record_span(record)
    if metrics_snapshot is not None:
        registry.merge_snapshot(metrics_snapshot)
    store.record_result(shard_index, row)
    store.record_event("done", shard_index, worker=worker,
                       duration_s=elapsed,
                       payload={"trace_id": trace_id})
    if spans is not None:
        store.record_event("spans", shard_index, worker=worker,
                           payload={"summary": summarize_spans(spans)})
    if metrics_snapshot is not None:
        store.record_event(
            "metrics", shard_index, worker=worker,
            payload={"trace_id": trace_id,
                     "snapshot": metrics_snapshot})
    return shard_index, "done"


@contextmanager
def _holding(store_path: Path):
    """Hold one store connection in this process for a batch."""
    global _held
    store = _held = ArtifactStore.open(store_path)
    try:
        yield
    finally:
        _held = None
        store.close()


def _hold_worker_store(store_path: str) -> None:
    """Pool initializer: open this worker's one store connection.

    Runs after the fork, so no SQLite handle crosses it.  The
    connection is closed when the worker exits: after the pool's
    shutdown, or once its parent has died (:func:`_exit_with_parent`).
    """
    global _held
    _held = ArtifactStore.open(store_path)
    Finalize(_held, _held.close, exitpriority=0)
    # An orphaned worker would hold its connection, and with it the
    # WAL file, forever.  Its SIGTERM closes the connection and exits;
    # a shard cut short this way rolls back any write in progress and
    # stays ``running`` for resume to re-run, as if it had been killed.
    signal.signal(signal.SIGTERM, _close_and_exit)
    _exit_with_parent()


def _close_and_exit(signum: int, frame) -> None:
    """``SIGTERM`` in a pool worker: close the held connection, exit.

    ``os._exit`` rather than ``SystemExit``, which the pool's worker
    loop would catch as the running shard's exception and carry on.
    """
    _held.close()
    os._exit(128 + signum)


def _dispatch(store_path: Path, indices: "tuple[int, ...]",
              workers: int) -> None:
    """Fan one batch of shard indices across the workers.

    Each worker process, or this process when the batch runs
    in-process, writes every shard it runs through one store
    connection.
    """
    if not indices:
        return
    if workers == 1 or len(indices) <= 1:
        with _holding(store_path):
            for index in indices:
                execute_shard(store_path, index)
        return
    # The parent's store connections are all closed by this point, so
    # no SQLite handle crosses the fork.
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=fork_context(),
                             initializer=_hold_worker_store,
                             initargs=(str(store_path),)) as pool:
        futures = [pool.submit(execute_shard, str(store_path), index)
                   for index in indices]
        for future in as_completed(futures):
            future.result()  # surface worker infrastructure errors


def _retry_backoff_s(round_index: int) -> float:
    """Jittered exponential backoff before retry round ``round_index``.

    ``base * 2**(round_index - 1)`` scaled by a uniform factor in
    [0.5, 1.5) — the jitter decorrelates retry storms when several
    campaigns share a host.  The base comes from
    :data:`RETRY_BASE_ENV` (tests set it to 0 for immediate retries).
    """
    base = float(os.environ.get(RETRY_BASE_ENV, "") or
                 DEFAULT_RETRY_BASE_S)
    return base * 2.0 ** (round_index - 1) * random.uniform(0.5, 1.5)


def _drive(store_path: Path, workers: int) -> CampaignReport:
    """Run every pending shard (retrying failures), assemble the report."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    with ArtifactStore.open(store_path) as store:
        indices = store.pending_indices()
        name = store.spec.name
        max_retries = store.spec.max_retries
        n_shards = store.n_shards()
    _LOG.info("campaign %r: driving %d pending of %d shards on %d "
              "worker(s)", name, len(indices), n_shards, workers)
    start = time.perf_counter()
    _dispatch(store_path, indices, workers)
    n_executed = len(indices)
    for round_index in range(1, max_retries + 1):
        with ArtifactStore.open(store_path) as store:
            failed = store.failed_indices()
        if not failed:
            break
        backoff = _retry_backoff_s(round_index)
        _LOG.warning(
            "campaign %r: retry %d/%d re-queues %d failed shard(s) "
            "after %.2f s backoff", name, round_index, max_retries,
            len(failed), backoff)
        if backoff > 0.0:
            time.sleep(backoff)
        with ArtifactStore.open(store_path) as store:
            store.reset_failed(failed, retry=round_index,
                               backoff_s=backoff)
        _dispatch(store_path, failed, workers)
        n_executed += len(failed)
    elapsed = time.perf_counter() - start
    with ArtifactStore.open(store_path) as store:
        counts = store.counts()
    return CampaignReport(
        name=name, store_path=Path(store_path), workers=workers,
        n_shards=n_shards, n_executed=n_executed, counts=counts,
        elapsed_s=elapsed)


def run_campaign(spec: CampaignSpec, store_path: "str | Path",
                 workers: int = 1) -> CampaignReport:
    """Expand a campaign into a new store and run every shard.

    Args:
        spec: the declarative campaign.
        store_path: where to create the SQLite artifact store (must not
            exist yet — an existing store is resumed, never silently
            overwritten).
        workers: worker processes; 1 runs in-process.

    Returns:
        The :class:`CampaignReport` (the store holds the full rows).
    """
    ArtifactStore.create(store_path, spec).close()
    return _drive(Path(store_path), workers)


def resume_campaign(store_path: "str | Path",
                    workers: int = 1) -> CampaignReport:
    """Pick a campaign up from its store after an interrupted run.

    Reopens the manifest, requeues shards the dead run left
    ``running``, runs everything still ``pending``, and skips ``done``
    shards entirely — their rows are already on disk.  Safe to call on
    a finished store (it executes nothing and reports the final
    counts).

    Returns:
        The :class:`CampaignReport` for the resumed portion.
    """
    with ArtifactStore.open(store_path) as store:
        requeued = store.reset_running()
    if requeued:
        _LOG.info("resume: requeued %d interrupted shard(s)", requeued)
    return _drive(Path(store_path), workers)
