"""The on-disk campaign artifact store: SQLite manifest + result rows.

One store file is one campaign: a ``meta`` table holding the manifest
(store schema version, the full :class:`~repro.campaigns.CampaignSpec`
JSON, its hash, the engine version) and a ``shards`` table with one row
per shard — the resolved scenario JSON, its seed, a lifecycle
``status`` (``pending -> running -> done | failed``) and, once done,
the shard's ``summary_row()`` result as JSON.

The store is built to survive exactly the failure the campaign runner
is built around — a worker or the whole run being killed mid-shard:

* **WAL journal mode** keeps the file consistent across ``SIGKILL``
  (an interrupted transaction rolls back on the next open) and lets
  concurrent worker processes write result rows while readers poll
  status (exercised in ``tests/campaigns/test_store.py``).
* **Schema versioning**: :meth:`ArtifactStore.open` refuses a store
  written by a different schema with a clear error instead of
  misreading it, mirroring :class:`~repro.scenarios.Scenario`.
* **Deterministic export**: :meth:`ArtifactStore.export_json` contains
  only replay-stable fields (never wall-clock durations), so an
  interrupted-then-resumed campaign exports byte-identically to an
  uninterrupted one — the resume guarantee the tests gate on.
"""

from __future__ import annotations

import json
import sqlite3
import time
from pathlib import Path
from typing import Any, Mapping

from repro.campaigns.spec import CampaignSpec
from repro.scenarios.spec import Scenario

#: Version stamp of the on-disk SQLite layout.  Bump on any table /
#: column change; ``ArtifactStore.open`` rejects mismatches.
#: v2 added the ``telemetry`` event table; v3 widened its event CHECK
#: to admit ``metrics`` rows (per-shard registry snapshots); v4 dropped
#: the unread ``shards.elapsed_s`` column and the separate telemetry
#: version stamp (this one covers the telemetry rows too).
STORE_SCHEMA_VERSION = 4

#: Legal shard lifecycle states, in order.
SHARD_STATUSES = ("pending", "running", "done", "failed")

#: Legal telemetry event kinds: the shard lifecycle transitions plus
#: ``spans`` (a finished shard's span-summary payload, recorded when
#: the worker ran with telemetry enabled) and ``metrics`` (the shard's
#: :meth:`~repro.telemetry.MetricsRegistry.snapshot`, recorded when it
#: ran with metrics enabled — ``campaign report`` and ``telemetry
#: summary`` merge these into fleet-wide histograms).
TELEMETRY_EVENTS = ("queued", "running", "done", "failed", "spans",
                    "metrics")

_SCHEMA = """
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE shards (
    shard_index INTEGER PRIMARY KEY,
    seed        INTEGER NOT NULL,
    scenario    TEXT    NOT NULL,
    status      TEXT    NOT NULL DEFAULT 'pending'
                CHECK (status IN ('pending', 'running', 'done', 'failed')),
    result      TEXT,
    error       TEXT
);
CREATE TABLE telemetry (
    event_id    INTEGER PRIMARY KEY AUTOINCREMENT,
    shard_index INTEGER,
    event       TEXT NOT NULL
                CHECK (event IN
                       ('queued', 'running', 'done', 'failed', 'spans',
                        'metrics')),
    worker      TEXT,
    wall_s      REAL NOT NULL,
    duration_s  REAL,
    payload     TEXT
);
"""


def _connect(path: Path, readonly: bool = False) -> sqlite3.Connection:
    """Open a connection with the store's pragmas applied.

    WAL + a generous busy timeout is what lets many worker processes
    append result rows to one file: writers serialize on the WAL lock
    (retrying for up to 30 s instead of failing) while readers keep
    reading a consistent snapshot.
    """
    if readonly:
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True,
                               timeout=30.0)
    else:
        conn = sqlite3.connect(path, timeout=30.0)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
    conn.row_factory = sqlite3.Row
    return conn


class ArtifactStore:
    """One campaign's persistent manifest and per-shard result rows.

    Construct through :meth:`create` (new store for a spec) or
    :meth:`open` (existing store, schema-checked); instances are
    context managers that close their connection on exit.  All writes
    are single-row, single-transaction updates, so any number of
    processes holding their own ``ArtifactStore`` on the same path can
    work one campaign concurrently.
    """

    def __init__(self, path: "str | Path",
                 connection: sqlite3.Connection) -> None:
        """Wrap an open, schema-valid connection (use create/open)."""
        self.path = Path(path)
        self._conn = connection

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def create(cls, path: "str | Path",
               spec: CampaignSpec) -> "ArtifactStore":
        """Initialize a new store for ``spec`` (fails if ``path`` exists).

        Expands the campaign into its shard rows up front — resolved
        scenario JSON plus derived seed, all ``pending`` — and writes
        the manifest, so a resume never needs the original spec file.
        """
        target = Path(path)
        if target.exists():
            raise FileExistsError(
                f"{target} already exists; resume it with "
                f"'python -m repro campaign resume {target}' or pick "
                "a new path")
        target.parent.mkdir(parents=True, exist_ok=True)
        conn = _connect(target)
        with conn:
            conn.executescript(_SCHEMA)
            import repro
            manifest = {
                "store_schema_version": str(STORE_SCHEMA_VERSION),
                "campaign": spec.to_json(indent=0),
                "spec_hash": spec.spec_hash(),
                "workload": spec.base.workload,
                "engine_version": repro.__version__,
            }
            conn.executemany(
                "INSERT INTO meta (key, value) VALUES (?, ?)",
                sorted(manifest.items()))
            conn.executemany(
                "INSERT INTO shards (shard_index, seed, scenario) "
                "VALUES (?, ?, ?)",
                [(index, shard.seed, shard.to_json(indent=0))
                 for index, shard in enumerate(spec.shards())])
            queued_at = time.time()
            conn.executemany(
                "INSERT INTO telemetry (shard_index, event, wall_s) "
                "VALUES (?, 'queued', ?)",
                [(index, queued_at) for index in range(spec.n_shards)])
        return cls(target, conn)

    @classmethod
    def open(cls, path: "str | Path",
             readonly: bool = False) -> "ArtifactStore":
        """Open an existing store, validating its schema version.

        Args:
            path: the SQLite file written by :meth:`create`.
            readonly: open with SQLite's read-only URI mode — safe for
                polling status while another process writes.  Such a
                handle creates the ``-wal`` and ``-shm`` files when
                they are missing and cannot remove them on close, so
                the command line's read commands use a read-write
                handle that only reads.

        Raises:
            FileNotFoundError: no store at ``path``.
            ValueError: the file is not a campaign store, or was
                written by a different ``STORE_SCHEMA_VERSION``.
        """
        target = Path(path)
        if not target.is_file():
            raise FileNotFoundError(f"no campaign store at {target}")
        conn = None
        try:
            conn = _connect(target, readonly=readonly)
            row = conn.execute(
                "SELECT value FROM meta WHERE key = ?",
                ("store_schema_version",)).fetchone()
        except sqlite3.DatabaseError as error:
            if conn is not None:
                conn.close()
            raise ValueError(
                f"{target} is not a campaign store: {error}") from None
        if row is None:
            conn.close()
            raise ValueError(
                f"{target} has no store_schema_version manifest entry")
        version = row["value"]
        if version != str(STORE_SCHEMA_VERSION):
            conn.close()
            raise ValueError(
                f"{target} was written with store schema version "
                f"{version} (this build reads version "
                f"{STORE_SCHEMA_VERSION}); re-run the campaign or use "
                "a matching repro version to read it")
        return cls(target, conn)

    def close(self) -> None:
        """Close the underlying connection."""
        self._conn.close()

    def __enter__(self) -> "ArtifactStore":
        """Context-manager entry: the store itself."""
        return self

    def __exit__(self, *exc_info) -> None:
        """Context-manager exit: close the connection."""
        self.close()

    # -- manifest ------------------------------------------------------

    def meta(self, key: str) -> str:
        """One manifest value (KeyError naming the missing key)."""
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        if row is None:
            raise KeyError(f"no manifest entry {key!r} in {self.path}")
        return row["value"]

    @property
    def spec(self) -> CampaignSpec:
        """The campaign spec this store was created from."""
        return CampaignSpec.from_json(self.meta("campaign"))

    @property
    def spec_hash(self) -> str:
        """The creating spec's :meth:`CampaignSpec.spec_hash`."""
        return self.meta("spec_hash")

    @property
    def workload(self) -> str:
        """The campaign's workload name (one per campaign)."""
        return self.meta("workload")

    # -- shard state ---------------------------------------------------

    def n_shards(self) -> int:
        """Total shard rows in the store."""
        return int(self._conn.execute(
            "SELECT COUNT(*) AS n FROM shards").fetchone()["n"])

    def shard_scenario(self, index: int) -> Scenario:
        """Shard ``index``'s resolved, replayable scenario."""
        row = self._conn.execute(
            "SELECT scenario FROM shards WHERE shard_index = ?",
            (index,)).fetchone()
        if row is None:
            raise KeyError(f"no shard {index} in {self.path}")
        return Scenario.from_json(row["scenario"])

    def counts(self) -> dict[str, int]:
        """Shard counts per status (every status present, 0 included)."""
        counts = dict.fromkeys(SHARD_STATUSES, 0)
        for row in self._conn.execute(
                "SELECT status, COUNT(*) AS n FROM shards "
                "GROUP BY status"):
            counts[row["status"]] = int(row["n"])
        return counts

    def pending_indices(self) -> tuple[int, ...]:
        """Indices still to run (status ``pending``), ascending."""
        return tuple(row["shard_index"] for row in self._conn.execute(
            "SELECT shard_index FROM shards WHERE status = 'pending' "
            "ORDER BY shard_index"))

    def failed_indices(self) -> tuple[int, ...]:
        """Indices whose execution raised (status ``failed``), ascending."""
        return tuple(row["shard_index"] for row in self._conn.execute(
            "SELECT shard_index FROM shards WHERE status = 'failed' "
            "ORDER BY shard_index"))

    def mark_running(self, index: int) -> None:
        """Transition shard ``index`` to ``running``."""
        with self._conn:
            self._conn.execute(
                "UPDATE shards SET status = 'running' "
                "WHERE shard_index = ?", (index,))

    def record_result(self, index: int,
                      summary_row: Mapping[str, Any]) -> None:
        """Mark shard ``index`` ``done`` with its result row.

        Args:
            index: shard index.
            summary_row: the shard result's flat
                :meth:`~repro.scenarios.ResultProtocol.summary_row`.
        """
        payload = json.dumps(dict(summary_row), sort_keys=True,
                             allow_nan=False)
        with self._conn:
            self._conn.execute(
                "UPDATE shards SET status = 'done', result = ?, "
                "error = NULL WHERE shard_index = ?", (payload, index))

    def record_failure(self, index: int, message: str) -> None:
        """Mark shard ``index`` ``failed`` with its error message."""
        with self._conn:
            self._conn.execute(
                "UPDATE shards SET status = 'failed', error = ?, "
                "result = NULL WHERE shard_index = ?", (message, index))

    def reset_running(self) -> int:
        """Reset interrupted (``running``) shards to ``pending``.

        A row can only be ``running`` while its worker is alive; on
        resume, any ``running`` row is a shard the killed run never
        finished, so it goes back in the queue.  Returns the number of
        rows reset.
        """
        with self._conn:
            cursor = self._conn.execute(
                "SELECT shard_index FROM shards WHERE status = 'running'")
            interrupted = [row["shard_index"] for row in cursor]
            self._conn.execute(
                "UPDATE shards SET status = 'pending' "
                "WHERE status = 'running'")
            requeued_at = time.time()
            self._conn.executemany(
                "INSERT INTO telemetry (shard_index, event, wall_s) "
                "VALUES (?, 'queued', ?)",
                [(index, requeued_at) for index in interrupted])
            return len(interrupted)

    def reset_failed(self, indices: "tuple[int, ...] | list[int]",
                     retry: int, backoff_s: float) -> int:
        """Re-queue failed shards for retry round ``retry``.

        Flips each listed ``failed`` row back to ``pending`` (clearing
        its error) and records a ``queued`` telemetry event carrying
        the retry round and the backoff that preceded it — the audit
        trail ``campaign report`` and the retry tests read.  Returns
        the number of rows re-queued.
        """
        requeued = 0
        with self._conn:
            requeued_at = time.time()
            for index in indices:
                cursor = self._conn.execute(
                    "UPDATE shards SET status = 'pending', "
                    "error = NULL WHERE shard_index = ? "
                    "AND status = 'failed'", (index,))
                if cursor.rowcount:
                    requeued += 1
                    self._conn.execute(
                        "INSERT INTO telemetry "
                        "(shard_index, event, wall_s, payload) "
                        "VALUES (?, 'queued', ?, ?)",
                        (index, requeued_at, json.dumps(
                            {"retry": retry, "backoff_s": backoff_s},
                            sort_keys=True)))
        return requeued

    # -- telemetry -----------------------------------------------------

    def record_event(self, event: str, shard_index: int | None = None,
                     worker: str | None = None,
                     duration_s: float | None = None,
                     payload: Mapping[str, Any] | None = None) -> None:
        """Append one telemetry event row.

        Args:
            event: one of :data:`TELEMETRY_EVENTS`.
            shard_index: the shard the event concerns (None for
                campaign-level events).
            worker: worker identity (the runner uses ``pid:<n>``).
            duration_s: wall-clock duration for terminal events.
            payload: JSON-serializable extra data (``spans`` events
                carry the shard's span summary here).

        Telemetry rows are wall-clock by nature and therefore **never**
        part of :meth:`export_json` — the deterministic export stays
        byte-identical whether or not a run was instrumented.
        """
        if event not in TELEMETRY_EVENTS:
            raise ValueError(
                f"unknown telemetry event {event!r}; expected one of "
                f"{TELEMETRY_EVENTS}")
        encoded = (json.dumps(payload, sort_keys=True)
                   if payload is not None else None)
        with self._conn:
            self._conn.execute(
                "INSERT INTO telemetry "
                "(shard_index, event, worker, wall_s, duration_s, "
                "payload) VALUES (?, ?, ?, ?, ?, ?)",
                (shard_index, event, worker, time.time(), duration_s,
                 encoded))

    def telemetry_events(self) -> list[dict]:
        """All telemetry rows as dicts, in recording order.

        Each row carries ``shard_index``, ``event``, ``worker``,
        ``wall_s``, ``duration_s`` and the decoded ``payload`` (or
        None).
        """
        rows = []
        for row in self._conn.execute(
                "SELECT shard_index, event, worker, wall_s, duration_s, "
                "payload FROM telemetry ORDER BY event_id"):
            rows.append({
                "shard_index": (int(row["shard_index"])
                                if row["shard_index"] is not None
                                else None),
                "event": row["event"],
                "worker": row["worker"],
                "wall_s": float(row["wall_s"]),
                "duration_s": (float(row["duration_s"])
                               if row["duration_s"] is not None
                               else None),
                "payload": (json.loads(row["payload"])
                            if row["payload"] is not None else None),
            })
        return rows

    def completion_rate_per_s(self) -> float | None:
        """Finished shards per second, from telemetry timestamps.

        The rate behind ``campaign status``'s throughput and ETA
        columns: terminal events (``done``/``failed``) per second of
        wall time from the first ``running`` event to the last terminal
        one, so N shards that finish together T seconds after the
        campaign started read N/T.  None until a shard has finished.
        """
        start, finished, last = self._conn.execute(
            "SELECT MIN(CASE WHEN event = 'running' THEN wall_s END), "
            "SUM(event IN ('done', 'failed')), "
            "MAX(CASE WHEN event IN ('done', 'failed') THEN wall_s END) "
            "FROM telemetry").fetchone()
        if not finished or start is None or last <= start:
            return None
        return finished / (last - start)

    # -- export --------------------------------------------------------

    def export_rows(self) -> list[dict]:
        """All shard rows as plain dicts, ascending by index.

        Each row carries ``shard_index``, ``seed``, ``status``, the
        resolved ``scenario`` dict, the ``result`` summary row (or
        ``None``) and the ``error`` message (or ``None``).  Wall-clock
        fields are excluded: the export of a resumed campaign must be
        byte-identical to an uninterrupted run's.
        """
        rows = []
        for row in self._conn.execute(
                "SELECT shard_index, seed, status, scenario, result, "
                "error FROM shards ORDER BY shard_index"):
            rows.append({
                "shard_index": int(row["shard_index"]),
                "seed": int(row["seed"]),
                "status": row["status"],
                "scenario": json.loads(row["scenario"]),
                "result": (json.loads(row["result"])
                           if row["result"] is not None else None),
                "error": row["error"],
            })
        return rows

    def export_json(self, indent: int = 2) -> str:
        """The canonical campaign export: manifest + all shard rows.

        Deterministic by construction (sorted keys, no timestamps or
        durations): two stores holding the same campaign state export
        the same bytes — the comparison surface of the crash/resume
        gates in ``tests/campaigns/test_resume.py`` and
        ``benchmarks/bench_campaign.py``.
        """
        payload = {
            "store_schema_version": STORE_SCHEMA_VERSION,
            "spec_hash": self.spec_hash,
            "campaign": self.spec.to_dict(),
            "shards": self.export_rows(),
        }
        return json.dumps(payload, indent=indent, sort_keys=True,
                          allow_nan=False) + "\n"

    def status_summary(self) -> str:
        """One human-readable block: campaign, progress, counts, rate.

        The throughput and ETA lines are the telemetry table's first
        consumer: shards/min comes from the wall-clock spacing of the
        recorded ``done``/``failed`` events, and the ETA divides the
        outstanding shard count by that rate.  Both degrade gracefully
        — fewer than two finished shards means no rate, and a finished
        campaign shows no ETA.
        """
        counts = self.counts()
        total = self.n_shards()
        spec = self.spec
        lines = [
            f"campaign {spec.name!r} ({self.workload}, {total} shards, "
            f"seed {spec.seed})",
            f"store {self.path} "
            f"[schema v{self.meta('store_schema_version')}, "
            f"spec {self.spec_hash[:12]}]",
            "  " + "  ".join(f"{status}: {counts[status]}"
                             for status in SHARD_STATUSES),
        ]
        done = counts["done"] + counts["failed"]
        lines.append(f"  progress: {done}/{total} "
                     f"({100.0 * done / total:.0f} %)")
        rate = self.completion_rate_per_s()
        remaining = counts["pending"] + counts["running"]
        if rate is not None:
            lines.append(f"  throughput: {rate * 60.0:.1f} shards/min")
            if remaining:
                lines.append(f"  eta: {remaining / rate:.0f} s "
                             f"({remaining} shards remaining)")
        elif remaining:
            lines.append("  throughput: n/a (no finished shards)")
        return "\n".join(lines)
