"""Population-scale campaigns: sharded, resumable, SQLite-backed.

The scenario layer (:mod:`repro.scenarios`) made one engine run a
declarative, replayable JSON artifact.  This package scales that
artifact to populations:

* :class:`CampaignSpec` — a schema-versioned spec that fans one base
  scenario into ``n_shards`` virtual-patient shards, each with an
  independent, *position-stable* ``SeedSequence``-derived seed (shard
  ``i``'s seed never depends on shard order, worker count or
  ``n_shards``);
* :class:`ArtifactStore` — the on-disk SQLite store (WAL mode, schema
  versioned like :class:`~repro.scenarios.Scenario`) holding the
  campaign manifest plus one streamed ``summary_row()`` result row per
  shard;
* :func:`run_campaign` / :func:`resume_campaign` — the shard runner:
  ``ProcessPoolExecutor`` fan-out (``workers > 1``) or the identical
  in-process loop (``workers=1``), with every worker writing its own
  rows so results hit disk as they finish;
* the ``python -m repro campaign {run,status,resume,export,report}``
  command line (:mod:`repro.campaigns.cli`);
* shard-lifecycle telemetry — the runner records every
  ``queued -> running -> done/failed`` transition (worker pid,
  duration) into the store's schema-versioned ``telemetry`` table, and
  :mod:`repro.campaigns.report` renders straggler percentiles, worker
  utilization, the merged slowest-span breakdown and a
  Perfetto-loadable shard timeline from it.  Telemetry is wall-clock
  and never part of the deterministic export.

The design center is **crash-safe resumability**: a campaign killed at
any instant — ``SIGKILL`` mid-shard included — reopens from its store,
skips ``done`` shards, re-runs ``pending``/``running`` ones, and
produces a byte-identical export to an uninterrupted run (gated in
``tests/campaigns/test_resume.py`` and ``benchmarks/bench_campaign.py``).
Any registered workload shards this way — all four engine workloads
work out of the box, and a fifth inherits campaigns for free.

Quickstart::

    from repro.campaigns import CampaignSpec, run_campaign
    from repro.scenarios import Scenario

    spec = CampaignSpec(
        name="glucose-fleet", seed=2012, n_shards=1000,
        base=Scenario(
            workload="monitor", name="wear-week",
            spec={"cohort": {"sensor": "glucose/this-work",
                             "analyte": "glucose", "n_patients": 8},
                  "duration_h": 168.0, "keep_traces": False}))
    report = run_campaign(spec, "fleet.sqlite", workers=4)
    print(report.summary())
"""

from repro.campaigns.report import (
    ShardTiming,
    duration_stats,
    perfetto_trace,
    render_report,
    shard_timings,
    span_breakdown,
    worker_utilization,
)
from repro.campaigns.runner import (
    CampaignReport,
    execute_shard,
    resume_campaign,
    run_campaign,
)
from repro.campaigns.spec import SCHEMA_VERSION, CampaignSpec
from repro.campaigns.store import (
    ArtifactStore,
    SHARD_STATUSES,
    STORE_SCHEMA_VERSION,
    TELEMETRY_EVENTS,
)

__all__ = [
    "ArtifactStore",
    "CampaignReport",
    "CampaignSpec",
    "SCHEMA_VERSION",
    "SHARD_STATUSES",
    "STORE_SCHEMA_VERSION",
    "ShardTiming",
    "TELEMETRY_EVENTS",
    "duration_stats",
    "execute_shard",
    "perfetto_trace",
    "render_report",
    "resume_campaign",
    "run_campaign",
    "shard_timings",
    "span_breakdown",
    "worker_utilization",
]
