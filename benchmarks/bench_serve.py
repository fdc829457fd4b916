"""Bench: serving throughput and bounded suspend/resume memory.

Two acceptance gates on the online serving subsystem, recorded in
``BENCH_serve.json`` so serving performance is tracked across PRs:

* **throughput** — a :class:`~repro.serve.StreamSession` advancing a
  16-channel monitor cohort in hourly blocks must sustain at least
  ``SERVE_THROUGHPUT_FLOOR`` (default 1000) readings per second per
  channel-batch in steady state.  Streaming must stay cheap enough to
  track a live fleet, not just replay one offline.  Next to it, the
  live-push shape: an estimation stream of 4 wearers over a 30-day
  horizon, advanced 12 readings at a time, must take in at least
  ``SERVE_PUSH_FLOOR`` (default 10 000) readings per second (wearers x
  samples), with its median advance recorded in ms.  The same push
  end to end — a :class:`~repro.serve.ServerThread` and a
  :class:`~repro.serve.ServeClient`, 8 such streams pushed round-robin
  — must sustain at least ``HTTP_PUSH_FLOOR`` (50) pushes per second,
  with its median round trip recorded in ms.
* **bounded memory** — the serialized snapshot of a suspended session
  must be the same size whether the stream has run for one hour or a
  month (traces excluded: carry state only).  This is what makes
  suspend-at-k/resume bounded-memory — the property the serving ISSUE
  names as the acceptance gate.
"""

from __future__ import annotations

import json
import statistics
import time

from repro.engine.estimation import EstimationPlan
from repro.engine.monitor import (
    MonitorPlan,
    RecalibrationPolicy,
    glucose_cohort,
)
from repro.scenarios import Scenario
from repro.serve import ServeClient, ServerThread, StreamSession

from harness import floor_from_env

N_CHANNELS = 16
BLOCK_SAMPLES = 60          # one hour of 1-min readings per advance
PUSH_WEARERS = 4
PUSH_SAMPLES = 12           # one hour of 5-min readings per push
N_PUSHES = 300
HTTP_STREAMS = 8
N_HTTP_PUSHES = 400
HTTP_PUSH_FLOOR = 50.0      # pushes/s; ~800/s measured on 2 vCPUs


def _plan(duration_h: float, recalibrate: bool = True) -> MonitorPlan:
    """A 16-wearer, 1-min cadence cohort (traceless: serving state)."""
    return MonitorPlan(
        channels=glucose_cohort(N_CHANNELS), duration_h=duration_h,
        sample_period_s=60.0, chunk_samples=BLOCK_SAMPLES, seed=2012,
        keep_traces=False,
        recalibration=RecalibrationPolicy(reference_interval_h=12.0,
                                          enabled=recalibrate))


def _push_cost() -> dict:
    """Median advance and readings/s of 12-reading estimation pushes."""
    session = StreamSession("estimation", EstimationPlan(
        monitor=MonitorPlan(
            channels=glucose_cohort(PUSH_WEARERS), duration_h=720.0,
            sample_period_s=300.0, seed=2012,
            recalibration=RecalibrationPolicy(reference_interval_h=6.0,
                                              tolerance=0.08)),
        smooth=False))
    session.advance(PUSH_SAMPLES)           # warm caches off the clock
    durations = []
    for _ in range(N_PUSHES):
        start = time.perf_counter()
        session.advance(PUSH_SAMPLES)
        durations.append(time.perf_counter() - start)
    return {
        "estimation_advance_p50_ms": round(
            statistics.median(durations) * 1e3, 4),
        "estimation_readings_per_s": round(
            PUSH_WEARERS * PUSH_SAMPLES * N_PUSHES / sum(durations), 1),
    }


def _http_push_cost() -> dict:
    """Median round trip and pushes/s of 12-reading pushes through the
    front door, round-robin over 8 four-wearer estimation streams."""
    spec = {"cohort": {"sensor": "glucose/this-work",
                       "analyte": "glucose", "wander_sigma_a": 2e-9,
                       "n_patients": PUSH_WEARERS},
            "duration_h": 720.0, "sample_period_s": 300.0,
            "smooth": False,
            "recalibration": {"reference_interval_h": 6.0,
                              "tolerance": 0.08}}
    with ServerThread() as thread, \
            ServeClient(thread.host, thread.port) as client:
        ids = [client.create_stream(Scenario(
            workload="estimation", name=f"push-{index}", spec=spec,
            seed=2012 + index).to_dict())["stream_id"]
            for index in range(HTTP_STREAMS)]
        for stream_id in ids:               # warm caches off the clock
            client.push_readings(stream_id, PUSH_SAMPLES)
        durations = []
        for index in range(N_HTTP_PUSHES):
            start = time.perf_counter()
            client.push_readings(ids[index % HTTP_STREAMS], PUSH_SAMPLES)
            durations.append(time.perf_counter() - start)
    return {
        "push_rtt_p50_ms": round(statistics.median(durations) * 1e3, 4),
        "pushes_per_s": round(N_HTTP_PUSHES / sum(durations), 1),
    }


def test_streaming_throughput_floor(bench_json):
    """Steady-state advance() must beat the readings/s floors."""
    floor = floor_from_env("SERVE_THROUGHPUT_FLOOR", 1000.0)
    push_floor = floor_from_env("SERVE_PUSH_FLOOR", 10_000.0)
    session = StreamSession("monitor", _plan(duration_h=24.0))
    session.advance(BLOCK_SAMPLES)          # warm caches off the clock
    start = time.perf_counter()
    samples = 0
    while not session.done:
        samples += session.advance(BLOCK_SAMPLES).n_samples
    elapsed = time.perf_counter() - start
    readings_per_s = samples / elapsed      # per channel-batch
    payload = {
        "n_channels": N_CHANNELS,
        "block_samples": BLOCK_SAMPLES,
        "samples_streamed": samples,
        "elapsed_s": round(elapsed, 4),
        "readings_per_s": round(readings_per_s, 1),
        "floor_readings_per_s": floor,
        **_push_cost(),
        "estimation_floor_readings_per_s": push_floor,
        **_http_push_cost(),
        "floor_pushes_per_s": HTTP_PUSH_FLOOR,
    }
    path = bench_json("serve", **payload)
    print(f"\nserve stream: {readings_per_s:,.0f} readings/s per "
          f"channel-batch over {samples} samples "
          f"(floor {floor:,.0f}); estimation push: "
          f"{payload['estimation_advance_p50_ms']} ms p50, "
          f"{payload['estimation_readings_per_s']:,.0f} readings/s "
          f"(floor {push_floor:,.0f}); over HTTP: "
          f"{payload['push_rtt_p50_ms']} ms p50, "
          f"{payload['pushes_per_s']:,.0f} pushes/s "
          f"(floor {HTTP_PUSH_FLOOR:,.0f}) -> {path.name}")
    assert readings_per_s >= floor, payload
    assert payload["estimation_readings_per_s"] >= push_floor, payload
    assert payload["pushes_per_s"] >= HTTP_PUSH_FLOOR, payload


def test_snapshot_size_is_stream_length_independent(bench_json):
    """Suspend-at-k memory must not grow with k (carry state only).

    Open-loop wear: the recalibration event log is the one term that
    grows — with accepted re-fits (a few floats per reference event),
    never with samples — so it is switched off here to gate the pure
    carry state.  Traces are off too (``keep_traces=False`` is the
    serving configuration); with them on, the snapshot would grow with
    the cursor by design, since it carries the result prefix.
    """
    plan = _plan(duration_h=31 * 24.0, recalibrate=False)
    session = StreamSession("monitor", plan)
    session.advance(60)                     # one hour in
    early = len(json.dumps(session.export_state()))
    session.advance(60 * 24 * 30)           # a month in
    late = len(json.dumps(session.export_state()))
    drift = abs(late - early) / early
    print(f"\nsnapshot bytes: 1 h in {early:,}, 30 d in {late:,} "
          f"({drift * 100:.2f} % drift)")
    assert drift < 0.02, (early, late)
    bench_json("serve_snapshot", early_bytes=early, late_bytes=late,
               drift_fraction=round(drift, 6))
