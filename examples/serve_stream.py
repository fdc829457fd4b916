"""Serve a live stream: the online front door, end to end in-process.

Boots the asyncio serving process on a background thread
(:class:`repro.serve.ServerThread` — the same server behind
``python -m repro serve``), then walks both serving modes with the
stdlib client:

* submit the checked-in day-long glucose reconstruction scenario as a
  **job** (bounded work queue, poll to done, fetch the artifact's
  summary: the server keeps no traces, and asking for them re-runs the
  job), and
* open the same scenario as a live **stream**, pushing one hour of
  readings at a time and printing the cohort's filtered glucose as it
  arrives —

then verifies the two summaries agree: streaming changes when you get
the numbers, never which numbers you get.

Run:  python examples/serve_stream.py
"""

from pathlib import Path

from repro.scenarios import Scenario
from repro.serve import ServeClient, ServerThread
from repro.telemetry import parse_prometheus

SCENARIO = Path(__file__).parent / "scenarios" / \
    "estimation_glucose_day.json"


def _max_difference(a, b) -> float:
    """Largest absolute numeric difference between two JSON payloads.

    Non-numeric leaves must match exactly; the floats may differ by
    summation-order ulps (chunked vs streamed accumulation), which the
    serving contract bounds at 1e-9.
    """
    if isinstance(a, dict):
        assert set(a) == set(b), set(a) ^ set(b)
        return max((_max_difference(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list):
        assert len(a) == len(b), (len(a), len(b))
        return max((_max_difference(x, y) for x, y in zip(a, b)),
                   default=0.0)
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b)
    assert a == b, (a, b)
    return 0.0


def main() -> None:
    scenario = Scenario.load(SCENARIO)
    print(f"scenario: [{scenario.workload}] {scenario.name}")

    # The client keeps one connection open for all of its requests;
    # leaving the block closes it.
    with ServerThread(port=0, queue_size=8, workers=2) as thread, \
            ServeClient(thread.host, thread.port) as client:
        client.wait_until_healthy()
        rows = {row["name"]: row["streaming"]
                for row in client.workloads()}
        print(f"server on {thread.host}:{thread.port}, "
              f"streaming workloads: "
              f"{sorted(name for name, on in rows.items() if on)}")

        # Mode 1 - batch job through the bounded queue.
        job = client.submit(scenario.to_dict())
        client.wait_for_job(job["job_id"])
        # The job's kept summary; traces=True would re-run the job.
        job_artifact = client.result(job["job_id"])
        mard = job_artifact["result"]["cohort_filtered_mard"]
        print(f"job {job['job_id']}: done, cohort filtered MARD "
              f"{mard * 100:.1f}%")

        # Mode 2 - live stream, one hour of 5-min readings per push.
        stream = client.create_stream(scenario.to_dict())
        stream_id = stream["stream_id"]
        print(f"stream {stream_id}: {stream['n_channels']} channels x "
              f"{stream['n_samples']} samples")
        while True:
            update = client.push_readings(stream_id, count=12)
            latest_mm = [1e3 * channel[-1] for channel in
                         update["values"]["filtered_concentration_molar"]]
            print(f"  t={update['time_h'][-1]:5.1f} h  filtered glucose "
                  + "  ".join(f"{mm:.2f} mM" for mm in latest_mm))
            if update["done"]:
                break

        snapshot = client.stream_snapshot(stream_id)
        print(f"snapshot at cursor {snapshot['cursor']}: "
              f"{len(str(snapshot)):,} chars, resumable anywhere")

        stream_artifact = client.stream_result(stream_id)
        worst = _max_difference(stream_artifact, job_artifact)
        assert worst <= 1e-9, f"stream/batch diverged by {worst}"
        print(f"stream result == job result (max difference {worst:.1e},"
              f" gate 1e-9)")

        samples = parse_prometheus(client.metrics())

        def total(name: str, **labels: str) -> float:
            return sum(sample["value"] for sample in samples
                       if sample["name"] == name
                       and labels.items() <= sample["labels"].items())

        print(f"served {total('repro_serve_readings_total'):.0f} channel-"
              f"readings across "
              f"{total('repro_serve_jobs_total', outcome='done'):.0f} "
              f"job(s) and {total('repro_serve_streams_open'):.0f} open "
              f"stream(s)")


if __name__ == "__main__":
    main()
