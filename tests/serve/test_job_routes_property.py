"""Property test: the job routes answer every id and ``?wait=`` cleanly.

Hypothesis draws job ids — issued and retained, issued and evicted,
never issued, and malformed (``job-0``, ``job--1``, ``job-abc``, any
text) — route suffixes and ``?wait=`` strings, and sends each as one
raw ``GET`` to a single live :class:`ServerThread` that keeps only two
finished jobs.  Every answer must be a whole response with a status in
{200, 400, 404, 409, 410}: never a 500, a dropped connection or a hang.
"""

from __future__ import annotations

from urllib.parse import quote

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import Scenario
from repro.serve import ServeClient, ServerThread
from repro.serve import server as server_module
from tests.serve.test_server import _closed, _connect, _read_response

CALIBRATION_SCENARIO = Scenario(
    workload="calibration", name="fuzz-calib", seed=7,
    spec={"sensors": ["glucose/this-work"], "n_blanks": 2,
          "n_replicates": 2})

#: Jobs run before the fuzzing starts; the server keeps the last two.
N_JOBS = 5

ALLOWED = {200, 400, 404, 409, 410}


@pytest.fixture(scope="module")
def client():
    """One server keeping two finished jobs, after :data:`N_JOBS` ran."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(server_module, "MAX_FINISHED_JOBS", 2)
        patch.setattr(server_module, "MAX_WAIT_S", 0.5)
        with ServerThread(port=0, workers=1) as thread, \
                ServeClient(thread.host, thread.port) as client:
            for __ in range(N_JOBS):
                client.wait_for_job(client.submit(
                    CALIBRATION_SCENARIO.to_dict())["job_id"])
            yield client
            assert client.health()["status"] == "ok"


def _get(client: ServeClient, target: str) -> int:
    """One raw GET; the status of a whole response, then the EOF its
    ``Connection: close`` asks for (10 s socket timeout: no hang)."""
    with _connect(client) as sock:
        sock.sendall(f"GET {target} HTTP/1.1\r\n"
                     "Connection: close\r\n\r\n".encode())
        status, __, __ = _read_response(sock)
        assert _closed(sock)
    return status


_NUMBERED = st.integers(min_value=-3, max_value=N_JOBS + 3)

job_ids = st.one_of(
    _NUMBERED.map(lambda n: f"job-{n:04d}"),        # the issued shape
    _NUMBERED.map(lambda n: f"job-{n}"),            # unpadded
    st.sampled_from(["job-", "job-abc", "job--1", "job-0", "job-1.0",
                     "job-+1", "job- 1", "JOB-0001", "stream-0001",
                     "job-0001-0001", "job-١", "job-" + "9" * 5000]),
    st.text(min_size=1, max_size=12),
)

waits = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(min_value=-5, max_value=10 ** 6).map(str),
    st.text(max_size=8),
)


@settings(max_examples=150, deadline=None)
@given(job_id=job_ids,
       suffix=st.sampled_from(["", "/result", "/result?traces=1",
                               "/snapshot", "/result/extra"]),
       wait=waits)
def test_any_job_id_and_wait_is_answered(client, job_id, suffix, wait):
    target = f"/scenarios/{quote(job_id, safe='')}{suffix}"
    if wait is not None:
        target += ("&" if "?" in target else "?") \
            + f"wait={quote(wait, safe='')}"
    assert _get(client, target) in ALLOWED, target
