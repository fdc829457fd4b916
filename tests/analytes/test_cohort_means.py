"""A cohort's trajectory means, evaluated in one pass, equal each
trajectory's own ``mean_molar`` bit for bit.

:func:`cohort_mean_molar` computes a term once on the times alone when
every row that carries it shares its parameters, and per row otherwise;
rows without a term add an exact zero.  Generated cohorts mix zero and
non-zero amplitudes with shared and distinct periods, phases,
intervals, clearance times and floors, and every row is held to the
trajectory formula written out below as well.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analytes.physiological import (
    ConcentrationTrajectory,
    cohort_mean_molar,
)


def _formula(trajectory: ConcentrationTrajectory, t: np.ndarray):
    """The trajectory formula, one row at a time."""
    value = np.full_like(t, trajectory.baseline_molar, dtype=float)
    if trajectory.circadian_amplitude_molar > 0:
        value = value + trajectory.circadian_amplitude_molar * np.sin(
            2.0 * np.pi * (t - trajectory.circadian_phase_h)
            / trajectory.circadian_period_h)
    if trajectory.excursion_amplitude_molar > 0:
        since_last = np.mod(t, trajectory.excursion_interval_h)
        normalization = 1.0 - np.exp(
            -trajectory.excursion_interval_h / trajectory.excursion_tau_h)
        value = value + (trajectory.excursion_amplitude_molar
                         * np.exp(-since_last / trajectory.excursion_tau_h)
                         / normalization)
    return np.maximum(value, trajectory.floor_molar)


_AMPLITUDE = st.one_of(st.just(0.0), st.floats(1e-6, 5e-3))
#: Each parameter is drawn per row or taken from the cohort's base.
_PARAMETERS = {
    "circadian_period_h": st.floats(1.0, 48.0),
    "circadian_phase_h": st.floats(0.0, 24.0),
    "excursion_interval_h": st.floats(0.5, 24.0),
    "excursion_tau_h": st.floats(0.1, 6.0),
    "floor_molar": st.one_of(st.just(0.0), st.floats(1e-6, 8e-3)),
}


@st.composite
def cohorts(draw):
    base = {name: draw(strategy) for name, strategy in _PARAMETERS.items()}
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = {name: draw(strategy) if draw(st.booleans()) else base[name]
               for name, strategy in _PARAMETERS.items()}
        circadian, excursion = draw(_AMPLITUDE), draw(_AMPLITUDE)
        baseline = draw(st.one_of(st.just(0.0), st.floats(1e-4, 1e-2)))
        if baseline == 0.0 and excursion == 0.0:
            excursion = 1e-3
        rows.append(ConcentrationTrajectory(
            baseline_molar=baseline, circadian_amplitude_molar=circadian,
            excursion_amplitude_molar=excursion, **row))
    return rows


_HOURS = st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=40).map(
    np.array)


@settings(max_examples=300, deadline=None)
@given(trajectories=cohorts(), hours=_HOURS)
@example(trajectories=[ConcentrationTrajectory(1e-3),
                       ConcentrationTrajectory(
                           0.0, excursion_amplitude_molar=1e-3)],
         hours=np.array([0.0, 6.0, 7.5]))
def test_cohort_rows_equal_each_trajectory(trajectories, hours):
    means = cohort_mean_molar(trajectories, hours)
    assert means.shape == (len(trajectories), hours.size)
    for row, trajectory in zip(means, trajectories):
        own = trajectory.mean_molar(hours)
        assert row.tobytes() == own.tobytes()
        assert row.tobytes() == _formula(trajectory, hours).tobytes()


@settings(max_examples=50, deadline=None)
@given(trajectories=cohorts(), hour=st.floats(0.0, 1000.0))
def test_scalar_time_keeps_scalar_return(trajectories, hour):
    means = cohort_mean_molar(trajectories, hour)
    assert means.shape == (len(trajectories),)
    for value, trajectory in zip(means, trajectories):
        own = trajectory.mean_molar(hour)
        assert type(own) is float
        assert own == float(_formula(trajectory, np.asarray(hour)))
        assert value == own


def test_negative_time_rejected():
    trajectories = [ConcentrationTrajectory(1e-3)] * 2
    with pytest.raises(ValueError, match="wear time"):
        cohort_mean_molar(trajectories, np.array([1.0, -0.5]))
