"""Excitation waveform builders."""

from __future__ import annotations

import numpy as np

from repro.techniques.base import Waveform


def constant_potential(potential_v: float,
                       duration_s: float,
                       sampling_rate_hz: float) -> Waveform:
    """Constant-potential waveform (chronoamperometry)."""
    _check(duration_s, sampling_rate_hz)
    n = max(2, int(round(duration_s * sampling_rate_hz)))
    time = np.arange(n) / sampling_rate_hz
    return Waveform(time_s=time,
                    potential_v=np.full(n, float(potential_v)),
                    sampling_rate_hz=sampling_rate_hz)


def cyclic_wave(e_start_v: float,
                e_vertex_v: float,
                scan_rate_v_s: float,
                sampling_rate_hz: float,
                n_cycles: int = 1) -> Waveform:
    """Triangular cyclic-voltammetry waveform.

    Each cycle sweeps ``e_start -> e_vertex -> e_start``; the hysteresis
    plot of the paper's CYP sensors is one such cycle.
    """
    if scan_rate_v_s <= 0:
        raise ValueError(f"scan rate must be > 0, got {scan_rate_v_s}")
    if n_cycles < 1:
        raise ValueError(f"n_cycles must be >= 1, got {n_cycles}")
    if e_start_v == e_vertex_v:
        raise ValueError("cycle needs distinct start and vertex potentials")
    half_duration = abs(e_vertex_v - e_start_v) / scan_rate_v_s
    _check(half_duration, sampling_rate_hz)
    n_half = max(2, int(round(half_duration * sampling_rate_hz)))
    forward = np.linspace(e_start_v, e_vertex_v, n_half, endpoint=False)
    backward = np.linspace(e_vertex_v, e_start_v, n_half, endpoint=False)
    one_cycle = np.concatenate([forward, backward])
    potential = np.tile(one_cycle, n_cycles)
    time = np.arange(potential.size) / sampling_rate_hz
    return Waveform(time_s=time, potential_v=potential,
                    sampling_rate_hz=sampling_rate_hz)


def _check(duration_s: float, sampling_rate_hz: float) -> None:
    if duration_s <= 0:
        raise ValueError(f"duration must be > 0, got {duration_s}")
    if sampling_rate_hz <= 0:
        raise ValueError(f"sampling rate must be > 0, got {sampling_rate_hz}")
