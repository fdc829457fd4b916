"""Tests for repro.enzymes.kinetics."""

import pytest

from repro.enzymes.kinetics import ping_pong_rate
from repro.enzymes.michaelis_menten import michaelis_menten_rate


class TestPingPong:
    def test_reduces_to_mm_at_oxygen_excess(self):
        mm = michaelis_menten_rate(1e-3, 700.0 * 1e-9, 33e-3)
        pp = ping_pong_rate(1e-3, 1e6, 700.0, 1e-9, 33e-3, 0.2e-3)
        assert pp == pytest.approx(mm, rel=1e-3)

    def test_zero_without_substrate(self):
        assert ping_pong_rate(0.0, 0.25e-3, 700.0, 1e-9, 33e-3, 0.2e-3) == 0.0

    def test_zero_without_oxygen(self):
        assert ping_pong_rate(1e-3, 0.0, 700.0, 1e-9, 33e-3, 0.2e-3) == 0.0

    def test_oxygen_limitation_slows_rate(self):
        rich = ping_pong_rate(1e-3, 0.25e-3, 700.0, 1e-9, 33e-3, 0.2e-3)
        poor = ping_pong_rate(1e-3, 0.02e-3, 700.0, 1e-9, 33e-3, 0.2e-3)
        assert poor < rich

    def test_rejects_bad_km(self):
        with pytest.raises(ValueError):
            ping_pong_rate(1e-3, 1e-3, 700.0, 1e-9, 0.0, 0.2e-3)
