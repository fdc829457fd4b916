"""Cross-module property tests (hypothesis).

These tie whole sub-pipelines together: random physical parameters in,
physical invariants out.  They are the guard rails that keep the
table-reproduction machinery honest across the parameter space, not just
at the 18 published operating points.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chem.diffusion import DiffusionGrid1D
from repro.chem.cottrell import cottrell_current
from repro.constants import FARADAY
from repro.enzymes.catalog import GLUCOSE_OXIDASE
from repro.enzymes.immobilization import (
    ImmobilizedLayer,
    coverage_from_sensitivity,
)
from repro.instrument.chain import AcquisitionChain
from repro.units import sensitivity_si_from_paper


class TestDiffusionProperties:
    @given(st.floats(min_value=1e-10, max_value=5e-9),
           st.floats(min_value=1e-4, max_value=5e-3))
    @settings(max_examples=10, deadline=None)
    def test_cottrell_match_over_parameter_space(self, diffusion, conc):
        """The Crank-Nicolson flux matches Cottrell for any physical
        (D, C) combination, not just the defaults."""
        grid = DiffusionGrid1D.for_transient(diffusion, 1.0, 300, conc)
        fluxes = grid.run(300)
        i_sim = FARADAY * 1e-6 * fluxes[-1]
        i_ref = cottrell_current(1.0, 1, 1e-6, conc, diffusion)
        assert i_sim == pytest.approx(i_ref, rel=2e-2)

    @given(st.floats(min_value=1e-10, max_value=5e-9))
    @settings(max_examples=10, deadline=None)
    def test_closed_box_conservation_any_diffusivity(self, diffusion):
        grid = DiffusionGrid1D(diffusion, 1e-6, 40, 1e-4, 1e-3,
                               left_bc="noflux", right_bc="noflux")
        grid._conc[:20] *= 1.7
        initial = np.trapezoid(grid._conc, dx=grid.dx)
        for __ in range(200):
            grid.step()
        assert np.trapezoid(grid._conc, dx=grid.dx) == pytest.approx(
            initial, rel=1e-9)


class TestChainProperties:
    @given(st.floats(min_value=-0.9, max_value=0.9))
    @settings(max_examples=20, deadline=None)
    def test_dc_reconstruction_anywhere_in_range(self, fraction):
        """Any DC current within the chain's full scale reconstructs to
        within quantization + filter settling error."""
        chain = AcquisitionChain.for_full_scale(
            full_scale_current_a=1e-6, adc_rate_hz=10.0,
            white_noise_a_rthz=1e-18)
        current = fraction * 1e-6
        acquired = chain.acquire(np.full(600, current), 20.0,
                                 add_noise=False)
        assert acquired.current_a[-1] == pytest.approx(current, abs=2e-9)

    @given(st.integers(min_value=8, max_value=20))
    @settings(max_examples=10, deadline=None)
    def test_more_bits_never_hurt(self, n_bits):
        chain = AcquisitionChain.for_full_scale(
            full_scale_current_a=1e-6, adc_rate_hz=10.0, n_bits=n_bits,
            white_noise_a_rthz=1e-18)
        acquired = chain.acquire(np.full(600, 3.21e-7), 20.0,
                                 add_noise=False)
        error = abs(acquired.current_a[-1] - 3.21e-7)
        lsb_current = (2 * chain.adc.v_ref / 2 ** n_bits
                       / chain.tia.gain_v_per_a)
        assert error <= lsb_current


class TestLayerInversionProperties:
    @given(st.floats(min_value=0.5, max_value=500.0),
           st.floats(min_value=1e-5, max_value=5e-2),
           st.floats(min_value=0.2, max_value=1.0),
           st.floats(min_value=0.3, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_sensitivity_roundtrip_any_configuration(
            self, sensitivity_paper, km, retention, collection):
        """coverage_from_sensitivity and ImmobilizedLayer.sensitivity_si
        are exact inverses across the whole realistic parameter box."""
        target = sensitivity_si_from_paper(sensitivity_paper)
        coverage = coverage_from_sensitivity(
            GLUCOSE_OXIDASE, target, km,
            activity_retention=retention,
            collection_efficiency=collection)
        layer = ImmobilizedLayer(
            GLUCOSE_OXIDASE, coverage, activity_retention=retention,
            km_app_molar=km, collection_efficiency=collection)
        assert layer.sensitivity_si() == pytest.approx(target, rel=1e-9)

    @given(st.floats(min_value=1e-6, max_value=1e-2))
    @settings(max_examples=20, deadline=None)
    def test_current_bounded_by_vmax(self, concentration):
        layer = ImmobilizedLayer(GLUCOSE_OXIDASE, 1e-7,
                                 activity_retention=0.5,
                                 km_app_molar=9e-3,
                                 collection_efficiency=0.85)
        current = layer.steady_state_current(concentration, 1e-6)
        vmax_current = (GLUCOSE_OXIDASE.n_electrons * FARADAY * 1e-6
                        * 0.85 * layer.max_areal_rate)
        assert 0.0 <= current <= vmax_current
