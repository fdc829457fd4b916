"""Tests for repro.chem.diffusion: Cottrell and conservation validation."""

import numpy as np
import pytest

from repro.chem.cottrell import cottrell_current
from repro.chem.diffusion import DiffusionGrid1D, ElectrodeDiffusionSystem
from repro.chem.species import FERRICYANIDE, RedoxCouple
from repro.constants import FARADAY


class TestGridConstruction:
    def test_rejects_too_few_nodes(self):
        with pytest.raises(ValueError, match="nodes"):
            DiffusionGrid1D(7e-10, 1e-6, 5, 1e-3, 1e-3)

    def test_rejects_unknown_boundary(self):
        with pytest.raises(ValueError, match="left_bc"):
            DiffusionGrid1D(7e-10, 1e-6, 50, 1e-3, 1e-3, left_bc="magic")

    def test_for_transient_sizes_box(self):
        grid = DiffusionGrid1D.for_transient(7e-10, 1.0, 100, 1e-3)
        box = grid.dx * (grid.n_nodes - 1)
        layer = np.sqrt(7e-10 * 1.0)
        assert box >= 5.9 * layer

    def test_initial_profile_is_bulk(self):
        grid = DiffusionGrid1D(7e-10, 1e-6, 50, 1e-3, 2e-3, left_bc="noflux")
        assert np.allclose(grid._conc / 1e3, 2e-3)


class TestCottrellValidation:
    def test_flux_matches_cottrell(self):
        grid = DiffusionGrid1D.for_transient(7e-10, 1.0, 500, 1e-3)
        fluxes = grid.run(500)
        i_sim = FARADAY * 1e-6 * fluxes[-1]  # n=1, A=1 mm^2
        i_analytic = cottrell_current(1.0, 1, 1e-6, 1e-3, 7e-10)
        assert i_sim == pytest.approx(i_analytic, rel=5e-3)

    def test_flux_decays_as_inverse_sqrt_time(self):
        grid = DiffusionGrid1D.for_transient(7e-10, 4.0, 2000, 1e-3)
        fluxes = grid.run(2000)
        # Compare t=1 s (index 499) with t=4 s (index 1999).
        assert fluxes[499] == pytest.approx(2.0 * fluxes[1999], rel=2e-2)

    def test_surface_concentration_pinned(self):
        grid = DiffusionGrid1D.for_transient(7e-10, 0.5, 100, 1e-3,
                                             left_value_molar=0.0)
        grid.run(100)
        assert grid._conc[0] / 1e3 == pytest.approx(0.0, abs=1e-12)

    def test_bulk_concentration_untouched(self):
        grid = DiffusionGrid1D.for_transient(7e-10, 0.5, 100, 1e-3)
        grid.run(100)
        assert grid._conc[-1] / 1e3 == pytest.approx(1e-3, rel=1e-6)


class TestConservation:
    def test_closed_box_conserves_mass(self):
        grid = DiffusionGrid1D(7e-10, 2e-6, 60, 1e-3, 1e-3,
                               left_bc="noflux", right_bc="noflux")
        # Perturb the initial profile, then diffuse.
        grid._conc[:30] *= 2.0
        initial = np.trapezoid(grid._conc, dx=grid.dx)
        for __ in range(500):
            grid.step()
        assert np.trapezoid(grid._conc, dx=grid.dx) == pytest.approx(
            initial, rel=1e-9)

    def test_closed_box_relaxes_to_uniform(self):
        grid = DiffusionGrid1D(7e-10, 1e-6, 40, 5e-4, 1e-3,
                               left_bc="noflux", right_bc="noflux")
        grid._conc[:10] *= 3.0
        for __ in range(20000):
            grid.step()
        profile = grid._conc
        assert np.ptp(profile) / np.mean(profile) < 1e-3


class TestElectrodeDiffusionSystem:
    def test_rejects_bad_stability_factor(self):
        with pytest.raises(ValueError, match="stability"):
            ElectrodeDiffusionSystem(FERRICYANIDE, 1e-6, 1e-3, 0.0,
                                     1.0, 100, stability_factor=0.6)

    def test_zero_current_at_rest_potential(self):
        system = ElectrodeDiffusionSystem(FERRICYANIDE, 1e-6, 1e-3, 1e-3,
                                          1.0, 200)
        # At E0 with equal concentrations, no net current flows.
        currents = system.run(np.full(200, FERRICYANIDE.formal_potential))
        assert np.max(np.abs(currents)) < 1e-12

    def test_reduction_gives_negative_current(self):
        system = ElectrodeDiffusionSystem(FERRICYANIDE, 1e-6, 1e-3, 0.0,
                                          1.0, 200)
        potential = FERRICYANIDE.formal_potential - 0.3
        currents = system.run(np.full(200, potential))
        assert currents[-1] < 0

    def test_oxidation_gives_positive_current(self):
        system = ElectrodeDiffusionSystem(FERRICYANIDE, 1e-6, 0.0, 1e-3,
                                          1.0, 200)
        potential = FERRICYANIDE.formal_potential + 0.3
        currents = system.run(np.full(200, potential))
        assert currents[-1] > 0

    def test_sum_conserved_with_equal_diffusion(self):
        couple = RedoxCouple("sym", 1, 0.0, 7e-10, 7e-10, 1e-4)
        system = ElectrodeDiffusionSystem(couple, 1e-6, 1e-3, 1e-3, 0.5, 300)
        def amount():
            return np.trapezoid(system._c_ox + system._c_red, dx=system.dx)

        initial = amount()
        system.run(np.linspace(0.3, -0.3, 300))
        # O->R conversion conserves O+R; bulk Dirichlet adds nothing net
        # because the far boundary stays at bulk for both species.
        assert amount() == pytest.approx(initial, rel=1e-6)

    def test_step_depletion_approaches_cottrell(self):
        system = ElectrodeDiffusionSystem(FERRICYANIDE, 1e-6, 1e-3, 0.0,
                                          1.0, 1000)
        potential = FERRICYANIDE.formal_potential - 0.4  # mass-transfer limit
        currents = system.run(np.full(1000, potential))
        i_analytic = cottrell_current(1.0, 1, 1e-6, 1e-3,
                                      FERRICYANIDE.diffusion_ox)
        assert abs(currents[-1]) == pytest.approx(i_analytic, rel=5e-2)

    def test_surface_concentrations_stay_non_negative(self):
        system = ElectrodeDiffusionSystem(FERRICYANIDE, 1e-6, 1e-3, 0.0,
                                          1.0, 500)
        system.run(np.linspace(0.5, -0.5, 500))
        assert np.all(system._c_ox >= 0)
        assert np.all(system._c_red >= 0)
