"""Public-API surface tests.

Every name a subpackage re-exports must import and be functional at the
advertised level — the contract a downstream user relies on.  Also covers
the few public helpers not exercised elsewhere (stack volume, platform
helpers).
"""

import importlib
import inspect

import numpy as np
import pytest

import repro


SUBPACKAGES = [
    "analytes", "bio", "campaigns", "chem", "classification", "core",
    "electrodes", "engine", "enzymes", "experiments", "inference",
    "instrument", "nano", "pk", "scenarios", "serve", "signal", "system",
    "techniques", "telemetry", "therapy", "transducers",
]


class TestExports:
    @pytest.mark.parametrize("subpackage", SUBPACKAGES)
    def test_subpackage_all_resolves(self, subpackage):
        module = importlib.import_module(f"repro.{subpackage}")
        for name in getattr(module, "__all__", []):
            assert getattr(module, name) is not None, f"{subpackage}.{name}"

    def test_version_string(self):
        assert repro.__version__ == "1.0.0"

    def test_top_level_all(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestDocstrings:
    """Every public callable must carry a docstring — the contract the
    rendered docs site (mkdocstrings, built with ``--strict`` in CI)
    depends on."""

    @pytest.mark.parametrize("subpackage", SUBPACKAGES)
    def test_every_public_callable_documented(self, subpackage):
        module = importlib.import_module(f"repro.{subpackage}")
        missing = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if not callable(obj):
                continue
            if not (obj.__doc__ or "").strip():
                missing.append(f"{subpackage}.{name}")
            if inspect.isclass(obj):
                missing.extend(
                    f"{subpackage}.{name}.{attr}"
                    for attr, member in vars(obj).items()
                    if not attr.startswith("_")
                    and callable(member)
                    and not (member.__doc__ or "").strip())
        assert not missing, f"undocumented public callables: {missing}"

    @pytest.mark.parametrize("module_name", [
        "repro.engine", "repro.engine.monitor", "repro.engine.plan",
        "repro.engine.measure", "repro.engine.runner",
        "repro.engine.calibrate", "repro.engine.kernels",
        "repro.engine.therapy", "repro.engine.estimation",
        "repro.engine.core", "repro.engine.core.plan",
        "repro.engine.core.kernelset", "repro.engine.core.executor",
        "repro.engine.core.registry", "repro.engine.core.contract",
        "repro.engine.core.bench", "repro.engine.core.snapshot",
        "repro.serve", "repro.serve.session", "repro.serve.server",
        "repro.serve.client", "repro.serve.cli",
        "repro.pk.models", "repro.pk.dosing",
        "repro.pk.population", "repro.pk.drugs",
        "repro.therapy.controllers", "repro.therapy.metrics",
        "repro.scenarios", "repro.scenarios.spec",
        "repro.scenarios.protocols", "repro.scenarios.workloads",
        "repro.scenarios.runner", "repro.scenarios.cli",
        "repro.campaigns", "repro.campaigns.spec",
        "repro.campaigns.store", "repro.campaigns.runner",
        "repro.campaigns.cli", "repro.campaigns.report",
        "repro.inference", "repro.inference.observation",
        "repro.inference.kalman", "repro.inference.evaluate",
        "repro.telemetry", "repro.telemetry.recorder",
        "repro.telemetry.aggregate", "repro.telemetry.sinks",
        "repro.telemetry.perfetto", "repro.telemetry.metrics",
        "repro.telemetry.cli",
    ])
    def test_engine_modules_documented(self, module_name):
        """The engine is the documented flagship: every module, public
        function and public method needs a docstring."""
        module = importlib.import_module(module_name)
        assert (module.__doc__ or "").strip(), module_name
        missing = []
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != module_name:
                continue
            if not (obj.__doc__ or "").strip():
                missing.append(f"{module_name}.{name}")
            if inspect.isclass(obj):
                missing.extend(
                    f"{module_name}.{name}.{attr}"
                    for attr, member in vars(obj).items()
                    if not attr.startswith("_")
                    and (callable(member) or isinstance(member, property))
                    and not (getattr(member, "__doc__", "") or "").strip())
        assert not missing, f"undocumented engine callables: {missing}"


class TestStackGeometry:
    def test_volume_consistency(self):
        from repro.system.stack3d import guiducci_stack

        stack = guiducci_stack()
        expected = stack.footprint_mm2 * stack.total_thickness_um() * 1e-3
        assert stack.volume_mm3() == pytest.approx(expected)

    def test_volume_sub_cubic_centimetre(self):
        """The implantability sanity check: the whole stack fits well
        inside a cubic centimetre."""
        from repro.system.stack3d import guiducci_stack

        assert guiducci_stack().volume_mm3() < 1000.0


class TestPlatformHelpers:
    def test_default_calibration_upper(self):
        from repro.core.platform import default_calibration_upper
        from repro.core.registry import spec_by_id

        upper = default_calibration_upper(spec_by_id("glucose/this-work"))
        assert upper == pytest.approx(1e-3)


class TestWaveformDetails:
    def test_cyclic_scan_rate_signs(self):
        from repro.techniques.waveform import cyclic_wave

        wave = cyclic_wave(0.1, -0.8, 0.1, 100.0)
        rates = wave.scan_rate_v_s()
        n = rates.size
        assert np.median(rates[: n // 2 - 2]) == pytest.approx(-0.1, rel=0.05)
        assert np.median(rates[n // 2 + 2:]) == pytest.approx(0.1, rel=0.05)

    def test_measurement_metadata_roundtrip(self, glucose_sensor):
        record = glucose_sensor.ca_protocol.simulate_step(
            glucose_sensor.steady_state_current, 1e-4, 5.0, 1.0)
        assert record.metadata["concentration_molar"] == 1e-4
        assert record.metadata["plateau_a"] == pytest.approx(
            glucose_sensor.steady_state_current(1e-4))


class TestAcquiredTraceDiagnostics:
    def test_rms_error_zero_without_noise(self, glucose_sensor):
        trace = np.full(400, 1e-8)
        acquired = glucose_sensor.chain.acquire(
            trace, glucose_sensor.ca_protocol.sampling_rate_hz,
            add_noise=False)
        # Noiseless path: the only error left is quantization.
        assert acquired.rms_error_a < glucose_sensor.chain.adc.lsb_v \
            / glucose_sensor.chain.tia.gain_v_per_a

    def test_shape_mismatch_rejected(self):
        from repro.instrument.chain import AcquiredTrace

        with pytest.raises(ValueError):
            AcquiredTrace(np.zeros(3), np.zeros(3), np.zeros(4))
