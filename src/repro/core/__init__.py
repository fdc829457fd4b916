"""The paper's contribution: the multi-target CNT biosensor platform.

This package composes the substrates (electrochemistry, enzymes,
electrodes, nanomaterials, instrumentation, DSP) into the system the paper
describes: modular biosensors with a clean separation between the chemical
layer (electrode + CNT film + enzyme) and the electrical layer (acquisition
chain), a calibration pipeline that extracts the Table 2 metrics
(sensitivity, linear range, limit of detection), and the sensor registry
holding every configuration the paper evaluates.
"""

from repro.core.sensor import Biosensor, ReadoutMode
from repro.core.detection import (
    measure_point,
    measure_amperometric_point,
    measure_voltammetric_point,
    estimate_concentration,
)
from repro.core.calibration import (
    CalibrationError,
    CalibrationPoint,
    CalibrationProtocol,
    CalibrationResult,
    run_calibration,
    default_protocol_for_range,
)
from repro.core.registry import (
    SensorSpec,
    TABLE1_SPECS,
    TABLE2_SPECS,
    specs_by_group,
    spec_by_id,
    build_sensor,
)
from repro.core.platform import MultiTargetPlatform
from repro.core.longterm import (
    DriftBudget,
    one_point_recalibration,
    one_point_recalibration_batch,
)
from repro.core.selectivity import (
    cross_reactivity_factor,
    selectivity_matrix,
    worst_cross_talk,
)
from repro.core.tables import render_table1
from repro.core.validation import (
    within_factor,
    ranking_matches,
)

__all__ = [
    "Biosensor",
    "ReadoutMode",
    "measure_point",
    "measure_amperometric_point",
    "measure_voltammetric_point",
    "estimate_concentration",
    "CalibrationError",
    "CalibrationPoint",
    "CalibrationProtocol",
    "CalibrationResult",
    "run_calibration",
    "default_protocol_for_range",
    "SensorSpec",
    "TABLE1_SPECS",
    "TABLE2_SPECS",
    "specs_by_group",
    "spec_by_id",
    "build_sensor",
    "MultiTargetPlatform",
    "DriftBudget",
    "one_point_recalibration",
    "one_point_recalibration_batch",
    "cross_reactivity_factor",
    "selectivity_matrix",
    "worst_cross_talk",
    "render_table1",
    "within_factor",
    "ranking_matches",
]
