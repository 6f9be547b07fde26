"""Automated polarization compensation for fiber links.

The package covers the full chain used on the optical bench: Stokes and
Mueller algebra (:mod:`polcomp.stokes`), rotating-waveplate polarimetry
(:mod:`polcomp.polarimetry`), liquid-crystal retarder calibration
(:mod:`polcomp.lcvr`), the compensation loop itself
(:mod:`polcomp.compensation`), a virtual bench for repeatable trials
(:mod:`polcomp.bench`), and a deterministic CLI (:mod:`polcomp.cli`).
"""

from .bench import (
    FiberDisturbance,
    NoiseModel,
    TrialStats,
    VirtualApparatus,
    random_disturbance,
    run_trials,
    synthetic_curve_set,
    synthetic_retardance_curve,
)
from .compensation import (
    CompensationRun,
    CompensatorState,
    LoopConfig,
    StepRecord,
    infer_disturbed,
    qber_opt,
    qber_total,
    run_compensation,
    solve_retardances,
)
from .lcvr import (
    CalibrationError,
    CharacterizationSweep,
    RetardanceCurve,
    UnwrapAmbiguityError,
    build_curve,
    retardance_error,
    retardance_for_voltage,
    retardance_from_intensity,
    unwrap_retardance,
    voltage_for_retardance,
)
from .polarimetry import (
    FourierCoefficients,
    PolarimeterScan,
    extract_coefficients,
    ideal_intensity,
    measure_stokes,
    simulate_scan,
    stokes_from_coefficients,
)
from .stokes import (
    CARDINAL_STOKES,
    DegenerateStateError,
    MuellerMatrix,
    NonRetarderError,
    NormalizedStokes,
    StokesVector,
    apply,
    cardinal_target,
    compose,
    degree_of_polarization,
    fidelity,
    invert_retarder,
    mueller_hwp,
    mueller_lcvr,
    mueller_lcvr_triple,
    mueller_pbs,
    mueller_qwp,
    normalize,
    transform_normalized,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # stokes
    "CARDINAL_STOKES",
    "DegenerateStateError",
    "MuellerMatrix",
    "NonRetarderError",
    "NormalizedStokes",
    "StokesVector",
    "apply",
    "cardinal_target",
    "compose",
    "degree_of_polarization",
    "fidelity",
    "invert_retarder",
    "mueller_hwp",
    "mueller_lcvr",
    "mueller_lcvr_triple",
    "mueller_pbs",
    "mueller_qwp",
    "normalize",
    "transform_normalized",
    # polarimetry
    "FourierCoefficients",
    "PolarimeterScan",
    "extract_coefficients",
    "ideal_intensity",
    "measure_stokes",
    "simulate_scan",
    "stokes_from_coefficients",
    # lcvr
    "CalibrationError",
    "CharacterizationSweep",
    "RetardanceCurve",
    "UnwrapAmbiguityError",
    "build_curve",
    "retardance_error",
    "retardance_for_voltage",
    "retardance_from_intensity",
    "unwrap_retardance",
    "voltage_for_retardance",
    # compensation
    "CompensationRun",
    "CompensatorState",
    "LoopConfig",
    "StepRecord",
    "infer_disturbed",
    "qber_opt",
    "qber_total",
    "run_compensation",
    "solve_retardances",
    # bench
    "FiberDisturbance",
    "NoiseModel",
    "TrialStats",
    "VirtualApparatus",
    "random_disturbance",
    "run_trials",
    "synthetic_curve_set",
    "synthetic_retardance_curve",
]
