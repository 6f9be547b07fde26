"""Virtual optical bench: a simulated link for exercising the full loop.

Everything the compensation loop touches in the lab has a stand-in here:
a random fiber disturbance (a uniformly distributed rotation of the
polarization sphere), the four-cell retarder stack actuated through its
calibration curves, and the rotating-wave-plate polarimeter.  The bench
is deliberately imperfect in the same ways the hardware is — drive
voltages quantize, each cell's true curve is biased against the
calibration used to actuate it, and every scan carries detector noise
and slow mount drift.

All randomness flows from explicit integer seeds through
``numpy.random.SeedSequence`` so that any trial, and any single
measurement inside it, can be replayed bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .compensation import (
    _STACK_ANGLES,
    REPORT_LEVELS,
    CompensationRun,
    LoopConfig,
    run_compensation,
)
from .lcvr import CharacterizationSweep, RetardanceCurve, retardance_for_voltage
from .polarimetry import measure_stokes, simulate_scan
from .stokes import (
    CARDINAL_STOKES,
    NormalizedStokes,
    StokesVector,
    apply,
    cardinal_target,
    compose,
    mueller_lcvr,
)

__all__ = [
    "NoiseModel",
    "FiberDisturbance",
    "random_disturbance",
    "synthetic_retardance_curve",
    "synthetic_curve_set",
    "simulate_characterization_sweep",
    "virtual_measure",
    "VirtualApparatus",
    "TrialStats",
    "run_trials",
    "DEFAULT_SCAN_SAMPLES",
    "DEFAULT_SCAN_STEP",
]

DEFAULT_SCAN_SAMPLES = 310
DEFAULT_SCAN_STEP = 2.0 * math.pi / DEFAULT_SCAN_SAMPLES

#: Seed-stream tags, so the same integer seed never feeds two different
#: consumers the same bits.
_TAG_DISTURBANCE = 0xD157
_TAG_CURVE_BIAS = 0x0007


@dataclass(frozen=True)
class NoiseModel:
    """Imperfection budget for the virtual bench.

    pd_sigma
        Detector voltage noise per sample, volts (1.0 = full scale).
    background_v
        Constant detector background, volts.
    angle_jitter_sigma
        Per-scan mount-zero drift of the analyzer wave plate, radians.
    voltage_quantum_v
        Drive-voltage granularity of the LCVR controller, volts.
    retardance_curve_error
        Per-cell static bias between the true retardance curve and the
        calibration used to actuate it, radians (one draw per cell).
    """

    pd_sigma: float = 0.005
    background_v: float = 0.0
    angle_jitter_sigma: float = 0.0
    voltage_quantum_v: float = 0.01
    retardance_curve_error: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "pd_sigma",
            "background_v",
            "angle_jitter_sigma",
            "voltage_quantum_v",
            "retardance_curve_error",
        ):
            val = getattr(self, name)
            if not (math.isfinite(val) and val >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {val!r}")

    @classmethod
    def none(cls) -> "NoiseModel":
        """Perfectly quiet bench; runs become exactly reproducible physics."""
        return cls(0.0, 0.0, 0.0, 0.0, 0.0)

    @classmethod
    def lab(cls) -> "NoiseModel":
        """Budget tuned to reproduce bench-top tomography accuracy with
        realistic controller granularity.  On 3,000 default scans of the
        six cardinal states (500 each, scan seeds 0-2999) the fidelity
        has mean 0.9987 and minimum 0.980, and 1.7% of scans fall below
        0.99.  The mount-drift term is the calibrated knob: large enough
        that tomography is measurably imperfect, small enough that the
        fine-tune climb stays reliable."""
        return cls(
            pd_sigma=0.005,
            background_v=0.05,
            angle_jitter_sigma=0.022,
            voltage_quantum_v=0.01,
            retardance_curve_error=0.01,
        )


@dataclass(frozen=True, eq=False)
class FiberDisturbance:
    """One static polarization rotation of the link, with its seed."""

    mueller: np.ndarray
    seed: int


def random_disturbance(seed: int) -> FiberDisturbance:
    """Uniformly random rotation of the polarization sphere.

    Drawn via a uniform unit quaternion (subgroup-algorithm construction),
    so repeated draws cover SO(3) without the axis clustering a naive
    Euler-angle draw would show.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, _TAG_DISTURBANCE]))
    u1, u2, u3 = rng.uniform(0.0, 1.0, 3)
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    x = a * math.sin(2.0 * math.pi * u2)
    y = a * math.cos(2.0 * math.pi * u2)
    z = b * math.sin(2.0 * math.pi * u3)
    w = b * math.cos(2.0 * math.pi * u3)
    rot = np.array(
        [
            [1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)],
            [2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)],
            [2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)],
        ]
    )
    m = np.eye(4)
    m[1:, 1:] = rot
    return FiberDisturbance(mueller=m, seed=int(seed))


def _curve_shape(v: np.ndarray, v0: float, power: float) -> np.ndarray:
    return 1.0 / (1.0 + (v / v0) ** power)


def synthetic_retardance_curve(
    index: int = 0,
    v_lo: float = 0.1,
    v_hi: float = 16.0,
    step: float = 0.01,
    wavelength_nm: float = 780.0,
) -> RetardanceCurve:
    """Plausible full-wave LCVR curve: monotone decreasing, saturating.

    Spans roughly 2.3*pi down to 0.12*pi across the drive range, so the
    whole physical actuation window is strictly interior.  ``index``
    detunes the shape slightly so a four-cell set is not four copies of
    one curve.
    """
    if not (0.0 < v_lo < v_hi):
        raise ValueError("need 0 < v_lo < v_hi")
    v = np.arange(v_lo, v_hi + step / 2.0, step)
    v0 = 2.0 + 0.15 * index
    power = 2.2 + 0.08 * index
    g = _curve_shape(v, v0, power)
    g_lo, g_hi = g[0], g[-1]
    top, bottom = 2.3 * math.pi, 0.12 * math.pi
    ret = bottom + (top - bottom) * (g - g_hi) / (g_lo - g_hi)
    return RetardanceCurve(
        drive_voltages=v,
        retardances=ret,
        retardance_errors=np.zeros_like(v),
        voltage_step=step,
        wavelength_nm=wavelength_nm,
    )


def synthetic_curve_set(n: int = 4) -> list[RetardanceCurve]:
    """One detuned synthetic curve per cell."""
    return [synthetic_retardance_curve(index=i) for i in range(n)]


def simulate_characterization_sweep(
    drive_voltages: np.ndarray,
    retardance_fn: Callable[[np.ndarray], np.ndarray],
    pd_sigma: float = 0.0,
    n_repeats: int = 10,
    gain: float = 1.0,
    background_v: float = 0.0,
    seed: int = 0,
) -> CharacterizationSweep:
    """Sweep of a cell between crossed polarizers at 45 degrees.

    The mean photodiode voltage at each drive point is
    ``background + gain * (1 - cos(delta)) / 2`` averaged over
    ``n_repeats`` noisy reads; the recorded SEM is the usual
    ``sigma / sqrt(n)``.  ``pd_sigma = 0`` gives an exact sweep.
    """
    v = np.asarray(drive_voltages, dtype=float)
    delta = np.asarray(retardance_fn(v), dtype=float)
    clean = background_v + gain * (1.0 - np.cos(delta)) / 2.0
    if pd_sigma > 0.0:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, 0x5EEF]))
        reads = clean[None, :] + rng.normal(0.0, pd_sigma, (int(n_repeats), v.size))
        mean = reads.mean(axis=0)
        sem = np.full(v.size, pd_sigma / math.sqrt(n_repeats))
        background = background_v + float(rng.normal(0.0, pd_sigma / math.sqrt(n_repeats)))
        background_sem = pd_sigma / math.sqrt(n_repeats)
    else:
        mean = clean
        sem = np.zeros(v.size)
        background = background_v
        background_sem = 0.0
    return CharacterizationSweep(
        drive_voltages=v,
        mean_pd_voltages=mean,
        pd_voltage_sems=sem,
        background_voltage=background,
        background_sem=background_sem,
    )


def _quantize(voltages: Sequence[float], quantum: float, curves: Sequence[RetardanceCurve]) -> list[float]:
    out = []
    for v, curve in zip(voltages, curves):
        if quantum > 0.0:
            v = round(float(v) / quantum) * quantum
        lo, hi = curve.voltage_span
        out.append(float(min(max(v, lo), hi)))
    return out


@lru_cache(maxsize=1)
def _curve_biases(seed: int, sigma: float, n: int) -> tuple[float, ...]:
    """Static bias of each cell's true curve on the link drawn from ``seed``.

    A pure function of its arguments, cached for the link last read: a
    run reads the same link at every step.
    """
    if sigma <= 0.0:
        return (0.0,) * n
    rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFF, _TAG_CURVE_BIAS]))
    return tuple(rng.normal(0.0, sigma, n).tolist())


def virtual_measure(
    disturbance: FiberDisturbance,
    compensator_voltages: Sequence[float],
    curves: Sequence[RetardanceCurve],
    true_source: StokesVector,
    noise: NoiseModel,
    seed: int = 0,
) -> NormalizedStokes:
    """One end-to-end polarimeter reading of the compensated link.

    The light path is source -> disturbance -> cell 1 (0 deg) -> cell 2
    (45 deg) -> cell 3 (0 deg) [-> cell 4 (45 deg)] -> polarimeter.  The
    requested drive voltages are quantized, mapped through each cell's
    *true* curve (the calibration curve plus that cell's static bias for
    this disturbance), and the resulting scan is analyzed exactly as a
    real one would be.  The scan takes :data:`DEFAULT_SCAN_SAMPLES`
    samples :data:`DEFAULT_SCAN_STEP` apart, with no mount offset and
    unit detector gain.
    """
    if len(compensator_voltages) != len(curves):
        raise ValueError(
            f"got {len(compensator_voltages)} voltages for {len(curves)} cells"
        )
    if len(curves) not in (3, 4):
        raise ValueError(f"stack must have 3 or 4 cells, got {len(curves)}")
    applied = _quantize(compensator_voltages, noise.voltage_quantum_v, curves)
    biases = _curve_biases(disturbance.seed, noise.retardance_curve_error, len(curves))
    elements = [disturbance.mueller]
    for i, (v, curve) in enumerate(zip(applied, curves)):
        delta = retardance_for_voltage(curve, v) + biases[i]
        elements.append(mueller_lcvr(_STACK_ANGLES[i], delta))
    s_out = apply(compose(elements), true_source)
    scan = simulate_scan(
        s_out, DEFAULT_SCAN_SAMPLES, DEFAULT_SCAN_STEP, noise=noise, seed=seed
    )
    return measure_stokes(scan)


@dataclass
class VirtualApparatus:
    """Callable measurement provider wrapping one disturbed link.

    Each call burns one measurement seed derived from ``seed`` and the
    call counter, so a loop run against this apparatus is reproducible
    while successive measurements stay independent.
    """

    disturbance: FiberDisturbance
    curves: list[RetardanceCurve]
    noise: NoiseModel
    source: StokesVector = field(default_factory=lambda: CARDINAL_STOKES["H"])
    seed: int = 0
    calls: int = 0

    def __call__(self, voltages: Sequence[float]) -> NormalizedStokes:
        scan_seed = int(
            np.random.SeedSequence([self.seed & 0xFFFFFFFF, self.calls]).generate_state(1)[0]
        )
        self.calls += 1
        return virtual_measure(
            self.disturbance,
            voltages,
            self.curves,
            self.source,
            self.noise,
            seed=scan_seed,
        )


@dataclass
class TrialStats:
    """Aggregate of a batch of compensation trials."""

    trials: int
    mean_steps_to_97: float | None
    mean_steps_to_99: float | None
    mean_steps_to_995: float | None
    unreached_97: int
    unreached_99: int
    unreached_995: int
    runs: list[CompensationRun] | None = None

    def to_json(self) -> dict:
        return {
            "trials": self.trials,
            "mean_steps_to_97": self.mean_steps_to_97,
            "mean_steps_to_99": self.mean_steps_to_99,
            "mean_steps_to_995": self.mean_steps_to_995,
            "unreached_97": self.unreached_97,
            "unreached_99": self.unreached_99,
            "unreached_995": self.unreached_995,
        }


def run_trials(
    n_trials: int,
    config: LoopConfig | None = None,
    noise: NoiseModel | None = None,
    base_seed: int = 0,
    curves: Sequence[RetardanceCurve] | None = None,
    target: NormalizedStokes | None = None,
    source: StokesVector | None = None,
    keep_runs: bool = False,
) -> TrialStats:
    """Compensate ``n_trials`` independent random disturbances.

    Trial ``i`` derives all of its randomness (disturbance and measurement
    noise) from ``SeedSequence([base_seed, i])``.  Means
    are taken over the trials that reached each fidelity level.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be positive, got {n_trials}")
    if config is None:
        config = LoopConfig()
    if noise is None:
        noise = NoiseModel.none()
    if curves is None:
        curves = synthetic_curve_set(4)
    else:
        curves = list(curves)
    if target is None:
        target = cardinal_target("H")
    if source is None:
        source = CARDINAL_STOKES["H"]

    reached: dict[str, list[int]] = {key: [] for key in REPORT_LEVELS}
    runs: list[CompensationRun] = []
    for i in range(int(n_trials)):
        state = np.random.SeedSequence([int(base_seed) & 0xFFFFFFFF, i]).generate_state(3)
        disturbance = random_disturbance(int(state[0]))
        apparatus = VirtualApparatus(
            disturbance=disturbance, curves=list(curves), noise=noise, source=source,
            seed=int(state[1]),
        )
        run = run_compensation(apparatus, curves, target, config, seed=int(state[2]))
        for key, level in REPORT_LEVELS.items():
            step = run.steps_to(level)
            if step is not None:
                reached[key].append(step)
        if keep_runs:
            runs.append(run)

    def mean_or_none(values: list[int]) -> float | None:
        return float(np.mean(values)) if values else None

    return TrialStats(
        trials=int(n_trials),
        **{f"mean_steps_to_{key}": mean_or_none(values) for key, values in reached.items()},
        **{f"unreached_{key}": int(n_trials) - len(values) for key, values in reached.items()},
        runs=runs if keep_runs else None,
    )
