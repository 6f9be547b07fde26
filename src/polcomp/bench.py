"""Virtual optical bench: a simulated link for exercising the full loop.

Everything the compensation loop touches in the lab has a stand-in here:
a random fiber disturbance (a uniformly distributed rotation of the
polarization sphere), the four-cell retarder stack actuated through its
calibration curves, and the rotating-wave-plate polarimeter.  The bench
is deliberately imperfect in the same ways the hardware is — drive
voltages quantize, each cell's true curve is biased against the
calibration used to actuate it, and every reading's Fourier sums carry
detector noise and slow mount drift.  Those sums are drawn from their
exact distribution, which holds for the bench's scan (see
:func:`virtual_measure`), instead of from simulated samples.

All randomness flows from explicit integer seeds through
``numpy.random.SeedSequence``, each consumer keyed by the seed and a tag
of its own, so that any trial can be replayed bit-for-bit.  A
:class:`VirtualApparatus` draws every reading from one generator and the
same count of draws per reading, so its reading ``k`` replays by
replaying its first ``k`` calls, whatever voltages they were given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
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
from .polarimetry import _drawn_coefficients, _scan_rng, measure_stokes, simulate_scan  # noqa: F401
from .stokes import (
    CARDINAL_STOKES,
    NormalizedStokes,
    StokesVector,
    _embed,
    _lcvr_rows,
    _retarder_block,
    _rotate,
    cardinal_target,
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

#: Seed-stream tags: a consumer's key is ``[seed, tag]``, so the same
#: integer seed never feeds two different consumers the same bits.  The
#: scan's is ``polarimetry._TAG_SCAN``.  Tags with the top bit set lie
#: past any trial index that :func:`run_trials` keys with
#: ``[base_seed, i]``.  No tag may be 0: ``SeedSequence`` drops trailing
#: zero words, so ``[seed, 0]`` is the stream of ``[seed]``.
_TAG_DISTURBANCE = 0xD157
_TAG_SWEEP = 0x5EEF
_TAG_CURVE_BIAS = 0x8000_B1A5
_TAG_APPARATUS = 0x8000_A995


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
        for f in fields(self):
            val = getattr(self, f.name)
            if not (math.isfinite(val) and val >= 0.0):
                raise ValueError(f"{f.name} must be finite and non-negative, got {val!r}")

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
        fine phase's local step stays reliable."""
        return cls(
            pd_sigma=0.005,
            background_v=0.05,
            angle_jitter_sigma=0.022,
            voltage_quantum_v=0.01,
            retardance_curve_error=0.01,
        )


@dataclass(frozen=True, eq=False)
class FiberDisturbance:
    """One static polarization rotation of the link, with its seed.

    ``mueller`` must be a pure retarder: anything else (a polarizer, a
    depolarizer) raises :class:`~polcomp.stokes.NonRetarderError`, since
    the bench turns only the polarized part ``(S1, S2, S3)`` through it.
    It is copied and read-only after construction, so it stays checked.
    """

    mueller: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        m = np.array(self.mueller, dtype=float)
        _retarder_block(m)
        m.flags.writeable = False
        object.__setattr__(self, "mueller", m)


def random_disturbance(seed: int) -> FiberDisturbance:
    """Uniformly random rotation of the polarization sphere.

    Drawn via a uniform unit quaternion (subgroup-algorithm construction),
    so repeated draws cover SO(3) without the axis clustering a naive
    Euler-angle draw would show.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, _TAG_DISTURBANCE]))
    u1, u2, u3 = rng.uniform(0.0, 1.0, 3).tolist()
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    x = a * math.sin(2.0 * math.pi * u2)
    y = a * math.cos(2.0 * math.pi * u2)
    z = b * math.sin(2.0 * math.pi * u3)
    w = b * math.cos(2.0 * math.pi * u3)
    rows = (
        (1.0 - 2.0 * (y * y + z * z), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y)),
        (2.0 * (x * y + w * z), 1.0 - 2.0 * (x * x + z * z), 2.0 * (y * z - w * x)),
        (2.0 * (x * z - w * y), 2.0 * (y * z + w * x), 1.0 - 2.0 * (x * x + y * y)),
    )
    return FiberDisturbance(mueller=_embed(rows), seed=int(seed))


def _curve_shape(v: np.ndarray, v0: float, power: float) -> np.ndarray:
    return 1.0 / (1.0 + (v / v0) ** power)


def synthetic_retardance_curve(index: int = 0) -> RetardanceCurve:
    """Plausible full-wave LCVR curve at 780 nm: monotone decreasing,
    saturating.

    Spans roughly 2.3*pi down to 0.12*pi across the 0.1-16 V drive range
    (0.01 V apart), so the whole physical actuation window is strictly
    interior.  ``index`` detunes the shape slightly so a four-cell set is
    not four copies of one curve.
    """
    step = 0.01
    v = np.arange(0.1, 16.0 + step / 2.0, step)
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
        wavelength_nm=780.0,
    )


def synthetic_curve_set(n: int = 4) -> list[RetardanceCurve]:
    """One detuned synthetic curve per cell."""
    return [synthetic_retardance_curve(index=i) for i in range(n)]


def simulate_characterization_sweep(
    drive_voltages: np.ndarray,
    retardance_fn: Callable[[np.ndarray], np.ndarray],
    pd_sigma: float = 0.0,
    n_repeats: int = 10,
    seed: int = 0,
) -> CharacterizationSweep:
    """Sweep of a cell between crossed polarizers at 45 degrees.

    The mean photodiode voltage at each drive point is
    ``(1 - cos(delta)) / 2`` (unit gain, no background) averaged over
    ``n_repeats`` noisy reads; the recorded SEM is the usual
    ``sigma / sqrt(n)``.  ``pd_sigma = 0`` gives an exact sweep.
    """
    v = np.asarray(drive_voltages, dtype=float)
    delta = np.asarray(retardance_fn(v), dtype=float)
    clean = (1.0 - np.cos(delta)) / 2.0
    if pd_sigma > 0.0:
        rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, _TAG_SWEEP]))
        reads = clean[None, :] + rng.normal(0.0, pd_sigma, (int(n_repeats), v.size))
        mean = reads.mean(axis=0)
        sem = np.full(v.size, pd_sigma / math.sqrt(n_repeats))
        background = float(rng.normal(0.0, pd_sigma / math.sqrt(n_repeats)))
        background_sem = pd_sigma / math.sqrt(n_repeats)
    else:
        mean = clean
        sem = np.zeros(v.size)
        background = 0.0
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
    seed: int | np.random.Generator = 0,
) -> NormalizedStokes:
    """One end-to-end polarimeter reading of the compensated link.

    The light path is source -> disturbance -> cell 1 (0 deg) -> cell 2
    (45 deg) -> cell 3 (0 deg) [-> cell 4 (45 deg)] -> polarimeter.  The
    requested drive voltages are quantized and mapped through each cell's
    *true* curve (the calibration curve plus that cell's static bias for
    this disturbance).  The reading's scan would take
    :data:`DEFAULT_SCAN_SAMPLES` samples :data:`DEFAULT_SCAN_STEP` apart,
    one uniform revolution with i.i.d. Gaussian detector noise, one mount
    drift, no mount offset and unit gain, so its Fourier sums are drawn
    from their exact distribution instead
    (:func:`~polcomp.polarimetry._drawn_coefficients`).  ``seed`` seeds
    them as in :func:`~polcomp.polarimetry.simulate_scan`: an integer
    derives the scan's own generator, a ``Generator`` is drawn from.
    """
    if len(compensator_voltages) != len(curves):
        raise ValueError(
            f"got {len(compensator_voltages)} voltages for {len(curves)} cells"
        )
    if len(curves) not in (3, 4):
        raise ValueError(f"stack must have 3 or 4 cells, got {len(curves)}")
    applied = _quantize(compensator_voltages, noise.voltage_quantum_v, curves)
    biases = _curve_biases(disturbance.seed, noise.retardance_curve_error, len(curves))
    # Pure rotations: S0 passes through, (S1, S2, S3) turns element by element.
    s = (true_source.s1, true_source.s2, true_source.s3)
    s = _rotate(disturbance.mueller[1:, 1:].tolist(), s)
    for i, (v, curve) in enumerate(zip(applied, curves)):
        delta = retardance_for_voltage(curve, v) + biases[i]
        s = _rotate(_lcvr_rows(_STACK_ANGLES[i], delta), s)
    s_out = StokesVector(true_source.s0, *s)
    return measure_stokes(_drawn_coefficients(s_out, DEFAULT_SCAN_SAMPLES, noise, _scan_rng(seed)))


@dataclass
class VirtualApparatus:
    """Callable measurement provider wrapping one disturbed link.

    The apparatus builds one generator from ``seed`` when it is made, and
    each call draws its reading's noise from it, the same count of
    draws whatever the voltages.  A loop run against this apparatus is
    reproducible, successive measurements stay independent, and call
    ``k`` gives the same reading after any first ``k - 1`` calls.
    """

    disturbance: FiberDisturbance
    curves: list[RetardanceCurve]
    noise: NoiseModel
    source: StokesVector = field(default_factory=lambda: CARDINAL_STOKES["H"])
    seed: int = 0
    calls: int = field(default=0, init=False)
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        key = np.random.SeedSequence([self.seed & 0xFFFFFFFF, _TAG_APPARATUS])
        self._rng = np.random.default_rng(key)

    def __call__(self, voltages: Sequence[float]) -> NormalizedStokes:
        self.calls += 1
        return virtual_measure(
            self.disturbance,
            voltages,
            self.curves,
            self.source,
            self.noise,
            seed=self._rng,
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
        """Every field but ``runs``, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "runs"}


def run_trials(
    n_trials: int,
    config: LoopConfig | None = None,
    noise: NoiseModel | None = None,
    base_seed: int = 0,
    curves: Sequence[RetardanceCurve] | None = None,
    target: NormalizedStokes | None = None,
    keep_runs: bool = False,
) -> TrialStats:
    """Compensate ``n_trials`` independent random disturbances.

    Trial ``i`` derives all of its randomness (disturbance and measurement
    noise) from ``SeedSequence([base_seed, i])``.  The source is H.  Means
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

    reached: dict[str, list[int]] = {key: [] for key in REPORT_LEVELS}
    runs: list[CompensationRun] = []
    for i in range(int(n_trials)):
        state = np.random.SeedSequence([int(base_seed) & 0xFFFFFFFF, i]).generate_state(2)
        disturbance = random_disturbance(int(state[0]))
        apparatus = VirtualApparatus(
            disturbance=disturbance, curves=list(curves), noise=noise, seed=int(state[1]),
        )
        run = run_compensation(apparatus, curves, target, config)
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
