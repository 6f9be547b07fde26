"""Liquid-crystal variable retarder calibration.

A characterization sweep steps the drive voltage while the cell sits
between crossed/parallel polarizers, so the photodiode sees

    V_pd(delta) = V_back + (V_max - V_back) * (1 - cos delta) / 2.

Inverting the cosine gives only the principal value ``arccos`` in
``[0, pi]``; a full-wave cell folds the true curve at every multiple of
pi.  A nematic cell's curve is monotone, so its folds alternate between
0 and pi: a run of visits to one boundary is one fold.
:func:`unwrap_retardance` flips the branch once per such visit, next to
the visit's sample nearest the boundary, on the side that a three-sample
closed form gives: exact wherever the curve's second difference is
constant across the fold.  :func:`build_curve` then orients the
result as a non-increasing curve (retardance drops as voltage rises in a
nematic cell), shifts it into the physical branch whose minimum lies in
the first wave, and fits it to fall strictly: every :class:`RetardanceCurve`
does, so a voltage lookup is one ``np.interp``.  A sweep, a curve and a
polarimeter scan check the column rules they share in one place,
:func:`polcomp.stokes._sampled_columns`.

The propagated retardance uncertainty uses the closed form

    ddelta = sqrt((dV_meas^2 + dV_back^2)
                  / ((V_meas - V_back) * (V_max - V_meas))),

the first-order propagation of the arccos with the calibration span
``V_max - V_back`` treated as a fixed constant.  It diverges at the
sweep endpoints, where the curve records a missing error bar instead.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .stokes import _sampled_columns

__all__ = [
    "CalibrationError",
    "UnwrapAmbiguityError",
    "CharacterizationSweep",
    "RetardanceCurve",
    "retardance_from_intensity",
    "retardance_error",
    "unwrap_retardance",
    "build_curve",
    "retardance_for_voltage",
    "voltage_for_retardance",
    "curve_slope_at",
]

#: Distance from a branch boundary (0 or pi) within which a sample visits
#: that boundary; a sequence must vary by at least this much to unwrap.
FOLD_THRESHOLD = 0.15
#: Slack when shifting the unwrapped curve into [0, 2*pi): lets noisy
#: fold dips reach slightly below zero without dragging the whole curve
#: up by a full wave.
_BRANCH_SLACK = 0.3
#: Minimum number of sweep points accepted for calibration.
MIN_SWEEP_POINTS = 10


class CalibrationError(ValueError):
    """Sweep data cannot be converted to retardance (bad span, etc.)."""


class UnwrapAmbiguityError(ValueError):
    """The folded sequence does not determine a unique continuous curve."""


@dataclass(eq=False)
class CharacterizationSweep:
    """Voltage sweep of one LCVR: drive RMS voltage vs mean PD voltage.

    At least ``MIN_SWEEP_POINTS`` finite rows at strictly increasing drive
    voltages, with non-negative SEMs.  A sweep equals only itself.
    """

    drive_voltages: np.ndarray
    mean_pd_voltages: np.ndarray
    pd_voltage_sems: np.ndarray
    background_voltage: float
    background_sem: float = 0.0

    def __post_init__(self) -> None:
        _sampled_columns(self, ("drive_voltages", "mean_pd_voltages", "pd_voltage_sems"),
                         MIN_SWEEP_POINTS, finite=3)
        if np.any(self.pd_voltage_sems < 0.0):
            raise ValueError("pd_voltage_sems must be non-negative")
        if not math.isfinite(self.background_voltage):
            raise ValueError("background_voltage must be finite")
        if not (math.isfinite(self.background_sem) and self.background_sem >= 0.0):
            raise ValueError("background_sem must be a non-negative number")

    def __len__(self) -> int:
        return int(self.drive_voltages.size)


@dataclass(eq=False)
class RetardanceCurve:
    """Unwrapped retardance vs drive voltage for one cell.

    At least two knots at strictly increasing, finite drive voltages.  The
    retardance is finite and falls strictly from knot to knot, as a nematic
    cell's does; any other curve is refused with a ``ValueError`` naming
    the first knot that does not fall.  ``retardance_errors`` holds NaN
    where no finite error bar exists (clamped arccos arguments and the
    sweep maximum).  ``fold_count`` is recorded by :func:`build_curve`; curves
    constructed directly (e.g. synthetic ones) may leave it ``None``.  The
    three arrays are private read-only copies, so the lookup arrays a
    curve derives on its first lookup stay valid; new data makes a new
    curve.  A curve equals only itself and hashes by identity, so
    per-curve work can be memoized on it.
    """

    drive_voltages: np.ndarray
    retardances: np.ndarray
    retardance_errors: np.ndarray
    wavelength_nm: float | None = None
    fold_count: int | None = None

    def __post_init__(self) -> None:
        _sampled_columns(self, ("drive_voltages", "retardances", "retardance_errors"), 2, finite=2)
        r = self.retardances
        held = np.flatnonzero(r[1:] >= r[:-1])
        if held.size:
            i = int(held[0]) + 1
            raise ValueError(f"retardances must fall strictly from knot to knot: knot {i} "
                             f"({float(r[i])!r} rad at {float(self.drive_voltages[i])!r} V) "
                             f"does not fall below knot {i - 1} ({float(r[i - 1])!r} rad)")
        if not (self.wavelength_nm is None or 0.0 < self.wavelength_nm < math.inf):
            raise ValueError(f"wavelength_nm must be in (0, inf), got {self.wavelength_nm!r}")
        for arr in (self.drive_voltages, self.retardances, self.retardance_errors):
            arr.flags.writeable = False

    def __len__(self) -> int:
        return int(self.drive_voltages.size)

    @cached_property
    def retardance_span(self) -> tuple[float, float]:
        """Lowest and highest retardance on the curve: its last and first knot."""
        return float(self.retardances[-1]), float(self.retardances[0])

    @cached_property
    def voltage_span(self) -> tuple[float, float]:
        """Lowest and highest calibrated drive voltage, as Python floats."""
        return float(self.drive_voltages[0]), float(self.drive_voltages[-1])

    @cached_property
    def full_wave_voltage(self) -> float:
        """Drive voltage of one full wave (2 pi) of retardance."""
        return voltage_for_retardance(self, 2.0 * math.pi)

    @cached_property
    def _rising(self) -> tuple[np.ndarray, np.ndarray]:
        """The knot retardances and voltages reversed, so retardance rises,
        and contiguous for ``np.interp``."""
        return (np.ascontiguousarray(self.retardances[::-1]),
                np.ascontiguousarray(self.drive_voltages[::-1]))

    @cached_property
    def _slopes(self) -> np.ndarray:
        """``[i - 1]`` is the slope :func:`curve_slope_at` reports between
        knots ``i - 1`` and ``i + 1`` (the last knot, for ``i = n - 1``)."""
        v, r = self.drive_voltages, self.retardances
        i = np.arange(1, r.size)
        hi = np.minimum(i + 1, r.size - 1)
        return np.abs((r[hi] - r[i - 1]) / (v[hi] - v[i - 1]))

    @cached_property
    def _knots(self) -> tuple[array, array, array]:
        """The knot voltages, the knot retardances and each interval's
        ``dr/dv`` as arrays of doubles, so the scalar
        :func:`retardance_for_voltage` reads Python floats and makes no
        numpy call."""
        v, r = self.drive_voltages, self.retardances
        return (array("d", v.tobytes()), array("d", r.tobytes()),
                array("d", (np.diff(r) / np.diff(v)).tobytes()))


def _principal_retardance(v_meas, v_back: float, v_max: float):
    """arccos inversion with clamping; returns (retardance, clamped mask)."""
    arg = 1.0 - 2.0 * (np.asarray(v_meas, dtype=float) - v_back) / (v_max - v_back)
    clamped = np.abs(arg) > 1.0
    return np.arccos(np.clip(arg, -1.0, 1.0)), clamped


def retardance_from_intensity(v_meas, v_back: float, v_max: float):
    """Principal-value retardance ``arccos(1 - 2 (V - Vb) / (Vmax - Vb))``.

    Accepts a scalar or an array of measured voltages.  Arguments that
    fall outside [-1, 1] from measurement noise are clamped to the
    nearest bound, so the result always lies in ``[0, pi]``.

    Raises
    ------
    CalibrationError
        If ``v_max <= v_back`` (no usable span).
    """
    v_back = float(v_back)
    v_max = float(v_max)
    if not (math.isfinite(v_back) and math.isfinite(v_max)):
        raise CalibrationError("v_back and v_max must be finite")
    if v_max <= v_back:
        raise CalibrationError(f"v_max ({v_max!r}) must exceed v_back ({v_back!r})")
    ret, _ = _principal_retardance(v_meas, v_back, v_max)
    return float(ret) if np.ndim(v_meas) == 0 else ret


def _error_array(v_meas, v_back, v_max, sem_meas, sem_back):
    # Valid strictly inside the span; callers mask the endpoints.
    num = np.asarray(sem_meas, dtype=float) ** 2 + float(sem_back) ** 2
    den = (np.asarray(v_meas, dtype=float) - v_back) * (v_max - np.asarray(v_meas, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.sqrt(num / den)


def retardance_error(
    v_meas: float, v_back: float, v_max: float, sem_meas: float, sem_back: float
) -> float:
    """Propagated retardance uncertainty (radians) at one sweep point.

    First-order propagation of the arccos with the span ``v_max - v_back``
    held fixed.  Undefined at the endpoints, where the derivative of the
    arccos diverges.

    Raises
    ------
    ValueError
        If ``v_meas`` does not lie strictly between ``v_back`` and
        ``v_max``, or an uncertainty is negative.
    """
    v_meas, v_back, v_max = float(v_meas), float(v_back), float(v_max)
    sem_meas, sem_back = float(sem_meas), float(sem_back)
    if v_max <= v_back:
        raise CalibrationError(f"v_max ({v_max!r}) must exceed v_back ({v_back!r})")
    if not (v_back < v_meas < v_max):
        raise ValueError(
            f"v_meas = {v_meas!r} must lie strictly inside ({v_back!r}, {v_max!r}); "
            "the error bar is undefined at the endpoints"
        )
    if sem_meas < 0.0 or sem_back < 0.0:
        raise ValueError("uncertainties must be non-negative")
    return float(_error_array(v_meas, v_back, v_max, sem_meas, sem_back))


def _boundary_runs(raw: np.ndarray) -> list[tuple[int, int, int]]:
    """Visits to a branch boundary, (first, last, boundary 0|1), in order.

    Samples are labelled near 0, near pi, or neither, and the labelled ones
    split wherever the label changes: a monotone curve's folds alternate,
    so same-boundary visits merge however far apart, and visits alternate.
    """
    label = np.where(raw < FOLD_THRESHOLD, 0, np.where(raw > math.pi - FOLD_THRESHOLD, 1, -1))
    idx = np.flatnonzero(label >= 0)
    visits = np.split(idx, np.flatnonzero(np.diff(label[idx])) + 1)
    return [(int(v[0]), int(v[-1]), int(label[v[0]])) for v in visits if v.size]


def _fold_end(raw: np.ndarray, a: int, b: int, boundary: int) -> int:
    """Last sample before the fold of the interior visit ``(a, b)``.

    ``d`` is each sample's distance to the boundary.  The fold lies next
    to the visit's nearest sample ``m``; sign the curve ``y`` positive
    before the fold, so ``d[m-1] - d[m+1] = 2 y[m] + c`` with ``c`` its
    second difference.  ``c`` is taken as the mean of the one-sided second
    differences three samples out, all before the fold on the left and
    all after it on the right (0 near the sequence ends), and the sign of
    ``y[m]`` says which side of the fold ``m`` is on.  This is exact for
    any crossing with a constant second difference.  The sample before
    the visit always keeps the old branch and the one after it takes the
    new one, so the choice changes only samples inside the visit.
    """
    d = raw if boundary == 0 else math.pi - raw
    m = a + int(np.argmin(d[a : b + 1]))  # the first of equal distances
    c = 0.0
    if 3 <= m <= raw.size - 4:
        c = (d[m - 3] - 2.0 * d[m - 2] + d[m - 1] - d[m + 1] + 2.0 * d[m + 2] - d[m + 3]) / 2.0
    return m - 1 if d[m - 1] - d[m + 1] - c < 0.0 else m


def _unwrap_with_folds(raw: np.ndarray) -> tuple[np.ndarray, list[int]]:
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 1 or raw.size < 3:
        raise ValueError("need a 1-D sequence of at least 3 principal values")
    if not np.all(np.isfinite(raw)):
        raise ValueError("principal values must be finite")
    if np.any(raw < -1e-9) or np.any(raw > math.pi + 1e-9):
        raise ValueError("principal values must lie in [0, pi]")
    if np.any(np.abs(np.diff(raw)) >= math.pi / 2.0):
        raise UnwrapAmbiguityError(
            "consecutive principal values jump by >= pi/2; sampling too coarse to unwrap"
        )
    if float(np.ptp(raw)) < FOLD_THRESHOLD:
        raise UnwrapAmbiguityError("no retardance variation to unwrap")

    n = raw.size
    two_pi = 2.0 * math.pi
    out = np.empty(n)
    s, k = 1, 0
    pos = 0
    folds: list[int] = []
    for a, b, boundary in _boundary_runs(raw):
        if a <= 0 or b >= n - 1:
            continue  # a reversal cannot be confirmed at the sequence ends
        j = _fold_end(raw, a, b, boundary)
        out[pos : j + 1] = s * raw[pos : j + 1] + two_pi * k
        pos = j + 1
        # Continuity across a fold: out = s*raw + 2*pi*k.  A fold at 0 keeps
        # the offset; a fold at pi shifts it by one wave in the old direction.
        s, k = -s, k + s * boundary
        folds.append(j)
    out[pos:] = s * raw[pos:] + two_pi * k
    if np.any(np.abs(np.diff(out)) >= math.pi / 2.0):
        raise UnwrapAmbiguityError("rebuilt sequence is discontinuous; fold placement failed")
    return out, folds


def unwrap_retardance(raw) -> np.ndarray:
    """Rebuild a continuous retardance sequence from arccos principal values.

    The output preserves ``cos(out) == cos(raw)`` pointwise and starts on
    the branch of the first sample (``out[0] == raw[0]``); the caller owns
    any global reflection/offset (see :func:`build_curve`).

    Raises
    ------
    UnwrapAmbiguityError
        When consecutive samples are too far apart to identify folds, or
        the sequence carries no variation at all.
    """
    out, _ = _unwrap_with_folds(raw)
    return out


def _pool_adjacent_violators(y: np.ndarray, w: np.ndarray) -> tuple[list[float], list[int]]:
    """Weighted least-squares non-increasing fit of ``y``: its blocks' values
    (falling strictly, so a tie pools too) and sizes.  A value is its
    block's weighted mean, updated as blocks join, so a block of one knot or
    of equal knots keeps their value."""
    blocks: list[tuple[float, float, int]] = []  # (value, weight, size)
    for value, weight in zip(y.tolist(), w.tolist()):
        size = 1
        while blocks and blocks[-1][0] <= value:
            prior, prior_weight, prior_size = blocks.pop()
            value = prior + (value - prior) * (weight / (prior_weight + weight))
            weight, size = weight + prior_weight, size + prior_size
        blocks.append((value, weight, size))
    values, _, sizes = zip(*blocks)
    return list(values), list(sizes)


def _falling_fit(y: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """The pool-adjacent-violators fit of ``y``, tilted to fall strictly.

    Each knot weighs ``1 / err**2``, scaled so that no sum overflows; a
    NaN or zero error bar takes the median finite weight, and if none is
    finite (a noise-free sweep) every knot weighs the same.  The fit
    holds each pooled block flat, but the one lookup path, ``np.interp``
    on the knots in rising retardance, needs them to rise strictly.  So
    each block is tilted evenly about its value across less than half
    the gap to the nearer neighbouring block, which keeps the blocks in
    order; knots that already fall strictly come back bit for bit.  A
    fit that is one flat block raises :class:`CalibrationError`.
    """
    with np.errstate(divide="ignore", over="ignore"):
        w = 1.0 / errors**2
    finite = np.isfinite(w) & (w > 0.0)
    w = np.where(finite, w, np.median(w[finite]) if finite.any() else 1.0)
    values, sizes = _pool_adjacent_violators(y, np.maximum(w / w.max(), np.finfo(float).tiny))
    if len(values) == y.size:
        return y
    if len(values) == 1:
        raise CalibrationError("retardance does not fall across the sweep")
    gaps = -np.diff(values)
    half = np.minimum(np.append(gaps, np.inf), np.insert(gaps, 0, np.inf)) / 2.0
    size = np.repeat(sizes, sizes)
    j = np.arange(y.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return np.repeat(values, sizes) + np.repeat(half, sizes) * ((size - 1) / 2.0 - j) / size


def build_curve(
    sweep: CharacterizationSweep, wavelength_nm: float | None = None
) -> RetardanceCurve:
    """Calibrate one LCVR: sweep -> continuous retardance-vs-voltage curve.

    ``v_max`` is taken as the largest observed mean PD voltage (its own
    uncertainty is excluded from the propagated error bars).  After
    unwrapping, the curve is oriented to be non-increasing with voltage
    and shifted so its minimum sits inside the first wave — the branch a
    nematic cell actually occupies at high drive.  Points whose arccos
    argument was clamped, and the extremes of the span, get NaN error
    bars rather than infinite ones.  Last, :func:`_falling_fit` makes the
    retardances fall strictly, keeping every knot.
    """
    v_back = sweep.background_voltage
    v_max = float(sweep.mean_pd_voltages.max())
    if v_max <= v_back:
        raise CalibrationError(f"sweep maximum {v_max!r} does not exceed background {v_back!r}")
    raw, clamped = _principal_retardance(sweep.mean_pd_voltages, v_back, v_max)
    unwrapped, folds = _unwrap_with_folds(raw)

    # Orient as non-increasing (compare robust ends, noise tolerant).
    head = float(np.median(unwrapped[: min(5, unwrapped.size)]))
    tail = float(np.median(unwrapped[-min(5, unwrapped.size) :]))
    if tail > head:
        unwrapped = -unwrapped
    # Shift the whole curve so its minimum lies in the first wave.
    k = math.floor((float(unwrapped.min()) + _BRANCH_SLACK) / (2.0 * math.pi))
    if k != 0:
        unwrapped = unwrapped - 2.0 * math.pi * k

    errors = _error_array(
        sweep.mean_pd_voltages, v_back, v_max, sweep.pd_voltage_sems, sweep.background_sem
    )
    bad = clamped | (sweep.mean_pd_voltages <= v_back) | (sweep.mean_pd_voltages >= v_max)
    errors = np.where(bad, np.nan, errors)

    return RetardanceCurve(
        drive_voltages=sweep.drive_voltages,
        retardances=_falling_fit(unwrapped, errors),
        retardance_errors=errors,
        wavelength_nm=wavelength_nm,
        fold_count=len(folds),
    )


def retardance_for_voltage(curve: RetardanceCurve, voltage: float) -> float:
    """Piecewise-linear interpolation of the curve at a drive voltage.

    The arithmetic is that of ``np.interp``, done on Python floats: a
    knot returns its own retardance, and a voltage inside an interval
    ``slope * (voltage - v_j) + r_j``.
    """
    voltage = float(voltage)
    lo, hi = curve.voltage_span
    if not (lo <= voltage <= hi):
        raise ValueError(f"voltage {voltage!r} outside calibrated span [{lo!r}, {hi!r}]")
    xs, ys, dr_dv = curve._knots
    j = bisect_right(xs, voltage) - 1
    if j == len(xs) - 1 or xs[j] == voltage:
        return ys[j]
    return dr_dv[j] * (voltage - xs[j]) + ys[j]


def voltage_for_retardance(
    curve: RetardanceCurve, target: float | np.ndarray
) -> float | np.ndarray:
    """Drive voltage whose interpolated retardance is ``target``.

    Accepts a scalar or an array of targets and returns a float or an
    array to match; the coarse solve looks up every row of its solution
    family in one call per cell.  The curve falls strictly, so this is
    ``np.interp`` on its knots in rising retardance: a target on a knot
    returns that knot's voltage exactly, and one outside the span clamps
    to the end voltage, never fatal: the caller decides whether an
    out-of-span target is acceptable before actuating it.
    """
    t = np.asarray(target, dtype=float)
    if not np.isfinite(t).all():
        raise ValueError(f"target retardance must be finite, got {target!r}")
    voltage = np.interp(t, *curve._rising)
    return float(voltage) if t.ndim == 0 else voltage


def curve_slope_at(
    curve: RetardanceCurve, voltage: float | np.ndarray
) -> float | np.ndarray:
    """Local |d(retardance)/d(voltage)| near a drive voltage (scalar or array)."""
    i = curve.drive_voltages[1:-1].searchsorted(voltage)  # in [0, n - 2]
    slope = curve._slopes[i]
    return float(slope) if slope.ndim == 0 else slope
