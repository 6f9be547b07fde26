"""Rotating quarter-wave-plate polarimetry.

A scan rotates a QWP in front of a fixed horizontal PBS while a
photodiode records one voltage per wave-plate angle.  The detected
intensity for an input state ``(S0, S1, S2, S3)`` and fast-axis angle
``phi`` is

    I(phi) = (S0 + S1 cos^2(2 phi) + S2 sin(2 phi) cos(2 phi)
              - S3 sin(2 phi)) / 2,

a truncated Fourier series in ``phi`` whose harmonics (DC, sin 2phi,
cos 4phi, sin 4phi) carry the four Stokes components.  Discrete sums
over one full revolution recover the coefficients; a constant detector
background is subtracted sample-wise and a known mount offset ``alpha``
is subtracted from the recorded angles before the trigonometric
weights are formed.  Gain drops out entirely once the estimate is
normalized by its polarized magnitude.

A scan made by :func:`simulate_scan` lies on a fixed grid ``n * step``
turned by one angle, its mount offset plus its drift.  Its sums come
from one product with the grid's cached basis, turned through that
angle by the angle-addition formulas, instead of ``sin`` and ``cos`` of
every sample.  Those sums hold only for the grid's own angles, so the
scan's ``angles`` array is read-only.  A scan whose ``angles`` were
reassigned or made writable, as a copy's are, takes the trigonometric
sums, as does every scan read from a file or built by hand.  The two
agree to rounding.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .stokes import NormalizedStokes, StokesVector, degree_of_polarization, normalize

if TYPE_CHECKING:  # pragma: no cover - import only for annotations
    from .bench import NoiseModel

__all__ = [
    "PolarimeterScan",
    "FourierCoefficients",
    "ideal_intensity",
    "simulate_scan",
    "extract_coefficients",
    "stokes_from_coefficients",
    "measure_stokes",
]

log = logging.getLogger(__name__)

#: Minimum number of samples for a usable scan.
MIN_SAMPLES = 16
#: Seed-stream tag of a scan seeded by an integer.
_TAG_SCAN = 0x5CA9
#: Slack factor (in units of the mean angular step) allowed on the
#: full-revolution span check, to tolerate encoder jitter at the ends.
_SPAN_SLACK_STEPS = 1.25


@dataclass(eq=False)
class PolarimeterScan:
    """A full rotation worth of samples plus its calibration constants.

    ``angles`` are the *measured* mount angles in radians (monotonically
    increasing, spanning at least one revolution minus one step);
    ``offset_alpha`` is the known angle of the wave-plate fast axis when
    the mount reads zero, and ``background_voltage`` is the detector
    reading with the beam blocked.  Both are subtracted during analysis,
    never at acquisition time.  A scan equals only itself.
    """

    angles: np.ndarray
    voltages: np.ndarray
    background_voltage: float = 0.0
    offset_alpha: float = 0.0
    #: Set by :func:`simulate_scan` only: ``(angles, basis, alpha + drift)``
    #: of the grid the scan was drawn on.
    _grid: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.angles = np.asarray(self.angles, dtype=float).copy()
        self.voltages = np.asarray(self.voltages, dtype=float).copy()
        if self.angles.ndim != 1 or self.voltages.ndim != 1:
            raise ValueError("angles and voltages must be 1-D")
        if self.angles.size != self.voltages.size:
            raise ValueError(
                f"length mismatch: {self.angles.size} angles vs "
                f"{self.voltages.size} voltages"
            )
        n = self.angles.size
        if n < MIN_SAMPLES:
            raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n}")
        if not (np.isfinite(self.angles).all() and np.isfinite(self.voltages).all()):
            raise ValueError("scan contains non-finite values")
        if not math.isfinite(self.background_voltage) or not math.isfinite(self.offset_alpha):
            raise ValueError("background_voltage and offset_alpha must be finite")
        # For finite doubles a[i + 1] - a[i] <= 0 exactly when a[i + 1] <= a[i].
        if (self.angles[1:] <= self.angles[:-1]).any():
            raise ValueError("angles must be strictly increasing")
        span = float(self.angles[-1] - self.angles[0])
        mean_step = span / (n - 1)
        if span < 2.0 * math.pi - _SPAN_SLACK_STEPS * mean_step:
            raise ValueError(
                f"scan spans {span:.6f} rad; a full revolution "
                f"(>= 2*pi - one step) is required"
            )

    def __len__(self) -> int:
        return int(self.angles.size)


@dataclass(frozen=True)
class FourierCoefficients:
    """Harmonic content of one scan: DC, sin 2phi, cos 4phi, sin 4phi."""

    a0: float
    b0: float
    c0: float
    d0: float


def _intensity_array(s: StokesVector, s2, c2c2, s2c2, gain: float = 1.0):
    """Detected intensity times ``gain``, given ``sin(2 phi)``,
    ``cos^2(2 phi)`` and ``sin(2 phi) cos(2 phi)``.

    The factors fold into the four scalar weights, so an array input
    costs one product per harmonic and three sums.
    """
    h = 0.5 * gain
    return h * s.s0 + (h * s.s1) * c2c2 + (h * s.s2) * s2c2 - (h * s.s3) * s2


@lru_cache(maxsize=8)
def _scan_grid(n_samples: int, step: float) -> tuple[np.ndarray, ...]:
    """Wave-plate angles ``n * step`` with their ``sin(2 phi)``,
    ``cos^2(2 phi)`` and ``sin(2 phi) cos(2 phi)``, and the 5 x n basis
    ``(1, sin 2phi, cos 2phi, cos 4phi, sin 4phi)`` of the Fourier sums:
    computed once per grid and shared, so read-only."""
    phi = np.arange(n_samples) * step
    s2, c2 = np.sin(2.0 * phi), np.cos(2.0 * phi)
    basis = np.stack((np.ones(n_samples), s2, c2, np.cos(4.0 * phi), np.sin(4.0 * phi)))
    grid = (phi, s2, c2 * c2, s2 * c2, basis)
    for arr in grid:
        arr.flags.writeable = False
    return grid


def ideal_intensity(s: StokesVector, phi: float) -> float:
    """Noise-free detected intensity behind the QWP + PBS at angle ``phi``.

    ``s`` must be physical light (validated); the result lies in
    ``[0, s0]`` for any fully polarized input.
    """
    s.validate()
    phi = float(phi)
    if not math.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi!r}")
    s2, c2 = math.sin(2.0 * phi), math.cos(2.0 * phi)
    return float(_intensity_array(s, s2, c2 * c2, s2 * c2))


def simulate_scan(
    s_in: StokesVector,
    n_samples: int,
    step: float,
    alpha: float = 0.0,
    noise: "NoiseModel | None" = None,
    seed: int | np.random.Generator = 0,
    gain: float = 1.0,
) -> PolarimeterScan:
    """Generate a synthetic scan of ``s_in`` with an optional noise model.

    The wave plate visits ``phi_n = n * step`` for ``n = 0 .. n_samples-1``
    and the product ``n_samples * step`` must cover a full revolution.
    Detector voltages are ``gain * I(phi_n) + background + N(0, pd_sigma)``;
    recorded angles are ``phi_n + alpha + drift`` where ``drift`` is a
    single per-scan draw from ``N(0, angle_jitter_sigma)`` standing in for
    the slow mount-zero wander seen between re-homings of a real stage.
    With ``noise=None`` (or an all-zero model) the scan is exact and the
    seed is irrelevant.

    The scan records its grid and the turn ``alpha + drift``, and its
    ``angles`` array is read-only: while ``scan.angles`` is still that
    read-only array, :func:`extract_coefficients` takes its sums from the
    grid.

    ``seed`` is an integer, from which the scan derives a generator of
    its own (tagged, so no other consumer of the same integer shares its
    bits), or a ``numpy.random.Generator`` that the scan draws from
    directly: the detector noise, then the drift, the same count of
    draws for every state.
    """
    s_in.validate()
    n_samples = int(n_samples)
    step = float(step)
    if n_samples < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples, got {n_samples}")
    if not (math.isfinite(step) and step > 0.0):
        raise ValueError(f"step must be a positive angle, got {step!r}")
    if n_samples * step < 2.0 * math.pi * (1.0 - 1e-12):
        raise ValueError(
            f"n_samples * step = {n_samples * step:.6f} rad does not cover a revolution"
        )
    gain = float(gain)
    if not (math.isfinite(gain) and gain > 0.0):
        raise ValueError(f"gain must be positive, got {gain!r}")

    phi, s2, c2c2, s2c2, basis = _scan_grid(n_samples, step)
    volts = _intensity_array(s_in, s2, c2c2, s2c2, gain)

    background = 0.0
    drift = 0.0
    if noise is not None:
        if isinstance(seed, np.random.Generator):
            rng = seed
        else:
            rng = np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, _TAG_SCAN]))
        background = float(noise.background_v)
        volts += background
        if noise.pd_sigma > 0.0:
            volts += rng.normal(0.0, noise.pd_sigma, n_samples)
        if noise.angle_jitter_sigma > 0.0:
            drift = float(rng.normal(0.0, noise.angle_jitter_sigma))

    scan = PolarimeterScan(
        angles=phi + alpha + drift,
        voltages=volts,
        background_voltage=background,
        offset_alpha=alpha,
    )
    scan.angles.flags.writeable = False
    scan._grid = (scan.angles, basis, alpha + drift)
    return scan


def extract_coefficients(scan: PolarimeterScan) -> FourierCoefficients:
    """Discrete Fourier sums of a background-subtracted, offset-corrected scan.

    On a uniform grid covering exactly one revolution these sums are exact
    for the truncated series (discrete orthogonality); on jittered angles
    they remain the standard estimator.  A scan from :func:`simulate_scan`
    whose ``angles`` are still its grid's takes them from the grid's cached
    basis, turned by the scan's one offset; any other scan takes ``sin``
    and ``cos`` of its angles.
    """
    v = scan.voltages - scan.background_voltage
    n = v.size
    grid = scan._grid
    # A copy or an unpickled scan keeps the record, but its angles are writable.
    if grid is not None and grid[0] is scan.angles and not scan.angles.flags.writeable:
        # The angles are the grid turned by d: the sums over 2(phi + d) and
        # 4(phi + d) follow from the grid's by the angle-addition formulas.
        _, basis, offset = grid
        m0, m_s2, m_c2, m_c4, m_s4 = (basis @ v).tolist()
        d = offset - scan.offset_alpha
        s2d, c2d = math.sin(2.0 * d), math.cos(2.0 * d)
        s4d, c4d = math.sin(4.0 * d), math.cos(4.0 * d)
        return FourierCoefficients(
            2.0 / n * m0,
            4.0 / n * (m_s2 * c2d + m_c2 * s2d),
            4.0 / n * (m_c4 * c4d - m_s4 * s4d),
            4.0 / n * (m_s4 * c4d + m_c4 * s4d),
        )
    th2 = 2.0 * (scan.angles - scan.offset_alpha)
    s, c = np.sin(th2), np.cos(th2)
    a0 = 2.0 / n * float(v.sum())
    b0 = 4.0 / n * float((v * s).sum())
    # cos 4th = c^2 - s^2 and sin 4th = 2 s c: one pair of trig arrays.
    c0 = 4.0 / n * float((v * (c * c - s * s)).sum())
    d0 = 8.0 / n * float((v * (s * c)).sum())
    return FourierCoefficients(a0, b0, c0, d0)


def stokes_from_coefficients(c: FourierCoefficients) -> StokesVector:
    """Invert the harmonic decomposition back to Stokes components.

    ``S1 = 2 c0``, ``S2 = 2 d0``, ``S3 = -b0``, ``S0 = a0 - c0``.  The
    output is a raw estimate in detector units: with noisy input it may
    be slightly unphysical, which is fine for downstream normalization.
    """
    return StokesVector(c.a0 - c.c0, 2.0 * c.c0, 2.0 * c.d0, -c.b0)


def measure_stokes(scan: PolarimeterScan) -> NormalizedStokes:
    """Full analysis pipeline: coefficients -> Stokes -> unit sphere.

    The degree of polarization of the raw estimate is logged for
    diagnostics but never used to reject a measurement; gain cancels in
    the normalization.
    """
    coeffs = extract_coefficients(scan)
    s = stokes_from_coefficients(coeffs)
    if s.s0 > 0.0 and log.isEnabledFor(logging.DEBUG):
        log.debug("scan DOP estimate: %.6f", degree_of_polarization(s))
    return normalize(s)
