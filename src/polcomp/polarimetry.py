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
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .stokes import (
    NormalizedStokes,
    StokesVector,
    _sampled_columns,
    degree_of_polarization,
    normalize,
)

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

    ``angles`` are the *measured* mount angles in radians (at least
    ``MIN_SAMPLES``, strictly increasing, spanning at least one revolution
    minus one step), each with a finite voltage;
    ``offset_alpha`` is the known angle of the wave-plate fast axis when
    the mount reads zero, and ``background_voltage`` is the detector
    reading with the beam blocked.  Both are subtracted during analysis,
    never at acquisition time.  A scan equals only itself.
    """

    angles: np.ndarray
    voltages: np.ndarray
    background_voltage: float = 0.0
    offset_alpha: float = 0.0

    def __post_init__(self) -> None:
        _sampled_columns(self, ("angles", "voltages"), MIN_SAMPLES, finite=2)
        if not math.isfinite(self.background_voltage) or not math.isfinite(self.offset_alpha):
            raise ValueError("background_voltage and offset_alpha must be finite")
        span = float(self.angles[-1] - self.angles[0])
        mean_step = span / (self.angles.size - 1)
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


def _intensity_array(s: StokesVector, s2, c2c2, s2c2):
    """Detected intensity, given ``sin(2 phi)``, ``cos^2(2 phi)`` and
    ``sin(2 phi) cos(2 phi)``.

    The factors fold into the four scalar weights, so an array input
    costs one product per harmonic and three sums.
    """
    return 0.5 * s.s0 + (0.5 * s.s1) * c2c2 + (0.5 * s.s2) * s2c2 - (0.5 * s.s3) * s2


@lru_cache(maxsize=8)
def _scan_grid(n_samples: int, step: float) -> tuple[np.ndarray, ...]:
    """Wave-plate angles ``n * step`` with their ``sin(2 phi)``,
    ``cos^2(2 phi)`` and ``sin(2 phi) cos(2 phi)``: computed once per grid
    and shared, so read-only."""
    phi = np.arange(n_samples) * step
    s2, c2 = np.sin(2.0 * phi), np.cos(2.0 * phi)
    grid = (phi, s2, c2 * c2, s2 * c2)
    for arr in grid:
        arr.flags.writeable = False
    return grid


def _stream(seed: int, tag: int) -> np.random.Generator:
    """The generator keyed by ``[seed, tag]``: every tagged consumer's stream."""
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, tag]))


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
    seed: int = 0,
) -> PolarimeterScan:
    """Generate a synthetic scan of ``s_in`` with an optional noise model.

    The wave plate visits ``phi_n = n * step`` for ``n = 0 .. n_samples-1``
    and the product ``n_samples * step`` must cover a full revolution.
    Detector voltages are ``I(phi_n) + background + N(0, pd_sigma)``;
    recorded angles are ``phi_n + alpha + drift`` where ``drift`` is a
    single per-scan draw from ``N(0, angle_jitter_sigma)`` standing in for
    the slow mount-zero wander seen between re-homings of a real stage.
    With ``noise=None`` (or an all-zero model) the scan is exact and the
    seed is irrelevant.  Otherwise the scan draws from its own generator
    of ``seed`` (tagged, so no other consumer of the same integer shares
    its bits): the detector noise, then the drift, the same count of draws
    for every state.
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

    phi, s2, c2c2, s2c2 = _scan_grid(n_samples, step)
    volts = _intensity_array(s_in, s2, c2c2, s2c2)

    background = 0.0
    drift = 0.0
    if noise is not None:
        rng = _stream(seed, _TAG_SCAN)
        background = float(noise.background_v)
        volts += background
        if noise.pd_sigma > 0.0:
            volts += rng.normal(0.0, noise.pd_sigma, n_samples)
        if noise.angle_jitter_sigma > 0.0:
            drift = float(rng.normal(0.0, noise.angle_jitter_sigma))

    return PolarimeterScan(
        angles=phi + alpha + drift,
        voltages=volts,
        background_voltage=background,
        offset_alpha=alpha,
    )


def extract_coefficients(scan: PolarimeterScan) -> FourierCoefficients:
    """Discrete Fourier sums of a background-subtracted, offset-corrected scan.

    On a uniform grid covering exactly one revolution these sums are exact
    for the truncated series (discrete orthogonality); on jittered angles
    they remain the standard estimator.
    """
    v = scan.voltages - scan.background_voltage
    n = v.size
    th2 = 2.0 * (scan.angles - scan.offset_alpha)
    s, c = np.sin(th2), np.cos(th2)
    a0 = 2.0 / n * float(v.sum())
    b0 = 4.0 / n * float((v * s).sum())
    # cos 4th = c^2 - s^2 and sin 4th = 2 s c: one pair of trig arrays.
    c0 = 4.0 / n * float((v * (c * c - s * s)).sum())
    d0 = 8.0 / n * float((v * (s * c)).sum())
    return FourierCoefficients(a0, b0, c0, d0)


def _drawn_coefficients(
    s: StokesVector, n_samples: int, noise: "NoiseModel", rng: np.random.Generator
) -> FourierCoefficients:
    """The sums :func:`extract_coefficients` takes of a scan of ``s`` from
    :func:`simulate_scan`, drawn from their exact distribution, not sampled.

    Exact for ``N = n_samples > 8`` angles on a uniform grid covering
    exactly one revolution, i.i.d. Gaussian detector noise, one drift ``d``
    per scan and no mount offset: the sums are linear in the voltages,
    with Gram matrix ``diag(N, N/2, N/2, N/2)`` whatever ``d``, so

        a0 = S0 + S1/2                   + (2 sigma / sqrt N) z0
        b0 = -S3 cos 2d                  + (2 sqrt2 sigma / sqrt N) z1
        c0 = (S1 cos 4d - S2 sin 4d) / 2 + (2 sqrt2 sigma / sqrt N) z2
        d0 = (S1 sin 4d + S2 cos 4d) / 2 + (2 sqrt2 sigma / sqrt N) z3

    with independent standard normals ``z``; the background cancels.  Draws
    the ``z`` (if ``pd_sigma > 0``), then ``d`` (if ``angle_jitter_sigma > 0``).
    """
    z0 = z1 = z2 = z3 = 0.0
    if noise.pd_sigma > 0.0:
        z0, z1, z2, z3 = rng.standard_normal(4).tolist()
    d = 0.0
    if noise.angle_jitter_sigma > 0.0:
        d = float(rng.normal(0.0, noise.angle_jitter_sigma))
    k0 = 2.0 * noise.pd_sigma / math.sqrt(n_samples)
    k = math.sqrt(2.0) * k0
    c4, s4 = math.cos(4.0 * d), math.sin(4.0 * d)
    return FourierCoefficients(
        s.s0 + 0.5 * s.s1 + k0 * z0,
        -s.s3 * math.cos(2.0 * d) + k * z1,
        0.5 * (s.s1 * c4 - s.s2 * s4) + k * z2,
        0.5 * (s.s1 * s4 + s.s2 * c4) + k * z3,
    )


def stokes_from_coefficients(c: FourierCoefficients) -> StokesVector:
    """Invert the harmonic decomposition back to Stokes components.

    ``S1 = 2 c0``, ``S2 = 2 d0``, ``S3 = -b0``, ``S0 = a0 - c0``.  The
    output is a raw estimate in detector units: with noisy input it may
    be slightly unphysical, which is fine for downstream normalization.
    """
    return StokesVector(c.a0 - c.c0, 2.0 * c.c0, 2.0 * c.d0, -c.b0)


def measure_stokes(scan: PolarimeterScan | FourierCoefficients) -> NormalizedStokes:
    """Full analysis pipeline: coefficients -> Stokes -> unit sphere.

    ``scan`` is a scan or its extracted coefficients.  The degree of
    polarization of the raw estimate is logged for diagnostics but never
    used to reject a measurement; gain cancels in the normalization.
    """
    coeffs = scan if isinstance(scan, FourierCoefficients) else extract_coefficients(scan)
    s = stokes_from_coefficients(coeffs)
    if s.s0 > 0.0 and log.isEnabledFor(logging.DEBUG):
        log.debug("scan DOP estimate: %.6f", degree_of_polarization(s))
    return normalize(s)
