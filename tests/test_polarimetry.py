"""Rotating-waveplate polarimetry: the Fourier analysis against a
hand-rolled oracle, exactness on uniform grids, and the scan model."""

import logging
import math

import numpy as np
import pytest

from polcomp import polarimetry
from polcomp.bench import NoiseModel
from polcomp.polarimetry import (
    FourierCoefficients,
    PolarimeterScan,
    _drawn_coefficients,
    extract_coefficients,
    ideal_intensity,
    measure_stokes,
    simulate_scan,
    stokes_from_coefficients,
)
from polcomp.stokes import (
    CARDINAL_STOKES,
    StokesVector,
    cardinal_target,
    degree_of_polarization,
    fidelity,
    normalize,
)

N310 = 310
STEP310 = 2.0 * math.pi / 310


def _oracle_coefficients(angles, volts, background, alpha):
    """Direct-sum reference implementation, written independently."""
    a0 = b0 = c0 = d0 = 0.0
    n = len(volts)
    for th, v in zip(angles, volts):
        w = v - background
        t = th - alpha
        a0 += 2.0 * w / n
        b0 += 4.0 * w * math.sin(2.0 * t) / n
        c0 += 4.0 * w * math.cos(4.0 * t) / n
        d0 += 4.0 * w * math.sin(4.0 * t) / n
    return a0, b0, c0, d0


def test_extract_coefficients_matches_direct_sums():
    rng = np.random.default_rng(21)
    angles = np.sort(rng.uniform(0, 2 * math.pi, 64))
    angles[0] = 0.0  # keep the span requirement satisfied
    angles[-1] = 2 * math.pi
    volts = rng.uniform(0.1, 1.0, 64)
    scan = PolarimeterScan(
        angles=angles, voltages=volts, background_voltage=0.07, offset_alpha=0.2
    )
    got = extract_coefficients(scan)
    a0, b0, c0, d0 = _oracle_coefficients(angles, volts, 0.07, 0.2)
    assert got.a0 == pytest.approx(a0, abs=1e-12)
    assert got.b0 == pytest.approx(b0, abs=1e-12)
    assert got.c0 == pytest.approx(c0, abs=1e-12)
    assert got.d0 == pytest.approx(d0, abs=1e-12)


def test_intensity_frozen_values():
    # I(phi) = (S0 + S1 cos^2 2phi + S2 sin 2phi cos 2phi - S3 sin 2phi)/2
    h = CARDINAL_STOKES["H"]
    assert ideal_intensity(h, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert ideal_intensity(h, math.pi / 4) == pytest.approx(0.5, abs=1e-15)
    r = CARDINAL_STOKES["R"]
    assert ideal_intensity(r, math.pi / 4) == pytest.approx(0.0, abs=1e-15)
    assert ideal_intensity(r, 3 * math.pi / 4) == pytest.approx(1.0, abs=1e-15)
    d = CARDINAL_STOKES["D"]
    assert ideal_intensity(d, math.pi / 8) == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("name", list(CARDINAL_STOKES))
@pytest.mark.parametrize("n,step", [(N310, STEP310), (64, 2 * math.pi / 64)])
def test_noiseless_reconstruction_is_exact(name, n, step):
    scan = simulate_scan(CARDINAL_STOKES[name], n, step)
    u = measure_stokes(scan)
    assert fidelity(u, cardinal_target(name)) >= 1.0 - 1e-12


def test_reconstruction_of_random_elliptical_states():
    rng = np.random.default_rng(22)
    for _ in range(25):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        s = StokesVector(1.0, *v)
        u = measure_stokes(simulate_scan(s, N310, STEP310))
        np.testing.assert_allclose([u.u1, u.u2, u.u3], v, atol=1e-10)


def test_gain_cancels():
    scan = simulate_scan(CARDINAL_STOKES["D"], N310, STEP310)
    u1 = measure_stokes(scan)
    u2 = measure_stokes(PolarimeterScan(scan.angles, 37.5 * scan.voltages))
    np.testing.assert_allclose(
        [u1.u1, u1.u2, u1.u3], [u2.u1, u2.u2, u2.u3], atol=1e-12
    )


def test_mount_offset_is_corrected():
    s = CARDINAL_STOKES["L"]
    plain = measure_stokes(simulate_scan(s, N310, STEP310))
    shifted = measure_stokes(simulate_scan(s, N310, STEP310, alpha=0.37))
    np.testing.assert_allclose(
        [plain.u1, plain.u2, plain.u3],
        [shifted.u1, shifted.u2, shifted.u3],
        atol=1e-10,
    )


def test_background_is_subtracted():
    noise = NoiseModel(pd_sigma=0.0, background_v=0.25, angle_jitter_sigma=0.0,
                       voltage_quantum_v=0.0, retardance_curve_error=0.0)
    scan = simulate_scan(CARDINAL_STOKES["A"], N310, STEP310, noise=noise, seed=1)
    assert scan.background_voltage == 0.25
    u = measure_stokes(scan)
    assert fidelity(u, cardinal_target("A")) >= 1.0 - 1e-12


def test_simulation_is_seed_deterministic():
    noise = NoiseModel.lab()
    a = simulate_scan(CARDINAL_STOKES["H"], N310, STEP310, noise=noise, seed=5)
    b = simulate_scan(CARDINAL_STOKES["H"], N310, STEP310, noise=noise, seed=5)
    c = simulate_scan(CARDINAL_STOKES["H"], N310, STEP310, noise=noise, seed=6)
    np.testing.assert_array_equal(a.voltages, b.voltages)
    np.testing.assert_array_equal(a.angles, b.angles)
    assert np.any(a.voltages != c.voltages)


def test_mount_drift_is_common_mode():
    # The per-scan drift shifts every recorded angle by the same amount;
    # sample spacing stays exactly the commanded step.
    noise = NoiseModel(pd_sigma=0.0, background_v=0.0, angle_jitter_sigma=0.05,
                       voltage_quantum_v=0.0, retardance_curve_error=0.0)
    scan = simulate_scan(CARDINAL_STOKES["H"], N310, STEP310, noise=noise, seed=9)
    diffs = np.diff(scan.angles)
    np.testing.assert_allclose(diffs, STEP310, atol=1e-12)
    assert abs(scan.angles[0]) > 0.0  # the drift itself


def test_drawn_sums_follow_the_sample_wise_distribution():
    # 20,000 readings each way at lab detector noise and no drift: the means
    # agree, the spreads are 2 sigma / sqrt(N) for a0 and 2 sqrt(2) sigma /
    # sqrt(N) for the others, and the four sums are uncorrelated.
    noise = NoiseModel(pd_sigma=0.005, background_v=0.05, angle_jitter_sigma=0.0)
    s = StokesVector(1.0, 0.36, -0.48, 0.8)
    m = 20_000
    rng = np.random.default_rng(2026)

    def sums(c):
        return (c.a0, c.b0, c.c0, c.d0)

    drawn = np.array([sums(_drawn_coefficients(s, N310, noise, rng)) for _ in range(m)])
    scanned = np.array([
        sums(extract_coefficients(simulate_scan(s, N310, STEP310, noise=noise, seed=k)))
        for k in range(m)
    ])
    sd = 2.0 * noise.pd_sigma / math.sqrt(N310) * np.array([1.0, *[math.sqrt(2.0)] * 3])
    for sample in (drawn, scanned):
        np.testing.assert_allclose(sample.std(axis=0, ddof=1), sd, rtol=0.03)
        assert np.abs(np.corrcoef(sample, rowvar=False) - np.eye(4)).max() < 0.04
    se = np.sqrt((drawn.var(axis=0, ddof=1) + scanned.var(axis=0, ddof=1)) / m)
    assert (np.abs(drawn.mean(axis=0) - scanned.mean(axis=0)) < 4.0 * se).all()


def test_stokes_from_coefficients_never_validates():
    # Raw inversion of noisy coefficients may be unphysical on purpose.
    s = stokes_from_coefficients(FourierCoefficients(1.0, 0.0, 0.9, 0.0))
    assert s.s1 == pytest.approx(1.8)
    assert s.s0 == pytest.approx(0.1)  # over-polarized, and that's fine


def test_inversion_algebra():
    c = FourierCoefficients(a0=1.4, b0=-0.6, c0=0.4, d0=0.2)
    s = stokes_from_coefficients(c)
    assert (s.s0, s.s1, s.s2, s.s3) == (
        pytest.approx(1.0),
        pytest.approx(0.8),
        pytest.approx(0.4),
        pytest.approx(0.6),
    )


# --- scan validation ----------------------------------------------------------

def test_scan_requires_full_revolution():
    with pytest.raises(ValueError):
        simulate_scan(CARDINAL_STOKES["H"], 100, 2 * math.pi / 120)


def test_scan_requires_minimum_samples():
    with pytest.raises(ValueError):
        simulate_scan(CARDINAL_STOKES["H"], 8, math.pi)


def test_scan_rejects_non_increasing_angles():
    angles = np.linspace(0, 2 * math.pi, 32)
    angles[5] = angles[4]
    with pytest.raises(ValueError):
        PolarimeterScan(angles=angles, voltages=np.ones(32),
                        background_voltage=0.0, offset_alpha=0.0)


def test_scan_rejects_short_span():
    angles = np.linspace(0, math.pi, 32)  # only half a revolution
    with pytest.raises(ValueError):
        PolarimeterScan(angles=angles, voltages=np.ones(32),
                        background_voltage=0.0, offset_alpha=0.0)


def test_scan_rejects_bad_gain_and_step():
    with pytest.raises(ValueError):
        simulate_scan(CARDINAL_STOKES["H"], N310, -STEP310)


# --- diagnostics ----------------------------------------------------------------

def test_measure_stokes_logs_dop_only_at_debug(caplog, monkeypatch):
    scan = simulate_scan(CARDINAL_STOKES["D"], N310, STEP310, noise=NoiseModel.lab(), seed=4)
    estimate = stokes_from_coefficients(extract_coefficients(scan))
    with caplog.at_level(logging.DEBUG, logger="polcomp.polarimetry"):
        measure_stokes(scan)
    assert [r.getMessage() for r in caplog.records] == [
        f"scan DOP estimate: {degree_of_polarization(estimate):.6f}"
    ]
    caplog.clear()

    # At the default level the estimate is neither computed nor logged.
    def unexpected(_):
        raise AssertionError("DOP computed with DEBUG logging off")

    monkeypatch.setattr(polarimetry, "degree_of_polarization", unexpected)
    assert measure_stokes(scan) == normalize(estimate)
    assert caplog.records == []
