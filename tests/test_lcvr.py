"""LCVR characterization: arccos inversion, fold-aware unwrapping,
curve building against the analytic profile, error bars, lookups."""

import math
from dataclasses import fields

import numpy as np
import pytest

from polcomp.bench import (
    simulate_characterization_sweep,
    synthetic_curve_set,
    synthetic_retardance_curve,
)
from polcomp.lcvr import (
    CalibrationError,
    CharacterizationSweep,
    RetardanceCurve,
    UnwrapAmbiguityError,
    _unwrap_with_folds,
    build_curve,
    curve_slope_at,
    retardance_error,
    retardance_for_voltage,
    retardance_from_intensity,
    unwrap_retardance,
    voltage_for_retardance,
)
from polcomp.polarimetry import PolarimeterScan

from conftest import profile, voltage_at


# --- principal-value inversion -------------------------------------------------

def test_retardance_from_intensity_anchors():
    assert retardance_from_intensity(0.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert retardance_from_intensity(1.0, 0.0, 1.0) == pytest.approx(math.pi, abs=1e-12)
    assert retardance_from_intensity(0.5, 0.0, 1.0) == pytest.approx(math.pi / 2, abs=1e-12)
    # offsets just shift the span
    assert retardance_from_intensity(0.6, 0.1, 1.1) == pytest.approx(math.pi / 2, abs=1e-12)


def test_retardance_from_intensity_clamps_overshoot():
    # Noise can push V slightly past the span; the result stays in [0, pi].
    assert retardance_from_intensity(1.001, 0.0, 1.0) == pytest.approx(math.pi)
    assert retardance_from_intensity(-0.001, 0.0, 1.0) == pytest.approx(0.0)


def test_retardance_from_intensity_needs_positive_span():
    with pytest.raises(CalibrationError):
        retardance_from_intensity(0.5, 1.0, 1.0)


def test_retardance_from_intensity_roundtrip_array():
    delta = np.linspace(0.05, math.pi - 0.05, 200)
    v = 0.2 + 0.8 * (1 - np.cos(delta)) / 2
    np.testing.assert_allclose(
        retardance_from_intensity(v, 0.2, 1.0), delta, atol=1e-12
    )


# --- unwrapping -----------------------------------------------------------------

def test_unwrap_leaves_monotone_principal_data_unchanged():
    raw = np.linspace(0.3, 2.8, 50)
    np.testing.assert_array_equal(unwrap_retardance(raw), raw)


def test_unwrap_synthetic_two_folds():
    # Descending true retardance crossing 2*pi and pi exactly once each.
    t = np.linspace(2.2 * math.pi, 0.2 * math.pi, 200)
    raw = np.arccos(np.cos(t))
    out = unwrap_retardance(raw)
    # The branch is fixed by the first sample (0.2*pi), so the result is
    # the true curve shifted down by one full wave.
    np.testing.assert_allclose(out, t - 2 * math.pi, atol=1e-9)


def test_unwrap_single_fold_ascending():
    t = np.linspace(0.4 * math.pi, 1.7 * math.pi, 120)
    raw = np.arccos(np.cos(t))
    out = unwrap_retardance(raw)
    np.testing.assert_allclose(out, t, atol=1e-9)


def test_unwrap_rejects_coarse_sampling():
    with pytest.raises(UnwrapAmbiguityError):
        unwrap_retardance(np.array([0.3, 2.1, 0.4, 2.2, 0.5]))


def test_unwrap_rejects_flat_data():
    raw = 1.5 + 0.01 * np.sin(np.linspace(0, 6, 40))
    with pytest.raises(UnwrapAmbiguityError):
        unwrap_retardance(raw)


def test_unwrap_rejects_out_of_principal_range():
    with pytest.raises(ValueError):
        unwrap_retardance(np.linspace(-0.5, 2.0, 30))


def test_same_boundary_visits_are_one_fold():
    # Noise takes the sequence out of the pi region for four samples and
    # back in, with no visit to 0 between: a monotone curve folds once.
    raw = np.array([1.5, 2.0, 2.5, 2.9, 3.0, 2.95, 2.96, 2.97, 2.98, 3.05,
                    3.1, 2.8, 2.4, 2.0, 1.6])
    out, folds = _unwrap_with_folds(raw)
    assert len(folds) == 1
    np.testing.assert_allclose(np.cos(out), np.cos(raw), rtol=0, atol=1e-12)
    assert np.all(np.diff(out[folds[0]:]) > 0.0)


def test_single_sample_visits_in_three_sample_windows():
    # Steps just under pi/2 put one sample in each boundary region with a
    # single sample between visits: each fold is placed from a one-sample
    # visit and its two neighbours, one on either side of the fold.
    t = -0.05 + (math.pi / 2 - 0.02) * np.arange(-1, 6)
    raw = np.arccos(np.cos(t))
    out, folds = _unwrap_with_folds(raw)
    assert folds == [1, 3, 5]
    # The first sample sits on the reflected branch, so the rebuild is -t.
    np.testing.assert_allclose(out, -t, rtol=0, atol=1e-12)


def _rebuilt_error(true):
    """Worst error of the unwrap of ``true``'s principal values against
    ``true`` carried onto the branch of its first sample."""
    raw = np.arccos(np.cos(true))
    sign = 1.0 if math.sin(true[0]) > 0.0 else -1.0
    return float(np.max(np.abs(unwrap_retardance(raw) - (raw[0] + sign * (true - true[0])))))


@pytest.mark.parametrize("boundary", [math.pi, 2.0 * math.pi])
@pytest.mark.parametrize(
    "slope, curvature, offset",
    [
        # A fold a fortieth of a step past a sample: one sample off would
        # mirror it, errors 2.5e-3 and 7.5e-3 rad.
        (0.05, 0.004, 0.025),
        (0.15, 0.01, 0.025),
        (0.15, -0.01, -0.025),
        (0.1, 0.0, 0.3),
        (0.25, 0.02, 0.45),
    ],
)
def test_evenly_curved_crossings_rebuild_exactly(boundary, slope, curvature, offset):
    # A crossing whose second difference is constant: the closed form
    # places its fold exactly, wherever the fold falls between samples.
    x = np.arange(25) - 12 - offset
    true = boundary - slope * x + 0.5 * curvature * x * x
    assert _rebuilt_error(true) <= 1e-12


def test_pinned_monotone_profile_rebuilds_exactly():
    # The explicit example of test_unwrap_round_trips_monotone_profiles:
    # sample 335 lies about 5e-4 rad from its fold at 2 pi, so placing the
    # fold one sample off would mirror it (error 9.5e-4 rad).
    v = np.linspace(0.1, 16.0, 344)
    shape = 1.0 / (1.0 + v**1.5)
    true = math.pi / 2 - 7.01953125 * (shape[0] - shape) / (shape[0] - shape[-1])
    assert _rebuilt_error(true[::-1]) <= 1e-12


def test_lab_noise_sweeps_never_invent_a_fold():
    """Lab-noise sweeps of the four synthetic cells, in rotation, come back
    with two folds and within 0.3 rad of the truth away from the folds.

    Merging same-boundary visits only when they were at most three
    samples apart gave a third fold on 9 of these 400 seeds: 10029, 10075,
    10094, 10227, 10259, 10295, 10327, 10363 and 10385.
    """
    curves = synthetic_curve_set(4)
    failed = []
    for seed in range(10000, 10400):
        true = curves[(seed - 10000) % 4]
        sweep = simulate_characterization_sweep(
            true.drive_voltages,
            lambda v, c=true: np.interp(v, c.drive_voltages, c.retardances),
            pd_sigma=0.005,
            n_repeats=10,
            seed=seed,
        )
        built = build_curve(sweep)
        raw = np.arccos(np.clip(np.cos(true.retardances), -1.0, 1.0))
        outside = (raw > 0.25) & (raw < math.pi - 0.25)
        error = float(np.max(np.abs(built.retardances - true.retardances)[outside]))
        if built.fold_count != 2 or not error <= 0.3:
            failed.append((seed, built.fold_count, error))
    assert failed == []


# --- curve building ---------------------------------------------------------------

def test_build_curve_noiseless_recovers_profile(clean_sweep):
    curve = build_curve(clean_sweep)
    err = np.abs(curve.retardances - profile(curve.drive_voltages))
    assert float(err.max()) <= 1e-6
    assert curve.fold_count == 2
    # Monotone non-increasing, like the physical cell.
    assert np.all(np.diff(curve.retardances) <= 1e-12)


def test_build_curve_noisy_stays_close_outside_folds(noisy_sweep):
    curve = build_curve(noisy_sweep)
    assert curve.fold_count == 2
    true = profile(curve.drive_voltages)
    raw_true = np.arccos(np.clip(np.cos(true), -1.0, 1.0))
    away_from_folds = (raw_true > 0.25) & (raw_true < math.pi - 0.25)
    err = np.abs(curve.retardances - true)
    assert float(err[away_from_folds].max()) <= 0.05


@pytest.mark.parametrize("top, bottom", [(1.5, 0.1), (1.8, 0.2)])
def test_build_curve_flips_a_curve_that_unwraps_rising(drive_grid, top, bottom):
    # A top between pi and 2 pi puts the first sample on the reflected
    # branch, so the unwrap rises with voltage and build_curve flips it.
    v = np.asarray(drive_grid)
    shape = 1.0 / (1.0 + (v / 2.0) ** 2.2)
    true = math.pi * (bottom + (top - bottom) * (shape - shape[-1]) / (shape[0] - shape[-1]))
    raw = np.arccos(np.cos(true))
    assert _unwrap_with_folds(raw)[0][-1] > raw[0]
    sweep = CharacterizationSweep(
        drive_voltages=v, mean_pd_voltages=(1.0 - np.cos(true)) / 2.0,
        pd_voltage_sems=np.zeros(v.size), background_voltage=0.0,
    )
    curve = build_curve(sweep)
    assert curve.fold_count == 1
    outside = (raw > 0.25) & (raw < math.pi - 0.25)
    assert float(np.max(np.abs(curve.retardances - true)[outside])) <= 1e-4


def test_build_curve_error_bars(clean_sweep, noisy_sweep):
    # Noiseless sweep: no finite error bars are claimed at the peak.
    curve = build_curve(clean_sweep)
    peak = int(np.argmax(clean_sweep.mean_pd_voltages))
    assert math.isnan(curve.retardance_errors[peak])
    # Noisy sweep: mid-curve points carry finite positive bars.
    noisy = build_curve(noisy_sweep)
    mid = np.isfinite(noisy.retardance_errors)
    assert mid.sum() > 0.9 * len(noisy)
    assert np.all(noisy.retardance_errors[mid] > 0.0)


def test_build_curve_needs_contrast():
    flat = CharacterizationSweep(
        drive_voltages=np.linspace(1, 2, 20),
        mean_pd_voltages=np.full(20, 0.3),
        pd_voltage_sems=np.zeros(20),
        background_voltage=0.3,
    )
    with pytest.raises(CalibrationError):
        build_curve(flat)


def test_build_curve_wavelength_passthrough(clean_sweep):
    curve = build_curve(clean_sweep, wavelength_nm=780.0)
    assert curve.wavelength_nm == 780.0


# --- error propagation -------------------------------------------------------------

def test_retardance_error_closed_form():
    vm, vb, vmax, sm, sb = 0.6, 0.05, 1.05, 0.004, 0.002
    expected = math.sqrt((sm**2 + sb**2) / ((vm - vb) * (vmax - vm)))
    assert retardance_error(vm, vb, vmax, sm, sb) == pytest.approx(expected, rel=1e-12)


def test_retardance_error_matches_monte_carlo():
    rng = np.random.default_rng(31)
    vb, vmax, sm, sb = 0.05, 1.05, 0.004, 0.002
    for vm in (0.3, 0.55, 0.8):
        analytic = retardance_error(vm, vb, vmax, sm, sb)
        vm_draw = vm + rng.normal(0, sm, 20000)
        vb_draw = vb + rng.normal(0, sb, 20000)
        arg = 1.0 - 2.0 * (vm_draw - vb_draw) / (vmax - vb)
        mc = float(np.std(np.arccos(np.clip(arg, -1, 1))))
        assert analytic == pytest.approx(mc, rel=0.05)


def test_retardance_error_rejects_endpoints():
    with pytest.raises(ValueError):
        retardance_error(0.05, 0.05, 1.05, 0.004, 0.0)
    with pytest.raises(ValueError):
        retardance_error(1.05, 0.05, 1.05, 0.004, 0.0)
    with pytest.raises(ValueError):
        retardance_error(0.5, 0.05, 1.05, -0.004, 0.0)


# --- lookups ------------------------------------------------------------------------

def test_voltage_lookup_round_trip(clean_sweep):
    curve = build_curve(clean_sweep)
    for target in (0.5 * math.pi, math.pi, 1.5 * math.pi, 2.0 * math.pi):
        voltage = voltage_for_retardance(curve, target)
        assert isinstance(voltage, float)
        assert curve.drive_voltages[0] < voltage < curve.drive_voltages[-1]
        assert retardance_for_voltage(curve, voltage) == pytest.approx(
            target, abs=1e-9
        )


def test_voltage_lookup_clamps_outside_span(clean_sweep):
    curve = build_curve(clean_sweep)
    assert 50.0 > curve.retardances.max()
    assert voltage_for_retardance(curve, 50.0) == pytest.approx(curve.drive_voltages[0])


def test_retardance_for_voltage_bounds(clean_sweep):
    curve = build_curve(clean_sweep)
    with pytest.raises(ValueError):
        retardance_for_voltage(curve, curve.drive_voltages[-1] + 1.0)


def test_curve_slope_matches_profile_derivative(clean_sweep):
    curve = build_curve(clean_sweep)
    for v in (1.0, 2.0, 4.0):
        h = 1e-4
        true_slope = abs(profile(v + h) - profile(v - h)) / (2 * h)
        assert curve_slope_at(curve, v) == pytest.approx(true_slope, rel=0.02)


def test_curve_arrays_are_read_only_copies():
    v = np.linspace(0.1, 5.0, 50)
    r = np.linspace(6.0, 1.0, 50)
    e = np.zeros(50)
    curve = RetardanceCurve(v, r, e)
    for arr in (curve.drive_voltages, curve.retardances, curve.retardance_errors):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    for arr in (v, r, e):
        arr[0] = 7.0
    assert (curve.drive_voltages[0], curve.retardances[0]) == (0.1, 6.0)


@pytest.mark.parametrize("name", ["drive_voltages", "retardances", "retardance_errors", "all"])
def test_curve_columns_must_be_1d(name):
    columns = {"drive_voltages": np.linspace(1.0, 6.0, 6),
               "retardances": np.linspace(5.0, 1.0, 6),
               "retardance_errors": np.full(6, 0.01)}
    for key in columns if name == "all" else [name]:
        columns[key] = columns[key].reshape(2, 3)
    with pytest.raises(ValueError, match="drive_voltages" if name == "all" else name):
        RetardanceCurve(**columns)


def test_curve_built_from_another_looks_up_its_own_data():
    base = synthetic_retardance_curve(index=0)
    targets = np.array([0.5, 1.0, 2.0, 3.0, 5.5, 8.0])
    volts = np.array([0.3, 1.0, 2.5, 7.0, 15.0])
    before = voltage_for_retardance(base, targets)  # base builds its table first
    # Halving is exact in binary, so each lookup on the half curve must
    # reproduce the base curve's bit for bit, or have read a stale table.
    half = RetardanceCurve(base.drive_voltages, 0.5 * base.retardances, base.retardance_errors)
    assert half.retardance_span == tuple(0.5 * x for x in base.retardance_span)
    assert np.array_equal(voltage_for_retardance(half, 0.5 * targets), before)
    assert np.array_equal(curve_slope_at(half, volts), 0.5 * curve_slope_at(base, volts))
    assert half.full_wave_voltage == voltage_for_retardance(base, 4.0 * math.pi)
    assert base.full_wave_voltage == voltage_for_retardance(base, 2.0 * math.pi)
    assert np.array_equal(voltage_for_retardance(base, targets), before)


_V, _R = np.linspace(1.0, 6.0, 12), np.linspace(5.0, 1.0, 12)
_RECORDS = {
    "curve": lambda: RetardanceCurve(_V, _R, np.full(12, 0.01)),
    "sweep": lambda: CharacterizationSweep(_V, np.linspace(1.0, 0.0, 12), np.zeros(12), 0.0),
    "scan": lambda: PolarimeterScan(np.linspace(0.0, 2.0 * math.pi, 40, endpoint=False),
                                    np.ones(40)),
}


@pytest.mark.parametrize("kind", list(_RECORDS))
def test_array_records_compare_by_identity(kind):
    # Records holding arrays equal only themselves, so they hash and can
    # key a cache; equal contents do not make two records equal.
    a, b = _RECORDS[kind](), _RECORDS[kind]()
    assert a == a
    assert a != b
    assert len({a, b}) == 2


# Each record's sampled columns, in order: the first must rise strictly.
_COLUMNS = {
    "curve": ("drive_voltages", "retardances", "retardance_errors"),
    "sweep": ("drive_voltages", "mean_pd_voltages", "pd_voltage_sems"),
    "scan": ("angles", "voltages"),
}


@pytest.mark.parametrize("kind, column, fault", [
    *((kind, column, fault) for kind, columns in _COLUMNS.items() for column in columns
      for fault in ("2-D", "NaN", "short")
      if (kind, column, fault) != ("curve", "retardance_errors", "NaN")),  # a missing bar
    *((kind, columns[0], "reversed") for kind, columns in _COLUMNS.items()),
])
def test_shared_column_rules_name_the_column(kind, column, fault):
    # Scans, sweeps and curves refuse a bad column by one set of rules,
    # and each refusal names the column (a short one, the equal length).
    record = _RECORDS[kind]()
    values = {f.name: getattr(record, f.name) for f in fields(record)}
    bad = np.array(values[column])
    if fault == "2-D":
        bad = np.stack([bad, bad])
    elif fault == "NaN":
        bad[bad.size // 2] = math.nan
    values[column] = {"short": bad[:-1], "reversed": bad[::-1]}.get(fault, bad)
    with pytest.raises(ValueError, match="equal length" if fault == "short" else f"^{column} "):
        type(record)(**values)


def test_exact_half_wave_voltage_from_bisection():
    # conftest helper sanity: the inserted grid point really is delta = pi.
    assert profile(voltage_at(math.pi)) == pytest.approx(math.pi, abs=1e-12)


# --- sweep validation -----------------------------------------------------------------

def test_sweep_validation():
    v = np.linspace(1, 2, 12)
    good = dict(mean_pd_voltages=np.linspace(1, 0, 12),
                pd_voltage_sems=np.zeros(12), background_voltage=0.0)
    CharacterizationSweep(drive_voltages=v, **good)
    with pytest.raises(ValueError):
        CharacterizationSweep(drive_voltages=v[::-1].copy(), **good)
    with pytest.raises(ValueError):
        CharacterizationSweep(drive_voltages=v[:5], mean_pd_voltages=np.zeros(5),
                              pd_voltage_sems=np.zeros(5), background_voltage=0.0)
    with pytest.raises(ValueError):
        CharacterizationSweep(drive_voltages=v, mean_pd_voltages=np.linspace(1, 0, 12),
                              pd_voltage_sems=-np.ones(12), background_voltage=0.0)
