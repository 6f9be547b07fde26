"""Property tests: invariants of the retardance solve and the curve lookups,
checked over generated inputs."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sweep_from_profile
from polcomp.bench import synthetic_retardance_curve
from polcomp.compensation import RETARDANCE_WINDOW, _solution_family, shift_to_range
from polcomp.lcvr import build_curve, curve_slope_at, voltage_for_retardance
from polcomp.stokes import mueller_lcvr_triple

LO, HI = RETARDANCE_WINDOW

_component = st.floats(-1.0, 1.0, allow_nan=False)
unit_vectors = (
    st.tuples(_component, _component, _component)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 0.1)
    .map(lambda v: v / np.linalg.norm(v))
)
poles = st.sampled_from([np.array([1.0, 0.0, 0.0]), np.array([-1.0, 0.0, 0.0])])


def _worst_row_residual(u, t):
    rows = _solution_family(u, t)
    return max(
        float(np.max(np.abs(mueller_lcvr_triple(*row)[1:, 1:] @ u - t))) for row in rows
    )


# --- the closed-form solution family ------------------------------------------------

@given(unit_vectors, unit_vectors)
def test_every_family_row_is_exact(u, t):
    assert _worst_row_residual(u, t) <= 1e-12


@given(poles, unit_vectors, st.booleans())
def test_every_family_row_is_exact_at_the_poles(pole, other, pole_is_source):
    u, t = (pole, other) if pole_is_source else (other, pole)
    assert _worst_row_residual(u, t) <= 1e-12


@given(poles, poles)
def test_every_family_row_is_exact_between_poles(u, t):
    assert _worst_row_residual(u, t) <= 1e-12


# --- range shifting ---------------------------------------------------------------

@given(st.floats(-1e6, 1e6, allow_nan=False))
def test_shift_to_range_stays_in_window(d):
    out = shift_to_range(d)
    assert LO <= out < HI
    assert math.remainder(out - d, 2 * math.pi) == pytest.approx(0.0, abs=1e-9)


# --- array lookups against the scalar reference -------------------------------------

def _reference_voltage(curve, target):
    """The scalar nearest-knot lookup that the array form must reproduce."""
    target = float(target)
    r = curve.retardances
    v = curve.drive_voltages
    i_min = int(np.argmin(r))
    i_max = int(np.argmax(r))
    if target <= r[i_min]:
        return float(v[i_min]), bool(target < r[i_min])
    if target >= r[i_max]:
        return float(v[i_max]), bool(target > r[i_max])
    nearest = int(np.argmin(np.abs(r - target)))
    for j in (nearest - 1, nearest + 1):
        if 0 <= j < r.size and (r[nearest] - target) * (r[j] - target) <= 0.0:
            lo, hi = sorted((nearest, j))
            if r[hi] == r[lo]:
                return float(v[lo]), False
            frac = (target - r[lo]) / (r[hi] - r[lo])
            return float(v[lo] + frac * (v[hi] - v[lo])), False
    return float(v[nearest]), False


def _reference_slope(curve, voltage):
    v = curve.drive_voltages
    r = curve.retardances
    i = int(np.clip(np.searchsorted(v, float(voltage)), 1, v.size - 1))
    lo = max(0, i - 1)
    hi = min(v.size - 1, i + 1)
    return abs(float((r[hi] - r[lo]) / (v[hi] - v[lo])))


_SYNTHETIC = synthetic_retardance_curve(index=1)
# Heavy noise on a 0.01 V grid: the unwrapped curve is not monotone.
_NOISY = build_curve(
    sweep_from_profile(np.arange(0.1, 16.005, 0.01), pd_sigma=0.02, n_repeats=3, seed=8)
)


def test_noisy_reference_curve_is_not_monotone():
    steps = np.diff(_NOISY.retardances)
    assert np.any(steps > 0) and np.any(steps < 0)


def _targets(curve):
    r = curve.retardances
    knots = st.sampled_from(r.tolist())
    spread = st.floats(float(r.min()) - 1.0, float(r.max()) + 1.0, allow_nan=False)
    return st.lists(st.one_of(knots, spread), min_size=1, max_size=40)


@pytest.mark.parametrize("curve", [_SYNTHETIC, _NOISY], ids=["synthetic", "noisy"])
@settings(deadline=None)
@given(data=st.data())
def test_array_voltage_lookup_matches_scalar_reference(curve, data):
    targets = data.draw(_targets(curve))
    hit = voltage_for_retardance(curve, np.array(targets))
    for k, target in enumerate(targets):
        voltage, clamped = _reference_voltage(curve, target)
        assert hit.voltage[k] == voltage
        assert bool(hit.clamped[k]) == clamped
        assert voltage_for_retardance(curve, target) == (voltage, clamped)


@pytest.mark.parametrize("curve", [_SYNTHETIC, _NOISY], ids=["synthetic", "noisy"])
@settings(deadline=None)
@given(data=st.data())
def test_array_slope_matches_scalar_reference(curve, data):
    v = curve.drive_voltages
    volts = data.draw(st.lists(
        st.one_of(st.sampled_from(v.tolist()),
                  st.floats(float(v[0]) - 1.0, float(v[-1]) + 1.0, allow_nan=False)),
        min_size=1, max_size=40,
    ))
    slopes = curve_slope_at(curve, np.array(volts))
    for k, volt in enumerate(volts):
        assert slopes[k] == _reference_slope(curve, volt)
        assert curve_slope_at(curve, volt) == _reference_slope(curve, volt)
