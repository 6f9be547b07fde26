"""Property tests: invariants of the retardance solve and the curve lookups,
checked over generated inputs."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rescaled_curve_set, sweep_from_profile
from polcomp.bench import synthetic_curve_set, synthetic_retardance_curve
from polcomp.compensation import _solution_family, solve_retardances
from polcomp.lcvr import RetardanceCurve, build_curve, curve_slope_at, voltage_for_retardance
from polcomp.stokes import NormalizedStokes, mueller_lcvr_triple

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


# --- the solve against the two-step reference ----------------------------------------

def _reference_solve(u, t, curves):
    """Pick a row of retardances, then look up each cell's voltage with
    one scalar lookup: the path the solve's own voltages must reproduce."""
    rows = _solution_family(u, t)
    lows = np.array([c.retardances.min() for c in curves])
    highs = np.array([c.retardances.max() for c in curves])
    two_pi = 2.0 * math.pi
    rows = lows + np.mod(rows - lows, two_pi)
    over = rows - highs
    under = lows + two_pi - rows
    rows = np.where(over > under, rows - two_pi, rows)
    outside = np.maximum(np.minimum(over, under), 0.0).sum(axis=1)
    reachable = outside == 0.0
    if reachable.any():
        steepness = sum(
            curve_slope_at(c, voltage_for_retardance(c, rows[:, i]))
            for i, c in enumerate(curves)
        )
        row = rows[int(np.argmax(np.where(reachable, steepness, -np.inf)))]
    else:
        row = rows[int(np.argmin(outside))]
    return tuple(voltage_for_retardance(c, d) for c, d in zip(curves, row.tolist()))


def _plateau(curve):
    """``curve`` with retardances rounded to 0.05 rad: runs of equal
    retardances and zero-rise intervals."""
    return RetardanceCurve(curve.drive_voltages, np.round(curve.retardances / 0.05) * 0.05,
                           curve.retardance_errors, voltage_step=curve.voltage_step)


_SOLVE_CURVES = {
    "synthetic": synthetic_curve_set(3),
    "plateau": [_plateau(c) for c in synthetic_curve_set(3)],
    "narrow": rescaled_curve_set(3, 0.5 * math.pi, 1.9 * math.pi),
    "unreachable": rescaled_curve_set(3, 0.1 * math.pi, 0.2 * math.pi),
}


@pytest.mark.parametrize("name", list(_SOLVE_CURVES))
@settings(deadline=None)
@given(u=unit_vectors, t=unit_vectors)
def test_solve_voltages_match_two_step_reference(name, u, t):
    curves = _SOLVE_CURVES[name]
    got = solve_retardances(NormalizedStokes(*u), NormalizedStokes(*t), curves)
    assert got == _reference_solve(u, t, curves)


# --- array lookups against the scalar reference -------------------------------------

def _reference_voltage(curve, target):
    """The scalar nearest-knot lookup that the array form must reproduce."""
    target = float(target)
    r = curve.retardances
    v = curve.drive_voltages
    i_min = int(np.argmin(r))
    i_max = int(np.argmax(r))
    if target <= r[i_min]:
        return float(v[i_min])
    if target >= r[i_max]:
        return float(v[i_max])
    nearest = int(np.argmin(np.abs(r - target)))
    for j in (nearest - 1, nearest + 1):
        if 0 <= j < r.size and (r[nearest] - target) * (r[j] - target) <= 0.0:
            lo, hi = sorted((nearest, j))
            if r[hi] == r[lo]:
                return float(v[lo])
            frac = (target - r[lo]) / (r[hi] - r[lo])
            return float(v[lo] + frac * (v[hi] - v[lo]))
    return float(v[nearest])


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

_PLATEAU = _plateau(_SYNTHETIC)


def test_noisy_reference_curve_is_not_monotone():
    steps = np.diff(_NOISY.retardances)
    assert np.any(steps > 0) and np.any(steps < 0)


def test_plateau_reference_curve_has_flat_runs():
    assert np.any(np.diff(_PLATEAU.retardances) == 0.0)


def _targets(curve):
    r = curve.retardances
    knots = st.sampled_from(r.tolist())
    spread = st.floats(float(r.min()) - 1.0, float(r.max()) + 1.0, allow_nan=False)
    return st.lists(st.one_of(knots, spread), min_size=1, max_size=40)


@pytest.mark.parametrize(
    "curve", [_SYNTHETIC, _NOISY, _PLATEAU], ids=["synthetic", "noisy", "plateau"]
)
@pytest.mark.filterwarnings("error::RuntimeWarning")  # e.g. 0/0 on a zero-rise interval
@settings(deadline=None)
@given(data=st.data())
def test_array_voltage_lookup_matches_scalar_reference(curve, data):
    targets = data.draw(_targets(curve))
    volts = voltage_for_retardance(curve, np.array(targets))
    for k, target in enumerate(targets):
        voltage = _reference_voltage(curve, target)
        assert volts[k] == voltage
        scalar = voltage_for_retardance(curve, target)
        assert isinstance(scalar, float) and scalar == voltage


@pytest.mark.parametrize(
    "curve", [_SYNTHETIC, _NOISY, _PLATEAU], ids=["synthetic", "noisy", "plateau"]
)
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
