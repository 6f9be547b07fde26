"""Property tests: invariants of the retardance solve, the fine step, the curve lookups,
retarder inversion, the 3-vector rotations against the 4x4 algebra, the
scan estimator, unwrapping and the file formats, checked over generated
inputs."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import profile, rescaled_curve_set, sweep_from_profile
from polcomp.bench import (
    NoiseModel,
    VirtualApparatus,
    random_disturbance,
    synthetic_curve_set,
    synthetic_retardance_curve,
)
from polcomp.compensation import (
    CompensationRun,
    CompensatorState,
    LoopConfig,
    _solution_family,
    coarse_step,
    fine_tune_step,
    infer_disturbed,
    solve_retardances,
)
from polcomp.io import read_curve, read_scan, read_sweep, write_curve, write_scan, write_sweep
from polcomp.lcvr import (
    FOLD_THRESHOLD,
    CharacterizationSweep,
    RetardanceCurve,
    _boundary_runs,
    build_curve,
    curve_slope_at,
    retardance_for_voltage,
    unwrap_retardance,
    voltage_for_retardance,
)
from polcomp.polarimetry import PolarimeterScan, extract_coefficients
from polcomp.stokes import (
    NormalizedStokes,
    StokesVector,
    _lcvr_rows,
    _rotate,
    _triple_rows,
    apply,
    cardinal_target,
    compose,
    fidelity,
    invert_retarder,
    mueller_lcvr,
    mueller_lcvr_triple,
    transform_normalized,
)

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


_STACK = synthetic_curve_set(4)
_KICK = st.floats(-0.3, 0.3, allow_nan=False)


@settings(deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kick=st.tuples(_KICK, _KICK, _KICK, _KICK))
def test_one_fine_correction_raises_fidelity_inside_the_spans(seed, kick):
    # Noise-free, unbiased bench: solve, knock every cell off the solution,
    # then take one fine cycle from a setting that reads in [0.9, 0.995).
    target, config = cardinal_target("H"), LoopConfig()
    app = VirtualApparatus(disturbance=random_disturbance(seed), curves=_STACK,
                           noise=NoiseModel.none())
    run = CompensationRun.begin(_STACK, target, config)
    coarse_step(run, app, _STACK, target, config)
    spans = [c.voltage_span for c in _STACK]
    run.state = CompensatorState(tuple(
        min(max(v + k, lo), hi) for v, k, (lo, hi) in zip(run.state.voltages, kick, spans)
    ))
    run.phase = "fine"
    fine_tune_step(run, app, config)
    before = run.current_fidelity
    assume(0.9 <= before < config.fine_threshold)
    assert all(lo <= v <= hi for v, (lo, hi) in zip(run.state.voltages, spans))
    assert fidelity(app(run.state.voltages), target) > before


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

# Strictly decreasing on knots up to 3x apart in voltage: for the target on
# knot 4, v[3] + (v[4] - v[3]) rounds away from v[4], so the interval a
# knot target refines in shows in the result.
_SPARSE_V = np.geomspace(1e-4, 16.0, 8)
_SPARSE = RetardanceCurve(_SPARSE_V, profile(_SPARSE_V), np.full(8, np.nan))

_LOOKUP_CURVES = {"synthetic": _SYNTHETIC, "noisy": _NOISY, "plateau": _PLATEAU,
                  "sparse": _SPARSE}


def test_noisy_reference_curve_is_not_monotone():
    steps = np.diff(_NOISY.retardances)
    assert np.any(steps > 0) and np.any(steps < 0)


def test_plateau_reference_curve_has_flat_runs():
    assert np.any(np.diff(_PLATEAU.retardances) == 0.0)


def test_only_strictly_decreasing_curves_take_the_one_search_path():
    assert all(c._table.decreasing for c in synthetic_curve_set(4))
    assert _SYNTHETIC._table.decreasing and _SPARSE._table.decreasing
    assert _SPARSE_V[3] + (_SPARSE_V[4] - _SPARSE_V[3]) != _SPARSE_V[4]
    assert not _NOISY._table.decreasing
    assert not _PLATEAU._table.decreasing


def _with_neighbours(values):
    """``values`` with the next double below and above each one."""
    a = np.asarray(values, dtype=float)
    return np.concatenate((a, np.nextafter(a, -np.inf), np.nextafter(a, np.inf))).tolist()


def _targets(curve):
    r = curve.retardances
    knots = st.sampled_from(_with_neighbours(r))
    ends = st.sampled_from(_with_neighbours([r.min(), r.max()]))
    spread = st.floats(float(r.min()) - 1.0, float(r.max()) + 1.0, allow_nan=False)
    return st.lists(st.one_of(knots, ends, spread), min_size=1, max_size=40)


@pytest.mark.parametrize("name", list(_LOOKUP_CURVES))
@settings(deadline=None)
@given(data=st.data())
def test_array_voltage_lookup_matches_scalar_reference(name, data):
    curve = _LOOKUP_CURVES[name]
    targets = data.draw(_targets(curve))
    volts = voltage_for_retardance(curve, np.array(targets))
    for k, target in enumerate(targets):
        voltage = _reference_voltage(curve, target)
        assert volts[k] == voltage
        scalar = voltage_for_retardance(curve, target)
        assert isinstance(scalar, float) and scalar == voltage


@pytest.mark.parametrize("name", list(_LOOKUP_CURVES))
def test_voltage_lookup_matches_scalar_reference_on_every_knot(name):
    curve = _LOOKUP_CURVES[name]
    targets = _with_neighbours(curve.retardances)
    volts = voltage_for_retardance(curve, np.array(targets))
    assert volts.tolist() == [_reference_voltage(curve, t) for t in targets]


# --- scalar interpolation against np.interp -----------------------------------------

# Knots 5e-310 V apart: the slope of that interval overflows to -inf, so
# only the knot test keeps the lookup at the first knot finite.
_STEEP = RetardanceCurve([0.0, 5e-310, 1.0, 2.0], [3.0, 1.0, 0.5, 0.5], [np.nan] * 4)
_INTERP_CURVES = {**_LOOKUP_CURVES, "steep": _STEEP}


def _assert_interp_matches(curve, voltages):
    v, r = curve.drive_voltages, curve.retardances
    for x in voltages:
        got = retardance_for_voltage(curve, x)
        assert isinstance(got, float) and got == float(np.interp(x, v, r)), x


@pytest.mark.parametrize("name", list(_INTERP_CURVES))
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")  # the steep curve's slope
def test_scalar_interpolation_matches_np_interp_on_every_knot(name):
    curve = _INTERP_CURVES[name]
    lo, hi = curve.voltage_span
    assert (lo, hi) == (curve.drive_voltages[0], curve.drive_voltages[-1])
    _assert_interp_matches(curve, [x for x in _with_neighbours(curve.drive_voltages)
                                   if lo <= x <= hi])
    for outside in (np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)):
        with pytest.raises(ValueError, match="outside calibrated span"):
            retardance_for_voltage(curve, outside)


@pytest.mark.parametrize("name", list(_INTERP_CURVES))
@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@settings(deadline=None)
@given(data=st.data())
def test_scalar_interpolation_matches_np_interp(name, data):
    curve = _INTERP_CURVES[name]
    lo, hi = curve.voltage_span
    _assert_interp_matches(curve, data.draw(st.lists(st.floats(lo, hi), min_size=1, max_size=40)))


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


# --- retarder inversion, unwrapping and file round trips -----------------------------

_angle = st.floats(-10.0, 10.0, allow_nan=False)


@given(st.lists(st.tuples(_angle, _angle), min_size=1, max_size=6))
def test_inverted_retarder_stack_gives_identity(cells):
    m = compose([mueller_lcvr(theta, delta) for theta, delta in cells])
    assert np.max(np.abs(invert_retarder(m) @ m - np.eye(4))) <= 1e-12


# --- the 3-vector paths against the public 4x4 algebra ---------------------------------

def _apply_4x4(m, u):
    out = apply(m, StokesVector(1.0, *u))
    return (out.s1, out.s2, out.s3)


@given(_angle, _angle, unit_vectors)
def test_lcvr_rows_match_mueller_lcvr(theta, delta, u):
    rows, m = _lcvr_rows(theta, delta), mueller_lcvr(theta, delta)
    u = tuple(u.tolist())
    np.testing.assert_allclose(_rotate(rows, u), _apply_4x4(m, u), rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        _rotate(rows, u, inverse=True), _apply_4x4(invert_retarder(m), u), rtol=0, atol=1e-15
    )


@given(_angle, _angle, _angle, unit_vectors)
def test_triple_rows_match_mueller_lcvr_triple(d1, d2, d3, u):
    rows, m = _triple_rows(d1, d2, d3), mueller_lcvr_triple(d1, d2, d3)
    u = tuple(u.tolist())
    np.testing.assert_allclose(_rotate(rows, u), _apply_4x4(m, u), rtol=0, atol=1e-15)
    np.testing.assert_allclose(
        _rotate(rows, u, inverse=True), _apply_4x4(invert_retarder(m), u), rtol=0, atol=1e-15
    )


@given(_angle, _angle, _angle, unit_vectors)
def test_infer_disturbed_matches_inverted_triple(d1, d2, d3, u):
    u = NormalizedStokes(*u.tolist())
    got = infer_disturbed(u, (d1, d2, d3))
    want = transform_normalized(invert_retarder(mueller_lcvr_triple(d1, d2, d3)), u)
    np.testing.assert_allclose(got.as_array(), want.as_array(), rtol=0, atol=1e-14)


@given(unit_vectors, unit_vectors)
def test_fidelity_matches_dot_product(a, b):
    got = fidelity(NormalizedStokes(*a.tolist()), NormalizedStokes(*b.tolist()))
    assert abs(got - 0.5 * (1.0 + a @ b)) <= 1e-15


def _three_trig_coefficients(scan):
    """The Fourier sums with ``sin 2th``, ``cos 4th`` and ``sin 4th`` each
    taken from its own trig call."""
    v = scan.voltages - scan.background_voltage
    th = scan.angles - scan.offset_alpha
    n = v.size
    return (
        2.0 / n * float(v.sum()),
        4.0 / n * float((v * np.sin(2.0 * th)).sum()),
        4.0 / n * float((v * np.cos(4.0 * th)).sum()),
        4.0 / n * float((v * np.sin(4.0 * th)).sum()),
    )


@st.composite
def detector_scans(draw):
    """Scans with detector-range voltages: a jittered uniform grid, or
    sorted random angles pinned to span one revolution."""
    n = draw(st.integers(16, 64))
    if draw(st.booleans()):
        step = 2.0 * math.pi / (n - 1)
        jitter = draw(st.lists(st.floats(-0.2 * step, 0.2 * step), min_size=n, max_size=n))
        angles = np.arange(n) * step + np.array(jitter)
    else:
        gaps = np.cumsum(draw(st.lists(st.floats(0.1, 10.0), min_size=n - 1, max_size=n - 1)))
        angles = 2.0 * math.pi * np.concatenate(([0.0], gaps / gaps[-1]))
    return PolarimeterScan(
        angles=angles + draw(st.floats(-1.0, 1.0)),
        voltages=draw(st.lists(st.floats(-0.1, 1.5), min_size=n, max_size=n)),
        background_voltage=draw(st.floats(0.0, 0.1)),
        offset_alpha=draw(st.floats(-math.pi, math.pi)),
    )


@settings(deadline=None)
@given(scan=detector_scans())
def test_extract_coefficients_matches_three_trig_reference(scan):
    c = extract_coefficients(scan)
    np.testing.assert_allclose(
        (c.a0, c.b0, c.c0, c.d0), _three_trig_coefficients(scan), rtol=0, atol=1e-14
    )


def _near_a_branch_boundary(x):
    return abs(x - math.pi * round(x / math.pi)) < 0.3


@settings(deadline=None)
@example(top=math.pi / 2, depth=7.01953125, knee=1.0, power=1.5, n=344, rising=True)
@given(
    top=st.floats(0.5 * math.pi, 3.5 * math.pi),
    depth=st.floats(0.5, 3.0 * math.pi),
    knee=st.floats(1.0, 4.0),
    power=st.floats(1.5, 3.0),
    n=st.integers(300, 800),
    rising=st.booleans(),
)
def test_unwrap_round_trips_monotone_profiles(top, depth, knee, power, n, rising):
    """A monotone LCVR-like profile folded by the arccos comes back on the
    branch of its first sample.

    Each fold is placed exactly where the curve's second difference is
    constant across it (the example above rebuilds to 1e-13 rad), but a
    fold where it changes fast can still land one sample off, and that
    sample comes back mirrored about its nearest boundary: off by twice
    its distance to it (2 of 12,912 drawn profiles of this family).
    """
    v = np.linspace(0.1, 16.0, n)
    shape = 1.0 / (1.0 + (v / knee) ** power)
    true = top - depth * (shape[0] - shape) / (shape[0] - shape[-1])
    if rising:
        true = true[::-1]
    # A fold at either end of the sequence cannot be confirmed.
    assume(not (_near_a_branch_boundary(true[0]) or _near_a_branch_boundary(true[-1])))
    assume(np.max(np.abs(np.diff(true))) < 0.25)  # a sample lands near every fold
    raw = np.arccos(np.cos(true))
    out = unwrap_retardance(raw)
    assert out[0] == raw[0]
    np.testing.assert_allclose(np.cos(out), np.cos(raw), rtol=0, atol=1e-12)
    sign = 1.0 if math.sin(true[0]) > 0.0 else -1.0
    error = np.abs(out - (raw[0] + sign * (true - true[0])))
    assert np.all(error <= 2.0 * np.minimum(raw, math.pi - raw) + 1e-9)


@given(st.lists(st.floats(0.0, math.pi), min_size=1, max_size=60))
def test_boundary_visits_alternate(values):
    raw = np.array(values)
    runs = _boundary_runs(raw)
    near = [0 if x < FOLD_THRESHOLD else 1 if x > math.pi - FOLD_THRESHOLD else None
            for x in values]
    labelled = [i for i, lab in enumerate(near) if lab is not None]
    covered = [i for a, b, _ in runs for i in range(a, b + 1) if near[i] is not None]
    assert covered == labelled
    for (a, b, boundary) in runs:
        assert near[a] == near[b] == boundary
        assert all(near[i] in (None, boundary) for i in range(a, b + 1))
    for (_, b, first), (a, _, second) in zip(runs, runs[1:]):
        assert first != second and b < a


_finite = st.floats(-1e6, 1e6, allow_nan=False)


def _increasing(draw, n, lo, hi):
    """``n`` strictly increasing doubles drawn from ``[lo, hi]``."""
    xs = draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n, unique=True))
    return np.sort(np.array(xs))


@st.composite
def sweeps(draw):
    n = draw(st.integers(10, 30))
    return CharacterizationSweep(
        drive_voltages=_increasing(draw, n, 0.0, 20.0),
        mean_pd_voltages=draw(st.lists(_finite, min_size=n, max_size=n)),
        pd_voltage_sems=draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)),
        background_voltage=draw(_finite),
        background_sem=draw(st.floats(0.0, 1.0)),
    )


@st.composite
def curves(draw):
    n = draw(st.integers(2, 30))
    return RetardanceCurve(
        drive_voltages=_increasing(draw, n, 0.0, 20.0),
        retardances=draw(st.lists(_finite, min_size=n, max_size=n)),
        retardance_errors=draw(st.lists(st.one_of(st.just(math.nan), st.floats(0.0, 1.0)),
                                        min_size=n, max_size=n)),
        wavelength_nm=draw(st.one_of(st.none(), st.floats(400.0, 1600.0))),
        fold_count=draw(st.one_of(st.none(), st.integers(0, 5))),
    )


@st.composite
def scans(draw):
    n = draw(st.integers(16, 64))
    step = 2.0 * math.pi / (n - 1)
    jitter = draw(st.lists(st.floats(-0.2 * step, 0.2 * step), min_size=n, max_size=n))
    return PolarimeterScan(
        angles=np.arange(n) * step + np.array(jitter) + draw(st.floats(-1.0, 1.0)),
        voltages=draw(st.lists(_finite, min_size=n, max_size=n)),
        background_voltage=draw(_finite),
        offset_alpha=draw(st.floats(-math.pi, math.pi)),
    )


@settings(deadline=None)
@given(sweep=sweeps())
def test_sweep_csv_round_trip(tmp_path_factory, sweep):
    path = tmp_path_factory.mktemp("sweep") / "sweep.csv"
    write_sweep(path, sweep)
    back = read_sweep(path)
    for name in ("drive_voltages", "mean_pd_voltages", "pd_voltage_sems"):
        np.testing.assert_array_equal(getattr(back, name), getattr(sweep, name))
    assert (back.background_voltage, back.background_sem) == (
        sweep.background_voltage, sweep.background_sem)


@settings(deadline=None)
@given(curve=curves())
def test_curve_csv_round_trip(tmp_path_factory, curve):
    path = tmp_path_factory.mktemp("curve") / "curve.csv"
    write_curve(path, curve)
    back = read_curve(path)
    for name in ("drive_voltages", "retardances", "retardance_errors"):
        np.testing.assert_array_equal(getattr(back, name), getattr(curve, name))
    for name in ("voltage_step", "wavelength_nm", "fold_count"):
        assert getattr(back, name) == getattr(curve, name)


@settings(deadline=None)
@given(scan=scans())
def test_scan_csv_round_trip(tmp_path_factory, scan):
    """Voltages come back exactly; angles pass through degrees in the file."""
    path = tmp_path_factory.mktemp("scan") / "scan.csv"
    write_scan(path, scan)
    back = read_scan(path)
    np.testing.assert_allclose(back.angles, scan.angles, rtol=0, atol=1e-14)
    np.testing.assert_array_equal(back.voltages, scan.voltages)
    assert back.background_voltage == scan.background_voltage
    assert back.offset_alpha == pytest.approx(scan.offset_alpha, rel=0, abs=1e-15)
