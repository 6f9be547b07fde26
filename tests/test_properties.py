"""Property tests: invariants of the retardance solve, the fine step, the curve lookups,
retarder inversion, the 3-vector rotations against the 4x4 algebra, the
scan estimator, unwrapping and the file formats, checked over generated
inputs."""

import math
import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import profile, rescaled_curve_set, sweep_from_profile
from polcomp import compensation
from polcomp.bench import (
    NoiseModel,
    VirtualApparatus,
    random_disturbance,
    simulate_characterization_sweep,
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
    CalibrationError,
    CharacterizationSweep,
    RetardanceCurve,
    UnwrapAmbiguityError,
    _boundary_runs,
    _falling_fit,
    _pool_adjacent_violators,
    build_curve,
    curve_slope_at,
    retardance_for_voltage,
    unwrap_retardance,
    voltage_for_retardance,
)
from polcomp.polarimetry import (
    PolarimeterScan,
    _drawn_coefficients,
    _scan_rng,
    extract_coefficients,
    simulate_scan,
)
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


_SETTING = st.tuples(*(st.floats(*c.voltage_span) for c in _STACK))


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), before=st.lists(st.tuples(_SETTING, _SETTING), max_size=4),
       last=_SETTING)
def test_a_reading_does_not_depend_on_earlier_voltages(seed, before, last):
    # Two apparatuses of one seed, driven differently for k - 1 calls and
    # alike at call k: the shared noise stream must give equal readings.
    def apparatus():
        return VirtualApparatus(disturbance=random_disturbance(seed), curves=_STACK,
                                noise=NoiseModel.lab(), seed=seed)

    a, b = apparatus(), apparatus()
    for va, vb in before:
        a(va)
        b(vb)
    assert a(last) == b(last)


def _plateau(curve):
    """``curve`` with retardances rounded to 0.05 rad, then fitted falling
    as :func:`build_curve` fits a sweep: each run of equal retardances
    becomes a block tilted across less than 0.025 rad."""
    stepped = np.round(curve.retardances / 0.05) * 0.05
    return RetardanceCurve(curve.drive_voltages, _falling_fit(stepped, curve.retardance_errors),
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


def _lab_built_curves(n, first_seed):
    """One curve per cell built from one lab-noise sweep of its synthetic curve."""
    pd_sigma = NoiseModel.lab().pd_sigma
    return [
        build_curve(simulate_characterization_sweep(
            c.drive_voltages, lambda v, c=c: np.interp(v, c.drive_voltages, c.retardances),
            pd_sigma=pd_sigma, seed=first_seed + k))
        for k, c in enumerate(synthetic_curve_set(n))
    ]


# Curve sets the memoized fixed row must keep apart.  The lab-built curves
# span more than a wave, so every state has a reachable row on them; the
# narrow spans make the solve take its fallback pick.
_CACHE_CURVES = [
    synthetic_curve_set(3),
    synthetic_curve_set(4),
    _lab_built_curves(3, 100),
    _lab_built_curves(4, 200),
    rescaled_curve_set(3, 0.1 * math.pi, 0.2 * math.pi),
]
# H and V as source or target take the inverse branch of the family.
_POLES_OR_ANY = st.one_of(st.sampled_from([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0)]), unit_vectors)


@settings(deadline=None)
@given(pairs=st.lists(st.tuples(_POLES_OR_ANY, _POLES_OR_ANY), min_size=1, max_size=4),
       sets=st.tuples(*[st.integers(0, len(_CACHE_CURVES) - 1)] * 2))
def test_solve_with_cached_fixed_row_is_bit_identical(pairs, sets):
    # Alternate two curve sets state by state: a fixed row cached for one
    # set must never answer for the other.
    for u, t in pairs:
        s_dis, s_target = NormalizedStokes(*u), NormalizedStokes(*t)
        for curves in (_CACHE_CURVES[sets[0]], _CACHE_CURVES[sets[1]]):
            got = solve_retardances(s_dis, s_target, curves)
            assert got == _reference_solve(u, t, curves[:3])


def test_fixed_row_cache_stays_bounded_over_fresh_curves():
    # 1,000 fresh curve sets of random spans, some too narrow to reach:
    # each is solved once in each branch, the cache never grows past its
    # bound, and no entry answers for a curve it was not made for.
    rng = np.random.default_rng(24)
    u = (0.6, 0.0, 0.8)
    s_dis = NormalizedStokes(*u)
    for _ in range(1000):
        lo = rng.uniform(0.05, 1.0) * math.pi
        curves = rescaled_curve_set(3, lo, lo + rng.uniform(0.1, 2.5) * math.pi)
        for t in ((0.0, 0.6, -0.8), (1.0, 0.0, 0.0)):
            got = solve_retardances(s_dis, NormalizedStokes(*t), curves)
            assert got == _reference_solve(u, t, curves[:3])
        info = compensation._fixed_row.cache_info()
        assert info.currsize <= info.maxsize


# --- array lookups against the scalar reference -------------------------------------

def _reference_voltage(curve, target):
    """The scalar lookup that the array form must reproduce: ``np.interp``
    on the knots in rising retardance (every curve falls strictly)."""
    r = curve.retardances
    v = curve.drive_voltages
    return float(np.interp(float(target), r[::-1], v[::-1]))


def _reference_slope(curve, voltage):
    v = curve.drive_voltages
    r = curve.retardances
    i = int(np.clip(np.searchsorted(v, float(voltage)), 1, v.size - 1))
    lo = max(0, i - 1)
    hi = min(v.size - 1, i + 1)
    return abs(float((r[hi] - r[lo]) / (v[hi] - v[lo])))


_SYNTHETIC = synthetic_retardance_curve(index=1)
# Heavy noise on a 0.01 V grid: the unwrapped curve rises on many
# intervals, so the falling fit pools many blocks.
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


def test_noisy_reference_curve_falls_strictly():
    assert np.all(np.diff(_NOISY.retardances) < 0.0)
    assert len(_NOISY) == 1591


def test_sparse_reference_curve_tells_knot_intervals_apart():
    assert _SPARSE_V[3] + (_SPARSE_V[4] - _SPARSE_V[3]) != _SPARSE_V[4]


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
_STEEP = RetardanceCurve([0.0, 5e-310, 1.0, 2.0], [3.0, 1.0, 0.5, 0.25], [np.nan] * 4)
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


@st.composite
def simulated_scans(draw):
    """Noisy scans of a random pure state: ``n`` samples a step apart that
    covers one revolution, a mount offset, a background and a drift of at
    most 0.1 rad."""
    n = draw(st.integers(16, 400))
    step = 2.0 * math.pi / n * draw(st.floats(1.0, 1.05))
    noise = NoiseModel(pd_sigma=0.005, background_v=draw(st.floats(0.0, 0.1)),
                       angle_jitter_sigma=draw(st.floats(0.0, 0.05)))
    scan = simulate_scan(StokesVector(1.0, *draw(unit_vectors)), n, step,
                         alpha=draw(st.floats(-math.pi, math.pi)), noise=noise,
                         seed=draw(st.integers(0, 2**32 - 1)))
    assume(abs(scan.angles[0] - scan.offset_alpha) <= 0.1)
    return scan


@settings(deadline=None)
@given(scan=simulated_scans())
def test_simulated_scan_sums_match_three_trig_reference(scan):
    c = extract_coefficients(scan)
    np.testing.assert_allclose(
        (c.a0, c.b0, c.c0, c.d0), _three_trig_coefficients(scan), rtol=0, atol=1e-13
    )


@settings(deadline=None)
@given(u=unit_vectors, n=st.integers(16, 400), background=st.floats(0.0, 0.1),
       drift_sigma=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_drawn_sums_of_a_quiet_reading_are_the_scan_sums(u, n, background, drift_sigma, seed):
    # Noise-free, both sides draw only the drift, from the same tagged stream.
    s = StokesVector(1.0, *u)
    noise = NoiseModel(pd_sigma=0.0, background_v=background, angle_jitter_sigma=drift_sigma)
    scan = simulate_scan(s, n, 2.0 * math.pi / n, noise=noise, seed=seed)
    assume(abs(scan.angles[0]) <= 1.0)
    c = extract_coefficients(scan)
    drawn = _drawn_coefficients(s, n, noise, _scan_rng(seed))
    np.testing.assert_allclose(
        (drawn.a0, drawn.b0, drawn.c0, drawn.d0), (c.a0, c.b0, c.c0, c.d0), rtol=0, atol=1e-13
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


# --- the falling fit of built curves -----------------------------------------------

@st.composite
def profile_sweeps(draw):
    """Sweeps of the conftest profile on 150 to 1,600 points, with up to
    3 % detector noise and some error bars set to zero."""
    n = draw(st.integers(150, 1600))
    sweep = sweep_from_profile(np.linspace(0.1, 16.0, n), pd_sigma=draw(st.floats(0.0, 0.03)),
                               n_repeats=draw(st.integers(1, 10)),
                               seed=draw(st.integers(0, 2**32 - 1)))
    zero = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(n) < draw(
        st.sampled_from([0.0, 0.1, 1.0]))
    return CharacterizationSweep(sweep.drive_voltages, sweep.mean_pd_voltages,
                                 np.where(zero, 0.0, sweep.pd_voltage_sems),
                                 sweep.background_voltage, sweep.background_sem)


@settings(deadline=None, max_examples=60)
@given(sweep=profile_sweeps())
def test_built_curves_fall_strictly_and_keep_every_knot(sweep):
    try:
        curve = build_curve(sweep)
    except (CalibrationError, UnwrapAmbiguityError):  # a sweep build_curve refuses
        assume(False)
    assert np.all(np.diff(curve.retardances) < 0.0)
    assert len(curve) == len(sweep)


_ERROR_BARS = st.one_of(st.just(math.nan), st.just(0.0), st.just(5e-324),
                        st.floats(0.0, allow_nan=False))


@given(data=st.data())
def test_falling_fit_returns_a_strictly_falling_input_bit_for_bit(data):
    n = data.draw(st.integers(2, 40))
    y = _falling(data.draw, n, st.floats(-1e6, 1e6))
    errors = np.array(data.draw(st.lists(_ERROR_BARS, min_size=n, max_size=n)))
    assert _falling_fit(y, errors).tobytes() == y.tobytes()


@given(y=st.lists(st.floats(-10.0, 10.0, allow_subnormal=False), min_size=1, max_size=60),
       data=st.data())
def test_each_pooled_block_takes_its_weighted_mean(y, data):
    """The blocks fall strictly and each holds its knots' weighted mean,
    and no leading part of a block has a higher mean than the whole: the
    least-squares non-increasing fit."""
    w = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(y), max_size=len(y)))
    values, sizes = _pool_adjacent_violators(np.array(y), np.array(w))
    assert sum(sizes) == len(y) and all(a > b for a, b in zip(values, values[1:]))
    start = 0
    for value, size in zip(values, sizes):
        ys, ws = y[start : start + size], w[start : start + size]
        tol = 1e-12 * max(abs(x) for x in ys)
        mean = math.fsum(a * b for a, b in zip(ys, ws)) / math.fsum(ws)
        assert abs(value - mean) <= tol
        for k in range(1, size):
            head = math.fsum(a * b for a, b in zip(ys[:k], ws[:k])) / math.fsum(ws[:k])
            assert head <= mean + tol
        start += size


@example(errors=[math.nan] * 5)
@example(errors=[0.0] * 5)
@given(errors=st.lists(_ERROR_BARS, min_size=2, max_size=30))
def test_missing_error_bars_raise_no_warning(errors):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:  # a wavy sequence, so blocks pool
            fit = _falling_fit(np.sin(np.arange(len(errors))), np.array(errors))
        except CalibrationError:  # the fit is one flat block
            return
    assert np.all(np.diff(fit) < 0.0)


@pytest.mark.parametrize("errors, mean", [
    ([math.nan, 0.5, 0.25, 1.0], 1.5),
    ([0.0, 0.5, 0.25, 1.0], 1.5),
    ([0.25, 0.5, 0.25, 1.0], 1.2),
    ([math.nan] * 4, 1.5),
    ([0.0] * 4, 1.5),
])
def test_a_missing_error_bar_takes_the_median_weight(errors, mean):
    # Knots 0 and 1 rise, so they pool.  Past knot 0 the weights are 4, 16
    # and 1: a NaN or zero error bar at knot 0 weighs their median, 4, as
    # knot 1 does, and an error bar of 0.25 weighs 16.  With none finite,
    # every knot weighs the same.
    fit = _falling_fit(np.array([1.0, 2.0, 0.0, -1.0]), np.array(errors))
    assert fit[:2].mean() == pytest.approx(mean, rel=1e-15)
    assert fit[2:].tolist() == [0.0, -1.0]


_finite = st.floats(-1e6, 1e6, allow_nan=False)


def _increasing(draw, n, lo, hi):
    """``n`` strictly increasing doubles drawn from ``[lo, hi]``."""
    xs = draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n, unique=True))
    return np.sort(np.array(xs))


def _falling(draw, n, elements):
    """``n`` strictly falling doubles drawn from ``elements``; a zero among
    them takes either sign."""
    xs = np.sort(np.array(draw(st.lists(elements, min_size=n, max_size=n, unique=True))))[::-1]
    xs[xs == 0.0] = draw(st.sampled_from([-0.0, 0.0]))
    return xs


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
        retardances=_falling(draw, n, _finite),
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


# Any finite double, with the values whose text is easiest to get wrong
# drawn often; drive voltages stay in +-1e300 so their differences are finite.
_TRICKY = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-7, 0.1, 1 / 3,
                           2.0**53, 1.7976931348623157e308])
_ANY_FINITE = st.one_of(_TRICKY, st.floats(allow_nan=False, allow_infinity=False))


def _columns(draw, n, elements):
    return np.array(draw(st.lists(elements, min_size=n, max_size=n)), dtype=float)


@settings(deadline=None)
@given(data=st.data())
def test_csv_round_trips_are_bit_identical(tmp_path_factory, data):
    """Every written double, signed zeros and NaN error bars included,
    reads back with the same bits."""
    draw = data.draw
    path = tmp_path_factory.mktemp("bits")
    n = draw(st.integers(10, 30))
    drive = _increasing(draw, n, -1e300, 1e300)
    drive[drive == 0.0] = draw(st.sampled_from([-0.0, 0.0]))
    sweep = CharacterizationSweep(
        drive, _columns(draw, n, _ANY_FINITE),
        np.abs(_columns(draw, n, _ANY_FINITE)), background_voltage=0.0)
    curve = RetardanceCurve(
        drive, _falling(draw, n, _ANY_FINITE),
        _columns(draw, n, st.one_of(st.just(math.nan), _ANY_FINITE)))
    scan = PolarimeterScan(np.linspace(0.0, 2 * math.pi, 16), _columns(draw, 16, _ANY_FINITE))
    for write, read, obj, names in [
        (write_sweep, read_sweep, sweep,
         ("drive_voltages", "mean_pd_voltages", "pd_voltage_sems")),
        (write_curve, read_curve, curve,
         ("drive_voltages", "retardances", "retardance_errors")),
        (write_scan, read_scan, scan, ("voltages",)),
    ]:
        write(path / "f.csv", obj)
        back = read(path / "f.csv")
        for name in names:
            assert getattr(back, name).tobytes() == getattr(obj, name).tobytes(), name


# Ways to write one cell that every reader must read as the plain cell.
_CELL_SPELLINGS = [
    lambda c: c,
    lambda c: f" {c}\t",
    lambda c: f'"{c}"',
    lambda c: f'" {c} "',
    lambda c: f"\x1f{c}\x1f",  # blank to str.strip, though not to float
]


@settings(deadline=None)
@given(data=st.data(), kind=st.sampled_from(["sweep", "curve"]))
def test_respelled_lines_read_back_bit_identical(tmp_path_factory, data, kind):
    """Each line of a written file re-spelled on its own (cells spaced or
    quoted, CRLF, blank lines before it) reads back the same values."""
    draw = data.draw
    write, read, obj, names = {
        "sweep": (write_sweep, read_sweep, sweeps(),
                  ("drive_voltages", "mean_pd_voltages", "pd_voltage_sems")),
        "curve": (write_curve, read_curve, curves(),
                  ("drive_voltages", "retardances", "retardance_errors")),
    }[kind]
    path = tmp_path_factory.mktemp("spell") / f"{kind}.csv"
    write(path, draw(obj))
    clean = read(path)
    text = ""
    for line in path.read_text().splitlines():
        spell = draw(st.sampled_from(_CELL_SPELLINGS))
        text += "\n" * draw(st.integers(0, 2)) + ",".join(map(spell, line.split(",")))
        text += draw(st.sampled_from(["\n", "\r\n"]))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    path.write_bytes(text.encode())
    back = read(path)
    for name in names:
        assert getattr(back, name).tobytes() == getattr(clean, name).tobytes(), name
