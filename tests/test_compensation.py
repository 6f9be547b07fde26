"""The compensation loop: inference, the solve against a residual oracle,
both loop phases, and QBER arithmetic."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import rescaled_curve_set
from polcomp import compensation
from polcomp.bench import (
    FiberDisturbance,
    NoiseModel,
    VirtualApparatus,
    random_disturbance,
    run_trials,
    simulate_characterization_sweep,
    synthetic_curve_set,
)
from polcomp.compensation import (
    CompensationRun,
    LoopConfig,
    _fine_correction,
    _solution_family,
    _solve_from,
    coarse_step,
    fine_tune_step,
    infer_disturbed,
    qber_opt,
    qber_total,
    run_compensation,
    solve_retardances,
)
from polcomp.lcvr import (
    build_curve,
    curve_slope_at,
    retardance_for_voltage,
    voltage_for_retardance,
)
from polcomp.stokes import (
    NormalizedStokes,
    cardinal_target,
    fidelity,
    mueller_lcvr_triple,
    transform_normalized,
)


def _random_unit(rng):
    v = rng.normal(size=3)
    return NormalizedStokes(*(v / np.linalg.norm(v)))


# --- inference ------------------------------------------------------------------

def test_infer_with_identity_setting_is_passthrough():
    full = 2 * math.pi
    u = NormalizedStokes(0.6, -0.48, 0.64)
    got = infer_disturbed(u, (full, full, full))
    np.testing.assert_allclose(
        [got.u1, got.u2, got.u3], [u.u1, u.u2, u.u3], atol=1e-12
    )


def test_infer_is_exact_left_inverse():
    rng = np.random.default_rng(42)
    for _ in range(200):
        triple = tuple(rng.uniform(0, 2 * math.pi, 3))
        s_dis = _random_unit(rng)
        fwd = transform_normalized(mueller_lcvr_triple(*triple), s_dis)
        back = infer_disturbed(fwd, triple)
        np.testing.assert_allclose(
            [back.u1, back.u2, back.u3], [s_dis.u1, s_dis.u2, s_dis.u3], atol=1e-12
        )


# --- the retardance solver --------------------------------------------------------

def _residual(triple, s_dis, s_target):
    out = transform_normalized(mueller_lcvr_triple(*triple), s_dis)
    return math.sqrt(
        (out.u1 - s_target.u1) ** 2
        + (out.u2 - s_target.u2) ** 2
        + (out.u3 - s_target.u3) ** 2
    )


def _actuated(curves, volts):
    """Retardances the cells take at the given drive voltages."""
    return tuple(retardance_for_voltage(c, v) for c, v in zip(curves, volts))


def _in_drive_span(curves, volts):
    return all(c.drive_voltages[0] <= v <= c.drive_voltages[-1] for c, v in zip(curves, volts))


def test_solve_identity_requirement():
    r = cardinal_target("R")
    curves = synthetic_curve_set(3)
    sol = solve_retardances(r, r, curves)
    assert _residual(_actuated(curves, sol), r, r) <= 1e-9


def test_solve_h_to_r():
    curves = synthetic_curve_set(3)
    sol = solve_retardances(cardinal_target("H"), cardinal_target("R"), curves)
    assert len(sol) == 3 and all(isinstance(v, float) for v in sol)
    assert _in_drive_span(curves, sol)
    assert _residual(_actuated(curves, sol), cardinal_target("H"), cardinal_target("R")) <= 1e-9


def test_solver_residual_oracle_random_pairs():
    # The only trusted check is the residual itself, evaluated through the
    # forward matrix at the retardances the cells take at the returned
    # voltages — never through the solver's own bookkeeping.
    rng = np.random.default_rng(43)
    curves = synthetic_curve_set(3)
    worst = 0.0
    for _ in range(1000):
        s_dis, s_target = _random_unit(rng), _random_unit(rng)
        sol = solve_retardances(s_dis, s_target, curves)
        worst = max(worst, _residual(_actuated(curves, sol), s_dis, s_target))
    assert worst <= 1e-12


def _slope_score(curves, triple):
    return sum(
        curve_slope_at(c, voltage_for_retardance(c, d)) for c, d in zip(curves, triple)
    )


def test_solver_prefers_steep_curve_regions():
    # The pick is exact, sits inside every curve span, and no other row of
    # the family, shifted into reach by whole waves, sits on steeper curves.
    curves = synthetic_curve_set(3)
    s_dis = NormalizedStokes(0.0, 0.8, 0.6)
    target = cardinal_target("D")
    volts = solve_retardances(s_dis, target, curves)
    guided = _actuated(curves, volts)
    assert _residual(guided, s_dis, target) <= 1e-12
    for c, d in zip(curves, guided):
        assert c.retardances.min() <= d <= c.retardances.max()
        assert d - 2 * math.pi < c.retardances.min()  # the lowest reachable wave
    best = sum(curve_slope_at(c, v) for c, v in zip(curves, volts))
    assert best == pytest.approx(_slope_score(curves, guided), abs=1e-12)
    others = 0
    for row in _solution_family(s_dis.as_array(), target.as_array()):
        shifted = []
        for c, d in zip(curves, row):
            lo = c.retardances.min()
            shifted.append(d - 2 * math.pi * math.floor((d - lo) / (2 * math.pi)))
        assert _slope_score(curves, shifted) <= best + 1e-12
        others += _slope_score(curves, shifted) < best - 1e-3
    assert others > 0  # the choice is not vacuous


def test_solver_returns_least_unreachable_row_when_none_fits():
    # Curves spanning 0.1*pi..0.2*pi turn the sphere by at most 0.6*pi in
    # all, short of the half turn H -> V needs: no row is reachable on all
    # three, so the solve returns the voltages of the row least outside
    # the spans, its out-of-span components clamped to end voltages.
    curves = rescaled_curve_set(3, 0.1 * math.pi, 0.2 * math.pi)
    s_dis, target = cardinal_target("H"), cardinal_target("V")
    sol = solve_retardances(s_dis, target, curves)
    assert _in_drive_span(curves, sol)
    assert any(v in (c.drive_voltages[0], c.drive_voltages[-1]) for c, v in zip(curves, sol))

    rows = []
    for row in _solution_family(s_dis.as_array(), target.as_array()):
        shifted, outside = [], 0.0
        for c, d in zip(curves, row):
            lo, hi = c.retardances.min(), c.retardances.max()
            up = d - 2 * math.pi * math.floor((d - lo) / (2 * math.pi))
            over, under = up - hi, lo - (up - 2 * math.pi)
            shifted.append(up if over <= under else up - 2 * math.pi)
            outside += max(min(over, under), 0.0)
        rows.append((outside, shifted))
    least = min(outside for outside, _ in rows)
    assert least > 0.0
    picked = [
        (outside, shifted) for outside, shifted in rows
        if [voltage_for_retardance(c, d) for c, d in zip(curves, shifted)]
        == pytest.approx(list(sol), abs=1e-12)
    ]
    assert picked
    for outside, shifted in picked:
        assert outside <= least + 1e-12
        assert _residual(shifted, s_dis, target) <= 1e-12


# --- loop configuration ------------------------------------------------------------

def test_loop_config_validation():
    with pytest.raises(ValueError):
        LoopConfig(coarse_threshold=0.99, fine_threshold=0.98)
    with pytest.raises(ValueError):
        LoopConfig(max_coarse_steps=0)


def test_begin_requires_three_or_four_curves():
    curves = synthetic_curve_set(4)
    with pytest.raises(ValueError):
        CompensationRun.begin(curves[:2], cardinal_target("H"), LoopConfig())


def test_begin_starts_at_full_wave():
    curves = synthetic_curve_set(4)
    run = CompensationRun.begin(curves, cardinal_target("H"), LoopConfig())
    assert len(run.state.voltages) == 4
    for curve, v in zip(curves, run.state.voltages):
        assert retardance_for_voltage(curve, v) == pytest.approx(2 * math.pi, abs=1e-6)


# --- coarse phase ---------------------------------------------------------------------

def _noiseless_apparatus(seed_dist, seed_app=1):
    curves = synthetic_curve_set(4)
    app = VirtualApparatus(
        disturbance=random_disturbance(seed_dist),
        curves=curves,
        noise=NoiseModel.none(),
        seed=seed_app,
    )
    return app, curves


def test_one_coarse_step_corrects_noiseless_disturbance():
    target = cardinal_target("H")
    config = LoopConfig()
    for seed in range(20):
        app, curves = _noiseless_apparatus(seed)
        run = CompensationRun.begin(curves, target, config, seed=seed)
        coarse_step(run, app, curves, target, config)
        after = app(run.state.voltages)
        assert fidelity(after, target) >= 0.9999


def test_coarse_step_is_idempotent_at_target():
    # Already-compensated link: another cycle must not degrade fidelity.
    target = cardinal_target("H")
    config = LoopConfig()
    curves = synthetic_curve_set(4)
    app = VirtualApparatus(
        disturbance=FiberDisturbance(mueller=np.eye(4), seed=0),
        curves=curves, noise=NoiseModel.none(), seed=2,
    )
    run = CompensationRun.begin(curves, target, config)
    coarse_step(run, app, curves, target, config)
    first = run.steps[0].fidelity
    coarse_step(run, app, curves, target, config)
    assert run.steps[1].fidelity >= first - 1e-6


# One correction rule for every reading, in either phase.  The first
# reading and a later fall below the coarse threshold are solved from; any
# other reading below the fine threshold takes the local step; a reading at
# or above it keeps the voltages.  The run stays coarse only while each
# reading is solved from and below the coarse threshold.
_READINGS = {"below_coarse": 0.5, "between": 0.99, "above_fine": 0.996}
_VS_PREVIOUS = {"fell": 0.002, "tie": 0.0, "rose": -0.002}  # previous - reading
_RULE_TABLE = [
    # phase, reading, against the previous reading, correction, phase after
    ("coarse", "below_coarse", "first", "solve", "coarse"),
    ("coarse", "between", "first", "solve", "fine"),
    ("coarse", "above_fine", "first", "solve", "fine"),
    ("coarse", "below_coarse", "fell", "solve", "coarse"),
    ("coarse", "below_coarse", "tie", "step", "fine"),
    ("coarse", "below_coarse", "rose", "step", "fine"),
    ("coarse", "between", "fell", "step", "fine"),
    ("coarse", "between", "tie", "step", "fine"),
    ("coarse", "between", "rose", "step", "fine"),
    ("coarse", "above_fine", "fell", "keep", "fine"),
    ("coarse", "above_fine", "tie", "keep", "fine"),
    ("coarse", "above_fine", "rose", "keep", "fine"),
    ("fine", "below_coarse", "fell", "solve", "fine"),
    ("fine", "below_coarse", "tie", "step", "fine"),
    ("fine", "below_coarse", "rose", "step", "fine"),
    ("fine", "between", "fell", "step", "fine"),
    ("fine", "between", "tie", "step", "fine"),
    ("fine", "between", "rose", "step", "fine"),
    # A fine reading after one at or above the fine threshold is never
    # taken: the run is met (test_fine_tune_noop_when_already_met).
    ("fine", "above_fine", "rose", "keep", "fine"),
]


@pytest.mark.parametrize("phase, reading, vs_previous, correction, phase_after", _RULE_TABLE)
def test_one_correction_rule_for_every_reading(phase, reading, vs_previous, correction,
                                               phase_after):
    target = cardinal_target("H")
    config = LoopConfig()
    curves = synthetic_curve_set(4)
    run = CompensationRun.begin(curves, target, config)
    u1 = 2.0 * _READINGS[reading] - 1.0
    seen = NormalizedStokes(u1, math.sqrt(1.0 - u1 * u1), 0.0)
    fid = fidelity(seen, target)
    if vs_previous != "first":
        prev = run.record(phase, cardinal_target("D"), fid + _VS_PREVIOUS[vs_previous])
        run.state = replace(run.state, voltages=_solve_from(prev, target, curves))
    run.phase = phase
    applied = run.state.voltages
    if phase == "coarse":
        coarse_step(run, lambda _v: seen, curves, target, config)
    else:
        fine_tune_step(run, lambda _v: seen, config)
    rec = run.steps[-1]
    assert rec.phase == phase and rec.voltages == applied and rec.fidelity == fid
    assert rec.retardances == tuple(
        retardance_for_voltage(c, v) for c, v in zip(curves, applied)
    )
    candidates = {
        "solve": _solve_from(rec, target, curves),
        "step": _fine_correction(rec, target, curves),
        "keep": applied,
    }
    assert len(set(candidates.values())) == 3
    assert run.state.voltages == candidates[correction]
    if correction == "step" and reading == "between":
        # A 0.2 rad error takes a small move, not a jump to another solution.
        moves = [abs(a - b) for a, b in zip(run.state.voltages, applied)]
        assert 0.0 < max(moves) < 0.1
    assert run.phase == phase_after and run.reason is None


def test_first_coarse_step_actuates_even_above_threshold():
    # The probe only seeds the solver; a correction is always commanded,
    # however good the raw link happens to measure.
    target = cardinal_target("H")
    config = LoopConfig()
    curves = synthetic_curve_set(4)
    run = CompensationRun.begin(curves, target, config)
    before = run.state.voltages
    good = NormalizedStokes(0.98, math.sqrt(1.0 - 0.98**2), 0.0)
    coarse_step(run, lambda _v: good, curves, target, config)
    assert run.phase == "fine"
    assert run.state.voltages != before


def test_budget_exhaustion_reason_and_unreached_fields():
    # A link whose every reading falls is solved from each time and stays in
    # the coarse phase until its budget runs out.
    target = cardinal_target("H")
    config = LoopConfig(max_coarse_steps=4, max_fine_steps=5)
    curves = synthetic_curve_set(4)
    falling = iter(NormalizedStokes(u1, math.sqrt(1.0 - u1 * u1), 0.0)
                   for u1 in (0.0, -0.2, -0.4, -0.6, -0.8))
    run = run_compensation(lambda _v: next(falling), curves, target, config)
    assert run.reason == "budget_exhausted"
    assert run.total_steps() == run.coarse_used == 4
    assert run.steps_to(0.97) is None and run.steps_to_995 is None
    # A link that always reads the target's antipode ties with its first
    # reading: the local step (which keeps the voltages there) spends the
    # fine budget.
    antipode = NormalizedStokes(-target.u1, -target.u2, -target.u3)
    run = run_compensation(lambda _v: antipode, curves, target, config)
    assert run.reason == "budget_exhausted"
    assert (run.coarse_used, run.fine_used) == (2, 5)
    assert run.steps_to(0.97) is None and run.steps_to_995 is None
    assert all(rec.fidelity == 0.0 for rec in run.steps)


# --- fine phase ------------------------------------------------------------------------

def test_fine_tune_monotone_on_ramp_landscape():
    # A noise-free bench whose true curves sit 0.2 rad off the calibration:
    # the coarse solve lands short of the target, and every fine correction
    # after it must raise the reading strictly until the threshold is met.
    target = cardinal_target("H")
    config = LoopConfig()
    curves = synthetic_curve_set(4)
    noise = replace(NoiseModel.none(), retardance_curve_error=0.2)
    corrected = 0
    for seed in range(40):
        app = VirtualApparatus(disturbance=random_disturbance(seed), curves=curves,
                               noise=noise, seed=seed)
        run = CompensationRun.begin(curves, target, config)
        coarse_step(run, app, curves, target, config)
        run.phase = "fine"
        while not run.complete and run.fine_used < config.max_fine_steps:
            fine_tune_step(run, app, config)
        fids = [rec.fidelity for rec in run.steps if rec.phase == "fine"]
        assert run.reason == "fine_threshold_met"
        assert all(b > a for a, b in zip(fids, fids[1:]))
        corrected += len(fids) >= 2
    assert corrected >= 20


def test_fine_tune_noop_when_already_met():
    curves = synthetic_curve_set(4)
    config = LoopConfig()
    target = cardinal_target("H")
    run = CompensationRun.begin(curves, target, config)
    run.phase = "fine"
    run.record("fine", target, 0.9995)
    assert run.current_fidelity == 0.9995

    def must_not_measure(_):
        raise AssertionError("no measurement expected")

    fine_tune_step(run, must_not_measure, config)
    assert run.complete and run.reason == "fine_threshold_met"
    assert run.total_steps() == 1


def test_a_run_met_by_the_step_api_stays_at_the_measured_setting():
    # A probe above the fine threshold is still solved from, which moves the
    # stack; the fine step that then ends the run met must put the stack
    # back at the setting it measured, as run_compensation does.
    target = cardinal_target("H")
    config = LoopConfig()
    curves = synthetic_curve_set(4)
    u1 = 2.0 * 0.9995 - 1.0
    good = NormalizedStokes(u1, math.sqrt(1.0 - u1 * u1), 0.0)
    run = CompensationRun.begin(curves, target, config)
    coarse_step(run, lambda _v: good, curves, target, config)
    assert run.state.voltages != run.steps[-1].voltages

    def must_not_measure(_):
        raise AssertionError("no measurement expected")

    fine_tune_step(run, must_not_measure, config)
    assert run.reason == "fine_threshold_met"
    assert run.state.voltages == run.steps[-1].voltages
    full = run_compensation(lambda _v: good, curves, target, config)
    assert (full.steps, full.state, full.reason) == (run.steps, run.state, run.reason)


def test_current_fidelity_is_the_latest_reading():
    curves = synthetic_curve_set(4)
    run = CompensationRun.begin(curves, cardinal_target("H"), LoopConfig())
    assert run.current_fidelity == -math.inf
    run.record("coarse", cardinal_target("D"), 0.5)
    run.record("fine", cardinal_target("V"), 0.0)
    assert run.current_fidelity == 0.0
    with pytest.raises(AttributeError):
        run.current_fidelity = 1.0


@pytest.mark.parametrize("name", ["H", "V"])
def test_fine_correction_holds_on_the_target_and_its_antipode(name):
    # No direction is defined toward the target from either point.
    curves = synthetic_curve_set(4)
    run = CompensationRun.begin(curves, cardinal_target("H"), LoopConfig())
    rec = run.record("fine", cardinal_target(name), 1.0 if name == "H" else 0.0)
    assert _fine_correction(rec, run.target, curves) == rec.voltages


def test_fine_correction_holds_where_no_cell_turns_the_reading(monkeypatch):
    # With slope 0 at every voltage, no move turns the reading.  Every
    # curve falls strictly, so the slope is patched to 0 instead.
    curves = synthetic_curve_set(4)
    run = CompensationRun.begin(curves, cardinal_target("H"), LoopConfig())
    rec = run.record("fine", cardinal_target("D"), 0.5)
    assert _fine_correction(rec, run.target, curves) != rec.voltages
    monkeypatch.setattr(compensation, "curve_slope_at", lambda curve, voltage: 0.0)
    assert _fine_correction(rec, run.target, curves) == rec.voltages


# --- whole runs -----------------------------------------------------------------------

def test_full_noiseless_run_transcript():
    target = cardinal_target("H")
    app, curves = _noiseless_apparatus(14)
    run = run_compensation(app, curves, target, seed=7)
    assert run.reason == "fine_threshold_met"
    assert [rec.step for rec in run.steps] == list(range(1, run.total_steps() + 1))
    assert all(0.0 <= rec.fidelity <= 1.0 for rec in run.steps)
    assert run.steps_to_995 is not None and run.steps_to_995 <= 2


def test_identity_disturbance_completes_on_probe():
    target = cardinal_target("H")
    curves = synthetic_curve_set(4)
    app = VirtualApparatus(
        disturbance=FiberDisturbance(mueller=np.eye(4), seed=0),
        curves=curves, noise=NoiseModel.none(), seed=3,
    )
    run = run_compensation(app, curves, target, seed=4)
    assert run.total_steps() == 1
    assert run.reason == "fine_threshold_met"
    assert run.steps_to(0.97) == run.steps_to_995 == 1
    # The stack stays where it met the threshold: the probe's setting.
    assert run.state.voltages == run.steps[-1].voltages


def test_narrow_curves_still_converge():
    # Curves spanning only 0.5*pi..1.9*pi: the solve must pick rows the
    # cells can reach instead of clamping its actuation out of sight.
    curves = rescaled_curve_set(4, 0.5 * math.pi, 1.9 * math.pi)
    stats = run_trials(200, noise=NoiseModel.none(), base_seed=9, curves=curves,
                       keep_runs=True)
    exhausted = sum(run.reason == "budget_exhausted" for run in stats.runs)
    assert exhausted <= 10


@pytest.mark.parametrize("cells", [3, 4])
@pytest.mark.parametrize("curve_error", [0.1, 0.2])
def test_stale_calibration_never_exhausts_the_budget(curve_error, cells):
    # Each cell's true curve sits curve_error rad off its calibration: every
    # run still reaches the fine threshold.  With three cells, a local step
    # through a nearly flat cell can drop a run to 0.24; unless such a
    # reading is solved from, the run spends its whole fine budget.
    noise = replace(NoiseModel.lab(), retardance_curve_error=curve_error)
    stats = run_trials(600, noise=noise, base_seed=11, keep_runs=True,
                       curves=synthetic_curve_set(cells))
    assert [run.reason for run in stats.runs].count("budget_exhausted") == 0


@pytest.mark.parametrize("first_seed", [100, 104, 108])
def test_loop_on_self_calibrated_curves(first_seed):
    # The lab's own flow: each cell characterized from one lab-noise sweep
    # (seeds first_seed..first_seed + 3), the loop actuating through the
    # built curves while the bench reads the true ones.  Over ten sweep-seed
    # sets (first seeds 100, 104, ..., 136; 200 trials each) the mean steps
    # to 0.995 ran 2.50-3.35 and no run exhausted its budget.
    true, noise = synthetic_curve_set(4), NoiseModel.lab()
    built = [
        build_curve(simulate_characterization_sweep(
            c.drive_voltages, lambda v, c=c: np.interp(v, c.drive_voltages, c.retardances),
            pd_sigma=noise.pd_sigma, seed=first_seed + k))
        for k, c in enumerate(true)
    ]
    assert all(np.all(np.diff(c.retardances) < 0.0) for c in built)
    runs = []
    for i in range(200):
        state = np.random.SeedSequence([11, i]).generate_state(2)
        app = VirtualApparatus(disturbance=random_disturbance(int(state[0])), curves=true,
                               noise=noise, seed=int(state[1]))
        runs.append(run_compensation(app, built, cardinal_target("HVDARL"[i % 6])))
    assert [run.reason for run in runs].count("budget_exhausted") == 0
    assert np.mean([run.steps_to_995 for run in runs]) <= 3.5


def _rule_voltages(run, k):
    """The voltages the correction rule actuates after the run's k-th reading."""
    rec, config = run.steps[k], run.config
    if k == 0 or rec.fidelity < min(config.coarse_threshold, run.steps[k - 1].fidelity):
        return _solve_from(rec, run.target, run.curves)
    if rec.fidelity < config.fine_threshold:
        return _fine_correction(rec, run.target, run.curves)
    return rec.voltages


@pytest.mark.parametrize("cells", [3, 4])
@pytest.mark.parametrize("curve_error", [0.01, 0.1])
def test_every_step_actuates_what_the_rule_computed(curve_error, cells):
    # Whole transcripts: each reading was taken at exactly the voltages the
    # rule computed from the reading before it, the run was coarse only
    # while each reading was solved from below the coarse threshold, and
    # the stack is left where the run ended.
    noise = replace(NoiseModel.lab(), retardance_curve_error=curve_error)
    stats = run_trials(300, noise=noise, base_seed=17, keep_runs=True,
                       curves=synthetic_curve_set(cells))
    for run in stats.runs:
        assert run.steps[0].phase == "coarse"
        coarse = True
        for k, (rec, after) in enumerate(zip(run.steps, run.steps[1:])):
            assert after.voltages == _rule_voltages(run, k)
            fell = k == 0 or rec.fidelity < run.steps[k - 1].fidelity
            coarse = coarse and fell and rec.fidelity < run.config.coarse_threshold
            assert after.phase == ("coarse" if coarse else "fine")
        if run.reason == "fine_threshold_met":
            assert run.state.voltages == run.steps[-1].voltages
        else:
            assert run.state.voltages == _rule_voltages(run, len(run.steps) - 1)


def test_runs_are_deterministic():
    target = cardinal_target("D")
    noise = NoiseModel.lab()
    curves = synthetic_curve_set(4)

    def make_run():
        app = VirtualApparatus(
            disturbance=random_disturbance(77), curves=curves, noise=noise, seed=8
        )
        return run_compensation(app, curves, target, seed=9)

    a, b = make_run(), make_run()
    assert a.steps == b.steps
    assert a.summary() == b.summary()


# --- QBER ------------------------------------------------------------------------------

def test_qber_values():
    assert qber_opt(0.99) == pytest.approx(0.005, abs=1e-15)
    assert qber_opt(1.0) == 0.0
    assert qber_total(0.005, 0.01, 0.0) == pytest.approx(0.015, abs=1e-15)


def test_qber_validation():
    with pytest.raises(ValueError):
        qber_opt(1.5)
    with pytest.raises(ValueError):
        qber_opt(-0.1)
    with pytest.raises(ValueError):
        qber_total(-0.001, 0.0, 0.0)
