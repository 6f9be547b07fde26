"""The compensation loop: inference, the solve against a residual oracle,
both loop phases, and QBER arithmetic."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import rescaled_curve_set
from polcomp.bench import (
    FiberDisturbance,
    NoiseModel,
    VirtualApparatus,
    random_disturbance,
    run_trials,
    synthetic_curve_set,
)
from polcomp.compensation import (
    CompensationRun,
    LoopConfig,
    _fine_correction,
    _solution_family,
    coarse_step,
    fine_tune_step,
    infer_disturbed,
    qber_opt,
    qber_total,
    run_compensation,
    solve_retardances,
)
from polcomp.lcvr import (
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


def test_coarse_crossing_after_first_step_keeps_settings():
    # Once a commanded correction measures above the coarse threshold the
    # run carries *those* settings into the fine phase and takes the local
    # step from them at once; re-solving from the noisy snapshot would
    # re-randomize an already-good state.
    target = cardinal_target("H")
    config = LoopConfig()
    curves = synthetic_curve_set(4)
    run = CompensationRun.begin(curves, target, config)
    good = NormalizedStokes(0.98, math.sqrt(1.0 - 0.98**2), 0.0)  # fid 0.99
    readings = iter([cardinal_target("D"), good])

    def provider(_voltages):
        return next(readings)

    coarse_step(run, provider, curves, target, config)
    assert run.phase == "coarse"
    commanded = run.state.voltages
    coarse_step(run, provider, curves, target, config)
    assert run.phase == "fine"
    assert run.steps[1].voltages == commanded
    assert run.current_fidelity == pytest.approx(0.99)
    assert run.state.voltages == _fine_correction(run.steps[1], target, curves)
    # A 0.2 rad error takes a small move, not a jump to another solution.
    moves = [abs(a - b) for a, b in zip(run.state.voltages, commanded)]
    assert 0.0 < max(moves) < 0.1


def test_coarse_regression_restores_best_setting():
    # D, A, then a reading of fidelity 0.3 against H.  The tie at 0.5
    # solves again from the newer reading; the regression hands the run to
    # the fine phase, whose step starts from the regressed reading itself:
    # no earlier setting is restored.
    target = cardinal_target("H")
    config = LoopConfig()
    curves = synthetic_curve_set(4)
    run = CompensationRun.begin(curves, target, config)
    worse = NormalizedStokes(-0.4, math.sqrt(1.0 - 0.4**2), 0.0)
    readings = iter([cardinal_target("D"), cardinal_target("A"), worse])

    def provider(_voltages):
        return next(readings)

    coarse_step(run, provider, curves, target, config)
    after_first = run.state.voltages
    coarse_step(run, provider, curves, target, config)
    assert run.steps[1].fidelity == run.steps[0].fidelity == pytest.approx(0.5)
    assert run.steps[1].voltages == after_first
    assert run.phase == "coarse" and run.state.voltages != after_first
    after_second = run.state.voltages
    coarse_step(run, provider, curves, target, config)
    assert run.steps[2].fidelity == pytest.approx(0.3)
    assert run.steps[2].voltages == after_second
    assert run.phase == "fine" and run.coarse_used == 3
    assert run.state.voltages == _fine_correction(run.steps[2], target, curves)
    for rec in run.steps:
        assert rec.retardances == tuple(
            retardance_for_voltage(c, v) for c, v in zip(curves, rec.voltages)
        )


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
    # A hostile link that always reads the target's antipode: no correction
    # ever helps, so the coarse budget runs out.
    target = cardinal_target("H")
    config = LoopConfig(max_coarse_steps=4)
    curves = synthetic_curve_set(4)
    antipode = NormalizedStokes(-target.u1, -target.u2, -target.u3)
    run = run_compensation(lambda _v: antipode, curves, target, config)
    assert run.reason == "budget_exhausted"
    assert run.total_steps() == 4
    assert run.coarse_used == 4
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
