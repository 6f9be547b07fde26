"""Virtual bench: disturbance statistics, the measurement chain against
a hand-composed oracle, noise plumbing and trial aggregation."""

import dataclasses
import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from polcomp import bench, polarimetry
from polcomp.bench import (
    DEFAULT_SCAN_SAMPLES,
    DEFAULT_SCAN_STEP,
    FiberDisturbance,
    NoiseModel,
    VirtualApparatus,
    random_disturbance,
    run_trials,
    simulate_characterization_sweep,
    synthetic_curve_set,
    synthetic_retardance_curve,
    virtual_measure,
)
from polcomp.lcvr import retardance_for_voltage
from polcomp.stokes import (
    CARDINAL_STOKES,
    NonRetarderError,
    apply,
    cardinal_target,
    fidelity,
    mueller_lcvr,
    mueller_pbs,
    normalize,
)

from conftest import profile, sweep_from_profile


# --- noise model -------------------------------------------------------------

def test_noise_model_presets():
    quiet = NoiseModel.none()
    assert (quiet.pd_sigma, quiet.background_v, quiet.angle_jitter_sigma,
            quiet.voltage_quantum_v, quiet.retardance_curve_error) == (0, 0, 0, 0, 0)
    lab = NoiseModel.lab()
    assert lab.pd_sigma == 0.005
    assert lab.background_v == 0.05
    assert lab.voltage_quantum_v == 0.01


def test_noise_model_rejects_negative():
    with pytest.raises(ValueError):
        NoiseModel(pd_sigma=-0.001)


# --- disturbances ---------------------------------------------------------------

def test_disturbance_is_a_sphere_rotation():
    for seed in range(30):
        m = random_disturbance(seed).mueller
        np.testing.assert_allclose(m[0], [1, 0, 0, 0], atol=0)
        np.testing.assert_allclose(m[:, 0], [1, 0, 0, 0], atol=0)
        block = m[1:, 1:]
        np.testing.assert_allclose(block @ block.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(block) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mueller", [mueller_pbs(), np.diag([1.0, 0.5, 0.5, 0.5])],
                         ids=["pbs", "depolarizer"])
def test_disturbance_must_be_a_pure_retarder(mueller):
    # The bench turns only (S1, S2, S3) through the link, so a polarizer or
    # depolarizer would be silently dropped rather than simulated.
    with pytest.raises(NonRetarderError):
        FiberDisturbance(mueller=mueller, seed=0)


def test_identity_and_random_disturbances_are_accepted():
    FiberDisturbance(mueller=np.eye(4), seed=0)
    for seed in range(100):
        FiberDisturbance(mueller=random_disturbance(seed).mueller, seed=seed)


def test_disturbance_cannot_be_edited_past_its_check():
    given = np.eye(4)
    dist = FiberDisturbance(mueller=given, seed=0)
    with pytest.raises(ValueError):
        dist.mueller[0, 1] = 0.5
    given[0, 1] = 0.5  # the caller's array stays theirs
    assert dist.mueller[0, 1] == 0.0


def test_disturbance_covers_the_sphere_uniformly():
    # Image of H under 100k random rotations: each octant holds 12.5 +- 0.5 %.
    n = 100_000
    h = CARDINAL_STOKES["H"].as_array()
    counts = np.zeros(8, dtype=int)
    for seed in range(n):
        out = random_disturbance(seed).mueller @ h
        idx = (out[1] > 0) * 4 + (out[2] > 0) * 2 + (out[3] > 0) * 1
        counts[idx] += 1
    fractions = counts / n
    assert np.all(np.abs(fractions - 0.125) <= 0.005)


def test_disturbance_is_seed_stable():
    a = random_disturbance(123).mueller
    b = random_disturbance(123).mueller
    np.testing.assert_array_equal(a, b)
    assert np.any(random_disturbance(124).mueller != a)


# --- synthetic curves --------------------------------------------------------------

def test_synthetic_curves_cover_the_actuation_window():
    lo, hi = 0.2 * math.pi, 2.2 * math.pi
    for i in range(4):
        c = synthetic_retardance_curve(i)
        assert c.retardances.max() > hi
        assert c.retardances.min() < lo
        assert np.all(np.diff(c.retardances) < 0.0)  # strictly decreasing


def test_synthetic_curves_are_detuned_per_cell():
    a, b = synthetic_retardance_curve(0), synthetic_retardance_curve(1)
    assert np.max(np.abs(a.retardances - b.retardances)) > 0.05


def test_sweep_simulator_matches_direct_formula(drive_grid):
    ours = simulate_characterization_sweep(drive_grid, profile)
    reference = sweep_from_profile(drive_grid)
    np.testing.assert_allclose(
        ours.mean_pd_voltages, reference.mean_pd_voltages, atol=1e-15
    )
    assert ours.background_voltage == 0.0
    noisy = simulate_characterization_sweep(
        drive_grid, profile, pd_sigma=0.005, n_repeats=10, seed=3
    )
    np.testing.assert_allclose(
        noisy.pd_voltage_sems, 0.005 / math.sqrt(10), atol=1e-15
    )


# --- the measurement chain ------------------------------------------------------------

def _expected_state(disturbance, voltages, curves, source):
    """Compose the chain by hand: disturbance, then cells at 0/45/0/45."""
    angles = (0.0, math.pi / 4, 0.0, math.pi / 4)
    s = apply(disturbance.mueller, source)
    for angle, v, curve in zip(angles, voltages, curves):
        s = apply(mueller_lcvr(angle, retardance_for_voltage(curve, v)), s)
    return normalize(s)


def test_virtual_measure_matches_hand_composed_chain():
    curves = synthetic_curve_set(4)
    rng = np.random.default_rng(51)
    quiet = NoiseModel.none()
    for seed in range(10):
        dist = random_disturbance(seed)
        voltages = [float(rng.uniform(c.drive_voltages[0], c.drive_voltages[-1]))
                    for c in curves]
        got = virtual_measure(
            dist, voltages, curves, CARDINAL_STOKES["H"], quiet, np.random.default_rng(seed)
        )
        want = _expected_state(dist, voltages, curves, CARDINAL_STOKES["H"])
        np.testing.assert_allclose(
            [got.u1, got.u2, got.u3], [want.u1, want.u2, want.u3], atol=1e-9
        )


def test_virtual_measure_quantizes_voltages():
    curves = synthetic_curve_set(4)
    dist = random_disturbance(2)
    coarse = NoiseModel(pd_sigma=0.0, background_v=0.0, angle_jitter_sigma=0.0,
                        voltage_quantum_v=0.5, retardance_curve_error=0.0)
    quiet = NoiseModel.none()
    requested = [1.26, 2.49, 3.74, 5.01]
    rounded = [1.5, 2.5, 3.5, 5.0]
    a = virtual_measure(dist, requested, curves, CARDINAL_STOKES["H"], coarse,
                        np.random.default_rng(1))
    b = virtual_measure(dist, rounded, curves, CARDINAL_STOKES["H"], quiet,
                        np.random.default_rng(1))
    np.testing.assert_allclose([a.u1, a.u2, a.u3], [b.u1, b.u2, b.u3], atol=1e-12)


def test_curve_bias_is_frozen_per_disturbance():
    curves = synthetic_curve_set(4)
    noise = NoiseModel(pd_sigma=0.0, background_v=0.0, angle_jitter_sigma=0.0,
                       voltage_quantum_v=0.0, retardance_curve_error=0.02)
    dist = random_disturbance(5)
    v = [2.0, 2.0, 2.0, 2.0]
    a = virtual_measure(dist, v, curves, CARDINAL_STOKES["H"], noise, np.random.default_rng(1))
    b = virtual_measure(dist, v, curves, CARDINAL_STOKES["H"], noise, np.random.default_rng(1))
    assert (a.u1, a.u2, a.u3) == (b.u1, b.u2, b.u3)
    # A different disturbance draws a different bias set.
    c = virtual_measure(random_disturbance(6), v, curves,
                        CARDINAL_STOKES["H"], noise, np.random.default_rng(1))
    assert (a.u1, a.u2, a.u3) != (c.u1, c.u2, c.u3)


def test_curve_bias_cache_cannot_go_stale():
    curves = synthetic_curve_set(4)
    noise = replace(NoiseModel.lab(), retardance_curve_error=0.05)
    wide = replace(noise, retardance_curve_error=0.1)
    volts = [(2.0, 3.0, 4.0, 5.0), (6.0, 1.5, 2.5, 3.5), (1.0, 8.0, 2.0, 4.0)]

    def apparatus(seed, model):
        return VirtualApparatus(disturbance=random_disturbance(seed), curves=curves,
                                noise=model, seed=seed)

    def alone(seed, model):
        bench._curve_biases.cache_clear()
        app = apparatus(seed, model)
        return [app(v) for v in volts]

    want = {(3, noise): alone(3, noise), (4, noise): alone(4, noise), (3, wide): alone(3, wide)}
    # The same link under another sigma draws other biases.
    assert want[3, wide] != want[3, noise]
    for pair in (((3, noise), (4, noise)), ((3, noise), (3, wide))):
        apps = [apparatus(*key) for key in pair]
        for k, v in enumerate(volts):
            for key, app in zip(pair, apps):
                assert app(v) == want[key][k]


def test_virtual_measure_validates_cell_count():
    curves = synthetic_curve_set(4)
    with pytest.raises(ValueError):
        virtual_measure(random_disturbance(1), [1.0, 2.0], curves,
                        CARDINAL_STOKES["H"], NoiseModel.none(), np.random.default_rng(0))
    with pytest.raises(ValueError):
        virtual_measure(random_disturbance(1), [1.0] * 5, curves[:1] * 5,
                        CARDINAL_STOKES["H"], NoiseModel.none(), np.random.default_rng(0))


def test_apparatus_calls_are_independent_but_replayable():
    curves = synthetic_curve_set(4)
    lab = NoiseModel.lab()

    def fresh():
        return VirtualApparatus(disturbance=random_disturbance(8), curves=curves,
                                noise=lab, seed=17)

    a, b = fresh(), fresh()
    v = (2.0, 2.0, 2.0, 2.0)
    first_a, second_a = a(v), a(v)
    first_b = b(v)
    assert (first_a.u1, first_a.u2, first_a.u3) == (first_b.u1, first_b.u2, first_b.u3)
    # consecutive calls see fresh measurement noise
    assert (first_a.u1, first_a.u2, first_a.u3) != (second_a.u1, second_a.u2, second_a.u3)
    assert a.calls == 2


def _seed_states(monkeypatch, make):
    """The first words of every ``SeedSequence`` that ``make()`` builds.

    Compared by state, not by key: ``SeedSequence`` drops trailing zero
    words, so a key padded with a 0 is the same stream."""
    states = set()

    class Recording(np.random.SeedSequence):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.add(tuple(self.generate_state(4).tolist()))

    with monkeypatch.context() as m:
        m.setattr(np.random, "SeedSequence", Recording)
        make()
    return states


@pytest.mark.parametrize("seed", [0, 1, 7, 0x5CA9, 2**32 - 1])
def test_bench_streams_of_one_seed_never_share_a_state(monkeypatch, seed):
    # A key padded with a trailing 0 is no new namespace, which is why
    # streams are compared by state.
    padded = np.random.SeedSequence([5, 0x5CA9, 0]).generate_state(2).tolist()
    assert padded == np.random.SeedSequence([5, 0x5CA9]).generate_state(2).tolist()
    curves = synthetic_curve_set(4)
    lab = NoiseModel.lab()
    link = random_disturbance(1)

    def biases():
        bench._curve_biases.cache_clear()
        bench._curve_biases(seed, 0.01, 4)

    def readings():
        # No curve bias, so the link's bias stream is not counted as the readings'.
        app = VirtualApparatus(disturbance=link, curves=curves,
                               noise=replace(lab, retardance_curve_error=0.0), seed=seed)
        for _ in range(12):
            app((2.0, 3.0, 4.0, 5.0))

    streams = {
        "disturbance": lambda: random_disturbance(seed),
        "curve bias": biases,
        "apparatus scans": readings,
        "scan": lambda: polarimetry.simulate_scan(CARDINAL_STOKES["H"], DEFAULT_SCAN_SAMPLES,
                                                  DEFAULT_SCAN_STEP, noise=lab, seed=seed),
        "sweep": lambda: simulate_characterization_sweep(
            np.linspace(0.1, 16.0, 50), np.sqrt, pd_sigma=0.01, seed=seed),
    }
    states = {name: _seed_states(monkeypatch, make) for name, make in streams.items()}
    names = list(states)
    for i, a in enumerate(names):
        assert states[a]
        for b in names[i + 1:]:
            assert not states[a] & states[b], f"{a} and {b} share a stream at seed {seed}"


def test_default_scan_geometry():
    assert DEFAULT_SCAN_SAMPLES == 310
    assert DEFAULT_SCAN_SAMPLES * DEFAULT_SCAN_STEP == pytest.approx(2 * math.pi)


# --- trial batches ----------------------------------------------------------------------

def test_noiseless_trials_all_converge_fast():
    stats = run_trials(50, noise=NoiseModel.none(), base_seed=60, keep_runs=True)
    assert stats.unreached_995 == 0
    assert all(r.reason == "fine_threshold_met" for r in stats.runs)
    assert all(r.total_steps() <= 2 for r in stats.runs)
    assert stats.mean_steps_to_995 <= 2.0


def test_trial_stats_match_kept_runs():
    stats = run_trials(20, noise=NoiseModel.lab(), base_seed=61, keep_runs=True)
    vals = [r.steps_to_995 for r in stats.runs if r.steps_to_995 is not None]
    assert stats.mean_steps_to_995 == pytest.approx(float(np.mean(vals)))
    assert stats.unreached_995 == 20 - len(vals)
    assert stats.to_json()["trials"] == 20


def test_step_statistics_are_pinned():
    # Exact values: a refactor of the loop must leave every transcript, and
    # so these means, unchanged.  A deliberate behaviour change updates them.
    lab = run_trials(200, noise=NoiseModel.lab(), base_seed=301)
    assert lab.to_json() == {
        "trials": 200,
        "mean_steps_to_97": 1.99,
        "mean_steps_to_99": 2.11,
        "mean_steps_to_995": 2.4,
        "unreached_97": 0,
        "unreached_99": 0,
        "unreached_995": 0,
    }
    stale = run_trials(
        200, noise=replace(NoiseModel.lab(), retardance_curve_error=0.1), base_seed=301
    )
    assert stale.to_json() == {
        "trials": 200,
        "mean_steps_to_97": 2.07,
        "mean_steps_to_99": 2.475,
        "mean_steps_to_995": 3.01,
        "unreached_97": 0,
        "unreached_99": 0,
        "unreached_995": 0,
    }


def _transcript_digest(runs):
    h = hashlib.sha256()
    for run in runs:
        for rec in run.steps:
            h.update(repr(dataclasses.astuple(rec)).encode())
    return h.hexdigest()


def _decision_digest(runs, quantum):
    """Why each run stopped and, per step, its phase and the drive voltages
    the bench applies (in controller quanta): the loop's decisions, blind
    to the last bits of every float."""
    h = hashlib.sha256()
    for run in runs:
        h.update(repr(run.reason).encode())
        for rec in run.steps:
            applied = tuple(round(v / quantum) for v in rec.voltages)
            h.update(repr((rec.step, rec.phase, applied)).encode())
    return h.hexdigest()


_PINNED_CONFIGS = [(4, 0.01), (3, 0.01), (4, 0.1)]  # the last: a stale calibration
_PINNED_IDS = ["lab-4-cells", "lab-3-cells", "stale-4-cells"]


def _pinned_runs(cells, curve_error):
    noise = replace(NoiseModel.lab(), retardance_curve_error=curve_error)
    stats = run_trials(60, noise=noise, base_seed=301, keep_runs=True,
                       curves=synthetic_curve_set(cells))
    return stats.runs, noise


@pytest.mark.parametrize("config, digest", zip(_PINNED_CONFIGS, [
    "70ab006741a7f10fb73d70ac9c13ac8e62d7edbde29df2bf16ae00943d1eeccd",
    "b5b08d4e00285183e7f5306c078248794cd07b343b285488c4027edccf6b9f74",
    "c24db986341152032d784d729a59a21f1b7cfd494cb8fd0f41ee4e28fe1f9c18",
]), ids=_PINNED_IDS)
def test_decisions_are_pinned(config, digest):
    # Behaviour: every stop reason, phase and applied voltage.  A change
    # that moves only float rounding leaves this digest alone; a change of
    # seeds, draw order, thresholds or step rules moves it.
    runs, noise = _pinned_runs(*config)
    assert _decision_digest(runs, noise.voltage_quantum_v) == digest


@pytest.mark.parametrize("config, digest", zip(_PINNED_CONFIGS, [
    "5831f5152e502489d7856f0c0b03f3d310e59397bd66ac88eb912f120ebbff21",
    "f86b773bd2d05b958cbccb35aa7c5ea5de93564dd9bbb20d4aee7544934ec8c3",
    "0a6a8dad974eb334bbcbddd02491db8c374164dd6f422ed7b5bddfd48c67fd04",
]), ids=_PINNED_IDS)
def test_full_transcripts_are_pinned(config, digest):
    # Bits: every recorded float at full precision.  A bit-identical change
    # (a refactor, a lookup speed-up) leaves this digest alone; one that
    # reorders float operations re-pins it once and must still pass
    # test_decisions_are_pinned unedited.
    runs, _ = _pinned_runs(*config)
    assert _transcript_digest(runs) == digest


def test_noise_degrades_convergence_monotonically():
    mild = NoiseModel(pd_sigma=0.002, background_v=0.02, angle_jitter_sigma=0.01,
                      voltage_quantum_v=0.01, retardance_curve_error=0.005)
    quiet = run_trials(50, noise=NoiseModel.none(), base_seed=62)
    middle = run_trials(50, noise=mild, base_seed=62)
    lab = run_trials(50, noise=NoiseModel.lab(), base_seed=62)
    assert quiet.mean_steps_to_995 <= middle.mean_steps_to_995 <= lab.mean_steps_to_995


def test_run_trials_deterministic_and_validated():
    a = run_trials(5, noise=NoiseModel.lab(), base_seed=63)
    b = run_trials(5, noise=NoiseModel.lab(), base_seed=63)
    assert a.to_json() == b.to_json()
    with pytest.raises(ValueError):
        run_trials(0)


def test_trials_with_three_cell_stack():
    # Fine phase then only walks the three solving cells.
    curves = synthetic_curve_set(3)
    stats = run_trials(10, noise=NoiseModel.none(), base_seed=64,
                       curves=curves, keep_runs=True)
    assert stats.unreached_995 == 0
    assert all(len(r.state.voltages) == 3 for r in stats.runs)


def test_trials_toward_other_targets():
    stats = run_trials(10, noise=NoiseModel.none(), base_seed=65,
                       target=cardinal_target("L"), keep_runs=True)
    assert stats.unreached_995 == 0
