"""The benchmark's workloads: inputs made from a seed, one operation, its checks.

Every workload makes a fixed pool of inputs from ``--seed`` before timing
starts.  ``run`` is the timed operation and calls only program code;
``check`` runs after the timer stops and turns the operation's outputs
into an :class:`OpRecord`.

An op *fails* when it misses what it is for (a trial that raises or ends
``budget_exhausted``; a calibration cycle with a bad curve or scan).
Failures are counted, never hidden.  An op is *wrong* when its outputs
contradict each other (a recorded fidelity that does not match its own
Stokes reading, a step count that does not match the measurements made);
the benchmark then reports ``correct: false``.

Program functions are reached through their modules at call time
(``compensation.run_compensation``), so the traced run sees the names it
swaps in.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io as _stdio
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import polcomp.bench as bench
import polcomp.cli as cli
import polcomp.compensation as compensation
import polcomp.io as pio
import polcomp.polarimetry as polarimetry
import polcomp.stokes as stokes

TARGETS = ("H", "V", "D", "A", "R", "L")
#: The paper's headline fidelity level.
LEVEL = 0.995
#: Agreement required between a recorded fidelity and the one recomputed
#: from the recorded Stokes reading.
FIDELITY_TOL = 1e-12


@dataclass(frozen=True)
class OpRecord:
    """What the checks saw for one operation.  Two runs of the same input
    must give equal records."""

    ok: bool
    why: str  # failure reasons, "" when ok
    readings: int  # polarimeter readings the op analysed
    steps_to_995: int | None  # 1-based index of the first reading above LEVEL
    fidelity: float  # loop: last reading; calibrate-files: report mean
    wrong: tuple[str, ...]  # contradictions in the program's outputs


@dataclass
class Batch:
    """One workload's set-up: calibration curves and the input pool."""

    curves: list
    inputs: list


def _overlap(u: tuple[float, float, float], t: tuple[float, float, float]) -> float:
    f = 0.5 * (1.0 + u[0] * t[0] + u[1] * t[1] + u[2] * t[2])
    return min(1.0, max(0.0, f))


def _first_above(fids: list[float]) -> int | None:
    return next((k + 1 for k, f in enumerate(fids) if f > LEVEL), None)


def _raised(exc: BaseException) -> OpRecord:
    return OpRecord(False, f"raised {type(exc).__name__}", 0, None, -1.0, ())


@dataclass(frozen=True)
class Trial:
    disturbance: Any
    apparatus_seed: int
    run_seed: int
    target: Any


class LoopTrials:
    """Closed loop: one compensation trial per op on a fresh apparatus."""

    #: Trials in the pool: about 27 s of ``loop-lab`` on a 2-core 2.1 GHz
    #: Xeon, so a 40 s run finishes the pass.  A large pool keeps one
    #: seed's simulated metrics close to another's; the budget-exhausted
    #: tail makes them vary most.
    pool = 6000

    def __init__(self, noise, pool: int | None = None) -> None:
        self.noise = noise
        self.config = compensation.LoopConfig()
        if pool is not None:
            self.pool = pool
        self.reading_spans = ("bench.virtual_measure", "polarimetry.measure_stokes")
        # An unreached trial ranks one step past the whole budget.
        self.unreached_steps = self.config.max_coarse_steps + self.config.max_fine_steps + 1

    def prepare(self, seed: int) -> Batch:
        curves = bench.synthetic_curve_set(4)
        inputs = []
        for i in range(self.pool):
            state = np.random.SeedSequence([seed, i]).generate_state(3)
            inputs.append(
                Trial(
                    disturbance=bench.random_disturbance(int(state[0])),
                    apparatus_seed=int(state[1]),
                    run_seed=int(state[2]),
                    target=stokes.cardinal_target(TARGETS[i % len(TARGETS)]),
                )
            )
        return Batch(curves, inputs)

    def run(self, batch: Batch, k: int):
        trial = batch.inputs[k]
        try:
            apparatus = bench.VirtualApparatus(
                disturbance=trial.disturbance,
                curves=list(batch.curves),
                noise=self.noise,
                seed=trial.apparatus_seed,
            )
            run = compensation.run_compensation(
                apparatus, batch.curves, trial.target, self.config, seed=trial.run_seed
            )
        except Exception as exc:  # a raising trial is a failed op, not a crash
            return exc
        return apparatus, run

    def check(self, batch: Batch, k: int, raw) -> OpRecord:
        if isinstance(raw, BaseException):
            return _raised(raw)
        apparatus, run = raw
        t = batch.inputs[k].target
        target = (t.u1, t.u2, t.u3)
        wrong = []
        if not run.complete or run.reason not in ("fine_threshold_met", "budget_exhausted"):
            wrong.append(f"ended {run.reason!r}, complete={run.complete}")
        n = run.total_steps()
        if n != apparatus.calls:
            wrong.append(f"{n} steps recorded for {apparatus.calls} measurements")
        if n > self.config.max_coarse_steps + self.config.max_fine_steps:
            wrong.append(f"{n} steps exceed the budget")
        fids = [rec.fidelity for rec in run.steps]
        for rec in run.steps:
            if abs(_overlap(rec.stokes, target) - rec.fidelity) > FIDELITY_TOL:
                wrong.append(f"step {rec.step}: fidelity does not match its reading")
                break
        first = _first_above(fids)
        if first != run.steps_to_995:
            wrong.append(f"steps_to_995 {run.steps_to_995} but first reading above is {first}")
        ok = run.reason == "fine_threshold_met"
        if ok and fids and fids[-1] < self.config.fine_threshold:
            wrong.append("met the threshold on a reading below it")
        return OpRecord(
            ok=ok,
            why="" if ok else str(run.reason),
            readings=n,
            steps_to_995=first,
            fidelity=fids[-1] if fids else -1.0,
            wrong=tuple(wrong),
        )


@dataclass(frozen=True)
class Cycle:
    cell: int
    sweep: Any
    scans: tuple  # (cardinal name, PolarimeterScan), one per cardinal state


class CalibrateFiles:
    """Closed loop of calibration-and-tomography cycles through files and
    the CLI; runs no loop code."""

    #: Cycles in the pool: about 8 s on a 2-core 2.1 GHz Xeon, so a 40 s
    #: run times each cycle about five times.
    pool = 100
    #: Largest |built - true| retardance accepted outside the fold regions,
    #: radians.  Noise alone stays below about 0.15 rad.
    curve_tol = 0.3
    #: Fold region: principal retardance within this of 0 or pi, as in
    #: acceptance criterion 3.
    fold_margin = 0.25
    #: Lowest fidelity accepted for any single tomography scan.
    scan_fidelity_min = 0.99

    def __init__(self, workdir: Path) -> None:
        self.noise = bench.NoiseModel.lab()
        self.sweep_path = workdir / "sweep.csv"
        self.curve_path = workdir / "curve.csv"
        self.scan_dir = workdir / "scans"
        self.report_path = workdir / "report.json"
        self.reading_spans = ("polarimetry.measure_stokes",)
        # An op with no scan above LEVEL ranks one past its scans.
        self.unreached_steps = len(TARGETS) + 1

    def prepare(self, seed: int) -> Batch:
        curves = bench.synthetic_curve_set(4)
        inputs = []
        for i in range(self.pool):
            state = np.random.SeedSequence([seed, i]).generate_state(1 + len(TARGETS))
            cell = i % len(curves)
            curve = curves[cell]
            sweep = bench.simulate_characterization_sweep(
                curve.drive_voltages,
                lambda v, c=curve: np.interp(v, c.drive_voltages, c.retardances),
                pd_sigma=self.noise.pd_sigma,
                seed=int(state[0]),
            )
            scans = tuple(
                (
                    name,
                    polarimetry.simulate_scan(
                        stokes.CARDINAL_STOKES[name],
                        bench.DEFAULT_SCAN_SAMPLES,
                        bench.DEFAULT_SCAN_STEP,
                        noise=self.noise,
                        seed=int(state[1 + j]),
                    ),
                )
                for j, name in enumerate(TARGETS)
            )
            inputs.append(Cycle(cell, sweep, scans))
        return Batch(curves, inputs)

    def run(self, batch: Batch, k: int):
        cycle = batch.inputs[k]
        sink = _stdio.StringIO()
        try:
            pio.write_sweep(self.sweep_path, cycle.sweep)
            with contextlib.redirect_stdout(sink):
                rc_char = cli.main(
                    ["characterize", str(self.sweep_path), "-o", str(self.curve_path)]
                )
            curve = pio.read_curve(self.curve_path) if rc_char == 0 else None
            for name, scan in cycle.scans:
                u = stokes.cardinal_target(name)
                pio.write_scan(self.scan_dir / f"{name}.csv", scan, true_state=(u.u1, u.u2, u.u3))
            with contextlib.redirect_stdout(sink):
                rc_tomo = cli.main(
                    ["tomography", str(self.scan_dir), "-o", str(self.report_path)]
                )
        except Exception as exc:  # a raising cycle is a failed op, not a crash
            return exc
        return rc_char, curve, rc_tomo

    def curve_error(self, built, true) -> float:
        """Largest retardance error outside the fold regions, radians."""
        raw = np.arccos(np.clip(np.cos(true.retardances), -1.0, 1.0))
        outside = (raw > self.fold_margin) & (raw < math.pi - self.fold_margin)
        return float(np.max(np.abs(built.retardances - true.retardances)[outside]))

    def check(self, batch: Batch, k: int, raw) -> OpRecord:
        if isinstance(raw, BaseException):
            return _raised(raw)
        rc_char, curve, rc_tomo = raw
        cycle = batch.inputs[k]
        why, wrong = [], []
        if rc_char != 0:
            why.append(f"characterize exit {rc_char}")
        else:
            if curve.fold_count != 2:
                why.append(f"fold_count {curve.fold_count}")
            if len(curve) != len(cycle.sweep):
                wrong.append(f"curve has {len(curve)} points for {len(cycle.sweep)} sweep points")
            elif not self.curve_error(curve, batch.curves[cycle.cell]) <= self.curve_tol:
                why.append(f"curve error above {self.curve_tol} rad")
        fids: list[float] = []
        mean_fid = -1.0
        if rc_tomo != 0:
            why.append(f"tomography exit {rc_tomo}")
        else:
            report = json.loads(self.report_path.read_text(encoding="utf-8"))
            by_file = {e["file"]: e for e in report["scans"]}
            if sorted(by_file) != sorted(f"{name}.csv" for name in TARGETS):
                wrong.append(f"report covers {sorted(by_file)}")
            for name in TARGETS:
                entry = by_file.get(f"{name}.csv")
                if entry is None:
                    continue
                u = stokes.cardinal_target(name)
                fid = entry["fidelity"]
                if abs(_overlap(tuple(entry["stokes"]), (u.u1, u.u2, u.u3)) - fid) > FIDELITY_TOL:
                    wrong.append(f"{name}: fidelity does not match its reading")
                fids.append(fid)
            if fids and min(fids) < self.scan_fidelity_min:
                why.append(f"scan fidelity below {self.scan_fidelity_min}")
            mean_fid = float(report.get("mean_fidelity", -1.0))
        return OpRecord(
            ok=not why,
            why="; ".join(why),
            readings=len(fids),
            steps_to_995=_first_above(fids),
            fidelity=mean_fid,
            wrong=tuple(wrong),
        )


def make(name: str, workdir: Path):
    """The workload called ``name``."""
    if name == "loop-lab":
        return LoopTrials(bench.NoiseModel.lab())
    if name == "fine-climb":
        stale = dataclasses.replace(bench.NoiseModel.lab(), retardance_curve_error=0.1)
        return LoopTrials(stale, pool=3000)
    if name == "calibrate-files":
        return CalibrateFiles(workdir)
    raise ValueError(f"unknown workload {name!r}")
