"""Automated polarization compensation loop.

The compensator is a stack of liquid-crystal retarders at 0/45/0 (and
optionally a fourth at 45) degrees.  One *step* is one polarization
measurement.  The coarse phase inverts the current compensator setting
to estimate the state entering the stack, solves directly for the drive
voltages of the three cells that map it onto the target, and actuates
them.  Once the measured fidelity clears the coarse threshold, a fine
phase hill-climbs the drive voltages one cell at a time in small steps
until the fine threshold (or the step budget) is reached.

The retardance solve is closed-form.  The 0/45/0 stack turns the
sphere about S1, then S2, then S1: an Euler-angle chart of SO(3), so the
exact solutions form a family with one free angle.  The family is
enumerated on a fixed grid of that angle, each row is shifted by whole
waves into what its cells' calibration curves reach, and every row is
looked up on the curves at once, one array lookup per cell.  The
reachable row on the steepest parts of the curves is actuated, where the
fine phase's fixed voltage nudge still moves retardance.  The loop draws
no random numbers of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .lcvr import RetardanceCurve, curve_slope_at, retardance_for_voltage, voltage_for_retardance
from .stokes import (
    NormalizedStokes,
    fidelity,
    invert_retarder,
    mueller_lcvr,
    mueller_lcvr_triple,
    transform_normalized,
)

__all__ = [
    "LoopConfig",
    "CompensatorState",
    "StepRecord",
    "CompensationRun",
    "MeasurementProvider",
    "infer_disturbed",
    "solve_retardances",
    "coarse_step",
    "fine_tune_step",
    "run_compensation",
    "qber_opt",
    "qber_total",
]

#: Fidelity levels reported in run statistics, independent of the
#: configured loop thresholds.
REPORT_LEVELS = {"97": 0.97, "99": 0.99, "995": 0.995}

#: Orientations of the retarder stack, radians from horizontal.
_STACK_ANGLES = (0.0, math.pi / 4.0, 0.0, math.pi / 4.0)

#: First-cell retardances at which the solution family is enumerated;
#: each yields two exact rows.
_FAMILY_GRID = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
_FAMILY_COS = np.cos(_FAMILY_GRID)
_FAMILY_SIN = np.sin(_FAMILY_GRID)
#: The ``d1`` column of the family: the grid once per sign of ``b3``.
_FAMILY_D1 = np.tile(_FAMILY_GRID, 2)

#: Weight pulling the fine-tune acceptance baseline toward a losing
#: reading, so a lucky high one cannot freeze the climb (0 = never
#: relax, 1 = baseline is always the latest reading).
_BASELINE_RELAXATION = 0.3

#: Drive-voltage nudge of one fine-phase probe, volts: 2x the usual
#: 0.01 V curve granularity.
_FINE_STEP_V = 0.02

MeasurementProvider = Callable[[Sequence[float]], NormalizedStokes]
"""Applies the given drive voltages and returns one measured state."""


@dataclass(frozen=True)
class LoopConfig:
    """Knobs of the compensation loop; defaults match the reference bench."""

    coarse_threshold: float = 0.97
    fine_threshold: float = 0.995
    max_coarse_steps: int = 25
    max_fine_steps: int = 150

    def __post_init__(self) -> None:
        if not (0.0 < self.coarse_threshold < self.fine_threshold < 1.0):
            raise ValueError(
                "thresholds must satisfy 0 < coarse < fine < 1, got "
                f"{self.coarse_threshold!r} and {self.fine_threshold!r}"
            )
        if self.max_coarse_steps < 1 or self.max_fine_steps < 0:
            raise ValueError("step budgets must allow at least the coarse phase")


def infer_disturbed(s_meas: NormalizedStokes, current: Sequence[float]) -> NormalizedStokes:
    """State at the compensator input, given what was measured behind the
    three solving cells at retardances ``current``."""
    m_inv = invert_retarder(mueller_lcvr_triple(*current))
    return transform_normalized(m_inv, s_meas)


def _solution_family(u: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Every exact ``(d1, d2, d3)`` on the free-angle grid, shape ``(2N, 3)``.

    Cell 1 turns ``u`` about S1 by ``d1`` into ``(u1, a2, a3)``.  Cell 2
    turns the ``(S1, S3)`` part, of length ``R = hypot(u1, a3)``, about S2
    and must bring S1 to ``t1``: that leaves two heights ``b3 = +-w``, so
    ``d2 = +-acos(t1/R) - atan2(a3, u1)``.  Cell 3 then turns ``(a2, b3)``
    about S1 onto ``(t2, t3)``: ``d3 = atan2(b3, a2) - atan2(t3, t2)``.
    ``w`` is ``sqrt(R^2 - t1^2)`` or, equally, ``sqrt(t2^2 + t3^2 - a2^2)``;
    the form used is the one whose leftover rounding of the two unit
    norms lands on the longer of ``R`` and ``|(t2, t3)|``, so it stays at
    the last ulp near the poles and the equator alike.

    Every ``d1`` admits a solution when ``|t1| <= |u1|``, equivalently
    ``|(t2, t3)| >= |(u2, u3)|``.  Otherwise (for instance targets H and V)
    the inverse problem ``t -> u`` is solved instead; its rows, reversed
    and negated, are rows of this one.  Comparing ``min(u1^2, |t_perp|^2)``
    with ``min(t1^2, |u_perp|^2)`` makes that choice agree with both tests
    wherever rounding could make them disagree.
    """
    u1, u2, u3 = u
    t1, t2, t3 = t
    perp_sq = t2 * t2 + t3 * t3
    if min(u1 * u1, perp_sq) < min(t1 * t1, u2 * u2 + u3 * u3):
        return -_solution_family(t, u)[:, ::-1]
    a2 = _FAMILY_COS * u2 + _FAMILY_SIN * u3
    a3 = -_FAMILY_SIN * u2 + _FAMILY_COS * u3
    r_sq = u1 * u1 + a3 * a3
    w_sq = np.where(r_sq > perp_sq, perp_sq - a2 * a2, r_sq - t1 * t1)
    w = np.sqrt(np.maximum(w_sq, 0.0))
    b3 = np.concatenate((w, -w))
    a2, a3 = np.tile(a2, 2), np.tile(a3, 2)
    d2 = np.arctan2(b3, t1) - np.arctan2(a3, u1)
    d3 = np.arctan2(b3, a2) - math.atan2(t3, t2)
    return np.column_stack((_FAMILY_D1, d2, d3))


def solve_retardances(
    s_dis: NormalizedStokes,
    s_target: NormalizedStokes,
    curves: Sequence[RetardanceCurve],
) -> tuple[float, float, float]:
    """Drive voltages of the three solving cells that rotate ``s_dis`` onto
    ``s_target`` through the stack.

    Every row of the closed-form family of retardances is exact.  Each
    component is shifted by whole waves into the lowest wave its own
    cell's curve reaches, and every row is looked up on the curves.
    Among the rows that all three curves reach, the one on the steepest
    summed curve slope wins.  A steep region holds a short voltage
    interval per radian, so the fine phase's fixed voltage nudge still
    moves retardance; the flat high-voltage tail would stall it.  If no
    row is reachable, the one least outside the spans is picked, and its
    lookup clamps each out-of-span component to the end voltage.
    """
    rows = _solution_family(s_dis.as_array(), s_target.as_array())
    cells = curves[:3]
    lows, highs = np.array([c.retardance_span for c in cells]).T
    two_pi = 2.0 * math.pi
    rows = lows + np.mod(rows - lows, two_pi)
    over = rows - highs
    under = lows + two_pi - rows
    # Past the top of a span: take whichever wave lies nearer to it.
    rows = np.where(over > under, rows - two_pi, rows)
    volts = np.column_stack([voltage_for_retardance(c, rows[:, i]) for i, c in enumerate(cells)])
    outside = np.maximum(np.minimum(over, under), 0.0).sum(axis=1)
    reachable = outside == 0.0
    if reachable.any():
        steepness = sum(curve_slope_at(c, volts[:, i]) for i, c in enumerate(cells))
        pick = int(np.argmax(np.where(reachable, steepness, -np.inf)))
    else:
        pick = int(np.argmin(outside))
    return tuple(volts[pick].tolist())


@dataclass
class CompensatorState:
    """Current actuation of the stack: one drive voltage per cell.

    Each cell's retardance follows from its voltage through its
    calibration curve; :meth:`CompensationRun.record` derives it.
    """

    voltages: tuple[float, ...]


@dataclass(frozen=True)
class StepRecord:
    """One measurement: what was set, what was seen, how close it is."""

    step: int
    phase: str
    retardances: tuple[float, ...]
    voltages: tuple[float, ...]
    stokes: tuple[float, float, float]
    fidelity: float


@dataclass
class CompensationRun:
    """Single-owner record of one compensation session, mutated in place.

    The drive voltages in ``state`` and the transcript ``steps`` are the
    run's record: step counts and report levels are read off ``steps``,
    and ``best`` is one of its coarse records.
    """

    config: LoopConfig
    target: NormalizedStokes
    curves: list[RetardanceCurve]
    state: CompensatorState
    steps: list[StepRecord] = field(default_factory=list)
    phase: str = "coarse"
    reason: str | None = None
    current_fidelity: float = -math.inf
    # Fine-phase coordinate-descent state.
    fine_index: int = 0
    fine_directions: list[int] = field(default_factory=list)
    # Best coarse step so far: every coarse correction starts from it.
    best: StepRecord | None = None

    @classmethod
    def begin(
        cls,
        curves: Sequence[RetardanceCurve],
        target: NormalizedStokes,
        config: LoopConfig,
        seed: int = 0,
    ) -> "CompensationRun":
        """Start a run at the identity-equivalent setting.

        ``seed`` is accepted for call compatibility and unused: the loop
        draws no random numbers of its own.
        """
        curves = list(curves)
        if len(curves) not in (3, 4):
            raise ValueError(f"need 3 or 4 calibration curves, got {len(curves)}")
        # Identity-equivalent start: a full wave per cell keeps an
        # undisturbed link untouched at the first probe.
        voltages = tuple(c.full_wave_voltage for c in curves)
        run = cls(config=config, target=target, curves=curves, state=CompensatorState(voltages))
        run.fine_directions = [1] * len(curves)
        return run

    def total_steps(self) -> int:
        return len(self.steps)

    @property
    def coarse_used(self) -> int:
        return sum(rec.phase == "coarse" for rec in self.steps)

    @property
    def fine_used(self) -> int:
        return sum(rec.phase == "fine" for rec in self.steps)

    def record(self, phase: str, stokes: NormalizedStokes, fid: float) -> StepRecord:
        voltages = self.state.voltages
        rec = StepRecord(
            step=len(self.steps) + 1,
            phase=phase,
            retardances=tuple(
                retardance_for_voltage(c, v) for c, v in zip(self.curves, voltages)
            ),
            voltages=voltages,
            stokes=(stokes.u1, stokes.u2, stokes.u3),
            fidelity=fid,
        )
        self.steps.append(rec)
        return rec

    def steps_to(self, level: float) -> int | None:
        """Number of the first step whose fidelity is above ``level``."""
        return next((rec.step for rec in self.steps if rec.fidelity > level), None)

    @property
    def steps_to_995(self) -> int | None:
        return self.steps_to(REPORT_LEVELS["995"])

    @property
    def complete(self) -> bool:
        """A run is finished once it has a reason to stop."""
        return self.reason is not None

    def finish(self, reason: str) -> None:
        self.reason = reason

    def summary(self) -> dict:
        levels = {f"steps_to_{key}": self.steps_to(lv) for key, lv in REPORT_LEVELS.items()}
        return {**levels, "reason": self.reason}


def coarse_step(
    run: CompensationRun,
    measure: MeasurementProvider,
    curves: Sequence[RetardanceCurve],
    target: NormalizedStokes,
    config: LoopConfig,
) -> CompensationRun:
    """One coarse cycle: measure, then infer, solve, and actuate as needed.

    The measurement is recorded against the settings that produced it,
    and becomes ``run.best`` if no earlier coarse reading beats it (a tie
    takes the newer one).  The very first cycle always applies a
    correction — the probe measurement exists to seed the solver, not to
    be judged against the threshold.  On later cycles, a measurement that
    clears the coarse threshold moves the run to the fine phase and keeps
    the settings that earned it; re-solving from a noisy snapshot of an
    already-good state would only re-randomize it at the
    measurement-noise floor.  Below the threshold, the cycle corrects
    from ``run.best``, using its voltages, reading and retardances; after
    a regression, that restores the best setting before the inference.
    """
    stokes = measure(run.state.voltages)
    fid = fidelity(stokes, target)
    first = run.best is None
    rec = run.record("coarse", stokes, fid)
    run.current_fidelity = fid
    if first or fid >= run.best.fidelity:
        run.best = rec
    if fid >= config.coarse_threshold:
        run.phase = "fine"
        if not first:
            return run

    best = run.best
    seen, target_eff = NormalizedStokes(*best.stokes), target
    if len(best.retardances) == 4:
        m4_inv = invert_retarder(mueller_lcvr(_STACK_ANGLES[3], best.retardances[3]))
        seen = transform_normalized(m4_inv, seen)
        target_eff = transform_normalized(m4_inv, target)
    s_dis = infer_disturbed(seen, best.retardances[:3])
    solved = solve_retardances(s_dis, target_eff, curves[:3])
    run.state = CompensatorState((*solved, *best.voltages[3:]))
    return run


def fine_tune_step(
    run: CompensationRun,
    measure: MeasurementProvider,
    config: LoopConfig,
) -> CompensationRun:
    """One fine-phase probe: nudge one cell's voltage and keep improvements.

    Cells are visited round-robin; each keeps a remembered direction that
    flips whenever a nudge fails.  A failed nudge reverts the voltage and
    advances to the next cell.  The comparison baseline is a running
    estimate of the held setting's reading: a kept move resets it to the
    reading that won, a failed one relaxes it toward the reading that
    lost.  Without the relaxation a single optimistic reading would
    become a bar that no honest later reading can clear, freezing the
    climb on a noisy bench.  No-op if the run already sits at or above
    the fine threshold.
    """
    if run.current_fidelity >= config.fine_threshold:
        run.finish("fine_threshold_met")
        return run

    n = len(run.state.voltages)
    for _ in range(2 * n):
        i = run.fine_index
        direction = run.fine_directions[i]
        v_new = run.state.voltages[i] + direction * _FINE_STEP_V
        lo, hi = run.curves[i].voltage_span
        if lo <= v_new <= hi:
            break
        # Out of actuation range: treat as a failed direction, no measurement.
        run.fine_directions[i] = -direction
        run.fine_index = (i + 1) % n
    else:  # pragma: no cover - every cell has one feasible direction
        raise RuntimeError("no feasible fine-tune move")

    voltages = list(run.state.voltages)
    voltages[i] = v_new
    previous = run.state
    run.state = CompensatorState(tuple(voltages))
    stokes = measure(run.state.voltages)
    fid = fidelity(stokes, run.target)
    run.record("fine", stokes, fid)

    if fid > run.current_fidelity:
        run.current_fidelity = fid  # keep the move, stay on this cell
    else:
        run.state = previous
        run.fine_directions[i] = -direction
        run.fine_index = (i + 1) % n
        run.current_fidelity += _BASELINE_RELAXATION * (fid - run.current_fidelity)

    if fid >= config.fine_threshold:
        run.finish("fine_threshold_met")
    return run


def run_compensation(
    apparatus: MeasurementProvider,
    curves: Sequence[RetardanceCurve],
    target: NormalizedStokes,
    config: LoopConfig | None = None,
    seed: int = 0,
) -> CompensationRun:
    """Drive the full loop until the fine threshold or the budget is hit.

    ``apparatus`` is any callable that accepts the tuple of drive
    voltages and returns the measured :class:`NormalizedStokes` — a
    virtual bench in tests, real hardware in the lab.  Each call is one
    step.  Determinism: the same apparatus behavior, curves, target and
    config reproduce the identical run transcript.  ``seed`` is accepted
    for call compatibility and unused; the loop has no randomness of its
    own.
    """
    if config is None:
        config = LoopConfig()
    run = CompensationRun.begin(curves, target, config, seed=seed)
    while not run.complete:
        if run.phase == "coarse":
            if run.coarse_used >= config.max_coarse_steps:
                run.finish("budget_exhausted")
                break
            coarse_step(run, apparatus, run.curves, target, config)
        else:
            if run.current_fidelity >= config.fine_threshold:
                run.finish("fine_threshold_met")
                break
            if run.fine_used >= config.max_fine_steps:
                run.finish("budget_exhausted")
                break
            fine_tune_step(run, apparatus, config)
    return run


def qber_opt(fid: float) -> float:
    """Optical QBER contribution of imperfect compensation: ``(1 - F) / 2``."""
    fid = float(fid)
    if not (math.isfinite(fid) and 0.0 <= fid <= 1.0):
        raise ValueError(f"fidelity must be in [0, 1], got {fid!r}")
    return (1.0 - fid) / 2.0


def qber_total(opt: float, det: float, acc: float) -> float:
    """Total QBER as the sum of optical, detector and accidental rates."""
    parts = (float(opt), float(det), float(acc))
    for name, val in zip(("opt", "det", "acc"), parts):
        if not (math.isfinite(val) and val >= 0.0):
            raise ValueError(f"{name} must be a non-negative rate, got {val!r}")
    return sum(parts)
