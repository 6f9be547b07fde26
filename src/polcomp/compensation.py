"""Automated polarization compensation loop.

The compensator is a stack of liquid-crystal retarders at 0/45/0 (and
optionally a fourth at 45) degrees.  One *step* is one polarization
measurement; each step records its reading and actuates a correction
computed from it.  The coarse correction infers the state entering the
stack and solves directly for the voltages that map it onto the target.
Once a reading clears the coarse threshold or regresses, the fine
correction is one Gauss-Newton step on the measured error, until the
fine threshold (or the step budget) is reached; a fine reading that
falls below the coarse threshold and the one before it is solved from.

The retardance solve is closed-form.  The 0/45/0 stack turns the
sphere about S1, then S2, then S1: an Euler-angle chart of SO(3), so the
exact solutions form a family with one free angle.  The family is
enumerated on a fixed grid of that angle, each row is shifted by whole
waves into what its cells' calibration curves reach, and every row is
looked up on the curves at once, one array lookup per cell.  The
reachable row on the steepest parts of the curves is actuated, where a
small voltage change still turns the sphere for the fine step.  The loop
draws no random numbers of its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .lcvr import RetardanceCurve, curve_slope_at, retardance_for_voltage, voltage_for_retardance
from .stokes import (
    NormalizedStokes,
    StokesVector,
    _lcvr_rows,
    _rotate,
    _triple_rows,
    fidelity,
    normalize,
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


def _unrotate(rows, u: NormalizedStokes) -> NormalizedStokes:
    """``u`` turned back through the rotation block ``rows`` (its transpose)."""
    return normalize(StokesVector(1.0, *_rotate(rows, (u.u1, u.u2, u.u3), inverse=True)))


def infer_disturbed(s_meas: NormalizedStokes, current: Sequence[float]) -> NormalizedStokes:
    """State at the compensator input, given what was measured behind the
    three solving cells at retardances ``current``."""
    return _unrotate(_triple_rows(*current), s_meas)


def _solution_family(u: Sequence[float], t: Sequence[float]) -> np.ndarray:
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
    summed curve slope wins.  The fine step turns the sphere through each
    cell's slope, so a cell parked on the flat high-voltage tail barely
    turns and leaves the step to the others.  If no row is reachable, the
    one least outside the spans is picked, and its lookup clamps each
    out-of-span component to the end voltage.
    """
    rows = _solution_family(
        (s_dis.u1, s_dis.u2, s_dis.u3), (s_target.u1, s_target.u2, s_target.u3)
    )
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
    run's record: step counts, report levels and the current fidelity are
    read off ``steps``.
    """

    config: LoopConfig
    target: NormalizedStokes
    curves: list[RetardanceCurve]
    state: CompensatorState
    steps: list[StepRecord] = field(default_factory=list)
    phase: str = "coarse"
    reason: str | None = None

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
        return cls(config=config, target=target, curves=curves, state=CompensatorState(voltages))

    def total_steps(self) -> int:
        return len(self.steps)

    @property
    def current_fidelity(self) -> float:
        """Fidelity of the latest reading, or ``-inf`` before the first."""
        return self.steps[-1].fidelity if self.steps else -math.inf

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

    def summary(self) -> dict:
        levels = {f"steps_to_{key}": self.steps_to(lv) for key, lv in REPORT_LEVELS.items()}
        return {**levels, "reason": self.reason}


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return sum(x * y for x, y in zip(a, b))


def _fine_correction(
    rec: StepRecord, target: NormalizedStokes, curves: Sequence[RetardanceCurve]
) -> tuple[float, ...]:
    """Drive voltages one Gauss-Newton step from ``rec`` toward ``target``.

    Cell ``i`` turns the sphere about its axis ``b``, carried through the
    later cells; on a non-increasing curve a voltage change ``dv`` moves
    the reading ``m`` by ``slope (b x m) dv``.  In the tangent frame at
    ``m`` (``e1`` toward the target, ``e2 = m x e1``) that is
    ``(slope b.e2, -slope b.e1) dv``.  The least-norm ``dv`` that moves
    ``m`` the whole angle to the target is clamped to the spans.  A reading
    on the target or its antipode, or cells that cannot turn it both ways,
    keep the voltages.
    """
    m, t = rec.stokes, (target.u1, target.u2, target.u3)
    cos = _dot(m, t)
    r = [tk - cos * mk for tk, mk in zip(t, m)]
    sin = math.sqrt(_dot(r, r))
    if sin == 0.0:
        return rec.voltages
    e1 = [rk / sin for rk in r]
    e2 = (m[1] * e1[2] - m[2] * e1[1], m[2] * e1[0] - m[0] * e1[2], m[0] * e1[1] - m[1] * e1[0])
    rows = [_lcvr_rows(a, d) for a, d in zip(_STACK_ANGLES[1:], rec.retardances[1:])]
    p, q = [], []
    for i, (curve, v) in enumerate(zip(curves, rec.voltages)):
        b = (math.cos(2.0 * _STACK_ANGLES[i]), math.sin(2.0 * _STACK_ANGLES[i]), 0.0)
        for later in rows[i:]:
            b = _rotate(later, b)
        slope = curve_slope_at(curve, v)
        p.append(slope * _dot(b, e2))
        q.append(-slope * _dot(b, e1))
    spp, sqq, spq = _dot(p, p), _dot(q, q), _dot(p, q)
    det = spp * sqq - spq * spq
    if det <= 0.0:
        return rec.voltages
    gain = math.atan2(sin, cos) / det
    return tuple(
        min(max(v + gain * (pi * sqq - qi * spq), c.voltage_span[0]), c.voltage_span[1])
        for c, v, pi, qi in zip(curves, rec.voltages, p, q)
    )


def _solve_from(
    rec: StepRecord, target: NormalizedStokes, curves: Sequence[RetardanceCurve]
) -> tuple[float, ...]:
    """Drive voltages of the closed-form solve from the reading ``rec``.

    A fourth cell keeps its voltage; its rotation is taken off both the
    reading and the target before the three solving cells are solved.
    """
    seen, target_eff = NormalizedStokes(*rec.stokes), target
    if len(rec.retardances) == 4:
        rows4 = _lcvr_rows(_STACK_ANGLES[3], rec.retardances[3])
        seen, target_eff = _unrotate(rows4, seen), _unrotate(rows4, target)
    s_dis = infer_disturbed(seen, rec.retardances[:3])
    return (*solve_retardances(s_dis, target_eff, curves[:3]), *rec.voltages[3:])


def coarse_step(
    run: CompensationRun,
    measure: MeasurementProvider,
    curves: Sequence[RetardanceCurve],
    target: NormalizedStokes,
    config: LoopConfig,
) -> CompensationRun:
    """One coarse cycle: measure, record, then correct from that reading.

    The first cycle always solves: the probe exists to seed the solver,
    not to be judged.  A later reading below the coarse threshold and no
    worse than the one before it is solved from again.  Otherwise it
    cleared the threshold or regressed, and the run moves to the fine
    phase: a re-solve would only re-randomize a good state at the noise
    floor, or repeat a solve that made things worse.  Below the fine
    threshold, that reading's fine correction is actuated at once.
    """
    stokes = measure(run.state.voltages)
    fid = fidelity(stokes, target)
    previous = run.current_fidelity
    rec = run.record("coarse", stokes, fid)
    if fid >= config.coarse_threshold or fid < previous:
        run.phase = "fine"
        if previous > -math.inf:  # not the first cycle
            if fid < config.fine_threshold:
                run.state = CompensatorState(_fine_correction(rec, target, run.curves))
            return run
    run.state = CompensatorState(_solve_from(rec, target, curves))
    return run


def fine_tune_step(
    run: CompensationRun,
    measure: MeasurementProvider,
    config: LoopConfig,
) -> CompensationRun:
    """One fine cycle: measure, record, and below the fine threshold
    correct from the reading: by the solve if it fell below the coarse
    threshold and the reading before (a local step through a cell on a
    flat stretch swings further), else by its Gauss-Newton step.  No-op,
    apart from marking the run ``fine_threshold_met``, if the latest
    reading already sits at or above the threshold.
    """
    previous = run.current_fidelity
    if previous >= config.fine_threshold:
        run.reason = "fine_threshold_met"
        return run
    stokes = measure(run.state.voltages)
    fid = fidelity(stokes, run.target)
    rec = run.record("fine", stokes, fid)
    if fid < config.coarse_threshold and fid < previous:
        run.state = CompensatorState(_solve_from(rec, run.target, run.curves))
    elif fid < config.fine_threshold:
        run.state = CompensatorState(_fine_correction(rec, run.target, run.curves))
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
    while run.phase == "coarse":
        if run.coarse_used >= config.max_coarse_steps:
            run.reason = "budget_exhausted"
            return run
        coarse_step(run, apparatus, run.curves, target, config)
    # The threshold comes before the budget: a coarse phase that already
    # cleared it ends the run met, even with no fine budget.
    while run.current_fidelity < config.fine_threshold:
        if run.fine_used >= config.max_fine_steps:
            run.reason = "budget_exhausted"
            return run
        fine_tune_step(run, apparatus, config)
    run.reason = "fine_threshold_met"
    # The stack stays at the measured setting that met the threshold.
    run.state = CompensatorState(run.steps[-1].voltages)
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
