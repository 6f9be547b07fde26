"""Stokes-vector and Mueller-matrix algebra for fully polarized light.

Conventions used throughout the package:

* Stokes vectors are columns ``(S0, S1, S2, S3)`` with ``S3 = +1`` for
  right-hand circular polarization.
* Mueller matrices are plain 4x4 numpy arrays acting from the left,
  ``S' = M @ S``.  Retarders and rotations keep the first row/column
  trivial and carry an orthogonal 3x3 block with determinant +1.
* Every angle is in radians.  Degrees exist only at file and CLI
  boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MuellerMatrix",
    "StokesVector",
    "NormalizedStokes",
    "DegenerateStateError",
    "NonRetarderError",
    "CARDINAL_STOKES",
    "cardinal_target",
    "mueller_qwp",
    "mueller_hwp",
    "mueller_pbs",
    "mueller_lcvr",
    "mueller_lcvr_triple",
    "compose",
    "apply",
    "invert_retarder",
    "transform_normalized",
    "fidelity",
    "degree_of_polarization",
    "normalize",
]

MuellerMatrix = np.ndarray
"""A Mueller matrix is a bare 4x4 float array; no wrapper class."""

#: Tolerance for unit-norm checks on normalized Stokes inputs.
UNIT_NORM_TOL = 1e-6
#: Numeric slack allowed on the DOP <= 1 physicality bound.
DOP_SLACK = 1e-9
#: Tolerance for the structural check in :func:`invert_retarder`.
RETARDER_STRUCTURE_TOL = 1e-9
#: Polarized fractions below this (relative to S0) cannot be normalized.
DEGENERATE_REL = 1e-12


class DegenerateStateError(ValueError):
    """The polarized part of a Stokes vector is too small to normalize."""


class NonRetarderError(ValueError):
    """A matrix lacks the orthogonal block structure of a pure retarder."""


@dataclass(frozen=True)
class StokesVector:
    """Polarization state ``(S0, S1, S2, S3)`` in consistent intensity units.

    The record itself is inert: reconstruction from noisy data may yield
    slightly unphysical estimates (polarized power marginally above S0),
    which are legitimate outputs.  Call :meth:`validate` on states that
    are fed into a simulation as physical light.
    """

    s0: float
    s1: float
    s2: float
    s3: float

    def as_array(self) -> np.ndarray:
        return np.array([self.s0, self.s1, self.s2, self.s3], dtype=float)

    @classmethod
    def from_array(cls, values) -> "StokesVector":
        s0, s1, s2, s3 = (float(v) for v in values)
        return cls(s0, s1, s2, s3)

    def polarized_magnitude(self) -> float:
        return math.sqrt(self.s1 * self.s1 + self.s2 * self.s2 + self.s3 * self.s3)

    def validate(self) -> "StokesVector":
        """Raise ``ValueError`` unless the state describes physical light."""
        comps = (self.s0, self.s1, self.s2, self.s3)
        if not all(math.isfinite(c) for c in comps):
            raise ValueError(f"non-finite Stokes components: {comps}")
        if self.s0 < 0.0:
            raise ValueError(f"total intensity S0 must be >= 0, got {self.s0!r}")
        pol2 = self.s1 * self.s1 + self.s2 * self.s2 + self.s3 * self.s3
        if pol2 > self.s0 * self.s0 * (1.0 + DOP_SLACK):
            raise ValueError(
                "polarized power exceeds total power: "
                f"|s|={math.sqrt(pol2)!r} > s0={self.s0!r}"
            )
        return self


@dataclass(frozen=True)
class NormalizedStokes:
    """Unit vector ``(u1, u2, u3)`` on the polarization sphere."""

    u1: float
    u2: float
    u3: float

    def __post_init__(self) -> None:
        u1, u2, u3 = self.u1, self.u2, self.u3
        if not (math.isfinite(u1) and math.isfinite(u2) and math.isfinite(u3)):
            raise ValueError(f"non-finite components: {(u1, u2, u3)}")
        norm = math.sqrt(u1 * u1 + u2 * u2 + u3 * u3)
        if abs(norm - 1.0) > UNIT_NORM_TOL:
            raise ValueError(f"not unit-norm: |u| = {norm!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.u1, self.u2, self.u3], dtype=float)


#: The six cardinal fully polarized states, unit intensity.
CARDINAL_STOKES: dict[str, StokesVector] = {
    "H": StokesVector(1.0, 1.0, 0.0, 0.0),
    "V": StokesVector(1.0, -1.0, 0.0, 0.0),
    "D": StokesVector(1.0, 0.0, 1.0, 0.0),
    "A": StokesVector(1.0, 0.0, -1.0, 0.0),
    "R": StokesVector(1.0, 0.0, 0.0, 1.0),
    "L": StokesVector(1.0, 0.0, 0.0, -1.0),
}


def cardinal_target(name: str) -> NormalizedStokes:
    """Unit-sphere coordinates of a cardinal state (``H V D A R L``)."""
    try:
        s = CARDINAL_STOKES[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown state {name!r}; expected one of {sorted(CARDINAL_STOKES)}"
        ) from None
    return NormalizedStokes(s.s1, s.s2, s.s3)


def _check_angle(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _sampled_columns(record, names: tuple[str, ...], min_rows: int, finite: int) -> None:
    """Replace each named column of ``record`` by a private float copy,
    checked by the rules every sampled record shares: each is 1-D, all have
    one length of at least ``min_rows``, the first ``finite`` are finite and
    the first rises strictly.  Each ``ValueError`` names the failing column."""
    for name in names:
        column = np.asarray(getattr(record, name), dtype=float).copy()
        if column.ndim != 1:
            raise ValueError(f"{name} must be 1-D, got shape {column.shape}")
        setattr(record, name, column)
    sizes = [getattr(record, name).size for name in names]
    if len(set(sizes)) > 1:
        raise ValueError(f"{', '.join(names)} must have equal length, got {sizes}")
    if sizes[0] < min_rows:
        raise ValueError(f"{', '.join(names)} need at least {min_rows} rows, got {sizes[0]}")
    for name in names[:finite]:
        if not np.isfinite(getattr(record, name)).all():
            raise ValueError(f"{name} must be finite")
    # For finite doubles a[i + 1] - a[i] <= 0 exactly when a[i + 1] <= a[i].
    first = getattr(record, names[0])
    if (first[1:] <= first[:-1]).any():
        raise ValueError(f"{names[0]} must be strictly increasing")


def mueller_qwp(phi: float) -> MuellerMatrix:
    """Mueller matrix of an ideal quarter-wave plate.

    Parameters
    ----------
    phi : float
        Fast-axis angle in radians, measured from horizontal.

    Returns
    -------
    numpy.ndarray
        4x4 matrix.  At ``phi = pi/4`` it maps horizontal light to
        right-circular light.
    """
    phi = _check_angle(phi, "phi")
    c = math.cos(2.0 * phi)
    s = math.sin(2.0 * phi)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, c * c, s * c, -s],
            [0.0, s * c, s * s, c],
            [0.0, s, -c, 0.0],
        ]
    )


def mueller_hwp(phi: float) -> MuellerMatrix:
    """Mueller matrix of an ideal half-wave plate with fast axis at ``phi``."""
    phi = _check_angle(phi, "phi")
    c = math.cos(2.0 * phi)
    s = math.sin(2.0 * phi)
    return np.array(
        [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, c * c - s * s, 2.0 * c * s, 0.0],
            [0.0, 2.0 * c * s, s * s - c * c, 0.0],
            [0.0, 0.0, 0.0, -1.0],
        ]
    )


def mueller_pbs() -> MuellerMatrix:
    """Horizontal-transmission polarizing beam splitter (ideal, lossless port)."""
    m = np.zeros((4, 4))
    m[0, 0] = m[0, 1] = m[1, 0] = m[1, 1] = 0.5
    return m


def _embed(rows) -> MuellerMatrix:
    """The 4x4 retarder whose 3x3 rotation block is ``rows``."""
    m = np.eye(4)
    m[1:, 1:] = rows
    return m


def _rotate(rows, v, inverse: bool = False) -> tuple[float, float, float]:
    """Apply a 3x3 block (``inverse``: its transpose) to ``(x, y, z)``."""
    (a, b, c), (d, e, f), (g, h, i) = rows
    x, y, z = v
    if inverse:
        return (a * x + d * y + g * z, b * x + e * y + h * z, c * x + f * y + i * z)
    return (a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z)


def _lcvr_rows(theta: float, delta: float) -> tuple:
    """Rotation block of :func:`mueller_lcvr` as nested tuples of floats."""
    theta = _check_angle(theta, "theta")
    delta = _check_angle(delta, "delta")
    c = math.cos(2.0 * theta)
    s = math.sin(2.0 * theta)
    cd = math.cos(delta)
    sd = math.sin(delta)
    return (
        (c * c + s * s * cd, c * s * (1.0 - cd), -s * sd),
        (c * s * (1.0 - cd), c * c * cd + s * s, c * sd),
        (s * sd, -c * sd, cd),
    )


def _triple_rows(d1: float, d2: float, d3: float) -> tuple:
    """Rotation block of :func:`mueller_lcvr_triple` as nested tuples of floats."""
    d1 = _check_angle(d1, "d1")
    d2 = _check_angle(d2, "d2")
    d3 = _check_angle(d3, "d3")
    c1, s1 = math.cos(d1), math.sin(d1)
    c2, s2 = math.cos(d2), math.sin(d2)
    c3, s3 = math.cos(d3), math.sin(d3)
    return (
        (c2, s1 * s2, -c1 * s2),
        (s2 * s3, c1 * c3 - c2 * s1 * s3, c3 * s1 + c1 * c2 * s3),
        (c3 * s2, -c2 * c3 * s1 - c1 * s3, -s1 * s3 + c1 * c2 * c3),
    )


def mueller_lcvr(theta: float, delta: float) -> MuellerMatrix:
    """Mueller matrix of a linear retarder (liquid-crystal variable retarder).

    Parameters
    ----------
    theta : float
        Fast-axis orientation in radians.
    delta : float
        Retardance in radians.

    Notes
    -----
    ``mueller_lcvr(phi, pi/2)`` equals :func:`mueller_qwp`\\ ``(phi)`` and
    ``mueller_lcvr(phi, pi)`` equals :func:`mueller_hwp`\\ ``(phi)`` up to
    floating-point roundoff in the structural zeros.
    """
    return _embed(_lcvr_rows(theta, delta))


def mueller_lcvr_triple(d1: float, d2: float, d3: float) -> MuellerMatrix:
    """Closed form of three stacked retarders at 0, 45 and 0 degrees.

    Equals ``compose([mueller_lcvr(0, d1), mueller_lcvr(pi/4, d2),
    mueller_lcvr(0, d3)])`` to machine precision.  The compensation loop
    applies the transpose of its rotation block to infer the state
    entering the stack (:func:`polcomp.compensation.infer_disturbed`).
    """
    return _embed(_triple_rows(d1, d2, d3))


def compose(elements) -> MuellerMatrix:
    """Combine optical elements in the order light encounters them.

    ``compose([a, b, c])`` returns ``c @ b @ a``: the first element of the
    list is the first surface the beam hits, i.e. the rightmost factor.
    """
    mats = list(elements)
    if not mats:
        raise ValueError("compose() needs at least one element")
    out = np.eye(4)
    for m in mats:
        m = np.asarray(m, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"expected 4x4 element, got shape {m.shape}")
        out = m @ out
    return out


def apply(m: MuellerMatrix, s: StokesVector) -> StokesVector:
    """Propagate a Stokes vector through one element: ``S' = M @ S``."""
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"expected 4x4 Mueller matrix, got shape {m.shape}")
    return StokesVector.from_array(m @ s.as_array())


def _retarder_block(m: MuellerMatrix) -> tuple:
    """The 3x3 rotation block of a pure retarder as nested tuples of
    floats, after checking its structure.

    Raises
    ------
    NonRetarderError
        If the first row/column is not ``(1, 0, 0, 0)`` or the lower
        3x3 block is not orthogonal within ``RETARDER_STRUCTURE_TOL``
        (non-finite entries fail both).  Projective elements such as the
        PBS are rejected.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (4, 4):
        raise ValueError(f"expected 4x4 Mueller matrix, got shape {m.shape}")
    (m00, m01, m02, m03), (m10, a, b, c), (m20, d, e, f), (m30, g, h, i) = m.tolist()
    within = RETARDER_STRUCTURE_TOL.__ge__
    if not all(map(within, map(abs, (m00 - 1.0, m01, m02, m03, m10, m20, m30)))):
        raise NonRetarderError("first row/column is not (1, 0, 0, 0)")
    # block @ block.T - I, which is symmetric: the diagonal and one triangle.
    defect = (
        a * a + b * b + c * c - 1.0,
        d * d + e * e + f * f - 1.0,
        g * g + h * h + i * i - 1.0,
        a * d + b * e + c * f,
        a * g + b * h + c * i,
        d * g + e * h + f * i,
    )
    if not all(map(within, map(abs, defect))):
        raise NonRetarderError("3x3 block is not orthogonal; cannot invert by transpose")
    return (a, b, c), (d, e, f), (g, h, i)


def invert_retarder(m: MuellerMatrix) -> MuellerMatrix:
    """Invert a pure retarder by transposing its 3x3 rotation block.

    Raises :class:`NonRetarderError` for anything but a pure retarder
    (see :func:`_retarder_block`).
    """
    return _embed(tuple(zip(*_retarder_block(m))))


def transform_normalized(m: MuellerMatrix, u: NormalizedStokes) -> NormalizedStokes:
    """Rotate a unit polarization vector through a retarder-like element."""
    s = apply(m, StokesVector(1.0, u.u1, u.u2, u.u3))
    return normalize(s)


def fidelity(a: NormalizedStokes, b: NormalizedStokes) -> float:
    """Overlap ``(1 + a.b) / 2`` between two fully polarized states.

    Equals 1 for identical states and 0 for antipodal (orthogonal) ones.
    Every :class:`NormalizedStokes` is unit-norm within ``UNIT_NORM_TOL``
    from its construction, so no norm is checked here; the result is
    clamped to [0, 1] to absorb last-ulp rounding.
    """
    f = 0.5 * (1.0 + float(a.u1 * b.u1 + a.u2 * b.u2 + a.u3 * b.u3))
    return min(1.0, max(0.0, f))


def degree_of_polarization(s: StokesVector) -> float:
    """Polarized fraction ``sqrt(S1^2 + S2^2 + S3^2) / S0``."""
    if not math.isfinite(s.s0) or s.s0 <= 0.0:
        raise ValueError(f"S0 must be positive, got {s.s0!r}")
    return s.polarized_magnitude() / s.s0


def normalize(s: StokesVector) -> NormalizedStokes:
    """Project onto the unit sphere by the polarized magnitude (not S0).

    Dividing by the polarized power rather than S0 makes the result
    invariant under detector gain and keeps noisy, slightly unphysical
    estimates usable.  Raises :class:`DegenerateStateError` when there is
    effectively no polarized component to normalize.
    """
    pol = s.polarized_magnitude()
    if pol <= 0.0 or pol < DEGENERATE_REL * abs(s.s0):
        raise DegenerateStateError(
            f"polarized magnitude {pol!r} too small relative to S0 = {s.s0!r}"
        )
    return NormalizedStokes(s.s1 / pol, s.s2 / pol, s.s3 / pol)
