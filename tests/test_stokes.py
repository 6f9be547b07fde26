"""Stokes/Mueller algebra: frozen matrix forms, composition order,
retarder inversion and the scalar metrics."""

import math

import numpy as np
import pytest

from polcomp.stokes import (
    CARDINAL_STOKES,
    DegenerateStateError,
    NonRetarderError,
    NormalizedStokes,
    StokesVector,
    apply,
    cardinal_target,
    compose,
    degree_of_polarization,
    fidelity,
    invert_retarder,
    mueller_hwp,
    mueller_lcvr,
    mueller_lcvr_triple,
    mueller_pbs,
    mueller_qwp,
    normalize,
    transform_normalized,
)

S2 = math.sqrt(2.0) / 2.0


# --- frozen element forms ---------------------------------------------------

def test_qwp_at_zero():
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, -1, 0],
        ],
        dtype=float,
    )
    np.testing.assert_allclose(mueller_qwp(0.0), expected, atol=1e-15)


def test_qwp_at_45_deg():
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
        ],
        dtype=float,
    )
    np.testing.assert_allclose(mueller_qwp(math.pi / 4), expected, atol=1e-15)


def test_hwp_at_zero_and_22p5_deg():
    np.testing.assert_allclose(
        mueller_hwp(0.0), np.diag([1.0, 1.0, -1.0, -1.0]), atol=1e-15
    )
    swap = np.array(
        [
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [0, 0, 0, -1],
        ],
        dtype=float,
    )
    np.testing.assert_allclose(mueller_hwp(math.pi / 8), swap, atol=1e-15)


def test_pbs_form():
    m = mueller_pbs()
    expected = np.zeros((4, 4))
    expected[:2, :2] = 0.5
    np.testing.assert_allclose(m, expected, atol=1e-15)


def test_qwp_is_quarter_wave_retarder():
    # A QWP is the general variable retarder pinned at delta = pi/2.
    rng = np.random.default_rng(3)
    for phi in rng.uniform(-math.pi, math.pi, 50):
        np.testing.assert_allclose(
            mueller_qwp(phi), mueller_lcvr(phi, math.pi / 2), atol=1e-15
        )


def test_hwp_is_half_wave_retarder():
    rng = np.random.default_rng(4)
    for phi in rng.uniform(-math.pi, math.pi, 50):
        np.testing.assert_allclose(
            mueller_hwp(phi), mueller_lcvr(phi, math.pi), atol=1e-14
        )


def test_lcvr_at_zero_axis():
    d = 0.7
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, math.cos(d), math.sin(d)],
            [0, 0, -math.sin(d), math.cos(d)],
        ]
    )
    np.testing.assert_allclose(mueller_lcvr(0.0, d), expected, atol=1e-15)


def test_lcvr_full_wave_is_identity():
    np.testing.assert_allclose(mueller_lcvr(0.31, 2 * math.pi), np.eye(4), atol=1e-15)


def test_retarder_block_is_rotation():
    rng = np.random.default_rng(5)
    for theta, delta in rng.uniform(0, 2 * math.pi, (100, 2)):
        m = mueller_lcvr(theta, delta)
        block = m[1:, 1:]
        np.testing.assert_allclose(block @ block.T, np.eye(3), atol=1e-13)
        assert np.linalg.det(block) == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(m[0], [1, 0, 0, 0], atol=0)
        np.testing.assert_allclose(m[:, 0], [1, 0, 0, 0], atol=0)


# --- composition and inversion ----------------------------------------------

def test_compose_orders_first_element_innermost():
    # Light hits the QWP first, then the HWP: total = HWP @ QWP.
    q, h = mueller_qwp(0.2), mueller_hwp(0.9)
    np.testing.assert_allclose(compose([q, h]), h @ q, atol=0)


def test_compose_empty_raises():
    with pytest.raises(ValueError):
        compose([])


def test_triple_equals_elementwise_composition():
    angles = (0.0, math.pi / 4, 0.0)
    rng = np.random.default_rng(11)
    worst = 0.0
    for d1, d2, d3 in rng.uniform(0, 2 * math.pi, (1000, 3)):
        direct = mueller_lcvr_triple(d1, d2, d3)
        chained = compose(
            [mueller_lcvr(a, d) for a, d in zip(angles, (d1, d2, d3))]
        )
        worst = max(worst, float(np.max(np.abs(direct - chained))))
    assert worst <= 1e-12


def test_triple_identity_at_full_waves():
    m = mueller_lcvr_triple(2 * math.pi, 2 * math.pi, 2 * math.pi)
    assert np.max(np.abs(m - np.eye(4))) <= 1e-15


def test_invert_retarder_round_trip():
    rng = np.random.default_rng(12)
    for theta, delta in rng.uniform(0, 2 * math.pi, (100, 2)):
        m = mueller_lcvr(theta, delta)
        np.testing.assert_allclose(invert_retarder(m) @ m, np.eye(4), atol=1e-13)


def test_invert_retarder_rejects_polarizer():
    with pytest.raises(NonRetarderError):
        invert_retarder(mueller_pbs())


@pytest.mark.parametrize("where", [(0, 2), (2, 3)], ids=["edge", "block"])
def test_invert_retarder_rejects_non_finite_entries(where):
    m = mueller_lcvr(0.3, 1.1)
    m[where] = math.nan
    with pytest.raises(NonRetarderError):
        invert_retarder(m)


def test_apply_rotates_cardinals():
    # A quarter-wave plate at 45 deg sends H to R.
    out = apply(mueller_qwp(math.pi / 4), CARDINAL_STOKES["H"])
    np.testing.assert_allclose(out.as_array(), [1, 0, 0, 1], atol=1e-15)


def test_transform_normalized_matches_apply():
    rng = np.random.default_rng(13)
    for _ in range(50):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        u = NormalizedStokes(*v)
        theta, delta = rng.uniform(0, 2 * math.pi, 2)
        m = mueller_lcvr(theta, delta)
        direct = transform_normalized(m, u)
        s = apply(m, StokesVector(1.0, *v))
        np.testing.assert_allclose(
            [direct.u1, direct.u2, direct.u3], s.as_array()[1:], atol=1e-12
        )


# --- scalar metrics -----------------------------------------------------------

def test_fidelity_values():
    h = cardinal_target("H")
    assert fidelity(h, h) == 1.0
    assert fidelity(h, cardinal_target("V")) == 0.0
    assert fidelity(h, cardinal_target("D")) == pytest.approx(0.5, abs=1e-15)
    assert fidelity(h, cardinal_target("R")) == pytest.approx(0.5, abs=1e-15)


def test_fidelity_rejects_non_unit():
    with pytest.raises(ValueError):
        NormalizedStokes(0.5, 0.0, 0.0)


def test_cardinals_are_unit_and_orthogonal_pairs():
    for name, other in (("H", "V"), ("D", "A"), ("R", "L")):
        u, w = cardinal_target(name), cardinal_target(other)
        assert math.hypot(u.u1, u.u2, u.u3) == pytest.approx(1.0, abs=1e-12)
        assert fidelity(u, w) == pytest.approx(0.0, abs=1e-15)


def test_cardinal_target_unknown_name():
    with pytest.raises(ValueError):
        cardinal_target("X")


def test_right_circular_is_positive_s3():
    assert cardinal_target("R").u3 == 1.0
    assert CARDINAL_STOKES["R"].s3 == 1.0


def test_degree_of_polarization():
    assert degree_of_polarization(StokesVector(2.0, 1.0, 0.0, 0.0)) == 0.5
    assert degree_of_polarization(CARDINAL_STOKES["D"]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        degree_of_polarization(StokesVector(0.0, 0.0, 0.0, 0.0))


def test_normalize_scales_out_gain():
    s = StokesVector(7.0, 3.5, 0.0, 3.5 * math.sqrt(3))
    u = normalize(s)
    assert math.hypot(u.u1, u.u2, u.u3) == pytest.approx(1.0, abs=1e-12)
    assert u.u1 == pytest.approx(0.5, abs=1e-12)


def test_normalize_degenerate_raises():
    with pytest.raises(DegenerateStateError):
        normalize(StokesVector(1.0, 0.0, 0.0, 0.0))


def test_validate_rejects_unphysical():
    with pytest.raises(ValueError):
        StokesVector(-1.0, 0.0, 0.0, 0.0).validate()
    with pytest.raises(ValueError):
        StokesVector(1.0, 1.0, 1.0, 0.0).validate()
    with pytest.raises(ValueError):
        StokesVector(1.0, math.nan, 0.0, 0.0).validate()
    # Noisy estimators may produce slightly over-polarized vectors; the
    # constructor itself must not reject them.
    StokesVector(1.0, 1.01, 0.0, 0.0)
