"""Tests for four-momenta, boosts, and Wigner rotations.

Frozen numeric expectations were produced from the 4x4 matrix-product oracle
(inverse standard boost composed with boost and standard boost) evaluated at
the quoted arguments; closed-form routes must land on the same numbers.
"""

import math

import numpy as np
import pytest

import helpers
from ccrsim import (
    BadPhysicalParams,
    BoostSpec,
    FourMomentum,
    OracleOutOfDomain,
    VelocityOutOfRange,
    WignerRotation,
    apply_boost,
    boost_matrix,
    make_product_state,
    momentum_rapidity,
    rapidity_from_velocity,
    rotation_angle,
    wigner_angle,
    wigner_oracle,
    wigner_rotation,
)
from ccrsim.relativity import METRIC, ORACLE_MAX_RAPIDITY, su2_rotations

RNG = np.random.default_rng(77)


def random_unit3():
    v = RNG.normal(size=3)
    return v / np.linalg.norm(v)


def random_momentum():
    mass = float(RNG.uniform(0.5, 2.0))
    return FourMomentum.from_spatial(mass, RNG.uniform(0.0, 3.0) * random_unit3())


# ---------------------------------------------------------------------------
# Rapidity conversions
# ---------------------------------------------------------------------------


def test_rapidity_from_velocity_values():
    assert rapidity_from_velocity(0.0) == 0.0
    # atanh(0.6) = (1/2) ln(1.6/0.4) = ln 2.
    assert abs(rapidity_from_velocity(0.6) - math.log(2.0)) < 1e-15
    assert abs(rapidity_from_velocity(0.6) - 0.6931471805599453) < 1e-15


@pytest.mark.parametrize("v", [-0.1, 1.0, 1.5, float("nan")])
def test_rapidity_from_velocity_rejects_bad_speed(v):
    with pytest.raises(VelocityOutOfRange):
        rapidity_from_velocity(v)


def test_momentum_rapidity():
    rest = FourMomentum.from_spatial(1.3, np.zeros(3))
    assert momentum_rapidity(rest) == 0.0
    moving = FourMomentum.from_spatial(0.7, 0.7 * math.sinh(1.5) * np.array([0, 1, 0]))
    assert abs(momentum_rapidity(moving) - 1.5) < 1e-12
    # E = sqrt(2), |p| = 1, m = 1: alpha = arccosh(sqrt 2) = ln(1 + sqrt 2).
    unit = FourMomentum.from_spatial(1.0, np.array([0.0, 1.0, 0.0]))
    assert abs(momentum_rapidity(unit) - 0.8813735870195430) < 1e-15
    assert abs(momentum_rapidity(unit) - math.log(1.0 + math.sqrt(2.0))) < 1e-15


# ---------------------------------------------------------------------------
# FourMomentum / BoostSpec validation
# ---------------------------------------------------------------------------


def test_four_momentum_requires_timelike():
    with pytest.raises(BadPhysicalParams):
        FourMomentum(1.0, 1.0, 0.0, 0.0)
    with pytest.raises(BadPhysicalParams):
        FourMomentum(-1.0, 0.0, 0.0, 0.0)
    p = FourMomentum.from_spatial(2.0, np.array([0.0, 1.0, 0.0]))
    assert abs(p.mass - 2.0) < 1e-12
    assert abs(p.e - math.sqrt(5.0)) < 1e-12


def test_from_spatial_refuses_an_energy_that_overflows():
    too_large = ((1.0, [0.0, 1e200, 0.0]), (1e200, [0.0, 1.0, 0.0]), (1e154, [1e154, 1e154, 0.0]))
    for mass, p_vec in too_large:
        with pytest.raises(BadPhysicalParams, match="overflows"):
            FourMomentum.from_spatial(mass, p_vec)
    p_vec = np.array([3e153, 4e153, 0.0])
    p = FourMomentum.from_spatial(2.5, p_vec)
    assert p.e == math.sqrt(2.5**2 + float(p_vec @ p_vec)) == 5e153


def test_boost_spec_validation():
    with pytest.raises(BadPhysicalParams):
        BoostSpec(-0.5, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(BadPhysicalParams):
        BoostSpec(51.0, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(BadPhysicalParams):
        BoostSpec(1.0, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(BadPhysicalParams):
        BoostSpec.from_velocity(0.6, np.array([2.0, 0.0, 0.0]))
    spec = BoostSpec.from_velocity(0.6, np.array([1.0, 0.0, 0.0]))
    assert abs(spec.rapidity - math.log(2.0)) < 1e-15
    np.testing.assert_allclose(spec.direction, [1.0, 0.0, 0.0], atol=0)


# ---------------------------------------------------------------------------
# Boost matrices
# ---------------------------------------------------------------------------


def test_boost_matrix_trivial_is_identity():
    lam = boost_matrix(BoostSpec(0.0, np.array([1.0, 0.0, 0.0])))
    assert np.array_equal(lam, np.eye(4))


def test_boost_matrix_on_rest_momentum():
    m, omega = 1.7, 0.9
    lam = boost_matrix(BoostSpec(omega, np.array([1.0, 0.0, 0.0])))
    rest = FourMomentum.from_spatial(m, np.zeros(3))
    e, px, py, pz = lam @ rest.as_array()
    assert abs(e - m * math.cosh(omega)) < 1e-12
    assert abs(px - m * math.sinh(omega)) < 1e-12
    assert abs(py) + abs(pz) < 1e-15


def test_boost_matrix_collinear_composition():
    e = np.array([0.0, 0.0, 1.0])
    lhs = boost_matrix(BoostSpec(0.8, e)) @ boost_matrix(BoostSpec(0.5, e))
    rhs = boost_matrix(BoostSpec(1.3, e))
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_boost_matrix_preserves_metric():
    for _ in range(50):
        lam = boost_matrix(BoostSpec(float(RNG.uniform(0, 5)), random_unit3()))
        np.testing.assert_allclose(lam.T @ METRIC @ lam, METRIC, atol=1e-10)
        assert lam[0, 0] >= 1.0


def standard_boost(p):
    # L(p): the pure boost of rapidity asinh(|p|/m) along p-hat, which takes
    # the rest momentum (m, 0) to p.
    k = np.linalg.norm(p.spatial)
    direction = p.spatial / k if k > 0.0 else np.array([0.0, 0.0, 1.0])
    return BoostSpec(momentum_rapidity(p), direction)


def test_standard_boost_reaches_momentum():
    # Both momentum routes, the 4x4 matrix and apply_boost's closed form.
    for _ in range(50):
        p = random_momentum()
        boost = standard_boost(p)
        rest = FourMomentum.from_spatial(p.mass, np.zeros(3))
        np.testing.assert_allclose(
            boost_matrix(boost) @ rest.as_array(), p.as_array(), atol=1e-12
        )
        state = make_product_state([[("k", rest, 1.0)]], [(1.0, 0.0)])
        out = apply_boost(state, boost).particles[0]
        np.testing.assert_allclose(out.momenta[0], p.spatial, atol=1e-12)
        assert out.masses[0] == p.mass


def test_standard_boost_of_rest_momentum_is_identity():
    rest = FourMomentum.from_spatial(1.0, np.zeros(3))
    boost = standard_boost(rest)
    assert boost.rapidity == 0.0
    assert np.array_equal(boost_matrix(boost), np.eye(4))
    state = make_product_state([[("k", rest, 1.0)]], [(1.0, 0.0)])
    out = apply_boost(state, boost)
    assert np.array_equal(out.particles[0].momenta, np.zeros((1, 3)))
    assert np.array_equal(out.vector, state.vector)


# ---------------------------------------------------------------------------
# Wigner angle and rotation
# ---------------------------------------------------------------------------


def test_wigner_angle_degenerate_cases():
    assert wigner_angle(0.0, 1.0) == 0.0
    assert wigner_angle(1.0, 0.0) == 0.0


def test_wigner_angle_unit_arguments():
    # Perpendicular boost, omega = alpha = 1; frozen from the 4x4 oracle.
    assert abs(wigner_angle(1.0, 1.0) - 0.4207839616380731) < 1e-12


def test_wigner_oracle_perpendicular_matches_closed_form():
    p = FourMomentum.from_spatial(1.0, math.sinh(1.0) * np.array([0.0, 1.0, 0.0]))
    boost = BoostSpec(1.0, np.array([1.0, 0.0, 0.0]))
    w = wigner_oracle(boost, p)
    assert abs(rotation_angle(w) - wigner_angle(1.0, 1.0)) < 1e-9


def test_wigner_oracle_fixes_rest_frame_momentum():
    for _ in range(100):
        p = random_momentum()
        boost = BoostSpec(float(RNG.uniform(0, 5)), random_unit3())
        w = wigner_oracle(boost, p)
        rest = np.array([p.mass, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(w @ rest, rest, atol=1e-9)
        # Spatial block is a rotation: orthogonal with unit determinant.
        r = w[1:, 1:]
        np.testing.assert_allclose(r.T @ r, np.eye(3), atol=1e-9)
        assert abs(np.linalg.det(r) - 1.0) < 1e-9


def test_wigner_oracle_trivial_boost_is_identity():
    p = random_momentum()
    w = wigner_oracle(BoostSpec(0.0, np.array([1.0, 0.0, 0.0])), p)
    np.testing.assert_allclose(w, np.eye(4), atol=1e-12)


def test_wigner_oracle_collinear_boost_gives_no_rotation():
    p = FourMomentum.from_spatial(1.0, 2.0 * np.array([0.0, 1.0, 0.0]))
    boost = BoostSpec(2.5, np.array([0.0, 1.0, 0.0]))
    assert rotation_angle(wigner_oracle(boost, p)) < 1e-9


def test_wigner_rotation_identity_cases():
    rest = FourMomentum.from_spatial(1.0, np.zeros(3))
    w = wigner_rotation(BoostSpec(1.0, np.array([1.0, 0.0, 0.0])), rest)
    assert w.angle == 0.0
    np.testing.assert_allclose(w.matrix, np.eye(2), atol=0)
    moving = FourMomentum.from_spatial(1.0, np.array([0.0, 1.0, 0.0]))
    w2 = wigner_rotation(BoostSpec(0.0, np.array([1.0, 0.0, 0.0])), moving)
    assert w2.angle == 0.0


def test_wigner_rotation_angle_matches_oracle():
    worst = 0.0
    for _ in range(100):
        p = random_momentum()
        boost = BoostSpec(float(RNG.uniform(0, 5)), random_unit3())
        w = wigner_rotation(boost, p)
        oracle = rotation_angle(wigner_oracle(boost, p))
        worst = max(worst, abs(w.angle - oracle))
    assert worst < 1e-9


def test_wigner_rotation_su2_properties():
    for _ in range(100):
        w = wigner_rotation(
            BoostSpec(float(RNG.uniform(0, 5)), random_unit3()), random_momentum()
        )
        d = w.matrix
        np.testing.assert_allclose(d.conj().T @ d, np.eye(2), atol=1e-12)
        assert abs(np.linalg.det(d) - 1.0) < 1e-12


def test_wigner_rotation_block_structure_for_y_momentum():
    # Momentum +/-p y-hat, boost direction (cos t, 0, sin t): the little-group
    # matrix is [[c +/- i s cos t, -/+ i s sin t], [-/+ i s sin t, c -/+ i s cos t]].
    theta = 0.7
    direction = np.array([math.cos(theta), 0.0, math.sin(theta)])
    boost = BoostSpec(1.2, direction)
    for sign in (1.0, -1.0):
        p = FourMomentum.from_spatial(1.0, sign * np.array([0.0, 1.0, 0.0]))
        w = wigner_rotation(boost, p)
        c, s = math.cos(0.5 * w.angle), math.sin(0.5 * w.angle)
        expected = np.array(
            [
                [c + 1j * sign * s * math.cos(theta), -1j * sign * s * math.sin(theta)],
                [-1j * sign * s * math.sin(theta), c - 1j * sign * s * math.cos(theta)],
            ]
        )
        np.testing.assert_allclose(w.matrix, expected, atol=1e-12)


def test_wigner_rotation_real_for_z_axis():
    # Momentum along z, boost along x: axis = x cross z ... = -y, so the spin
    # matrix is the real rotation [[c, -s], [s, c]] with its axis at -y.
    p = FourMomentum.from_spatial(1.0, np.array([0.0, 0.0, 1.5]))
    w = wigner_rotation(BoostSpec(1.0, np.array([1.0, 0.0, 0.0])), p)
    c, s = math.cos(0.5 * w.angle), math.sin(0.5 * w.angle)
    np.testing.assert_allclose(w.matrix, [[c, -s], [s, c]], atol=1e-12)
    np.testing.assert_allclose(w.axis, [0.0, -1.0, 0.0], atol=1e-12)


def test_wigner_rotation_from_angle_axis_validates():
    with pytest.raises(Exception):
        WignerRotation(0.3, np.array([1.0, 1.0, 0.0]))
    w = WignerRotation(0.3, np.array([0.0, 0.0, 1.0]))
    assert abs(w.angle - 0.3) < 1e-15
    ident = WignerRotation(0.0, np.array([0.0, 0.0, 1.0]))
    assert np.array_equal(ident.matrix, np.eye(2))


def test_wigner_rotation_derives_its_matrix_from_angle_and_axis():
    axis = np.array([0.0, 0.6, 0.8])
    w = WignerRotation(0.7, axis)
    c, s = math.cos(0.35), math.sin(0.35)
    expected = np.array(
        [[c + 0.8j * s, 0.6 * s + 0j], [-0.6 * s + 0j, c - 0.8j * s]]
    )
    np.testing.assert_allclose(w.matrix, expected, rtol=0, atol=1e-15)
    assert not w.matrix.flags.writeable
    for bad_axis in ([0.0, 0.0], [0.0, 0.0, 2.0], [0.0, float("nan"), 1.0]):
        with pytest.raises(BadPhysicalParams):
            WignerRotation(0.7, np.array(bad_axis))
    with pytest.raises(BadPhysicalParams):
        WignerRotation(float("inf"), axis)


@pytest.mark.parametrize(
    "rapidity, p_vec", [(5.0, (-1000.0, 1.0, 0.0)), (8.0, (-100.0, 0.1, 0.0))]
)
def test_near_anti_collinear_boost_is_accurate_and_not_refused(rapidity, p_vec):
    # A normalised half-angle pair cancels near e . p_hat = -1; these boosts
    # used to be refused with "spin rotation is not unitary".
    pytest.importorskip("mpmath")
    p = FourMomentum.from_spatial(1.0, np.array(p_vec))
    boost = BoostSpec(rapidity, np.array([1.0, 0.0, 0.0]))
    state = make_product_state([[("k", p, 1.0)]], [(1.0, 0.0)])
    assert abs(float(np.linalg.norm(apply_boost(state, boost).vector)) - 1.0) < 1e-12
    assert abs(wigner_rotation(boost, p).angle - helpers.wigner_angle_mp(boost, p)) < 1e-11


def test_momentum_rapidity_keeps_its_digits_near_rest():
    # acosh(E/m) loses half the digits at E/m = 1 + 5e-13.
    pytest.importorskip("mpmath")
    p = FourMomentum.from_spatial(1.0, np.array([0.0, 1e-6, 0.0]))
    assert abs(momentum_rapidity(p) - math.asinh(1e-6)) < 1e-14 * 1e-6
    boost = BoostSpec(2.0, np.array([1.0, 0.0, 0.0]))
    exact = helpers.wigner_angle_mp(boost, p)
    assert abs(wigner_rotation(boost, p).angle - exact) < 1e-12 * exact


def test_su2_rotations_batch_matches_from_angle_axis():
    rng = np.random.default_rng(5)
    angles = rng.uniform(0.0, math.pi, size=(3, 4))
    axes = rng.normal(size=(3, 4, 3))
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    stack = su2_rotations(angles, axes)
    assert stack.shape == (3, 4, 2, 2)
    for i in range(3):
        for j in range(4):
            one = WignerRotation(angles[i, j], axes[i, j]).matrix
            np.testing.assert_allclose(stack[i, j], one, rtol=0, atol=1e-15)
    axes[1, 2] *= 1.001
    with pytest.raises(BadPhysicalParams):
        su2_rotations(angles, axes)


def _oracle_mp(mp, boost, p):
    """W = L(Lambda p)^-1 Lambda L(p) evaluated with mpmath at 80 digits."""
    mp.mp.dps = 80

    def pure_boost(direction, rapidity):
        ch, sh = mp.cosh(rapidity), mp.sinh(rapidity)
        out = mp.matrix(4, 4)
        out[0, 0] = ch
        for i in range(3):
            out[0, i + 1] = out[i + 1, 0] = sh * direction[i]
            for j in range(3):
                out[i + 1, j + 1] = (1 if i == j else 0) + (ch - 1) * direction[i] * direction[j]
        return out

    def standard(k, mass):
        k_mag = mp.sqrt(k[1] ** 2 + k[2] ** 2 + k[3] ** 2)
        return pure_boost([k[i] / k_mag for i in (1, 2, 3)], mp.acosh(k[0] / mass))

    e = [mp.mpf(float(x)) for x in boost.direction]
    e_mag = mp.sqrt(sum(x * x for x in e))
    lam = pure_boost([x / e_mag for x in e], mp.mpf(boost.rapidity))
    p4 = mp.matrix([mp.mpf(p.e), mp.mpf(p.px), mp.mpf(p.py), mp.mpf(p.pz)])
    mass = mp.sqrt(p4[0] ** 2 - p4[1] ** 2 - p4[2] ** 2 - p4[3] ** 2)
    w = mp.inverse(standard(lam * p4, mass)) * lam * standard(p4, mass)
    return np.array([[float(w[i, j]) for j in range(4)] for i in range(4)])


def test_wigner_oracle_accurate_up_to_its_domain_edge():
    # The domain bound is set by this comparison: up to ORACLE_MAX_RAPIDITY
    # (boost plus momentum rapidity) the extended-precision oracle stays
    # within the 1e-9 agreement tolerance of an 80-digit evaluation.
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2007)
    worst = 0.0
    for reach in (2.0, 6.0, 10.0, ORACLE_MAX_RAPIDITY):
        for share in (0.1, 0.5, 0.9):
            for _ in range(3):
                e_hat, p_hat = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 3)))
                mass = float(rng.uniform(0.5, 2.0))
                alpha = (1.0 - share) * reach
                p = FourMomentum.from_spatial(mass, mass * math.sinh(alpha) * p_hat)
                boost = BoostSpec(reach - momentum_rapidity(p), e_hat)
                w = wigner_oracle(boost, p)
                exact = _oracle_mp(mp, boost, p)
                rest = np.array([mass, 0.0, 0.0, 0.0])
                worst = max(
                    worst,
                    float(np.max(np.abs(w - exact))),
                    float(np.max(np.abs(w @ rest - rest))),
                    abs(rotation_angle(w) - rotation_angle(exact)),
                )
    assert worst < 1e-9


def test_wigner_oracle_refuses_outside_its_domain():
    p = FourMomentum.from_spatial(1.0, np.array([0.0, 1.0, 0.0]))
    alpha = momentum_rapidity(p)
    x_dir = np.array([1.0, 0.0, 0.0])
    wigner_oracle(BoostSpec(ORACLE_MAX_RAPIDITY - alpha, x_dir), p)
    for rapidity in (ORACLE_MAX_RAPIDITY - alpha + 1e-6, 30.0):
        with pytest.raises(OracleOutOfDomain):
            wigner_oracle(BoostSpec(rapidity, x_dir), p)
    # The closed form has no such limit.
    assert 0.0 < wigner_rotation(BoostSpec(30.0, x_dir), p).angle < math.pi / 2
