"""Tests for boosting multiparticle states.

The closed-form boosted amplitude vectors in ``helpers`` are the oracle for
the momentum-controlled little-group action; the physical-parameter route
(rapidities) and the direct-angle route must both reproduce them.
"""

import math
import warnings

import numpy as np
import pytest

from ccrsim import (
    BadPhysicalParams,
    BoostSpec,
    FourMomentum,
    LabelCollision,
    MOMENTUM,
    SPIN,
    ScenarioId,
    StateVector,
    apply_boost,
    boost_by_wigner_angle,
    boost_direction,
    boost_matrix,
    ccr,
    linear_entropy,
    make_product_state,
    make_scenario,
    reduced_density_matrix,
    wigner_rotation,
)
from ccrsim import states
import helpers

RNG = np.random.default_rng(424242)
SQ2 = math.sqrt(2.0)

BOOSTED_ORACLES = {
    ScenarioId.PSI: helpers.psi_boosted,
    ScenarioId.XI: helpers.xi_boosted,
    ScenarioId.PHI: helpers.phi_boosted,
    ScenarioId.XI2: helpers.xi2_boosted,
    ScenarioId.UPSILON: helpers.upsilon_boosted,
}


def random_momentum():
    mass = float(RNG.uniform(0.5, 2.0))
    v = RNG.normal(size=3)
    return FourMomentum.from_spatial(mass, RNG.uniform(0.0, 3.0) * v / np.linalg.norm(v))


def random_spin():
    s = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    return s / np.linalg.norm(s)


def random_boost(max_rapidity=5.0):
    v = RNG.normal(size=3)
    return BoostSpec(float(RNG.uniform(0.0, max_rapidity)), v / np.linalg.norm(v))


# ---------------------------------------------------------------------------
# Physical-parameter route
# ---------------------------------------------------------------------------


def test_trivial_boost_keeps_amplitudes():
    state = make_scenario(ScenarioId.XI)
    out = apply_boost(state, BoostSpec(0.0, np.array([1.0, 0.0, 0.0])))
    np.testing.assert_allclose(out.vector, state.vector, atol=1e-15)
    assert list(out.particles[0].tokens) == ["Λ+p", "Λ-p"]


def test_boost_rewrites_momenta():
    state = make_scenario(ScenarioId.PSI)
    boost = BoostSpec(1.0, np.array([1.0, 0.0, 0.0]))
    out = apply_boost(state, boost)
    lam = boost_matrix(boost)
    before, after = state.particles[0], out.particles[0]
    for k in range(before.n_modes):
        expected = lam @ np.array([before.energies[k], *before.momenta[k]])
        got = np.array([after.energies[k], *after.momenta[k]])
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_boost_along_x_keeps_triples_for_psi():
    # theta = 0: the rotation axis is z for both modes, spin states |0> pick
    # up only phases, so every single-dof triple is unchanged.
    state = make_scenario(ScenarioId.PSI)
    out = apply_boost(state, BoostSpec(1.3, boost_direction(0.0)))
    for _, _, idx in state.single_dof_subsystems():
        pre = ccr(state, idx)
        post = ccr(out, idx)
        assert abs(pre.predictability - post.predictability) < 1e-12
        assert abs(pre.coherence - post.coherence) < 1e-12
        assert abs(pre.entropy - post.entropy) < 1e-12


def test_physical_route_matches_angle_route():
    state = make_scenario(ScenarioId.PSI)
    boost = BoostSpec(2.0, boost_direction(0.0))
    phys = apply_boost(state, boost)
    particle = state.particles[0]
    mode = FourMomentum.from_spatial(particle.masses[0], particle.momenta[0])
    angle = wigner_rotation(boost, mode).angle
    direct = boost_by_wigner_angle(state, angle, boost_direction(0.0))
    np.testing.assert_allclose(direct.vector, phys.vector, atol=1e-12)


def test_boost_norm_preserved_random_products():
    for _ in range(25):
        state = make_product_state(
            momenta=[
                [("a", random_momentum(), 1 / SQ2), ("b", random_momentum(), 1j / SQ2)]
            ],
            spins=[random_spin()],
        )
        out = apply_boost(state, random_boost())
        assert abs(np.linalg.norm(out.vector) - 1.0) < 1e-10


def test_single_momentum_product_stays_spin_separable():
    # Any boost of a one-momentum wave packet acts as one unitary on the spin
    # factor alone, so the spin marginal stays pure.
    for _ in range(50):
        state = make_product_state(
            momenta=[[("k", random_momentum(), 1.0)]], spins=[random_spin()]
        )
        out = apply_boost(state, random_boost())
        assert linear_entropy(reduced_density_matrix(out, {1})) < 1e-12


def test_boost_collision_after_light_cone_contraction():
    # Two momenta separated by 4e-9 only in E - px collapse to a max-norm gap
    # of about 2e-9 * exp(-5) < 1e-9 under a rapidity-5 boost along x.
    m = 1.0
    e1, px1 = 2.0, math.sqrt(3.0)
    delta = 4e-9
    # Shift (E, px) along the light-cone direction (1, -1)/2: E - px moves by
    # delta while E + px is untouched, so the mass shift is O(delta).
    e2, px2 = e1 + 0.5 * delta, px1 - 0.5 * delta
    p1 = FourMomentum(e1, px1, 0.0, 0.0)
    p2 = FourMomentum(e2, px2, 0.0, 0.0)
    assert abs(p1.mass - m) < 1e-8 and abs(p2.mass - m) < 1e-8
    state = make_product_state(
        momenta=[[("a", p1, 1 / SQ2), ("b", p2, 1 / SQ2)]],
        spins=[np.array([1.0, 0.0])],
    )
    with pytest.raises(LabelCollision):
        apply_boost(state, BoostSpec(5.0, np.array([1.0, 0.0, 0.0])))


def test_boost_of_momenta_beyond_the_range_of_their_squares():
    # |p| = 1e200 squares past float64.  Mode a (+y) rotates its spin about
    # +z, mode b (-y) about -z, so the phase between their spin-up
    # amplitudes is the rotation angle f; with e perpendicular to p and
    # cosh a >> cosh w, tan f = sinh w sinh a / (cosh w + cosh a) is sinh w.
    particle = states.Particle(("a", "b"), [1.0, 1.0], [[0.0, 1e200, 0.0], [0.0, -1e200, 0.0]])
    amps = StateVector((2, 2), np.array([1.0, 0.0, 1.0, 0.0]) / SQ2)
    state = states.MultipartiteState((particle,), amps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = apply_boost(state, BoostSpec(1.0, np.array([1.0, 0.0, 0.0])))
    assert np.array_equal(out.particles[0].masses, [1.0, 1.0])
    up_a, up_b = out.vector[0], out.vector[2]
    assert abs(np.angle(up_a / up_b) - math.atan(math.sinh(1.0))) <= 1e-12


# ---------------------------------------------------------------------------
# Direct-angle route
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_angle_route_matches_closed_form_amplitudes(scenario):
    oracle = BOOSTED_ORACLES[scenario]
    for _ in range(5):
        theta = float(RNG.uniform(0.0, math.pi / 2))
        phi = float(RNG.uniform(0.0, math.pi / 2))
        state = make_scenario(scenario)
        out = boost_by_wigner_angle(state, phi, boost_direction(theta))
        np.testing.assert_allclose(out.vector, oracle(theta, phi), atol=1e-12)


def test_angle_route_keeps_momenta_but_retags():
    state = make_scenario(ScenarioId.PSI)
    out = boost_by_wigner_angle(state, 0.3, boost_direction(0.2))
    before, after = state.particles[0], out.particles[0]
    assert np.array_equal(before.momenta, after.momenta)
    assert np.array_equal(before.masses, after.masses)
    assert after.tokens == tuple("Λ" + token for token in before.tokens)


def test_only_the_physical_route_rechecks_mode_separation(monkeypatch):
    state = make_scenario(ScenarioId.XI2)
    checked = []
    check = states._check_separation
    monkeypatch.setattr(states, "_check_separation", lambda p: checked.append(p) or check(p))
    boost_by_wigner_angle(state, 0.3, boost_direction(0.2))
    assert checked == []
    out = apply_boost(state, BoostSpec(1.0, np.array([1.0, 0.0, 0.0])))
    assert checked == list(out.particles)


@pytest.mark.parametrize("p_mag", [1e160, 1e200, 1e300])
@pytest.mark.parametrize("scenario", list(ScenarioId))
def test_angle_route_at_extreme_momenta_matches_unit_momenta(p_mag, scenario):
    big = make_scenario(scenario, p_mag)
    assert np.all(big.particles[0].energies == p_mag)
    unit = make_scenario(scenario)
    for theta, phi in ((0.5, 0.5), (0.0, 0.5), (math.pi / 2, 1.2)):
        direction = boost_direction(theta)
        got = boost_by_wigner_angle(big, phi, direction).vector
        assert np.array_equal(got, boost_by_wigner_angle(unit, phi, direction).vector)


def test_angle_route_validates_angle_range():
    state = make_scenario(ScenarioId.PSI)
    for bad in (-0.1, math.pi / 2 + 1e-6):
        with pytest.raises(BadPhysicalParams):
            boost_by_wigner_angle(state, bad, boost_direction(0.0))


def test_angle_route_requires_perpendicular_geometry():
    state = make_scenario(ScenarioId.PSI)
    with pytest.raises(BadPhysicalParams):
        boost_by_wigner_angle(state, 0.3, np.array([0.0, 1.0, 0.0]))


def test_angle_route_requires_common_shell():
    p_fast = FourMomentum.from_spatial(1.0, np.array([0.0, 2.0, 0.0]))
    p_slow = FourMomentum.from_spatial(1.0, np.array([0.0, -1.0, 0.0]))
    state = make_product_state(
        momenta=[[("a", p_fast, 1 / SQ2), ("b", p_slow, 1 / SQ2)]],
        spins=[np.array([1.0, 0.0])],
    )
    with pytest.raises(BadPhysicalParams):
        boost_by_wigner_angle(state, 0.3, np.array([1.0, 0.0, 0.0]))


def test_angle_route_rejects_rest_mode():
    rest = FourMomentum.from_spatial(1.0, np.zeros(3))
    state = make_product_state(momenta=[[("r", rest, 1.0)]], spins=[np.array([1.0, 0.0])])
    with pytest.raises(BadPhysicalParams):
        boost_by_wigner_angle(state, 0.3, np.array([1.0, 0.0, 0.0]))
