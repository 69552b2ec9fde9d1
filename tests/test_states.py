"""Tests for scenario construction and the multiparticle state container."""

import math

import numpy as np
import pytest

from ccrsim import (
    BadPhysicalParams,
    BadSubsystemIndex,
    DimensionMismatch,
    FourMomentum,
    LabelCollision,
    MOMENTUM,
    NotNormalized,
    Particle,
    SPIN,
    ScenarioId,
    ThetaOutOfRange,
    boost_direction,
    make_product_state,
    make_scenario,
    reduced_density_matrix,
)

SQ2 = math.sqrt(2.0)


def test_boost_direction_endpoints_and_validation():
    np.testing.assert_allclose(boost_direction(0.0), [1.0, 0.0, 0.0], atol=0)
    np.testing.assert_allclose(boost_direction(math.pi / 2), [0.0, 0.0, 1.0], atol=1e-16)
    np.testing.assert_allclose(
        boost_direction(math.pi / 4), [1 / SQ2, 0.0, 1 / SQ2], atol=1e-15
    )
    for bad in (-0.1, math.pi / 2 + 0.1):
        with pytest.raises(ThetaOutOfRange):
            boost_direction(bad)


def test_scenario_momenta_and_tokens():
    state = make_scenario(ScenarioId.PSI)
    (particle,) = state.particles
    tokens = list(particle.tokens)
    assert tokens == ["+p", "-p"]
    np.testing.assert_allclose(particle.momenta[0], [0, 1, 0], atol=0)
    np.testing.assert_allclose(particle.momenta[1], [0, -1, 0], atol=0)
    assert abs(particle.energies[0] - math.sqrt(2.0)) < 1e-15


def test_scenario_amplitudes():
    psi = make_scenario(ScenarioId.PSI).vector
    np.testing.assert_allclose(psi, [1 / SQ2, 0, 1 / SQ2, 0], atol=1e-15)

    xi = make_scenario(ScenarioId.XI).vector
    np.testing.assert_allclose(xi, [1 / SQ2, 0, 0, 1 / SQ2], atol=1e-15)

    phi = make_scenario(ScenarioId.PHI).vector
    np.testing.assert_allclose(phi, [0.5] * 4, atol=1e-15)
    assert abs(np.linalg.norm(phi) - 1.0) < 1e-15

    xi2 = make_scenario(ScenarioId.XI2).vector
    expected = np.zeros(16)
    expected[0b0010] = expected[0b1000] = 1 / SQ2
    np.testing.assert_allclose(xi2, expected, atol=1e-15)

    ups = make_scenario(ScenarioId.UPSILON).vector
    expected = np.zeros(16)
    expected[0b0011] = expected[0b1100] = 1 / SQ2
    np.testing.assert_allclose(ups, expected, atol=1e-15)


def test_scenario_dims():
    one = make_scenario(ScenarioId.PHI)
    assert one.dims == (2, 2)
    two = make_scenario(ScenarioId.UPSILON)
    assert two.dims == (2, 2, 2, 2)


def test_scenario_accepts_string_ids():
    for name in ("psi", "xi", "phi", "xi2", "upsilon"):
        state = make_scenario(ScenarioId(name))
        assert abs(np.linalg.norm(state.vector) - 1.0) < 1e-12


def test_scenario_rejects_bad_params():
    with pytest.raises(BadPhysicalParams):
        make_scenario(ScenarioId.PSI, p_mag=0.0)
    with pytest.raises(BadPhysicalParams):
        make_scenario(ScenarioId.PSI, mass=-1.0)


def test_subsystem_indexing():
    state = make_scenario(ScenarioId.XI2)
    assert state.subsystem_index(0, MOMENTUM) == 0
    assert state.subsystem_index(0, SPIN) == 1
    assert state.subsystem_index(1, MOMENTUM) == 2
    assert state.subsystem_index(1, SPIN) == 3
    with pytest.raises(BadSubsystemIndex):
        state.subsystem_index(2, MOMENTUM)
    with pytest.raises(BadSubsystemIndex):
        state.subsystem_index(0, "color")
    listing = state.single_dof_subsystems()
    assert [(p, d) for p, d, _ in listing] == [
        (0, MOMENTUM),
        (0, SPIN),
        (1, MOMENTUM),
        (1, SPIN),
    ]


def test_basis_labels():
    state = make_scenario(ScenarioId.XI)
    assert "+p" in state.basis_label(0)
    assert "-p" in state.basis_label(3)


def test_reduced_density_matrix_bell_like_momentum():
    state = make_scenario(ScenarioId.XI)
    rho = reduced_density_matrix(state, {state.subsystem_index(0, MOMENTUM)})
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2.0, atol=1e-15)


def test_make_product_state():
    p1 = FourMomentum.from_spatial(1.0, np.array([0.0, 1.0, 0.0]))
    p2 = FourMomentum.from_spatial(1.0, np.array([0.0, -1.0, 0.0]))
    spin = np.array([1.0, 0.0])
    state = make_product_state(
        momenta=[[("a", p1, 1 / SQ2), ("b", p2, 1j / SQ2)]], spins=[spin]
    )
    assert state.dims == (2, 2)
    np.testing.assert_allclose(
        state.vector, [1 / SQ2, 0.0, 1j / SQ2, 0.0], atol=1e-15
    )


def test_make_product_state_validates_norms():
    p1 = FourMomentum.from_spatial(1.0, np.array([0.0, 1.0, 0.0]))
    with pytest.raises(NotNormalized):
        make_product_state(momenta=[[("a", p1, 0.5)]], spins=[np.array([1.0, 0.0])])
    with pytest.raises(NotNormalized):
        make_product_state(momenta=[[("a", p1, 1.0)]], spins=[np.array([1.0, 1.0])])


def test_particle_mode_collisions():
    p1 = FourMomentum.from_spatial(1.0, np.array([0.0, 1.0, 0.0]))
    p_close = FourMomentum.from_spatial(1.0, np.array([0.0, 1.0 + 5e-10, 0.0]))
    p_far = FourMomentum.from_spatial(1.0, np.array([0.0, -1.0, 0.0]))
    with pytest.raises(LabelCollision):
        make_product_state(
            momenta=[[("a", p1, 1 / SQ2), ("a", p_far, 1 / SQ2)]],
            spins=[np.array([1.0, 0.0])],
        )
    with pytest.raises(LabelCollision):
        make_product_state(
            momenta=[[("a", p1, 1 / SQ2), ("b", p_close, 1 / SQ2)]],
            spins=[np.array([1.0, 0.0])],
        )


def test_particle_validates_its_arrays():
    p = [(0.0, 1.0, 0.0), (0.0, -1.0, 0.0)]
    particle = Particle(("a", "b"), (1.0, 2.0), p)
    assert particle.n_modes == 2
    np.testing.assert_allclose(particle.energies, [math.sqrt(2.0), math.sqrt(5.0)], rtol=1e-15)
    assert not particle.masses.flags.writeable and not particle.momenta.flags.writeable
    with pytest.raises(BadPhysicalParams):
        Particle((), (), np.zeros((0, 3)))
    with pytest.raises(DimensionMismatch):
        Particle(("a", "b"), (1.0,), p)
    with pytest.raises(DimensionMismatch):
        Particle(("a", "b"), (1.0, 1.0), [(0.0, 1.0), (0.0, -1.0)])
    bad_momentum = [(0.0, math.inf, 0.0), p[1]]
    for masses, momenta in (((1.0, 0.0), p), ((1.0, -1.0), p), ((1.0, 1.0), bad_momentum)):
        with pytest.raises(BadPhysicalParams):
            Particle(("a", "b"), masses, momenta)


def test_mode_separation_matches_the_pairwise_check():
    # Clustered modes, so that many pairs sit near the 1e-9 separation limit.
    rng = np.random.default_rng(2026)
    outcomes = set()
    for _ in range(300):
        n = int(rng.integers(2, 12))
        centres = rng.normal(size=(3, 3))
        spread = 10.0 ** rng.uniform(-10, -8)
        momenta = centres[rng.integers(0, 3, size=n)] + rng.normal(size=(n, 3)) * spread
        masses = np.full(n, 1.0)
        q = np.column_stack((np.sqrt(1.0 + np.sum(momenta**2, axis=-1)), momenta))
        gaps = [np.max(np.abs(q[i] - q[j])) for i in range(n) for j in range(i + 1, n)]
        collides = min(gaps) <= 1e-9
        outcomes.add(collides)
        tokens = tuple(f"k{i}" for i in range(n))
        if collides:
            with pytest.raises(LabelCollision):
                Particle(tokens, masses, momenta)
        else:
            Particle(tokens, masses, momenta)
    assert outcomes == {True, False}


def test_many_mode_particle_on_one_energy_shell():
    # 1,024 modes on a ring share every energy, so the check cannot sort on E.
    angles = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    ring = np.column_stack((np.cos(angles), np.sin(angles), np.zeros(1024)))
    tokens = tuple(f"k{i}" for i in range(1024))
    particle = Particle(tokens, np.ones(1024), ring)
    assert particle.n_modes == 1024
    close = ring.copy()
    close[700] = ring[300] + 4e-10
    with pytest.raises(LabelCollision, match="'k300' and 'k700'|'k700' and 'k300'"):
        Particle(tokens, np.ones(1024), close)


def test_make_product_state_keeps_the_given_mass():
    for ratio in (1e-6, 1.0, 1e5, 1e8):
        mass = 0.7
        p = FourMomentum.from_spatial(mass, [0.0, mass * ratio, 0.0])
        assert p.mass == mass
        state = make_product_state([[("k", p, 1.0)]], [(1.0, 0.0)])
        assert state.particles[0].masses[0] == mass
        assert state.particles[0].momenta[0][1] == mass * ratio
