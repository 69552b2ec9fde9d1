"""Tests for the complementarity measures and entanglement quantifiers."""

import math

import numpy as np
import pytest

from ccrsim import (
    BadSubsystemIndex,
    DensityMatrix,
    DimensionMismatch,
    GlobalStateNotPure,
    MOMENTUM,
    NotXShaped,
    SPIN,
    ScenarioId,
    StateVector,
    boost_direction,
    boost_by_wigner_angle,
    ccr,
    coherence_hs,
    concurrence_momentum_x,
    linear_entropy,
    linear_entropy_multiindex,
    make_scenario,
    outer,
    partial_trace,
    predictability_l,
    reduced_density_matrix,
)

RNG = np.random.default_rng(5150)
SQ2 = math.sqrt(2.0)


def random_state(dims):
    n = int(np.prod(dims))
    v = RNG.normal(size=n) + 1j * RNG.normal(size=n)
    return StateVector(tuple(dims), v / np.linalg.norm(v))


def rho_of(matrix, dims=(2,)):
    return DensityMatrix(dims, np.asarray(matrix, dtype=complex))


# ---------------------------------------------------------------------------
# Single measures on hand-picked density matrices
# ---------------------------------------------------------------------------


def test_measures_on_basis_state():
    rho = rho_of(np.diag([1.0, 0.0]))
    assert abs(predictability_l(rho) - 0.5) < 1e-15
    assert coherence_hs(rho) == 0.0
    assert abs(linear_entropy(rho)) < 1e-15


def test_measures_on_maximally_mixed():
    rho = rho_of(np.eye(2) / 2.0)
    assert abs(predictability_l(rho)) < 1e-15
    assert coherence_hs(rho) == 0.0
    assert abs(linear_entropy(rho) - 0.5) < 1e-15


def test_measures_on_plus_state():
    rho = rho_of(np.full((2, 2), 0.5))
    assert abs(predictability_l(rho)) < 1e-15
    assert abs(coherence_hs(rho) - 0.5) < 1e-15
    assert abs(linear_entropy(rho)) < 1e-15


def test_measures_on_qutrit_mixture():
    # diag(1/2, 1/4, 1/4): P = (1/4 + 1/16 + 1/16) - 1/3 = 3/8 - 1/3 = 1/24.
    rho = rho_of(np.diag([0.5, 0.25, 0.25]), dims=(3,))
    assert abs(predictability_l(rho) - (3.0 / 8.0 - 1.0 / 3.0)) < 1e-15
    assert abs(linear_entropy(rho) - (1.0 - 3.0 / 8.0)) < 1e-15


# ---------------------------------------------------------------------------
# The complementarity triple
# ---------------------------------------------------------------------------


def test_ccr_identity_for_random_pure_states():
    for dims in ((2, 2), (2, 2, 2), (2, 3, 2)):
        psi = random_state(dims)
        for k, d in enumerate(dims):
            triple = ccr(psi, k)
            assert triple.d == d
            assert abs(triple.total - (d - 1) / d) < 1e-12
            assert abs(triple.residual) < 1e-12


def test_ccr_matches_direct_measures():
    psi = random_state((2, 2, 2))
    triple = ccr(psi, 1)
    rho = partial_trace(outer(psi), {1})
    assert abs(triple.predictability - predictability_l(rho)) < 1e-15
    assert abs(triple.coherence - coherence_hs(rho)) < 1e-15
    assert abs(triple.entropy - linear_entropy(rho)) < 1e-15


def test_ccr_scenario_preboost_values():
    psi = make_scenario(ScenarioId.PSI)
    mom = ccr(psi, psi.subsystem_index(0, MOMENTUM))
    spin = ccr(psi, psi.subsystem_index(0, SPIN))
    assert (
        abs(mom.predictability) < 1e-15
        and abs(mom.coherence - 0.5) < 1e-15
        and abs(mom.entropy) < 1e-15
    )
    assert (
        abs(spin.predictability - 0.5) < 1e-15
        and spin.coherence == 0.0
        and abs(spin.entropy) < 1e-15
    )

    xi = make_scenario(ScenarioId.XI)
    for idx in (0, 1):
        t = ccr(xi, idx)
        assert abs(t.predictability) < 1e-15
        assert t.coherence == 0.0
        assert abs(t.entropy - 0.5) < 1e-15


def test_ccr_post_boost_xi_at_right_angles():
    # theta = phi = pi/2 turns the momentum-spin Bell pair into a product:
    # P + C + S moves from (0, 0, 1/2) to (0, 1/2, 0) on both subsystems.
    xi = make_scenario(ScenarioId.XI)
    out = boost_by_wigner_angle(xi, math.pi / 2, boost_direction(math.pi / 2))
    for idx in (0, 1):
        t = ccr(out, idx)
        assert abs(t.predictability) < 1e-12
        assert abs(t.coherence - 0.5) < 1e-12
        assert abs(t.entropy) < 1e-12


def test_ccr_rejects_bad_subsystem():
    psi = random_state((2, 2))
    with pytest.raises(BadSubsystemIndex):
        ccr(psi, 2)


@pytest.mark.parametrize(
    "route, keep", [(ccr, 0), (reduced_density_matrix, {0}), (linear_entropy_multiindex, 0)]
)
def test_ccr_rejects_norm_drift(route, keep):
    v = np.array([1.0 + 9e-11, 0.0, 0.0, 0.0])
    psi = StateVector((2, 2), v)  # norm - 1 = 9e-11 passes the state band
    with pytest.raises(GlobalStateNotPure):
        route(psi, keep)  # but norm**2 - 1 ~ 1.8e-10 exceeds the purity band


# ---------------------------------------------------------------------------
# Multi-index route for the linear entropy
# ---------------------------------------------------------------------------


def test_multiindex_entropy_on_product_state():
    a = random_state((2,)).amplitudes
    b = random_state((3,)).amplitudes
    psi = StateVector((2, 3), np.kron(a, b))
    assert abs(linear_entropy_multiindex(psi, 0)) < 1e-15


def test_multiindex_entropy_on_bell_pair():
    bell = StateVector((2, 2), np.array([1, 0, 0, 1]) / SQ2)
    assert abs(linear_entropy_multiindex(bell, 0) - 0.5) < 1e-15


def test_multiindex_matches_reduced_route():
    for dims in ((2, 2, 2), (2, 2, 2, 2), (3, 2, 2)):
        for _ in range(20):
            psi = random_state(dims)
            for k in range(len(dims)):
                direct = linear_entropy_multiindex(psi, k)
                reduced = linear_entropy(partial_trace(outer(psi), {k}))
                assert abs(direct - reduced) < 1e-12


def test_multiindex_works_on_scenario_states():
    state = make_scenario(ScenarioId.XI2)
    out = boost_by_wigner_angle(state, 0.6, boost_direction(math.pi / 2))
    for _, _, idx in state.single_dof_subsystems():
        direct = linear_entropy_multiindex(out, idx)
        reduced = linear_entropy(reduced_density_matrix(out, {idx}))
        assert abs(direct - reduced) < 1e-12


# ---------------------------------------------------------------------------
# Entanglement quantifiers
# ---------------------------------------------------------------------------


def test_concurrence_pure_bell_and_product():
    # Pure Bell and product states are X-shaped, so the closed form applies.
    bell = StateVector((2, 2), np.array([1, 0, 0, 1]) / SQ2)
    assert abs(concurrence_momentum_x(outer(bell)) - 1.0) < 1e-12
    prod = StateVector((2, 2), np.array([1.0, 0.0, 0.0, 0.0]))
    assert concurrence_momentum_x(outer(prod)) == 0.0


def test_concurrence_momentum_x_families():
    # diag(0, 1/2, 1/2, 0) with anti-diagonal couplings 1/2 -> E = 1.
    full = np.zeros((4, 4))
    full[1, 1] = full[2, 2] = 0.5
    full[1, 2] = full[2, 1] = 0.5
    assert abs(concurrence_momentum_x(rho_of(full, dims=(2, 2))) - 1.0) < 1e-12
    # Coupling 1/4 -> C_hs = 2 * (1/4)^2 = 1/8 -> E = sqrt(1/4) = 1/2.
    half = np.zeros((4, 4))
    half[1, 1] = half[2, 2] = 0.5
    half[1, 2] = half[2, 1] = 0.25
    assert abs(concurrence_momentum_x(rho_of(half, dims=(2, 2))) - 0.5) < 1e-12


def test_concurrence_momentum_x_on_boosted_xi2():
    state = make_scenario(ScenarioId.XI2)
    # phi = 0: the momentum pair is still the pure Bell state, so the X-form
    # route must agree with the pure-cut route sqrt(2 S_l) on half the pair.
    at0 = boost_by_wigner_angle(state, 0.0, boost_direction(math.pi / 2))
    rho0 = reduced_density_matrix(
        at0, {at0.subsystem_index(0, MOMENTUM), at0.subsystem_index(1, MOMENTUM)}
    )
    e_pure = math.sqrt(max(0.0, 2.0 * linear_entropy(partial_trace(rho0, {0}))))
    assert abs(concurrence_momentum_x(rho0) - e_pure) < 1e-12
    assert abs(e_pure - 1.0) < 1e-12
    # General phi at theta = pi/2: the pair turns mixed and E = cos(phi)^2,
    # vanishing at phi = pi/2.
    for phi in (0.0, 0.4, 1.1, math.pi / 2):
        out = boost_by_wigner_angle(state, phi, boost_direction(math.pi / 2))
        rho = reduced_density_matrix(out, {0, 2})
        assert abs(concurrence_momentum_x(rho) - math.cos(phi) ** 2) < 1e-12


def test_concurrence_momentum_x_is_zero_on_a_separable_x_state():
    # I/4 + (|01><10| + h.c.)/4: its partial transpose has eigenvalues
    # {0, 1/4, 1/4, 1/2}, so it is separable, yet C_hs = 1/8.
    sep = np.eye(4) / 4.0
    sep[1, 2] = sep[2, 1] = 0.25
    assert concurrence_momentum_x(rho_of(sep, dims=(2, 2))) == 0.0


def random_x_state(rng, zero=None):
    """Random X-shaped density matrix; ``zero`` names a diagonal entry set to 0."""
    p = rng.dirichlet(np.ones(4))
    if zero is not None:
        p[zero] = 0.0
        p /= p.sum()
    m = np.diag(p).astype(complex)
    for i, j in ((1, 2), (0, 3)):
        m[i, j] = rng.uniform() * math.sqrt(p[i] * p[j]) * np.exp(1j * rng.uniform(0, 2 * math.pi))
        m[j, i] = np.conj(m[i, j])
    return m


def test_concurrence_momentum_x_keeps_sqrt_2_chs_where_rho00_rho33_vanishes():
    rng = np.random.default_rng(41)
    for n in range(400):
        rho = rho_of(random_x_state(rng, zero=(0, 3)[n % 2]), dims=(2, 2))
        old = math.sqrt(2.0 * coherence_hs(rho))
        assert abs(concurrence_momentum_x(rho) - old) <= 1e-12


def test_concurrence_momentum_x_matches_the_wootters_spectrum():
    # Wootters: C = max(0, l1 - l2 - l3 - l4), l_i the square roots of the
    # eigenvalues of sqrt(rho) rho~ sqrt(rho) in decreasing order, with
    # rho~ = (sy x sy) rho* (sy x sy).  The square root turns the ~1e-16
    # absolute rounding of a vanishing eigenvalue into ~1e-8, hence 1e-7.
    sy = np.array([[0.0, -1j], [1j, 0.0]])
    yy = np.kron(sy, sy)
    rng = np.random.default_rng(42)
    for _ in range(400):
        m = random_x_state(rng)
        w, v = np.linalg.eigh(m)
        root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
        lam = np.linalg.eigvalsh(root @ yy @ m.conj() @ yy @ root)
        lam = np.sqrt(np.clip(lam, 0.0, None))[::-1]
        wootters = max(0.0, lam[0] - lam[1:].sum())
        assert abs(concurrence_momentum_x(rho_of(m, dims=(2, 2))) - wootters) <= 1e-7


def test_concurrence_momentum_x_rejects_non_x_shapes():
    leaky = np.eye(4) / 4.0 + np.zeros((4, 4))
    leaky[0, 1] = leaky[1, 0] = 0.2
    with pytest.raises(NotXShaped):
        concurrence_momentum_x(rho_of(leaky, dims=(2, 2)))


def test_concurrence_momentum_x_rejects_wrong_dims():
    with pytest.raises(DimensionMismatch):
        concurrence_momentum_x(rho_of(np.eye(2) / 2.0, dims=(2,)))


def test_measure_ranges_on_random_reductions():
    for _ in range(50):
        psi = random_state((2, 2, 2))
        rho = partial_trace(outer(psi), {int(RNG.integers(0, 3))})
        p, c, s = predictability_l(rho), coherence_hs(rho), linear_entropy(rho)
        assert -1e-12 <= p <= 0.5 + 1e-12
        assert -1e-12 <= c <= 0.5 + 1e-12
        assert -1e-12 <= s <= 0.5 + 1e-12
