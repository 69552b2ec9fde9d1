"""Acceptance suite: one test per numbered criterion.

Each test exercises the public API end to end at the stated tolerance; the
terminal summary (see conftest) prints one PASS/FAIL line per criterion.
"""

import math
import time

import numpy as np
import pytest

from ccrsim import (
    BoostSpec,
    FourMomentum,
    MOMENTUM,
    SPIN,
    ScenarioId,
    apply_boost,
    boost_by_wigner_angle,
    boost_direction,
    ccr,
    coherence_hs,
    concurrence_momentum_x,
    linear_entropy,
    linear_entropy_multiindex,
    make_product_state,
    make_scenario,
    outer,
    partial_trace,
    purity,
    reduced_density_matrix,
    rotation_angle,
    wigner_angle,
    wigner_oracle,
    wigner_rotation,
)
from ccrsim import cli
from ccrsim.checks import _random_momentum, _random_spin_pair, _random_state, _random_unit3
import helpers

THETA_GRID = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
PHI_GRID = tuple(float(x) for x in np.linspace(0.0, math.pi / 2, 65))
SQ2 = math.sqrt(2.0)


def test_criterion_1_ccr_identity_on_full_grid():
    """P + C + S = 1/2 pre- and post-boost on the whole scenario grid, < 5 s."""
    start = time.perf_counter()
    worst = 0.0
    for scenario in ScenarioId:
        state = make_scenario(scenario)
        subsystems = [idx for _, _, idx in state.single_dof_subsystems()]
        for theta in THETA_GRID:
            direction = boost_direction(theta)
            for phi in PHI_GRID:
                boosted = boost_by_wigner_angle(state, phi, direction)
                for idx in subsystems:
                    worst = max(worst, abs(ccr(state, idx).residual))
                    worst = max(worst, abs(ccr(boosted, idx).residual))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10, f"worst CCR residual {worst!r}"
    assert elapsed < 5.0, f"grid took {elapsed:.2f}s"


def test_criterion_2_psi_term_shift_endpoints():
    """Boosting psi at theta = pi/2 trades spin P for S: (1/2,0,0) -> (0,0,1/2)."""
    state = make_scenario(ScenarioId.PSI)
    spin = state.subsystem_index(0, SPIN)
    direction = boost_direction(math.pi / 2)
    at0 = ccr(boost_by_wigner_angle(state, 0.0, direction), spin)
    at90 = ccr(boost_by_wigner_angle(state, math.pi / 2, direction), spin)
    assert abs(at0.predictability - 0.5) < 1e-10
    assert abs(at0.entropy) < 1e-10
    assert abs(at90.predictability) < 1e-10
    assert abs(at90.entropy - 0.5) < 1e-10


def test_criterion_3_single_momentum_products_stay_separable():
    """500 random one-momentum product states keep a pure spin marginal."""
    rng = np.random.default_rng(1905)
    worst = 0.0
    for _ in range(500):
        state = make_product_state(
            momenta=[[("k", _random_momentum(rng), 1.0)]], spins=[_random_spin_pair(rng)]
        )
        boost = BoostSpec(float(rng.uniform(0.0, 5.0)), _random_unit3(rng))
        boosted = apply_boost(state, boost)
        worst = max(worst, linear_entropy(reduced_density_matrix(boosted, {1})))
    assert worst < 1e-12, f"worst spin linear entropy {worst!r}"


def test_criterion_4_wigner_routes_agree_perpendicular():
    """500 perpendicular draws: oracle vs closed form, rest-momentum fixing, SU(2)."""
    rng = np.random.default_rng(1905)
    worst_angle = worst_fix = worst_su2 = 0.0
    for _ in range(500):
        p_hat = _random_unit3(rng)
        raw = _random_unit3(rng)
        raw -= (raw @ p_hat) * p_hat
        while np.linalg.norm(raw) < 1e-6:
            raw = _random_unit3(rng)
            raw -= (raw @ p_hat) * p_hat
        e_hat = raw / np.linalg.norm(raw)
        omega = float(rng.uniform(0.0, 5.0))
        alpha = float(rng.uniform(0.0, 5.0))
        mass = float(rng.uniform(0.5, 2.0))
        p = FourMomentum.from_spatial(mass, mass * math.sinh(alpha) * p_hat)
        boost = BoostSpec(omega, e_hat)

        w4 = wigner_oracle(boost, p)
        worst_angle = max(
            worst_angle, abs(rotation_angle(w4) - wigner_angle(omega, alpha))
        )
        rest = np.array([mass, 0.0, 0.0, 0.0])
        worst_fix = max(worst_fix, float(np.max(np.abs(w4 @ rest - rest))))

        d = wigner_rotation(boost, p).matrix
        worst_su2 = max(worst_su2, float(np.max(np.abs(d.conj().T @ d - np.eye(2)))))
        worst_su2 = max(worst_su2, abs(np.linalg.det(d) - 1.0))
    assert worst_angle < 1e-9, f"worst angle gap {worst_angle!r}"
    assert worst_fix < 1e-9, f"worst rest-momentum drift {worst_fix!r}"
    assert worst_su2 < 1e-12, f"worst SU(2) defect {worst_su2!r}"


def test_criterion_5_boosted_reductions_match_closed_forms():
    """Reduced density matrices equal the hand-derived forms at random angles."""
    rng = np.random.default_rng(1905)

    def reduced(state, *pairs):
        return reduced_density_matrix(
            state, {state.subsystem_index(p, d) for p, d in pairs}
        ).matrix

    for _ in range(20):
        theta = float(rng.uniform(0.0, math.pi / 2))
        phi = float(rng.uniform(0.0, math.pi / 2))

        psi = boost_by_wigner_angle(
            make_scenario(ScenarioId.PSI), phi, boost_direction(theta)
        )
        np.testing.assert_allclose(
            reduced(psi, (0, SPIN)), helpers.psi_rho_spin(theta, phi), atol=1e-12
        )
        np.testing.assert_allclose(
            reduced(psi, (0, MOMENTUM)), helpers.psi_rho_momentum(theta, phi), atol=1e-12
        )

        xi = boost_by_wigner_angle(
            make_scenario(ScenarioId.XI), phi, boost_direction(theta)
        )
        np.testing.assert_allclose(
            reduced(xi, (0, SPIN)), helpers.xi_rho_spin(theta, phi), atol=1e-12
        )
        np.testing.assert_allclose(
            reduced(xi, (0, MOMENTUM)), helpers.xi_rho_momentum(theta, phi), atol=1e-12
        )

        phs = boost_by_wigner_angle(
            make_scenario(ScenarioId.PHI), phi, boost_direction(theta)
        )
        np.testing.assert_allclose(
            reduced(phs, (0, SPIN)), helpers.phi_rho_spin(theta, phi), atol=1e-12
        )
        np.testing.assert_allclose(
            reduced(phs, (0, MOMENTUM)), helpers.phi_rho_momentum(theta, phi), atol=1e-12
        )

        xi2 = boost_by_wigner_angle(
            make_scenario(ScenarioId.XI2), phi, boost_direction(theta)
        )
        np.testing.assert_allclose(
            reduced(xi2, (0, MOMENTUM), (1, MOMENTUM)),
            helpers.xi2_rho_momentum_pair(theta, phi),
            atol=1e-12,
        )
        for particle in (0, 1):
            np.testing.assert_allclose(
                reduced(xi2, (particle, MOMENTUM)), np.eye(2) / 2.0, atol=1e-12
            )

        ups = boost_by_wigner_angle(
            make_scenario(ScenarioId.UPSILON), phi, boost_direction(math.pi / 2)
        )
        for particle in (0, 1):
            np.testing.assert_allclose(
                reduced(ups, (particle, SPIN)), helpers.upsilon_rho_spin(phi), atol=1e-12
            )
            np.testing.assert_allclose(
                reduced(ups, (particle, MOMENTUM)), np.eye(2) / 2.0, atol=1e-12
            )
        np.testing.assert_allclose(
            reduced(ups, (0, MOMENTUM), (1, MOMENTUM)),
            helpers.upsilon_rho_momentum_pair(phi),
            atol=1e-12,
        )


def test_criterion_6_separability_limits():
    """The documented right-angle boosts disentangle the expected pairs."""
    right = boost_direction(math.pi / 2)

    # xi at theta = phi = pi/2 becomes (1/2)(|+p> + i|-p>)(|0> - i|1>).
    xi = boost_by_wigner_angle(make_scenario(ScenarioId.XI), math.pi / 2, right)
    s_l = linear_entropy(reduced_density_matrix(xi, {0}))
    assert s_l < 1e-12, f"xi linear entropy {s_l!r}"
    for idx in (0, 1):
        c = ccr(xi, idx).coherence
        assert abs(c - 0.5) < 1e-12, f"xi subsystem {idx} coherence {c!r}"
    target = np.kron(np.array([1.0, 1j]) / SQ2, np.array([1.0, -1j]) / SQ2)
    assert helpers.same_up_to_global_phase(xi.vector, target, tol=1e-12)

    # phi at theta = pi/2 factorizes for every phi; at phi = pi/2 the
    # momentum side is (A, A*)/sqrt2 with A = (1 - i)/sqrt2.
    phs = boost_by_wigner_angle(make_scenario(ScenarioId.PHI), math.pi / 2, right)
    s_l = linear_entropy(reduced_density_matrix(phs, {0}))
    assert s_l < 1e-12, f"phi linear entropy {s_l!r}"
    a = (1.0 - 1j) / SQ2
    target = np.kron(
        np.array([a, np.conj(a)]) / SQ2, np.array([1.0, 1.0]) / SQ2
    )
    assert helpers.same_up_to_global_phase(phs.vector, target, tol=1e-12)

    # upsilon at theta = phi = pi/2: the momentum pair decouples from the
    # spin pair, (1/sqrt2)(|+-> + |-+>) x (1/2)(i,1,1,-i).
    ups = boost_by_wigner_angle(make_scenario(ScenarioId.UPSILON), math.pi / 2, right)
    rho_pp = reduced_density_matrix(ups, {0, 2})
    s_l = linear_entropy(rho_pp)
    assert s_l < 1e-12, f"upsilon momentum-pair linear entropy {s_l!r}"
    mom_pair = np.array([0.0, 1.0, 1.0, 0.0]) / SQ2
    spin_pair = 0.5 * np.array([1j, 1.0, 1.0, -1j])
    target = np.zeros(16, dtype=complex)
    for pa in range(2):
        for sa in range(2):
            for pb in range(2):
                for sb in range(2):
                    target[((pa * 2 + sa) * 2 + pb) * 2 + sb] = (
                        mom_pair[pa * 2 + pb] * spin_pair[sa * 2 + sb]
                    )
    assert helpers.same_up_to_global_phase(ups.vector, target, tol=1e-12)


def test_criterion_7_multiindex_entropy_equals_reduced_route():
    """Sum over paired multi-indices reproduces 1 - Tr(rho_A^2) exactly."""
    rng = np.random.default_rng(1905)
    worst = 0.0
    for dims in ((2, 2, 2), (2, 2, 2, 2)):
        for _ in range(100):
            psi = _random_state(rng, dims)
            for k in range(len(dims)):
                direct = linear_entropy_multiindex(psi, k)
                reduced = 1.0 - purity(partial_trace(outer(psi), {k}))
                worst = max(worst, abs(direct - reduced))
    assert worst < 1e-12, f"worst route gap {worst!r}"


def test_criterion_8_entanglement_monotonicity():
    """xi2 momentum concurrence never rises; upsilon spin coherence never falls."""
    right = boost_direction(math.pi / 2)

    xi2 = make_scenario(ScenarioId.XI2)
    concurrences = []
    for phi in PHI_GRID:
        out = boost_by_wigner_angle(xi2, phi, right)
        rho = reduced_density_matrix(out, {0, 2})
        concurrences.append(concurrence_momentum_x(rho))
    rises = [b - a for a, b in zip(concurrences, concurrences[1:])]
    assert max(rises) <= 1e-12, f"concurrence increased by {max(rises)!r}"
    assert abs(concurrences[0] - 1.0) < 1e-12

    ups = make_scenario(ScenarioId.UPSILON)
    coherences = []
    for phi in PHI_GRID:
        out = boost_by_wigner_angle(ups, phi, right)
        coherences.append(coherence_hs(reduced_density_matrix(out, {1})))
    drops = [a - b for a, b in zip(coherences, coherences[1:])]
    assert max(drops) <= 1e-12, f"coherence dropped by {max(drops)!r}"
    assert abs(coherences[-1] - 0.5) < 1e-12


def test_criterion_9_sweep_is_deterministic(tmp_path):
    """Two sweep runs with one config produce byte-identical CSV files."""
    args = ["sweep", "--id", "xi2", "--theta", "0,0.785398163397,1.570796326795"]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    b1, b2 = first.read_bytes(), second.read_bytes()
    assert b1 == b2
    assert len(b1.splitlines()) == 1 + 3 * 65 * 4
