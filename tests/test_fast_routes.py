"""The batched and vectorised routes against their loop or per-cell references.

* ``reduce_factor`` for every keep-set against the loop partial trace, and
  bit for bit against the single-factor einsum it generalises;
* ``linear_entropy_multiindex`` against its loop form in ``helpers``;
* the two xi2 check suites against per-cell boosts and reductions;
* ``physical_stacks`` and ``apply_boost`` against the per-mode stack build,
  and the six random-draw check suites against their per-draw forms in
  ``helpers``;
* the array closed form ``_wigner_angles_axes`` against mpmath.
"""

import itertools
import math

import numpy as np
import pytest

from ccrsim import (
    BadSubsystemIndex,
    BoostSpec,
    DensityMatrix,
    DimensionMismatch,
    FourMomentum,
    ScenarioId,
    StateVector,
    apply_boost,
    boost_by_wigner_angle,
    boost_direction,
    concurrence_momentum_x,
    linear_entropy_multiindex,
    make_product_state,
    make_scenario,
    reduced_density_matrix,
)
from ccrsim import checks, linalg, measures, sweep
from ccrsim.boost import physical_stacks
from ccrsim.linalg import reduce_factor
from ccrsim.relativity import _wigner_angles_axes, su2_rotations

import helpers

MIXED_DIMS = ((2, 2), (2, 2, 2), (2, 3, 4), (2, 2, 2, 2), (3, 2, 4, 2))


def random_amplitudes(rng, dims, batch=()):
    shape = tuple(batch) + (math.prod(dims),)
    v = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def keep_sets(n):
    for r in range(1, n + 1):
        yield from itertools.combinations(range(n), r)


# ---------------------------------------------------------------------------
# keep-set reduction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dims", MIXED_DIMS)
@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
def test_reduce_factor_matches_loop_partial_trace_for_every_keep_set(dims, batch):
    rng = np.random.default_rng(20261019)
    amps = random_amplitudes(rng, dims, batch)
    for keep in keep_sets(len(dims)):
        reduced = reduce_factor(amps, dims, keep)
        d = math.prod(dims[i] for i in keep)
        assert reduced.shape == tuple(batch) + (d, d)
        for index in np.ndindex(*batch):
            v = amps[index]
            oracle = helpers.partial_trace_loop(np.outer(v, v.conj()), dims, keep)
            np.testing.assert_allclose(reduced[index], oracle, rtol=0, atol=1e-14)


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2, 2), (3, 2, 4, 2), (2,) * 6])
@pytest.mark.parametrize("batch", [(), (4,), (2, 3)])
def test_single_factor_reduction_is_bit_identical_to_the_three_axis_einsum(dims, batch):
    rng = np.random.default_rng(7)
    amps = random_amplitudes(rng, dims, batch)
    for k in range(len(dims)):
        a = amps.reshape(amps.shape[:-1] + (math.prod(dims[:k]), dims[k], -1))
        expected = np.einsum("...xiy,...xjy->...ij", a, a.conj())
        assert np.array_equal(reduce_factor(amps, dims, k), expected)
        assert np.array_equal(reduce_factor(amps, dims, {k}), expected)


def test_reduced_density_matrix_refuses_bad_keep_sets():
    state = make_scenario(ScenarioId.XI2)
    for bad in (set(), [0, 0], [1, 2, 2], {4}, {-1}, {0, 5}):
        with pytest.raises(BadSubsystemIndex):
            reduced_density_matrix(state, bad)


def test_reduced_density_matrix_matches_dense_route_for_every_keep_set():
    state = make_scenario(ScenarioId.UPSILON)
    boosted = boost_by_wigner_angle(state, 0.7, boost_direction(0.4))
    dense = linalg.outer(boosted.amplitudes)
    for keep in keep_sets(4):
        rho = reduced_density_matrix(boosted, set(keep))
        expected = linalg.partial_trace(dense, set(keep))
        assert rho.dims == expected.dims
        np.testing.assert_allclose(rho.matrix, expected.matrix, rtol=0, atol=1e-15)


def test_each_reduced_stack_is_validated_once(monkeypatch):
    calls = []
    check = linalg.check_density_matrices

    def counted(m):
        calls.append(m.shape)
        check(m)

    monkeypatch.setattr(linalg, "check_density_matrices", counted)

    def shapes(run, *args):
        calls.clear()
        run(*args)
        return list(calls)

    upsilon = make_scenario(ScenarioId.UPSILON)
    assert shapes(measures.ccr, upsilon, 1) == [(2, 2)]
    amps = random_amplitudes(np.random.default_rng(2), (2, 3, 2), (5,))
    assert shapes(measures.ccr_arrays, amps, (2, 3, 2), 1) == [(5, 3, 3)]

    # Three blocks of 2 x 3 cells, each reduced onto its four subsystems.
    monkeypatch.setattr(sweep, "BLOCK_AMPLITUDES", 2 * 3 * 16)
    config = sweep.SweepConfig(ScenarioId.UPSILON, (0.0, 0.2, 0.4, 0.6, 0.8, 1.0), (0.1, 0.2, 0.3))
    calls.clear()
    blocks = 0
    for _ in sweep.run_sweep(config):
        assert calls == [(2, 3, 2, 2)] * 4
        calls.clear()
        blocks += 1
    assert blocks == 3

    rng = np.random.default_rng(3)
    assert shapes(checks._check_single_momentum_separability, rng) == [(500, 2, 2)]
    assert shapes(checks._check_entropy_multiindex, rng) == [(100, 2, 2)] * 7
    assert shapes(checks._check_xi2_momentum_marginal) == [(5, 17, 2, 2)] * 2
    assert shapes(checks._check_xi2_concurrence_monotonic) == [(1, 65, 4, 4)]
    assert shapes(checks._check_scenario_preboost_marginals) == [(2, 2)] * 8


# ---------------------------------------------------------------------------
# multi-index entropy
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dims", MIXED_DIMS)
def test_multiindex_entropy_matches_its_loop_form(dims):
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = random_amplitudes(rng, dims)
        psi = StateVector(dims, v)
        for sub in range(len(dims)):
            loop = helpers.linear_entropy_multiindex_loop(v, dims, sub)
            assert abs(linear_entropy_multiindex(psi, sub) - loop) <= 1e-14


def test_multiindex_entropy_uses_no_reduction(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the multi-index route must not reduce")

    for name in ("reduce_factor", "partial_trace", "reduced_matrices", "outer"):
        for module in (measures, linalg):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    psi = StateVector((2, 3, 2), random_amplitudes(np.random.default_rng(3), (2, 3, 2)))
    assert 0.0 <= linear_entropy_multiindex(psi, 1) <= 1.0


# ---------------------------------------------------------------------------
# xi2 suites on the batched boost route
# ---------------------------------------------------------------------------


def per_cell_reductions(thetas, phis, keep):
    base = make_scenario(ScenarioId.XI2)
    return np.array(
        [
            [
                reduced_density_matrix(
                    boost_by_wigner_angle(base, phi, boost_direction(theta)), keep
                ).matrix
                for phi in phis
            ]
            for theta in thetas
        ]
    )


@pytest.mark.parametrize(
    "thetas, phis, keep",
    [
        (checks.GRID_THETA, checks.GRID_PHI[::4], {0}),
        (checks.GRID_THETA, checks.GRID_PHI[::4], {2}),
        ((math.pi / 2,), checks.GRID_PHI, {0, 2}),
    ],
)
def test_xi2_batched_reductions_match_per_cell_route(thetas, phis, keep):
    batched = checks._xi2_reductions(thetas, phis, keep)
    per_cell = per_cell_reductions(thetas, phis, keep)
    assert batched.shape == per_cell.shape
    assert float(np.max(np.abs(batched - per_cell))) <= 1e-15


def test_xi2_suites_report_the_per_cell_deviations():
    half = np.eye(2) / 2.0
    grid = (checks.GRID_THETA, checks.GRID_PHI[::4])
    marginal = max(float(np.max(np.abs(per_cell_reductions(*grid, {k}) - half))) for k in (0, 2))
    suite = checks._check_xi2_momentum_marginal()
    assert suite.passed and abs(suite.max_deviation - marginal) <= 1e-15

    pair = per_cell_reductions((math.pi / 2,), checks.GRID_PHI, {0, 2})[0]
    values = [concurrence_momentum_x(DensityMatrix((2, 2), m)) for m in pair]
    rises = max(0.0, max(b - a for a, b in zip(values, values[1:])))
    suite = checks._check_xi2_concurrence_monotonic()
    assert suite.passed and abs(suite.max_deviation - rises) <= 1e-15


# ---------------------------------------------------------------------------
# physical boosts: one stack builder, and the batched check suites
# ---------------------------------------------------------------------------


def random_mode_momentum(rng, direction):
    """A mode momentum that is generic, near-collinear with ``direction`` or at rest."""
    kind = rng.integers(0, 3)
    if kind == 0:
        p_vec = rng.normal(size=3) * rng.uniform(0.01, 3.0)
    elif kind == 1:
        p_vec = direction * rng.uniform(-3.0, 3.0) + rng.normal(size=3) * 1e-10
    else:
        p_vec = np.zeros(3)
    return FourMomentum.from_spatial(rng.uniform(0.5, 2.0), p_vec)


def test_physical_stacks_equal_the_per_mode_build_bit_for_bit():
    rng = np.random.default_rng(20261020)
    for n_boosts, n_modes in ((1, 1), (7, 3), (40, 2)):
        # Every fifth boost has rapidity 0, where the closed form returns the identity.
        boosts = [
            BoostSpec(0.0 if n % 5 == 0 else rng.uniform(0.0, 50.0), checks._random_unit3(rng))
            for n in range(n_boosts)
        ]
        momenta = [
            [random_mode_momentum(rng, boost.direction) for _ in range(n_modes)]
            for boost in boosts
        ]
        masses = [[p.mass for p in row] for row in momenta]
        stacks = physical_stacks(boosts, masses, [[p.spatial for p in row] for row in momenta])
        assert stacks.shape == (n_boosts, n_modes, 2, 2)
        for b, (boost, row) in enumerate(zip(boosts, momenta)):
            for m, p in enumerate(row):
                one = su2_rotations(
                    *_wigner_angles_axes(boost.rapidity, boost.direction, p.mass, p.spatial)
                )
                assert np.array_equal(stacks[b, m], one)


def test_physical_stacks_refuse_mismatched_batches():
    boost = BoostSpec(1.0, [1.0, 0.0, 0.0])
    p = [0.0, 1.0, 0.0]
    for boosts, masses, momenta in (
        ([boost], [], []),
        ([boost, boost], [[1.0]], [[p]]),
        ([boost], [[]], [[]]),
        ([boost], [[1.0, 1.0]], [[p]]),
        ([boost], [1.0], [p]),
    ):
        with pytest.raises(DimensionMismatch):
            physical_stacks(boosts, masses, momenta)


# Mode counts per particle: the boost-large shapes (3x2, 2x4, 4x2) and one
# state whose particles differ in mode count.
@pytest.mark.parametrize("mode_counts", [(2, 2, 2), (4, 4), (2, 2, 2, 2), (1, 3, 2, 3)])
def test_apply_boost_amplitudes_equal_the_per_particle_loop(mode_counts):
    rng = np.random.default_rng(list(mode_counts))
    for _ in range(5):
        momenta, spins = [], []
        for n_modes in mode_counts:
            mass = rng.uniform(0.5, 2.0)
            modes = []
            for m, a in enumerate(random_amplitudes(rng, (n_modes,))):
                p_vec = rng.uniform(0.1, 3.0) * checks._random_unit3(rng)
                modes.append((f"k{m}", FourMomentum.from_spatial(mass, p_vec), complex(a)))
            momenta.append(modes)
            spins.append(tuple(complex(a) for a in random_amplitudes(rng, (2,))))
        state = make_product_state(momenta, spins)
        boost = BoostSpec(rng.uniform(0.0, 5.0), checks._random_unit3(rng))
        assert np.array_equal(apply_boost(state, boost).vector, helpers.apply_boost_loop(state, boost))


@pytest.mark.parametrize(
    "suite, loop",
    [
        (checks._check_boost_purity, helpers.boost_purity_loop),
        (checks._check_single_momentum_separability, helpers.single_momentum_separability_loop),
        (checks._check_entropy_multiindex, helpers.entropy_multiindex_loop),
        (checks._check_wigner_su2, helpers.wigner_su2_loop),
        (checks._check_collinear_identity, helpers.collinear_identity_loop),
        (checks._check_wigner_oracle_agreement, helpers.wigner_oracle_agreement_loop),
    ],
)
@pytest.mark.parametrize("seed", [0, 7, 11, 1905, 20261020])
def test_batched_check_suites_match_their_per_draw_forms(suite, loop, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    result = suite(rng)
    reference = loop(ref_rng)
    assert result.passed
    assert abs(result.max_deviation - reference) <= 1e-15
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# ---------------------------------------------------------------------------
# the array closed form against mpmath
# ---------------------------------------------------------------------------


def test_wigner_angles_axes_match_mpmath_angle_and_matrix():
    pytest.importorskip("mpmath")
    rng = np.random.default_rng(2007)
    boosts, momenta = [], []
    for n in range(3000):
        e = rng.normal(size=3)
        e /= np.linalg.norm(e)
        if n % 5 == 0:  # near-collinear and near-anti-collinear momenta
            p_vec = e * rng.uniform(-3.0, 3.0) + rng.normal(size=3) * 10 ** rng.uniform(-12, -1)
        else:
            p_vec = rng.normal(size=3) * rng.uniform(0.01, 3.0)
        boosts.append(BoostSpec(rng.uniform(0.0, 50.0), e))
        momenta.append(FourMomentum.from_spatial(rng.uniform(0.5, 2.0), p_vec))
    angles, axes = _wigner_angles_axes(
        np.array([b.rapidity for b in boosts]),
        np.array([b.direction for b in boosts]),
        np.array([p.mass for p in momenta]),
        np.array([p.spatial for p in momenta]),
    )
    matrices = su2_rotations(angles, axes)
    for boost, p, angle, matrix in zip(boosts, momenta, angles, matrices):
        assert abs(angle - helpers.wigner_angle_mp(boost, p)) <= 1e-12
        assert np.max(np.abs(matrix - helpers.wigner_matrix_mp(boost, p))) <= 1e-12
