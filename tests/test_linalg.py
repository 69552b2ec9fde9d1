"""Tests for state containers, tensor algebra, and the partial trace."""

import itertools
import math

import numpy as np
import pytest

from ccrsim import (
    CcrsimError,
    DensityMatrix,
    DimensionMismatch,
    NormNotPreserved,
    NotNormalized,
    BadSubsystemIndex,
    StateVector,
    kron,
    outer,
    partial_trace,
    purity,
)
from ccrsim.linalg import (
    I2,
    apply_controlled,
    check_density_matrices,
    reduce_factor,
)

from helpers import controlled_unitary_dense, kron_brute, partial_trace_loop

RNG = np.random.default_rng(20260815)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def random_state(dims):
    n = int(np.prod(dims))
    v = RNG.normal(size=n) + 1j * RNG.normal(size=n)
    return StateVector(tuple(dims), v / np.linalg.norm(v))


def random_matrix(n):
    return RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))


# ---------------------------------------------------------------------------
# kron
# ---------------------------------------------------------------------------


def test_kron_matches_element_definition():
    for _ in range(10):
        a = random_matrix(int(RNG.integers(1, 4)))
        b = random_matrix(int(RNG.integers(1, 4)))
        np.testing.assert_allclose(kron(a, b), kron_brute(a, b), atol=1e-15)


def test_kron_pauli_block_structure():
    out = kron(SIGMA_Z, SIGMA_X)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = expected[1, 0] = 1.0
    expected[2, 3] = expected[3, 2] = -1.0
    np.testing.assert_allclose(out, expected, atol=0)


def test_kron_associative():
    a, b, c = (random_matrix(2) for _ in range(3))
    np.testing.assert_allclose(
        kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12
    )


# ---------------------------------------------------------------------------
# StateVector / DensityMatrix validation
# ---------------------------------------------------------------------------


def test_state_vector_validates_length():
    with pytest.raises(DimensionMismatch):
        StateVector((2, 2), np.array([1.0, 0.0]))


def test_state_vector_validates_norm():
    with pytest.raises(NotNormalized):
        StateVector((2,), np.array([1.0, 1.0]))


def test_state_vector_validates_dims():
    with pytest.raises(DimensionMismatch):
        StateVector((2, 0), np.array([]))


def test_state_vector_norm_tolerance_boundary():
    # A 6e-11 norm offset sits inside the 1e-10 acceptance band.
    StateVector((2,), np.array([math.sqrt(1.0 + 6e-11), 0.0]))
    with pytest.raises(NotNormalized):
        StateVector((2,), np.array([math.sqrt(1.0 + 4e-10), 0.0]))


def test_density_matrix_validates_hermiticity_and_trace():
    with pytest.raises(Exception):
        DensityMatrix((2,), np.array([[0.5, 0.3], [0.1, 0.5]]))
    with pytest.raises(Exception):
        DensityMatrix((2,), np.array([[0.7, 0.0], [0.0, 0.5]]))


def test_density_matrix_accepts_maximally_mixed():
    rho = DensityMatrix((2,), np.eye(2) / 2.0)
    assert abs(purity(rho) - 0.5) < 1e-15


# ---------------------------------------------------------------------------
# outer
# ---------------------------------------------------------------------------


def test_outer_plus_state_projector():
    psi = StateVector((2,), np.array([1.0, 1.0]) / math.sqrt(2.0))
    rho = outer(psi)
    np.testing.assert_allclose(rho.matrix, np.full((2, 2), 0.5), atol=1e-15)
    assert abs(purity(rho) - 1.0) < 1e-14


def test_outer_is_positive_semidefinite():
    for _ in range(25):
        rho = outer(random_state((2, 3)))
        eigs = np.linalg.eigvalsh(rho.matrix)
        assert eigs.min() > -1e-12


# ---------------------------------------------------------------------------
# partial_trace
# ---------------------------------------------------------------------------


def test_partial_trace_bell_state():
    bell = StateVector((2, 2), np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))
    rho = outer(bell)
    for keep in ({0}, {1}):
        red = partial_trace(rho, keep)
        np.testing.assert_allclose(red.matrix, np.eye(2) / 2.0, atol=1e-15)


def test_partial_trace_ghz_pair():
    amps = np.zeros(8)
    amps[0] = amps[7] = 1.0 / math.sqrt(2.0)
    rho = outer(StateVector((2, 2, 2), amps))
    red = partial_trace(rho, {0, 2})
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    np.testing.assert_allclose(red.matrix, expected, atol=1e-15)


def test_partial_trace_product_state_factors():
    a = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    b = RNG.normal(size=3) + 1j * RNG.normal(size=3)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    psi = StateVector((2, 3), np.kron(a, b))
    rho = outer(psi)
    np.testing.assert_allclose(
        partial_trace(rho, {0}).matrix, np.outer(a, a.conj()), atol=1e-14
    )
    np.testing.assert_allclose(
        partial_trace(rho, {1}).matrix, np.outer(b, b.conj()), atol=1e-14
    )


def test_partial_trace_keep_all_is_exact_copy():
    rho = outer(random_state((2, 2)))
    red = partial_trace(rho, {0, 1})
    assert np.array_equal(red.matrix, rho.matrix)


def test_partial_trace_preserves_trace_and_hermiticity():
    rho = outer(random_state((2, 3, 2)))
    for r in range(1, 4):
        for keep in itertools.combinations(range(3), r):
            red = partial_trace(rho, set(keep))
            assert abs(np.trace(red.matrix) - 1.0) < 1e-12
            np.testing.assert_allclose(
                red.matrix, red.matrix.conj().T, atol=1e-12
            )


def test_partial_trace_rejects_bad_keep_sets():
    rho = outer(random_state((2, 2)))
    with pytest.raises(BadSubsystemIndex):
        partial_trace(rho, set())
    with pytest.raises(BadSubsystemIndex):
        partial_trace(rho, {2})
    with pytest.raises(BadSubsystemIndex):
        partial_trace(rho, {-1})


@pytest.mark.parametrize("n_factors", [2, 3, 4])
def test_partial_trace_matches_loop_oracle(n_factors):
    for _ in range(3):
        dims = tuple(int(d) for d in RNG.choice([2, 3, 4], size=n_factors))
        rho = outer(random_state(dims))
        for r in range(1, n_factors + 1):
            for keep in itertools.combinations(range(n_factors), r):
                red = partial_trace(rho, set(keep))
                oracle = partial_trace_loop(rho.matrix, dims, keep)
                assert red.dims == tuple(dims[i] for i in keep)
                if r == n_factors:
                    assert np.array_equal(red.matrix, oracle)
                else:
                    np.testing.assert_allclose(red.matrix, oracle, rtol=0, atol=1e-14)


# ---------------------------------------------------------------------------
# batched contraction and reduction
# ---------------------------------------------------------------------------


def random_unitary(n):
    q, r = np.linalg.qr(random_matrix(n))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_apply_controlled_matches_dense_controlled_unitary():
    for dims in ((2, 2), (3, 2, 2, 2), (2, 3, 4, 2)):
        psi = random_state(dims)
        stacks = [
            np.array([random_unitary(dims[2 * k + 1]) for _ in range(dims[2 * k])])
            for k in range(len(dims) // 2)
        ]
        out = apply_controlled(psi.amplitudes, dims, stacks)
        expected = controlled_unitary_dense(stacks) @ psi.amplitudes
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-14)


def test_apply_controlled_broadcasts_batch_axes():
    dims = (2, 2, 3, 2)
    psi = random_state(dims)
    stacks = [
        np.array([[[random_unitary(2) for _ in range(m)] for _ in range(4)] for _ in range(3)])
        for m in (2, 3)
    ]
    out = apply_controlled(psi.amplitudes, dims, stacks)
    assert out.shape == (3, 4, 24)
    for i in range(3):
        for j in range(4):
            one = apply_controlled(psi.amplitudes, dims, [s[i, j] for s in stacks])
            np.testing.assert_allclose(out[i, j], one, rtol=0, atol=1e-15)


def test_apply_controlled_rejects_norm_change_anywhere_in_batch():
    psi = random_state((2, 2))
    stack = np.array([[I2, I2], [I2, 1.01 * I2]])
    with pytest.raises(NormNotPreserved):
        apply_controlled(psi.amplitudes, (2, 2), [stack])
    with pytest.raises(NormNotPreserved):
        apply_controlled(psi.amplitudes, (2, 2), [np.array([I2, np.full((2, 2), np.nan)])])
    with pytest.raises(DimensionMismatch):
        apply_controlled(psi.amplitudes, (2, 2), [np.array([I2, I2, I2])])


def test_apply_rejects_shape_mismatch():
    psi = random_state((2, 2))
    cnot = np.array([I2, SIGMA_X])
    with pytest.raises(DimensionMismatch):
        apply_controlled(psi.amplitudes[:3], (2, 2), [cnot])
    with pytest.raises(DimensionMismatch):
        apply_controlled(psi.amplitudes, (2, 2), [cnot, cnot])
    with pytest.raises(DimensionMismatch):
        apply_controlled(random_state((2, 2, 2)).amplitudes, (2, 2, 2), [cnot])


def test_reduce_factor_matches_partial_trace_over_batches():
    dims = (2, 3, 4)
    states = [random_state(dims) for _ in range(6)]
    batch = np.array([s.amplitudes for s in states]).reshape(2, 3, 24)
    for k in range(3):
        reduced = reduce_factor(batch, dims, k)
        assert reduced.shape == (2, 3, dims[k], dims[k])
        for n, s in enumerate(states):
            expected = partial_trace(outer(s), {k}).matrix
            np.testing.assert_allclose(reduced[n // 3, n % 3], expected, rtol=0, atol=1e-14)


def test_check_density_matrices_flags_one_bad_matrix_in_a_stack():
    good = np.eye(2) / 2.0
    check_density_matrices(np.array([good, good]))
    with pytest.raises(ValueError, match="Hermitian"):
        check_density_matrices(np.array([good, good + np.array([[0, 1e-6], [0, 0]])]))
    with pytest.raises(ValueError, match="trace"):
        check_density_matrices(np.array([good, 1.1 * good]))
    with pytest.raises(ValueError, match="purity"):
        check_density_matrices(np.array([good, np.array([[1.5, 0], [0, -0.5]])]))


def test_bad_arrays_raise_a_package_error():
    with pytest.raises(CcrsimError, match="NaN"):
        StateVector((2,), [np.nan, 1.0])
    with pytest.raises(CcrsimError, match="Hermitian"):
        DensityMatrix((2,), [[0.5, 0.1], [0.0, 0.5]])


def test_purity_values():
    pure = outer(random_state((2, 2)))
    assert abs(purity(pure) - 1.0) < 1e-12
    mixed = DensityMatrix((2,), np.eye(2) / 2.0)
    assert abs(purity(mixed) - 0.5) < 1e-15
