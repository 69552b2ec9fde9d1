"""Dense complex linear algebra on tensor-product Hilbert spaces.

All data lives in plain numpy arrays (complex128, row-major).  A state over
factors ``dims`` is a flat amplitude vector of length prod(dims); the
routines that act on amplitudes view it as a tensor with one axis per factor
and work by reshape and einsum, so they cost little Python per call whatever
the total dimension (the benchmarks run states of up to 256 amplitudes).

``apply_controlled`` and ``reduce_factor`` also accept leading batch
axes: a whole grid of states, or one state under a grid of operators, goes
through one call.  ``reduced_matrices`` is the one route from pure-state
amplitudes to validated reduced matrices; ``outer`` + ``partial_trace`` is the
dense route, and the loop form of the partial trace is the oracle in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import (
    BadSubsystemIndex,
    DimensionMismatch,
    GlobalStateNotPure,
    InvalidArray,
    NormNotPreserved,
    NotNormalized,
)

# Norm tolerance for state vectors; tighter tolerance for matrix identities;
# |norm^2 - 1| beyond PURITY_TOL means a global state cannot be treated as pure.
STATE_NORM_TOL = 1e-10
MATRIX_TOL = 1e-12
PURITY_TOL = 1e-10

I2 = np.eye(2, dtype=complex)


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a)
    out.setflags(write=False)
    return out


def _check_finite(a: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(a)):
        raise InvalidArray(f"{what} contains NaN or Inf entries")


@dataclass(frozen=True)
class StateVector:
    """Unit-norm amplitudes over a tensor product of finite factors.

    ``dims`` lists the factor dimensions in order; ``amplitudes`` is the flat
    row-major vector of length prod(dims).  Construction validates the shape
    and that the 2-norm equals 1 within ``STATE_NORM_TOL``.
    """

    dims: tuple[int, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise DimensionMismatch(f"factor dimensions must be >= 1, got {dims}")
        amps = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != math.prod(dims):
            raise DimensionMismatch(
                f"amplitude vector has length {amps.size}, dims {dims} need {math.prod(dims)}"
            )
        _check_finite(amps, "state vector")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise NotNormalized(f"state norm is {norm!r}, not 1 within {STATE_NORM_TOL}")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "amplitudes", _freeze(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace matrix over a tensor product of finite factors.

    Construction validates the matrix with ``check_density_matrices``.
    """

    dims: tuple[int, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 1 for d in dims):
            raise DimensionMismatch(f"factor dimensions must be >= 1, got {dims}")
        d = math.prod(dims)
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (d, d):
            raise DimensionMismatch(f"matrix shape {m.shape} does not match dims {dims}")
        check_density_matrices(m)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "matrix", _freeze(m))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the row-major block convention."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def outer(psi: StateVector) -> DensityMatrix:
    """Rank-1 projector |psi><psi| as a density matrix."""
    v = psi.amplitudes
    return DensityMatrix(psi.dims, np.outer(v, v.conj()) / float(np.real(np.vdot(v, v))))


def _trace_labels(keep: int | Iterable[int], dims: tuple[int, ...]) -> tuple[tuple, list, list]:
    # Kept dims of a keep-set over factors dims (a bare index is a one-factor
    # set), einsum column labels (n + i if kept, else row label i), output labels.
    n = len(dims)
    keep_list = [keep] if isinstance(keep, (int, np.integer)) else sorted(keep)
    if not keep_list:
        raise BadSubsystemIndex("keep-set is empty")
    if len(keep_list) != len(set(keep_list)):
        raise BadSubsystemIndex(f"keep-set {keep_list} has repeated indices")
    if keep_list[0] < 0 or keep_list[-1] >= n:
        raise BadSubsystemIndex(f"keep-set {keep_list} out of range for {n} factors")
    cols = [n + i if i in keep_list else i for i in range(n)]
    return tuple(dims[i] for i in keep_list), cols, keep_list + [n + i for i in keep_list]


def partial_trace(rho: DensityMatrix, keep: set[int] | frozenset[int]) -> DensityMatrix:
    """Trace out every factor not in ``keep``, preserving factor order.

    The matrix is viewed as a tensor with one row and one column axis per
    factor; each traced factor shares its label between the two, so

        out[I, J] = sum_T rho[(I, T), (J, T)]

    is a single einsum.  Keeping every factor sums nothing and returns an
    exact copy.
    """
    n = len(rho.dims)
    kept_dims, cols, out_axes = _trace_labels(keep, rho.dims)
    tensor = rho.matrix.reshape(rho.dims + rho.dims)
    d_out = math.prod(kept_dims)
    out = np.einsum(tensor, list(range(n)) + cols, out_axes).reshape(d_out, d_out)
    return DensityMatrix(kept_dims, out)


def apply_controlled(
    amplitudes: np.ndarray, dims: tuple[int, ...], stacks: list[np.ndarray]
) -> np.ndarray:
    """Apply a control-indexed unitary to each (control, target) factor pair.

    Factors pair up as (2k, 2k + 1).  ``stacks[k]`` has shape
    ``(..., dims[2k], dims[2k + 1], dims[2k + 1])``: entry ``[..., c]`` is the
    unitary that acts on target factor 2k + 1 when control factor 2k is in
    basis state c, which is a block-diagonal controlled unitary applied
    without building it.  ``amplitudes`` has shape ``(..., prod(dims))``; the
    leading batch axes of the state and of every stack broadcast together.

    Raises NormNotPreserved if any output norm deviates from 1 beyond
    ``STATE_NORM_TOL``; otherwise the tiny float drift is renormalised away.
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    n = len(dims)
    if n != 2 * len(stacks) or amplitudes.shape[-1:] != (math.prod(dims),):
        raise DimensionMismatch(
            f"{len(stacks)} control pairs and amplitudes {amplitudes.shape} "
            f"do not fit factor dims {dims}"
        )
    psi = amplitudes.reshape(amplitudes.shape[:-1] + tuple(dims))
    axes = list(range(n))
    for k, stack in enumerate(stacks):
        control, target = 2 * k, 2 * k + 1
        if stack.shape[-3:] != (dims[control], dims[target], dims[target]):
            raise DimensionMismatch(
                f"stack {k} has shape {stack.shape}, factor pair needs "
                f"(..., {dims[control]}, {dims[target]}, {dims[target]})"
            )
        out_axes = axes[:target] + [n] + axes[target + 1 :]
        psi = np.einsum(stack, [..., control, n, target], psi, [..., *axes], [..., *out_axes])
    out = psi.reshape(psi.shape[: psi.ndim - n] + (-1,))
    norm = np.sqrt(_norm_sq(out))
    worst = float(np.abs(norm - 1.0).max())
    if not worst <= STATE_NORM_TOL:  # also catches NaN
        raise NormNotPreserved(f"output norm deviates from 1 by {worst!r}, beyond {STATE_NORM_TOL}")
    return out / norm[..., None]


def reduce_factor(
    amplitudes: np.ndarray, dims: tuple[int, ...], keep: int | Iterable[int]
) -> np.ndarray:
    """Reduced matrices of the kept factors of pure states, straight from amplitudes.

    ``amplitudes`` has shape ``(..., prod(dims))``; ``keep`` is a factor index
    or a keep-set (BadSubsystemIndex if empty, repeated or out of range).
    rho[I, J] = sum_T a[I, T] conj(a[J, T]) is one einsum on the amplitude
    tensor, so no projector is formed.  The result, ``(..., d, d)`` over the
    kept factors in order, is not divided by the squared norm.
    """
    amplitudes = np.asarray(amplitudes, dtype=complex)
    n = len(dims)
    kept_dims, cols, out_axes = _trace_labels(keep, dims)
    a = amplitudes.reshape(amplitudes.shape[:-1] + tuple(dims))
    out = np.einsum(a, [..., *range(n)], a.conj(), [..., *cols], [..., *out_axes])
    d = math.prod(kept_dims)
    return out.reshape(amplitudes.shape[:-1] + (d, d))


def reduced_matrices(
    amplitudes: np.ndarray, dims: tuple[int, ...], keep: int | Iterable[int]
) -> np.ndarray:
    """``(..., d, d)`` reduced matrices of pure states ``(..., prod(dims))`` onto ``keep``.

    Raises GlobalStateNotPure when a squared norm is off 1 by more than
    ``PURITY_TOL``; within that band ``reduce_factor`` is divided by it, and
    the stack is validated once (``check_density_matrices``).
    """
    norm_sq = _pure_norm_sq(amplitudes)
    rho = reduce_factor(amplitudes, dims, keep) / norm_sq[..., None, None]
    check_density_matrices(rho)
    return rho


def _norm_sq(amplitudes: np.ndarray) -> np.ndarray:
    # Squared 2-norm over the last axis, kept real.
    return np.sum(amplitudes.real**2 + amplitudes.imag**2, axis=-1)


def _pure_norm_sq(amplitudes: np.ndarray) -> np.ndarray:
    # Squared norms of pure states, within the PURITY_TOL band of every route.
    norm_sq = _norm_sq(amplitudes)
    worst = float(np.abs(norm_sq - 1.0).max())
    if not worst <= PURITY_TOL:  # also catches NaN
        raise GlobalStateNotPure(f"squared norm deviates from 1 by {worst!r}")
    return norm_sq


def check_density_matrices(m: np.ndarray) -> None:
    """Validate a ``(..., d, d)`` stack of density matrices in one pass.

    Every matrix must be finite, Hermitian and of unit trace within
    ``MATRIX_TOL``, with purity in [1/d, 1] up to a small slack.
    """
    d = m.shape[-1]
    _check_finite(m, "density matrix")
    if np.abs(m - np.swapaxes(m, -1, -2).conj()).max() > MATRIX_TOL:
        raise InvalidArray("density matrix is not Hermitian within tolerance")
    worst = np.abs(m.trace(axis1=-2, axis2=-1) - 1.0).max()
    if worst > MATRIX_TOL:
        raise InvalidArray(f"density matrix trace is off 1 by {worst!r}, beyond {MATRIX_TOL}")
    pur = np.asarray(purity(m))
    if pur.min() < 1.0 / d - STATE_NORM_TOL or pur.max() > 1.0 + STATE_NORM_TOL:
        raise InvalidArray(f"purity outside [1/{d}, 1]: {pur.min()!r} to {pur.max()!r}")


def _matrix(rho: DensityMatrix | np.ndarray) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityMatrix) else rho


def purity(rho: DensityMatrix | np.ndarray) -> float | np.ndarray:
    """Tr rho^2 as a real number, or an array of them for a ``(..., d, d)`` stack."""
    m = _matrix(rho)
    pur = np.einsum("...ij,...ji->...", m, m).real
    return float(pur) if pur.ndim == 0 else pur
