"""Predictability, coherence, and entropy: the complete complementarity triple.

For the reduced state rho of a single d-dimensional degree of freedom inside
a pure global state, the three quantifiers

    P_l = sum_i (rho_ii - 1/d)^2        (predictability)
    C_hs = sum_{i != j} |rho_ij|^2      (Hilbert-Schmidt coherence)
    S_l = 1 - Tr rho^2                  (linear entropy)

are measured in the incoherent (computational) basis and obey the identity

    P_l + C_hs + S_l = (d - 1) / d

for every subsystem of every pure state.  Each term alone is basis- and
frame-dependent; the sum is not.

``linear_entropy_multiindex`` evaluates S_l of factor 1 of a pure state
(``linear_entropy_multiindex_arrays`` of a batch of them) straight from
global matrix elements:

    S_l = sum_{i1 != j1} sum_{I != J} ( |rho_{i1 I, j1 J}|^2
                                        - rho_{i1 I, j1 I} rho*_{i1 J, j1 J} )

with I, J multi-indices over the remaining factors.  It never builds the
reduced matrix, so it serves as an independent route against
``1 - purity(partial_trace(...))``; the two must agree to 1e-12.  The sum is
vectorised under one boolean mask; its loop form is the reference in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadSubsystemIndex, DimensionMismatch, NotXShaped
from .linalg import (
    DensityMatrix,
    StateVector,
    _matrix,
    _pure_norm_sq,
    purity,
    reduced_matrices,
)
from .states import MultipartiteState, _as_state_vector

_X_TOL = 1e-10


def _value(x: np.ndarray) -> float | np.ndarray:
    return float(x) if x.ndim == 0 else x


@dataclass(frozen=True)
class ComplementarityTriple:
    """One subsystem's (P_l, C_hs, S_l) with the identity residual."""

    predictability: float
    coherence: float
    entropy: float
    d: int
    residual: float

    @property
    def total(self) -> float:
        return self.predictability + self.coherence + self.entropy


# The three measures take one DensityMatrix and return a float, or a validated
# (..., d, d) stack of matrices and return an array over its leading axes.


def predictability_l(rho: DensityMatrix | np.ndarray) -> float | np.ndarray:
    """P_l = sum_i (rho_ii - 1/d)^2, which is sum_i rho_ii^2 - 1/d at unit trace."""
    m = _matrix(rho)
    dev = np.real(np.diagonal(m, axis1=-2, axis2=-1)) - 1.0 / m.shape[-1]
    return _value(np.sum(dev * dev, axis=-1))


def coherence_hs(rho: DensityMatrix | np.ndarray) -> float | np.ndarray:
    """C_hs = sum over off-diagonal entries of |rho_ij|^2."""
    off = np.abs(_matrix(rho)) ** 2
    return _value(np.sum(off, axis=(-2, -1)) - np.trace(off, axis1=-2, axis2=-1))


def linear_entropy(rho: DensityMatrix | np.ndarray) -> float | np.ndarray:
    """S_l = 1 - Tr rho^2."""
    return 1.0 - purity(rho)


def _triple(rho: DensityMatrix | np.ndarray) -> tuple:
    # The measures are looked up as module globals on every call, so one
    # replaced at run time reaches ccr and ccr_arrays alike.
    p = predictability_l(rho)
    c = coherence_hs(rho)
    s = linear_entropy(rho)
    d = _matrix(rho).shape[-1]
    return p, c, s, abs(p + c + s - (d - 1.0) / d)


def ccr(state: MultipartiteState | StateVector, subsystem: int) -> ComplementarityTriple:
    """Complementarity triple of one single-factor subsystem of a pure state (``ccr_arrays``)."""
    sv = _as_state_vector(state)
    p, c, s, residual = ccr_arrays(sv.amplitudes, sv.dims, subsystem)
    return ComplementarityTriple(p, c, s, sv.dims[subsystem], residual)


def ccr_arrays(
    amplitudes: np.ndarray, dims: tuple[int, ...], subsystem: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(P, C, S, residual) of one factor over a batch of pure states.

    ``amplitudes`` has shape ``(..., prod(dims))``; each result has the
    leading shape (a float for one state).  The checks are those of
    ``reduced_matrices``.
    """
    return _triple(reduced_matrices(amplitudes, dims, subsystem))


def linear_entropy_multiindex_arrays(
    amplitudes: np.ndarray, dims: tuple[int, ...], subsystem: int
) -> np.ndarray:
    """S_l of one factor over a batch of pure states, as the double multi-index sum.

    ``amplitudes`` has shape ``(..., prod(dims))``; the result has the leading
    shape.  Works directly on global elements rho_{A,B} = v_A conj(v_B),
    indexed as rho[..., i1, j1, I, J] and summed under one boolean mask
    (i1 != j1, I != J); no reduced matrix and no partial trace are involved.
    The states must lie in the norm band of ``reduced_matrices``.
    """
    dims = tuple(dims)
    if not 0 <= subsystem < len(dims):
        raise BadSubsystemIndex(f"subsystem {subsystem} out of range for {len(dims)} factors")
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if amplitudes.shape[-1:] != (math.prod(dims),):
        raise DimensionMismatch(f"amplitudes {amplitudes.shape} do not fit factor dims {dims}")
    _pure_norm_sq(amplitudes)
    batch = amplitudes.shape[:-1]
    d = dims[subsystem]
    v = amplitudes.reshape(batch + (math.prod(dims[:subsystem]), d, -1))
    v = np.moveaxis(v, -2, -3).reshape(batch + (d, -1))  # v[..., i1, I]
    rest = v.shape[-1]
    # |rho_{i1 I, j1 J}|^2 = |v_{i1 I}|^2 |v_{j1 J}|^2, and the product term
    # of (I, J) is the conjugate of that of (J, I), so the sum needs only
    # real parts: ``terms`` is real and indexed [..., i1, j1, I, J].
    p = v.real**2 + v.imag**2
    same = v[..., :, None, :] * v.conj()[..., None, :, :]  # rho_{i1 I, j1 I}
    terms = p[..., :, None, :, None] * p[..., None, :, None, :]
    terms -= same.real[..., None] * same.real[..., None, :]
    terms -= same.imag[..., None] * same.imag[..., None, :]
    off = ~np.eye(d, dtype=bool)[:, :, None, None] & ~np.eye(rest, dtype=bool)
    return np.sum(terms[..., off], axis=-1)


def linear_entropy_multiindex(state: MultipartiteState | StateVector, subsystem: int) -> float:
    """S_l of one factor of one pure state (``linear_entropy_multiindex_arrays``)."""
    sv = _as_state_vector(state)
    return float(linear_entropy_multiindex_arrays(sv.amplitudes, sv.dims, subsystem))


def concurrence_momentum_x(rho: DensityMatrix | np.ndarray) -> float:
    """Wootters concurrence of a two-mode-pair X-shaped mixed state.

    ``rho`` must be a 4x4 matrix over dims (2, 2), or one of a validated stack;
    any weight beyond the diagonal / anti-diagonal X pattern (above 1e-10)
    raises NotXShaped.  For an X state the concurrence has the closed form

        E = 2 max(0, |rho_12| - sqrt(rho_00 rho_33), |rho_03| - sqrt(rho_11 rho_22)).

    Where rho_00 rho_33 = 0, positivity forces rho_03 = 0 and E reduces to
    2 |rho_12| = sqrt(2 C_hs).  Every momentum pair the scenarios produce has
    rho_00 = rho_33 = 0 (the two particles never share a momentum), which is
    why ``ccrsim scenario`` labels the value ``E = sqrt(2 C_hs)``.
    """
    m = _matrix(rho)
    if m.shape != (4, 4) or (isinstance(rho, DensityMatrix) and rho.dims != (2, 2)):
        raise DimensionMismatch(f"expected a (2, 2) mode-pair matrix, got shape {m.shape}")
    allowed = {(0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1)}
    for i in range(4):
        for j in range(4):
            if (i, j) not in allowed and abs(m[i, j]) > _X_TOL:
                raise NotXShaped(f"entry ({i}, {j}) = {m[i, j]!r} breaks the X pattern")
    p = m.diagonal().real.tolist()
    return 2.0 * max(
        0.0,
        abs(complex(m[1, 2])) - math.sqrt(max(0.0, p[0] * p[3])),
        abs(complex(m[0, 3])) - math.sqrt(max(0.0, p[1] * p[2])),
    )
