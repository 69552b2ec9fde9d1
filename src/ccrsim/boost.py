"""Lorentz boosts acting on multiparticle states.

On the discrete basis a boost acts as a momentum-controlled spin unitary:

    U(B) |p, s> = |Bp> (x) D(W(B, p)) |s>

per particle, where D is the little-group rotation of that particle's mode.
Two routes are provided.  ``apply_boost`` is the physical one: it takes a
rapidity/direction pair, maps each particle's momenta in closed form
(``relativity._boosted_momenta``; the masses stay exact) and derives each D
from the half-angle formulas.  ``boost_by_wigner_angle`` drives the same
controlled unitary directly by the rotation angle, which is how angle sweeps
are parameterised: a given angle does not pin down a rapidity (with
p = m = 1 no finite rapidity even reaches angle pi/2), so that route leaves
the momenta untouched.  Both routes prepend ``BOOST_TAG`` to every token.

Both routes hand one ``(M, 2, 2)`` stack of D matrices per particle to
``linalg.apply_controlled``, which contracts each into that particle's
(momentum, spin) axes of the amplitude tensor; the dense controlled unitary
is never formed.  The physical route takes every angle and axis from one
call of the array closed form ``relativity._wigner_angles_axes``:
``apply_boost`` makes that call once for all modes of all its particles and
splits the stack per particle, and ``physical_stacks`` once for a whole
batch of boosts, such as all draws of a random-boost check suite.
``wigner_angle_grid`` boosts a state over a whole (theta, phi) grid at once,
which is how ``sweep`` evaluates its blocks and the check battery its xi2
suites.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import BadPhysicalParams, DimensionMismatch
from .linalg import StateVector, apply_controlled
from .relativity import BoostSpec, _boosted_momenta, _norms, _wigner_angles_axes, su2_rotations
from .states import MultipartiteState, Particle, boost_direction

# Direct-angle boosts require the boost plane to be orthogonal to every mode
# and all modes to share one (E, m) shell, so a single angle is consistent.
_GEOMETRY_TOL = 1e-9


def _boosted(
    state: MultipartiteState, particles: list[Particle], stacks: list[np.ndarray]
) -> MultipartiteState:
    amps = apply_controlled(state.vector, state.dims, stacks)
    return MultipartiteState(tuple(particles), StateVector(state.dims, amps))


def physical_stacks(boosts: Sequence[BoostSpec], masses, momenta) -> np.ndarray:
    """Spin rotations D(W(boost, p)) of a batch of boosts, ``(B, M, 2, 2)``.

    Boost ``b`` acts on M modes of masses ``masses[b]`` and momenta
    ``momenta[b]`` (arrays (B, M) and (B, M, 3)).  One call of the closed
    form (``relativity._wigner_angles_axes``) gives every angle and axis, and
    one ``su2_rotations`` call builds and validates the whole stack.
    """
    masses = np.asarray(masses, dtype=float)
    momenta = np.asarray(momenta, dtype=float)
    if masses.ndim != 2 or len(masses) != len(boosts) or not masses.size or (
        momenta.shape != masses.shape + (3,)
    ):
        raise DimensionMismatch(
            f"{len(boosts)} boosts need masses (B, M) and momenta (B, M, 3), M > 0; "
            f"got {masses.shape} and {momenta.shape}"
        )
    w = np.array([[boost.rapidity] for boost in boosts])  # (B, 1)
    e = np.array([[boost.direction] for boost in boosts])  # (B, 1, 3)
    return su2_rotations(*_wigner_angles_axes(w, e, masses, momenta))


def apply_boost(state: MultipartiteState, boost: BoostSpec) -> MultipartiteState:
    """Boost a state physically: new momenta of the same masses, Wigner-rotated spins.

    Raises LabelCollision if two boosted momenta of one particle land within
    the mode-separation tolerance of each other.
    """
    particles = state.particles
    masses = np.concatenate([p.masses for p in particles])
    momenta = np.concatenate([p.momenta for p in particles])
    new_momenta = _boosted_momenta(boost, masses, momenta)
    stack = su2_rotations(*_wigner_angles_axes(boost.rapidity, boost.direction, masses, momenta))
    starts = np.cumsum([0] + [p.n_modes for p in particles]).tolist()
    bounds = list(zip(starts, starts[1:]))
    new_particles = [p._boosted(new_momenta[a:b]) for p, (a, b) in zip(particles, bounds)]
    return _boosted(state, new_particles, [stack[a:b] for a, b in bounds])


def wigner_angle_stacks(
    particles: tuple[Particle, ...], phi, direction
) -> list[np.ndarray]:
    """Per-particle ``(..., M, 2, 2)`` spin rotations for prescribed Wigner angles.

    ``phi`` of shape (...) and unit boost directions of shape (..., 3)
    broadcast together, so one call serves a single boost or a whole grid.
    Every angle must lie in [0, pi/2]; every mode must be off rest,
    orthogonal to every direction, and on the shell of the first mode, so
    one angle describes all of them.  The rotation axis of mode p is
    (direction x p_hat) and flips sign with the momentum.
    """
    phi = np.asarray(phi, dtype=float)
    in_range = (phi >= 0.0) & (phi <= math.pi / 2.0 + 1e-12)  # False for NaN
    if not in_range.all():
        bad = float(phi[~in_range].flat[0])
        raise BadPhysicalParams(f"wigner angle must lie in [0, pi/2], got {bad!r}")
    e_hat = np.asarray(direction, dtype=float)

    tokens = [t for particle in particles for t in particle.tokens]
    masses = np.concatenate([particle.masses for particle in particles])
    momenta = np.concatenate([particle.momenta for particle in particles])
    p_mag = _norms(momenta)
    energies = np.hypot(masses, p_mag)  # Particle.energies
    e_ref, m_ref = energies[0], masses[0]
    for bad, what in (
        (p_mag <= 1e-14 * energies, "is at rest; its angle is fixed at 0"),
        (
            np.max(np.abs(e_hat.reshape(-1, 3) @ momenta.T), axis=0) > _GEOMETRY_TOL * p_mag,
            "is not orthogonal to the boost direction",
        ),
        (
            (np.abs(energies - e_ref) > _GEOMETRY_TOL * e_ref)
            | (np.abs(masses - m_ref) > _GEOMETRY_TOL * m_ref),
            "is off the mass shell of the first mode; a single wigner angle is ambiguous",
        ),
    ):
        if bad.any():
            raise BadPhysicalParams(f"mode {tokens[np.argmax(bad)]!r} {what}")

    axes = np.cross(e_hat[..., None, :], momenta / p_mag[:, None])
    axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
    stacks = su2_rotations(phi[..., None], axes)  # (..., all modes, 2, 2)
    starts = np.cumsum([0] + [particle.n_modes for particle in particles]).tolist()
    return [stacks[..., a:b, :, :] for a, b in zip(starts, starts[1:])]


def wigner_angle_grid(state: MultipartiteState, thetas, phis) -> np.ndarray:
    """Amplitudes of ``state`` boosted over a (theta, phi) grid, ``(T, F, prod(dims))``.

    ``thetas`` pick ``boost_direction``s and ``phis`` Wigner angles; the grid
    goes through one ``wigner_angle_stacks`` and one ``apply_controlled``.
    """
    directions = np.array([boost_direction(theta) for theta in thetas])
    stacks = wigner_angle_stacks(state.particles, phis, directions[:, None, :])
    return apply_controlled(state.vector, state.dims, stacks)


def boost_by_wigner_angle(
    state: MultipartiteState, phi: float, direction: np.ndarray
) -> MultipartiteState:
    """Boost a state by prescribing the Wigner angle instead of a rapidity.

    The geometry requirements are those of ``wigner_angle_stacks``.  Mode
    tokens are tagged; the masses and momenta are left as they are.
    """
    stacks = wigner_angle_stacks(state.particles, phi, direction)
    return _boosted(state, [p._boosted() for p in state.particles], stacks)
