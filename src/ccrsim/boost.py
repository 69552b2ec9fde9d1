"""Lorentz boosts acting on multiparticle states.

On the discrete basis a boost acts as a momentum-controlled spin unitary:

    U(B) |p, s> = |Bp> (x) D(W(B, p)) |s>

per particle, where D is the little-group rotation of that particle's mode.
Two routes are provided.  ``apply_boost`` is the physical one: it takes a
rapidity/direction pair, rewrites the numeric momenta and derives each D from
the half-angle formulas.  ``boost_by_wigner_angle`` drives the same controlled
unitary directly by the rotation angle, which is how angle sweeps are
parameterised: a given angle does not pin down a rapidity (with p = m = 1 no
finite rapidity even reaches angle pi/2), so that route leaves the numeric
momenta untouched and only retags the mode tokens.

Both routes hand one ``(M, 2, 2)`` stack of D matrices per particle to
``linalg.apply_controlled``, which contracts each into that particle's
(momentum, spin) axes of the amplitude tensor; the dense controlled unitary
is never formed.  ``wigner_angle_grid`` boosts a state over a whole
(theta, phi) grid at once, which is how ``sweep`` evaluates its blocks and
the check battery its xi2 suites.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadPhysicalParams
from .linalg import StateVector, apply_controlled
from .relativity import (
    BoostSpec,
    _wigner_angle_axis,
    boost_matrix,
    boost_momentum,
    su2_rotations,
)
from .states import MomentumMode, MultipartiteState, Particle, boost_direction

# Tag prepended to every mode token by a boost, mirroring |p> -> |Lambda p>.
BOOST_TAG = "Λ"  # capital lambda

# Direct-angle boosts require the boost plane to be orthogonal to every mode
# and all modes to share one (E, m) shell, so a single angle is consistent.
_GEOMETRY_TOL = 1e-9


def _retagged(particle: Particle, new_momenta: list | None) -> Particle:
    modes = []
    for i, mode in enumerate(particle.modes):
        momentum = mode.momentum if new_momenta is None else new_momenta[i]
        modes.append(MomentumMode(BOOST_TAG + mode.token, momentum))
    return Particle(tuple(modes))


def _boosted(
    state: MultipartiteState, particles: list[Particle], stacks: list[np.ndarray]
) -> MultipartiteState:
    amps = apply_controlled(state.vector, state.dims, stacks)
    return MultipartiteState(tuple(particles), StateVector(state.dims, amps))


def apply_boost(state: MultipartiteState, boost: BoostSpec) -> MultipartiteState:
    """Boost a state physically: new momenta, Wigner-rotated spins.

    Raises LabelCollision (from the Particle constructor) if two boosted
    momenta of one particle land within the mode-separation tolerance of
    each other.
    """
    lam = boost_matrix(boost)
    new_particles = []
    stacks = []
    for particle in state.particles:
        momenta = [m.momentum for m in particle.modes]
        new_particles.append(_retagged(particle, [boost_momentum(lam, p) for p in momenta]))
        angles, axes = zip(*(_wigner_angle_axis(boost, p) for p in momenta))
        stacks.append(su2_rotations(np.array(angles), np.array(axes)))
    return _boosted(state, new_particles, stacks)


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

    modes = [m for particle in particles for m in particle.modes]
    e_ref = modes[0].momentum.e
    m_ref = modes[0].momentum.mass
    for mode in modes:
        p_vec = mode.momentum.spatial
        p_mag = float(np.linalg.norm(p_vec))
        if p_mag <= 1e-14 * mode.momentum.e:
            raise BadPhysicalParams(f"mode {mode.token!r} is at rest; its angle is fixed at 0")
        if float(np.max(np.abs(e_hat @ p_vec))) / p_mag > _GEOMETRY_TOL:
            raise BadPhysicalParams(
                f"mode {mode.token!r} is not orthogonal to the boost direction"
            )
        if abs(mode.momentum.e - e_ref) > _GEOMETRY_TOL * e_ref or abs(
            mode.momentum.mass - m_ref
        ) > _GEOMETRY_TOL * m_ref:
            raise BadPhysicalParams(
                "modes do not share one mass shell; a single wigner angle is ambiguous"
            )

    stacks = []
    for particle in particles:
        p_vecs = np.array([mode.momentum.spatial for mode in particle.modes])
        p_hat = p_vecs / np.linalg.norm(p_vecs, axis=-1, keepdims=True)
        axes = np.cross(e_hat[..., None, :], p_hat)
        axes /= np.linalg.norm(axes, axis=-1, keepdims=True)
        stacks.append(su2_rotations(phi[..., None], axes))
    return stacks


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
    tokens are retagged; the numeric four-momenta are left as they are.
    """
    stacks = wigner_angle_stacks(state.particles, phi, direction)
    return _boosted(state, [_retagged(p, None) for p in state.particles], stacks)
