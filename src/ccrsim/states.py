"""Mode-labelled multiparticle states and the canonical boost scenarios.

A particle holds its M momentum modes as arrays: ``tokens`` (opaque names for
the basis kets), ``masses`` of shape (M,) and spatial ``momenta`` of shape
(M, 3); each energy is derived from its mass and momentum.  A boost maps the
momenta, keeps the masses and tags every token.  Every particle also carries
one spin-1/2 factor.  Amplitudes are stored over the factor order

    (momentum_1, spin_1, momentum_2, spin_2, ...)

so particle k owns the global factors 2k (momentum) and 2k + 1 (spin).
Spin basis: |0> is up and |1> is down along z.

The five scenario states all use two momentum modes +-p along the y-axis,
of one mass, boosted in the x-z plane:

    psi      (|+p> + |-p>)/sqrt(2) (x) |0>
    xi       (|+p, 0> + |-p, 1>)/sqrt(2)
    phi      (|+p> + |-p>)/sqrt(2) (x) (|0> + |1>)/sqrt(2)
    xi2      (|+p, -p> + |-p, +p>)/sqrt(2) (x) |0, 0>          (two particles)
    upsilon  (|+p, -p>|0, 1> + |-p, +p>|1, 0>)/sqrt(2)         (two particles)
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadPhysicalParams,
    BadSubsystemIndex,
    DimensionMismatch,
    LabelCollision,
    NotNormalized,
    ThetaOutOfRange,
)
from .linalg import STATE_NORM_TOL, DensityMatrix, StateVector, reduced_matrices
from .relativity import FourMomentum, _norms

# Two numeric momenta closer than this (max-norm) no longer label distinct modes.
MODE_SEPARATION_TOL = 1e-9

SPIN_DIM = 2

MOMENTUM = "momentum"
SPIN = "spin"
DOFS = (MOMENTUM, SPIN)


class ScenarioId(str, enum.Enum):
    PSI = "psi"
    XI = "xi"
    PHI = "phi"
    XI2 = "xi2"
    UPSILON = "upsilon"


# Tag prepended to every mode token by a boost, mirroring |p> -> |Lambda p>.
BOOST_TAG = "Λ"  # capital lambda


@dataclass(frozen=True, eq=False)
class Particle:
    """Momentum modes of one particle: ``tokens``, ``masses`` (M,), ``momenta`` (M, 3).

    Construction validates the shapes, the values and distinct tokens, and
    raises LabelCollision if two modes lie within ``MODE_SEPARATION_TOL`` of
    each other in (E, px, py, pz) max-norm.  The arrays are stored read-only.
    """

    tokens: tuple[str, ...]
    masses: np.ndarray
    momenta: np.ndarray

    def __post_init__(self) -> None:
        tokens = tuple(self.tokens)
        masses, momenta = np.array(self.masses, dtype=float), np.array(self.momenta, dtype=float)
        if not tokens:
            raise BadPhysicalParams("a particle needs at least one momentum mode")
        if masses.shape != (len(tokens),) or momenta.shape != (len(tokens), 3):
            raise DimensionMismatch(
                f"{len(tokens)} tokens with masses {masses.shape} and momenta {momenta.shape}"
            )
        if not (np.isfinite(momenta).all() and (np.isfinite(masses) & (masses > 0.0)).all()):
            raise BadPhysicalParams("masses must be positive and finite, momenta finite")
        if len(set(tokens)) != len(tokens):
            raise LabelCollision(f"momentum tokens are not distinct: {tokens}")
        object.__setattr__(self, "tokens", tokens)
        self._set_modes(masses, momenta)
        _check_separation(self)

    def _set_modes(self, masses: np.ndarray, momenta: np.ndarray) -> None:
        for name, array in (("masses", masses), ("momenta", momenta)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def _boosted(self, momenta: np.ndarray | None = None) -> "Particle":
        # Tagged tokens stay distinct and the masses are kept; new momenta are
        # checked, as a boost can contract modes together (None: unchanged).
        out = Particle.__new__(Particle)
        object.__setattr__(out, "tokens", tuple(BOOST_TAG + t for t in self.tokens))
        out._set_modes(self.masses, self.momenta if momenta is None else momenta)
        if momenta is not None:
            _check_separation(out)
        return out

    @property
    def n_modes(self) -> int:
        return len(self.tokens)

    @property
    def energies(self) -> np.ndarray:
        """On-shell energies hypot(m, |p|), shape (M,), formed without squares."""
        return np.hypot(self.masses, _norms(self.momenta))


def _check_separation(particle: Particle) -> None:
    # Sort the modes on the (E, px, py, pz) coordinate that spreads most.  Two
    # modes within the tolerance in max-norm are within it in that coordinate,
    # so each is compared with the next ones only while that one stays close.
    coordinates = zip(particle.energies.tolist(), *particle.momenta.T.tolist())
    modes = list(zip(coordinates, particle.tokens))
    spreads = [max(c) - min(c) for c in zip(*(q for q, _ in modes))]
    key = spreads.index(max(spreads))
    modes.sort(key=lambda mode: mode[0][key])
    for n, (q, token) in enumerate(modes):
        for r, other in modes[n + 1 :]:
            if r[key] - q[key] > MODE_SEPARATION_TOL:
                break
            gap = max(abs(a - b) for a, b in zip(q, r))
            if gap <= MODE_SEPARATION_TOL:
                raise LabelCollision(
                    f"modes {token!r} and {other!r} coincide within {MODE_SEPARATION_TOL} "
                    f"(max-norm gap {gap!r})"
                )


@dataclass(frozen=True)
class MultipartiteState:
    """Pure state of one or more particles over (momentum, spin) factor pairs."""

    particles: tuple[Particle, ...]
    amplitudes: StateVector

    def __post_init__(self) -> None:
        particles = tuple(self.particles)
        if not particles:
            raise BadPhysicalParams("at least one particle is required")
        expected = tuple(d for p in particles for d in (p.n_modes, SPIN_DIM))
        if self.amplitudes.dims != expected:
            raise DimensionMismatch(
                f"amplitude dims {self.amplitudes.dims} do not match particles {expected}"
            )
        object.__setattr__(self, "particles", particles)

    @property
    def n_particles(self) -> int:
        return len(self.particles)

    @property
    def dims(self) -> tuple[int, ...]:
        """Factor dimensions, ordered (momentum_1, spin_1, momentum_2, spin_2, ...)."""
        return self.amplitudes.dims

    @property
    def vector(self) -> np.ndarray:
        """Flat amplitude array (read-only)."""
        return self.amplitudes.amplitudes

    def subsystem_index(self, particle: int, dof: str) -> int:
        """Global factor index of one particle's momentum or spin."""
        if not 0 <= particle < self.n_particles:
            raise BadSubsystemIndex(
                f"particle index {particle} out of range for {self.n_particles} particles"
            )
        if dof not in DOFS:
            raise BadSubsystemIndex(f"dof must be one of {DOFS}, got {dof!r}")
        return 2 * particle + (0 if dof == MOMENTUM else 1)

    def single_dof_subsystems(self) -> list[tuple[int, str, int]]:
        """All (particle, dof, global index) triples in global-index order."""
        return [(k, dof, 2 * k + j) for k in range(self.n_particles) for j, dof in enumerate(DOFS)]

    def basis_label(self, flat_index: int) -> str:
        """Human-readable ket label for one flat amplitude index."""
        parts = [int(i) for i in np.unravel_index(flat_index, self.dims)]
        tokens = (p.tokens[i] for p, i in zip(self.particles, parts[0::2]))
        return "".join(f"|{token},{spin}>" for token, spin in zip(tokens, parts[1::2]))


def _as_state_vector(state: MultipartiteState | StateVector) -> StateVector:
    return state.amplitudes if isinstance(state, MultipartiteState) else state


def reduced_density_matrix(state: MultipartiteState | StateVector, keep: set[int]) -> DensityMatrix:
    """Reduced density matrix of the kept factors, straight from the amplitudes.

    ``linalg.reduced_matrices``, with the norm band of ``ccr``.  An empty,
    repeated or out-of-range keep-set raises BadSubsystemIndex.
    """
    sv = _as_state_vector(state)
    rho = reduced_matrices(sv.amplitudes, sv.dims, keep)
    return DensityMatrix(tuple(sv.dims[i] for i in sorted(keep)), rho)


def boost_direction(theta: float) -> np.ndarray:
    """Unit boost direction (cos theta, 0, sin theta) in the x-z plane.

    Values a hair outside [0, pi/2] (within 1e-12, e.g. from parsed decimal
    text or grid arithmetic) are clamped to the interval.
    """
    if not math.isfinite(theta) or theta < -1e-12 or theta > math.pi / 2.0 + 1e-12:
        raise ThetaOutOfRange(f"theta must lie in [0, pi/2], got {theta!r}")
    theta = min(max(theta, 0.0), math.pi / 2.0)
    return np.array([math.cos(theta), 0.0, math.sin(theta)])


def make_scenario(scenario: ScenarioId | str, p_mag: float = 1.0, mass: float = 1.0) -> MultipartiteState:
    """Build one of the five canonical states with momenta +-p_mag along y."""
    scenario = ScenarioId(scenario)
    if not (math.isfinite(p_mag) and p_mag > 0.0):
        raise BadPhysicalParams(f"p_mag must be positive and finite, got {p_mag!r}")
    if not (math.isfinite(mass) and mass > 0.0):
        raise BadPhysicalParams(f"mass must be positive and finite, got {mass!r}")

    r = 1.0 / math.sqrt(2.0)
    modes = Particle(("+p", "-p"), (mass, mass), ((0.0, p_mag, 0.0), (0.0, -p_mag, 0.0)))
    if scenario in (ScenarioId.PSI, ScenarioId.XI, ScenarioId.PHI):
        amps = np.zeros(4, dtype=complex)
        if scenario == ScenarioId.PSI:
            amps[0] = amps[2] = r  # (|+p> + |-p>)/sqrt2 (x) |0>
        elif scenario == ScenarioId.XI:
            amps[0] = amps[3] = r  # (|+p,0> + |-p,1>)/sqrt2
        else:
            amps[:] = 0.5  # (|+p> + |-p>)(|0> + |1>)/2
        return MultipartiteState((modes,), StateVector((2, 2), amps))

    amps = np.zeros(16, dtype=complex)
    if scenario == ScenarioId.XI2:
        # (|+p,-p> + |-p,+p>)/sqrt2 (x) |0,0> over (p_A, s_A, p_B, s_B)
        amps[0b0010] = amps[0b1000] = r
    else:
        # (|+p,-p>|0,1> + |-p,+p>|1,0>)/sqrt2
        amps[0b0011] = amps[0b1100] = r
    return MultipartiteState((modes, modes), StateVector((2, 2, 2, 2), amps))


def make_product_state(
    momenta: Sequence[Sequence[tuple[str, FourMomentum, complex]]],
    spins: Sequence[tuple[complex, complex]],
) -> MultipartiteState:
    """Product state: per particle, a momentum-mode superposition times a spin.

    ``momenta[k]`` lists (token, four-momentum, amplitude) for particle k and
    must be unit norm on its own, as must each ``spins[k]`` pair.  Each mode
    takes the mass its ``FourMomentum`` carries, unchanged.
    """
    if len(momenta) != len(spins) or not momenta:
        raise DimensionMismatch(
            f"need matching particle counts, got {len(momenta)} momentum lists "
            f"and {len(spins)} spin pairs"
        )
    particles = []
    vec = np.ones(1, dtype=complex)
    for mode_list, spin_pair in zip(momenta, spins):
        m_amps = np.array([a for (_, _, a) in mode_list], dtype=complex)
        if abs(float(np.linalg.norm(m_amps)) - 1.0) > STATE_NORM_TOL:
            raise NotNormalized(f"momentum amplitudes {m_amps} are not unit norm")
        s_amps = np.array(spin_pair, dtype=complex)
        if s_amps.shape != (2,):
            raise DimensionMismatch(f"spin amplitudes must be a pair, got {spin_pair!r}")
        if abs(float(np.linalg.norm(s_amps)) - 1.0) > STATE_NORM_TOL:
            raise NotNormalized(f"spin amplitudes {spin_pair!r} are not unit norm")
        particles.append(
            Particle(
                tuple(t for (t, _, _) in mode_list),
                [p.mass for (_, p, _) in mode_list],
                [(p.px, p.py, p.pz) for (_, p, _) in mode_list],
            )
        )
        vec = np.kron(vec, np.kron(m_amps, s_amps))
    dims = tuple(d for p in particles for d in (p.n_modes, SPIN_DIM))
    return MultipartiteState(tuple(particles), StateVector(dims, vec))
