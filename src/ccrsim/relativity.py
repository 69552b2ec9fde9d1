"""Boost algebra and little-group rotations for massive spin-1/2 particles.

Conventions: natural units (c = 1), metric diag(-1, 1, 1, 1), index order
(t, x, y, z).  A pure boost with rapidity w along the unit vector e has

    L[0][0] = cosh w,   L[0][i] = L[i][0] = sinh w * e_i,
    L[i][j] = delta_ij + (cosh w - 1) * e_i * e_j,

so it maps the rest momentum k = (m, 0, 0, 0) to (m cosh w, m sinh w * e).

For a boost B(w, e) acting on a particle of momentum rapidity a = asinh(|p|/m)
along p_hat, the induced little-group (Wigner) rotation on the spin is, in
half-angle form,

    cos(f/2)         ~ cosh(w/2) cosh(a/2) + sinh(w/2) sinh(a/2) (e . p_hat)
    sin(f/2) * n_hat ~ sinh(w/2) sinh(a/2) (e x p_hat)

up to one common positive factor, so f/2 is the atan2 of the pair.  It is
represented on spin-1/2 as D = cos(f/2) I + i sin(f/2) (sigma . n_hat).
The cosine term is evaluated as cosh((w - a)/2) + sinh(w/2) sinh(a/2)
(1 + e . p_hat), with 1 + e . p_hat = |e x p_hat|^2 / (1 - e . p_hat) where
e . p_hat < 0 and e x p in long double, so nothing cancels near e . p_hat = -1.
``_wigner_angles_axes`` evaluates it over arrays for every physical route.
When e is perpendicular to p_hat the rotation angle reduces to

    tan f = sinh w sinh a / (cosh w + cosh a).

The independent cross-check is the explicit 4x4 little-group element
W = L(B p)^-1 B L(p), which must fix k; its spatial block is the SO(3) image
of D, so both routes must report the same angle.

A boost maps a momentum p of mass m in closed form and keeps m exactly:
rapidities along e add, so with m_T = hypot(m, |e x p|), y = asinh(e . p / m_T)

    p' = p + 2 m_T cosh(y + w/2) sinh(w/2) e,

which, unlike p + ((cosh w - 1)(e . p) + sinh w E) e, cancels no terms of
order E e^w where the boost reverses p along e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadPhysicalParams, OracleOutOfDomain, VelocityOutOfRange
from .linalg import I2, MATRIX_TOL

METRIC = np.diag([-1.0, 1.0, 1.0, 1.0])

# Hard cap on boost rapidity; cosh(50)^2 is still comfortably inside float64.
RAPIDITY_CAP = 50.0

# Largest boost rapidity plus momentum rapidity at which ``wigner_oracle`` is
# trusted.  Its error grows like eps * exp(2 (w + a)) in extended precision;
# against an 80-digit evaluation the worst entry error measured 3e-11 at a sum
# of 10 and 1e-10 at 10.5, but 2e-9 at 12, past the 1e-9 agreement tolerance.
ORACLE_MAX_RAPIDITY = 10.5

# Floor on m^2/e^2 for ``FourMomentum(e, px, py, pz)``: below it the mass the
# components give has lost most of its digits.
_TIMELIKE_REL_TOL = 1e-10

_DEFAULT_AXIS = np.array([0.0, 0.0, 1.0])


def _norms(v: np.ndarray) -> np.ndarray:
    # |v| of (..., 3) vectors by hypot: exact on an axis, no overflow from squares.
    return np.hypot(np.hypot(v[..., 0], v[..., 1]), v[..., 2])


def _unit3(v, what: str) -> np.ndarray:
    a = np.array(v, dtype=float).reshape(-1)
    if a.shape != (3,):
        raise BadPhysicalParams(f"{what} must be a 3-vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise BadPhysicalParams(f"{what} contains NaN or Inf")
    if abs(float(np.linalg.norm(a)) - 1.0) > MATRIX_TOL:
        raise BadPhysicalParams(f"{what} must be a unit vector, |v| = {np.linalg.norm(a)!r}")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FourMomentum:
    """Four-momentum (e, px, py, pz) of a massive particle, with its ``mass``.

    The boundary type; particles hold masses and momenta as arrays.
    ``FourMomentum(e, px, py, pz)`` recovers m = sqrt((e - |p|)(e + |p|)) and
    refuses m^2 <= 1e-10 e^2.  ``from_spatial(mass, p)`` keeps the given mass
    exactly, for any |p|/m, and rounds e, which only the 4x4 oracle reads; it
    refuses an e that overflows float64.
    """

    e: float
    px: float
    py: float
    pz: float
    mass: float = field(init=False)

    def __post_init__(self) -> None:
        vals = (self.e, self.px, self.py, self.pz)
        if not all(math.isfinite(v) for v in vals):
            raise BadPhysicalParams(f"four-momentum {vals} contains NaN or Inf")
        if self.e <= 0.0:
            raise BadPhysicalParams(f"energy must be positive, got {self.e!r}")
        k = math.hypot(self.px, self.py, self.pz)
        mass_sq = (self.e - k) * (self.e + k)
        if mass_sq <= _TIMELIKE_REL_TOL * self.e**2:
            raise BadPhysicalParams(f"four-momentum {vals} is not timelike: m^2 = {mass_sq!r}")
        object.__setattr__(self, "mass", math.sqrt(mass_sq))

    @classmethod
    def from_spatial(cls, mass: float, p_vec) -> "FourMomentum":
        """On-shell momentum with the given mass and spatial 3-momentum."""
        if not (math.isfinite(mass) and mass > 0.0):
            raise BadPhysicalParams(f"mass must be positive and finite, got {mass!r}")
        p = np.asarray(p_vec, dtype=float).reshape(-1)
        if p.shape != (3,) or not np.isfinite(p).all():
            raise BadPhysicalParams(f"momentum {p_vec!r} is not a finite 3-vector")
        try:
            with np.errstate(over="ignore"):
                e = math.sqrt(mass**2 + float(p @ p))
        except OverflowError:  # from mass**2
            e = math.inf
        if not math.isfinite(e):
            raise BadPhysicalParams(f"m^2 + |p|^2 overflows at mass {mass!r}, p {p.tolist()}")
        out = cls.__new__(cls)  # the mass is given: skip its recovery from e
        for name, value in zip(("e", "px", "py", "pz", "mass"), (e, *p.tolist(), float(mass))):
            object.__setattr__(out, name, value)
        return out

    @property
    def spatial(self) -> np.ndarray:
        return np.array([self.px, self.py, self.pz])

    def as_array(self) -> np.ndarray:
        return np.array([self.e, self.px, self.py, self.pz])


@dataclass(frozen=True)
class BoostSpec:
    """Pure boost: nonnegative rapidity (capped) along a unit direction."""

    rapidity: float
    direction: np.ndarray

    def __post_init__(self) -> None:
        w = float(self.rapidity)
        if not math.isfinite(w) or w < 0.0:
            raise BadPhysicalParams(f"rapidity must be finite and >= 0, got {w!r}")
        if w > RAPIDITY_CAP:
            raise BadPhysicalParams(f"rapidity {w!r} exceeds the cap {RAPIDITY_CAP}")
        object.__setattr__(self, "rapidity", w)
        object.__setattr__(self, "direction", _unit3(self.direction, "boost direction"))

    @classmethod
    def from_velocity(cls, v: float, direction) -> "BoostSpec":
        return cls(rapidity_from_velocity(v), np.asarray(direction, dtype=float))


def rapidity_from_velocity(v: float) -> float:
    """w = atanh(v) for 0 <= v < 1; direction, not sign, encodes orientation."""
    if not math.isfinite(v) or v < 0.0 or v >= 1.0:
        raise VelocityOutOfRange(f"speed must satisfy 0 <= v < 1, got {v!r}")
    return math.atanh(v)


def momentum_rapidity(p: FourMomentum) -> float:
    """a = asinh(|p|/m); zero for a particle at rest.

    The same quantity as acosh(E/m), without the loss of half the digits
    that acosh suffers when E/m is close to 1.
    """
    return math.asinh(math.hypot(p.px, p.py, p.pz) / p.mass)


def wigner_angle(omega: float, alpha: float) -> float:
    """Perpendicular-geometry rotation angle tan f = sh(w) sh(a) / (ch(w) + ch(a))."""
    return math.atan2(math.sinh(omega) * math.sinh(alpha), math.cosh(omega) + math.cosh(alpha))


def _pure_boost(direction: np.ndarray, rapidity, dtype=np.float64) -> np.ndarray:
    e = np.asarray(direction, dtype=dtype)
    w = np.asarray(rapidity, dtype=dtype)[()]
    ch = np.cosh(w)
    sh = np.sinh(w)
    out = np.empty((4, 4), dtype=dtype)
    out[0, 0] = ch
    out[0, 1:] = sh * e
    out[1:, 0] = sh * e
    out[1:, 1:] = np.eye(3, dtype=dtype) + (ch - 1.0) * np.outer(e, e)
    return out


def boost_matrix(boost: BoostSpec) -> np.ndarray:
    """4x4 matrix of the pure boost."""
    return _pure_boost(boost.direction, boost.rapidity)


def _cross(e, p) -> np.ndarray:
    # e x p of (..., 3) vectors, broadcast, in long double (extended precision
    # on x86-64): near (anti-)collinear vectors its differences of products
    # cancel most of their digits.
    e, p = (np.asarray(v, dtype=np.longdouble) for v in (e, p))
    i, j = [1, 2, 0], [2, 0, 1]
    return e[..., i] * p[..., j] - e[..., j] * p[..., i]


def _boosted_momenta(boost: BoostSpec, masses: np.ndarray, momenta: np.ndarray) -> np.ndarray:
    # Spatial momenta (N, 3) of masses (N,) after the boost (see the module
    # doc).  Wherever the boost reverses p along e the rounding error of
    # |e x p| reaches p' in full, so it is formed in long double.
    e = boost.direction
    half = 0.5 * boost.rapidity
    perp = _cross(e, momenta)
    m_t = np.hypot(masses, np.sqrt(np.sum(perp * perp, axis=-1)).astype(float))
    y = np.arcsinh((momenta @ e) / m_t)
    return momenta + (2.0 * math.sinh(half)) * (m_t * np.cosh(y + half))[:, None] * e


def wigner_oracle(boost: BoostSpec, p: FourMomentum) -> np.ndarray:
    """Explicit little-group element W = L(Bp)^-1 B L(p) as a 4x4 matrix.

    This is the brute-force route: it must fix the rest momentum and its
    spatial block must be the SO(3) rotation whose angle matches
    ``wigner_rotation``.  Kept free of the half-angle formulas on purpose.

    The triple product cancels intermediates of order cosh(w) cosh(w + a)
    down to entries of order one, which costs ~1e-8 absolute in float64 at
    rapidities near 5.  Two measures keep the absolute error of the result
    far below the 1e-9 test tolerance: the product is carried in extended
    precision, and the standard boosts are built directly from momentum
    components (cosh a = E/m, sinh a k-hat = k/m) so no arccosh/cosh round
    trip re-amplifies rounding of the invariant mass.

    Extended precision still runs out: the result is only trusted while the
    boost rapidity plus the momentum rapidity stays within
    ``ORACLE_MAX_RAPIDITY``, and beyond it OracleOutOfDomain is raised
    instead of a wrong matrix.
    """
    alpha = momentum_rapidity(p)
    if boost.rapidity + alpha > ORACLE_MAX_RAPIDITY:
        raise OracleOutOfDomain(
            f"boost rapidity {boost.rapidity!r} plus momentum rapidity {alpha!r} "
            f"exceeds {ORACLE_MAX_RAPIDITY}, beyond which the 4x4 oracle is not "
            "accurate to 1e-9"
        )
    ld = np.longdouble
    # Renormalize the direction in extended precision: a float64 unit vector
    # is off by ~1e-16, which the metric defect amplifies by sinh(w)^2.
    e = np.asarray(boost.direction, dtype=ld)
    e = e / np.sqrt(e @ e)
    lam = _pure_boost(e, boost.rapidity, dtype=ld)
    p4 = np.array([p.e, p.px, p.py, p.pz], dtype=ld)
    mass = np.sqrt(p4[0] ** 2 - p4[1:] @ p4[1:])
    q4 = lam @ p4

    def standard_boost_ld(k4, sign):
        k_vec = k4[1:]
        if np.sqrt(k_vec @ k_vec) <= 1e-14 * k4[0]:
            return np.eye(4, dtype=ld)
        out = np.empty((4, 4), dtype=ld)
        out[0, 0] = k4[0] / mass
        out[0, 1:] = out[1:, 0] = sign * k_vec / mass
        out[1:, 1:] = np.eye(3, dtype=ld) + np.outer(k_vec, k_vec) / (
            mass * (k4[0] + mass)
        )
        return out

    l_q_inv = standard_boost_ld(q4, -1.0)
    l_p = standard_boost_ld(p4, 1.0)
    return np.asarray(l_q_inv @ lam @ l_p, dtype=float)


def rotation_angle(w: np.ndarray) -> float:
    """Rotation angle of the spatial block of a little-group element.

    Reads sin from the antisymmetric part and cos from the trace; atan2 of
    the pair stays well-conditioned at both ends of [0, pi], unlike a bare
    arccos of the trace.
    """
    r = np.asarray(w)[1:, 1:]
    sin_vec = 0.5 * np.array(
        [r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]]
    )
    cos_val = (float(np.trace(r)) - 1.0) / 2.0
    return math.atan2(float(np.linalg.norm(sin_vec)), cos_val)


@dataclass(frozen=True)
class WignerRotation:
    """SU(2) little-group rotation given by its angle and unit axis.

    ``matrix`` is cos(angle/2) I + i sin(angle/2) (sigma . axis), built by
    ``su2_rotations``, which validates the axis and the matrix.
    """

    angle: float
    axis: np.ndarray
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        angle = float(self.angle)
        axis = _unit3(self.axis, "rotation axis")
        m = su2_rotations(angle, axis)
        m.setflags(write=False)
        object.__setattr__(self, "angle", angle)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "matrix", m)


def _su2_from_angle_axis(angle, axis: np.ndarray) -> np.ndarray:
    # cos(a/2) I + i sin(a/2) (sigma . n), entry by entry so that angles of
    # shape (...) and axes of shape (..., 3) broadcast to (..., 2, 2).
    half = 0.5 * np.asarray(angle, dtype=float)
    c, s = np.cos(half), np.sin(half)
    nx, ny, nz = axis[..., 0], axis[..., 1], axis[..., 2]
    out = np.empty(np.broadcast_shapes(c.shape, nx.shape) + (2, 2), dtype=complex)
    out[..., 0, 0] = c + 1j * s * nz
    out[..., 0, 1] = s * ny + 1j * s * nx
    out[..., 1, 0] = -s * ny + 1j * s * nx
    out[..., 1, 1] = c - 1j * s * nz
    return out


def su2_rotations(angle, axis) -> np.ndarray:
    """Closed-form spin-1/2 rotations for whole arrays of angles and axes.

    ``angle`` of shape (...) and unit ``axis`` of shape (..., 3) broadcast to
    a ``(..., 2, 2)`` stack of cos(angle/2) I + i sin(angle/2) (sigma . axis).
    Every axis must be a unit vector and every matrix unitary with unit
    determinant within ``MATRIX_TOL``.  This is the only builder of spin
    rotations: ``WignerRotation`` and both boost routes use it.
    """
    axis = np.asarray(axis, dtype=float)
    if axis.shape[-1:] != (3,):
        raise BadPhysicalParams(f"rotation axes must be 3-vectors, got shape {axis.shape}")
    if not (np.all(np.isfinite(axis)) and np.all(np.isfinite(angle))):
        raise BadPhysicalParams("rotation angles or axes contain NaN or Inf")
    if np.max(np.abs(np.linalg.norm(axis, axis=-1) - 1.0)) > MATRIX_TOL:
        raise BadPhysicalParams("rotation axes must be unit vectors")
    m = _su2_from_angle_axis(angle, axis)
    if np.max(np.abs(m @ np.swapaxes(m, -1, -2).conj() - I2)) > MATRIX_TOL:
        raise BadPhysicalParams("spin rotation is not unitary within tolerance")
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    if np.max(np.abs(det - 1.0)) > MATRIX_TOL:
        raise BadPhysicalParams("spin rotation determinant is not 1 within tolerance")
    return m


def _wigner_angles_axes(rapidity, direction, mass, momentum) -> tuple[np.ndarray, np.ndarray]:
    # Angles (...) and unit axes (..., 3) of the half-angle closed form (see
    # the module doc) for boosts of rapidities (...) along unit directions
    # (..., 3) acting on modes of masses (...) and spatial momenta (..., 3);
    # the four broadcast.  A mode at rest, a zero rapidity and an exactly
    # collinear mode give angle 0 about the z-axis.
    w = np.asarray(rapidity, dtype=float)
    e = np.asarray(direction, dtype=float)
    p = np.asarray(momentum, dtype=float)
    p_mag = _norms(p)
    cross = _cross(e, p)
    cross_mag = np.sqrt(np.sum(cross * cross, axis=-1))
    moving = (p_mag > 1e-14 * mass) & (w != 0.0) & (cross_mag > 0.0)
    p_mag_or_1 = np.where(moving, p_mag, 1.0)
    axes = cross / np.where(moving, cross_mag, 1.0)[..., None]
    sin_mag = (cross_mag / p_mag_or_1).astype(float)  # |e x p_hat|
    dot = np.sum(e * p, axis=-1) / p_mag_or_1  # e . p_hat
    # 1 + e . p_hat, without cancellation near e . p_hat = -1.
    one_plus_dot = np.where(dot < 0.0, sin_mag**2 / (1.0 - np.minimum(dot, 0.0)), 1.0 + dot)
    half_w, half_a = 0.5 * w, 0.5 * np.arcsinh(p_mag / mass)  # momentum_rapidity
    sh_sh = np.sinh(half_w) * np.sinh(half_a)
    # cosh(w/2) cosh(a/2) + sh_sh (e . p_hat), the same sum without its cancellation.
    cos_half = np.cosh(half_w - half_a) + sh_sh * one_plus_dot
    angles = 2.0 * np.arctan2(sh_sh * sin_mag, cos_half)
    axes = np.where(moving[..., None], axes.astype(float), _DEFAULT_AXIS)
    return np.where(moving, angles, 0.0), axes


def wigner_rotation(boost: BoostSpec, p: FourMomentum) -> WignerRotation:
    """Half-angle closed form of the little-group rotation induced on the spin.

    A particle at rest (or a trivial boost) yields the identity with angle 0;
    when the angle vanishes the reported axis is the (never used) z-axis.
    """
    return WignerRotation(*_wigner_angles_axes(boost.rapidity, boost.direction, p.mass, p.spatial))
