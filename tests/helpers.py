"""Hand-derived closed forms used as oracles by the test modules.

Everything here is written directly in trigonometric functions of the boost
tilt ``theta`` (angle between the boost axis and the x axis, in the x-z plane)
and the Wigner angle ``phi``.  None of it goes through the library's boost or
partial-trace code, so agreement with the library is a genuine cross-check.

Conventions match the scenario builders: each particle carries a two-mode
momentum factor ordered (+p y-hat, -p y-hat) and a spin-1/2 factor, with the
tensor order (momentum_A, spin_A, momentum_B, spin_B).

The check-suite section holds the per-draw forms of the random-boost and
multi-index suites of ``ccrsim check``, the references for their batched
forms: one state object, one boost and one reduction per draw, in the same
rng order.

The sweep-record section at the end is the reference for the streamed CSV
writer: it expands ``run_sweep`` blocks into one record per row, sums
``P + C + S`` in Python and formats every field with its own
``format(x, ".12g")``, the way each row was printed before the sweep was
streamed.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np


def half_angle(phi):
    """Return (cos(phi/2), sin(phi/2))."""
    return math.cos(0.5 * phi), math.sin(0.5 * phi)


def rot_plus(theta, phi):
    """Little-group SU(2) matrix for momentum +p y-hat.

    The rotation axis is the unit vector along e x p = (-sin(theta), 0,
    cos(theta)) and the spin-1/2 representation of a rotation by ``phi``
    about axis n is cos(phi/2) I + i sin(phi/2) (sigma . n).
    """
    c, s = half_angle(phi)
    ct, st = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [c + 1j * s * ct, -1j * s * st],
            [-1j * s * st, c - 1j * s * ct],
        ]
    )


def rot_minus(theta, phi):
    """Little-group SU(2) matrix for momentum -p y-hat (axis flips sign)."""
    c, s = half_angle(phi)
    ct, st = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [c - 1j * s * ct, 1j * s * st],
            [1j * s * st, c + 1j * s * ct],
        ]
    )


# ---------------------------------------------------------------------------
# Boosted single-particle states (amplitude vectors over (momentum, spin)).
# ---------------------------------------------------------------------------


def psi_boosted(theta, phi):
    """(1/sqrt2)(|+p>|0> + |-p>|0>) after the boost."""
    up = rot_plus(theta, phi)[:, 0]
    dn = rot_minus(theta, phi)[:, 0]
    return np.concatenate([up, dn]) / math.sqrt(2.0)


def xi_boosted(theta, phi):
    """(1/sqrt2)(|+p>|0> + |-p>|1>) after the boost."""
    up = rot_plus(theta, phi)[:, 0]
    dn = rot_minus(theta, phi)[:, 1]
    return np.concatenate([up, dn]) / math.sqrt(2.0)


def phi_boosted(theta, phi):
    """(1/2)(|+p> + |-p>)(|0> + |1>) after the boost."""
    both = np.array([1.0, 1.0])
    up = rot_plus(theta, phi) @ both
    dn = rot_minus(theta, phi) @ both
    return np.concatenate([up, dn]) / 2.0


def _pair_index(pa, sa, pb, sb):
    """Flat index in the (momentum_A, spin_A, momentum_B, spin_B) basis."""
    return ((pa * 2 + sa) * 2 + pb) * 2 + sb


def xi2_boosted(theta, phi):
    """(1/sqrt2)(|+p,-p> + |-p,+p>)|00> after the boost."""
    up = rot_plus(theta, phi)
    dn = rot_minus(theta, phi)
    amps = np.zeros(16, dtype=complex)
    for sa in range(2):
        for sb in range(2):
            amps[_pair_index(0, sa, 1, sb)] = up[sa, 0] * dn[sb, 0]
            amps[_pair_index(1, sa, 0, sb)] = dn[sa, 0] * up[sb, 0]
    return amps / math.sqrt(2.0)


def upsilon_boosted(theta, phi):
    """(1/sqrt2)(|+p>|0>|-p>|1> + |-p>|1>|+p>|0>) after the boost."""
    up = rot_plus(theta, phi)
    dn = rot_minus(theta, phi)
    amps = np.zeros(16, dtype=complex)
    for sa in range(2):
        for sb in range(2):
            amps[_pair_index(0, sa, 1, sb)] = up[sa, 0] * dn[sb, 1]
            amps[_pair_index(1, sa, 0, sb)] = dn[sa, 1] * up[sb, 0]
    return amps / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Boosted reduced density matrices, written out entry by entry.
# ---------------------------------------------------------------------------


def psi_rho_spin(theta, phi):
    c, s = half_angle(phi)
    ct, st = math.cos(theta), math.sin(theta)
    return np.array(
        [
            [c * c + s * s * ct * ct, -(s * s) * st * ct],
            [-(s * s) * st * ct, s * s * st * st],
        ],
        dtype=complex,
    )


def psi_rho_momentum(theta, phi):
    ct = math.cos(theta)
    off = 0.5 * (math.cos(phi) + 1j * math.sin(phi) * ct)
    return np.array([[0.5, off], [np.conj(off), 0.5]])


def xi_rho_spin(theta, phi):
    c, s = half_angle(phi)
    st = math.sin(theta)
    return np.array([[0.5, 1j * c * s * st], [-1j * c * s * st, 0.5]])


def xi_rho_momentum(theta, phi):
    c, s = half_angle(phi)
    st = math.sin(theta)
    return np.array([[0.5, -1j * c * s * st], [1j * c * s * st, 0.5]])


def phi_rho_spin(theta, phi):
    c, s = half_angle(phi)
    ct, st = math.cos(theta), math.sin(theta)
    bias = s * s * st * ct
    off = 0.5 * (c * c - s * s * math.cos(2.0 * theta))
    return np.array([[0.5 - bias, off], [off, 0.5 + bias]])


def phi_rho_momentum(theta, phi):
    st = math.sin(theta)
    off = 0.5 * (math.cos(phi) - 1j * math.sin(phi) * st)
    return np.array([[0.5, off], [np.conj(off), 0.5]])


def xi2_rho_momentum_pair(theta, phi):
    """Momentum-momentum reduction of the boosted two-particle Bell state."""
    c, s = half_angle(phi)
    st = math.sin(theta)
    anti = 0.5 * (1.0 - 4.0 * c * c * s * s * st * st)
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = rho[2, 2] = 0.5
    rho[1, 2] = rho[2, 1] = anti
    return rho


def upsilon_rho_spin(phi):
    """Single-particle spin reduction at theta = pi/2 (same for A and B)."""
    c, s = half_angle(phi)
    return np.array([[0.5, 1j * c * s], [-1j * c * s, 0.5]])


def upsilon_rho_momentum_pair(phi):
    """Momentum-momentum reduction at theta = pi/2."""
    c, s = half_angle(phi)
    anti = 2.0 * c * c * s * s
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = rho[2, 2] = 0.5
    rho[1, 2] = rho[2, 1] = anti
    return rho


# ---------------------------------------------------------------------------
# Misc small oracles.
# ---------------------------------------------------------------------------


def kron_brute(a, b):
    """Kronecker product computed by its element definition."""
    (ra, ca), (rb, cb) = a.shape, b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for m in range(cb):
                    out[i * rb + k, j * cb + m] = a[i, j] * b[k, m]
    return out


def partial_trace_loop(matrix, dims, keep):
    """Partial trace written as explicit sums over kept and traced index tuples.

        out[I, J] = sum_T rho[(I, T), (J, T)]

    with I, J over the kept multi-indices and T over the traced ones, in
    row-major order (the last factor varies fastest).  Returns the reduced
    matrix over the kept factors in their original order.
    """
    dims = tuple(dims)
    keep_list = sorted(keep)
    n = len(dims)
    strides = [1] * n
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    traced = [i for i in range(n) if i not in keep_list]
    kept_tuples = list(itertools.product(*(range(dims[i]) for i in keep_list)))
    traced_offsets = [
        sum(strides[pos] * t for pos, t in zip(traced, tup))
        for tup in itertools.product(*(range(dims[i]) for i in traced))
    ]
    out = np.zeros((len(kept_tuples), len(kept_tuples)), dtype=complex)
    for row, ktup_i in enumerate(kept_tuples):
        base_i = sum(strides[pos] * v for pos, v in zip(keep_list, ktup_i))
        for col, ktup_j in enumerate(kept_tuples):
            base_j = sum(strides[pos] * v for pos, v in zip(keep_list, ktup_j))
            acc = 0.0 + 0.0j
            for off in traced_offsets:
                acc += matrix[base_i + off, base_j + off]
            out[row, col] = acc
    return out


def linear_entropy_multiindex_loop(amplitudes, dims, subsystem):
    """S_l of one factor as the literal double multi-index sum, loop by loop.

        S_l = sum_{i1 != j1} sum_{I != J} ( |rho_{i1 I, j1 J}|^2
                                            - rho_{i1 I, j1 I} rho*_{i1 J, j1 J} )

    with rho_{A,B} = v_A conj(v_B) read off the flat amplitude vector.
    """
    dims = tuple(dims)
    v = np.asarray(amplitudes, dtype=complex)
    n = len(dims)
    strides = [1] * n
    for i in range(n - 2, -1, -1):
        strides[i] = strides[i + 1] * dims[i + 1]
    rest = [k for k in range(n) if k != subsystem]
    s_stride = strides[subsystem]
    rest_offsets = [
        sum(strides[pos] * t for pos, t in zip(rest, tup))
        for tup in itertools.product(*(range(dims[k]) for k in rest))
    ]

    def rho(row, col):
        return v[row] * np.conj(v[col])

    total = 0.0 + 0.0j
    for i1 in range(dims[subsystem]):
        for j1 in range(dims[subsystem]):
            if i1 == j1:
                continue
            for off_i in rest_offsets:
                for off_j in rest_offsets:
                    if off_i == off_j:
                        continue
                    row_ii = i1 * s_stride + off_i
                    col_jj = j1 * s_stride + off_j
                    col_ji = j1 * s_stride + off_i
                    row_ij = i1 * s_stride + off_j
                    total += abs(rho(row_ii, col_jj)) ** 2
                    total -= rho(row_ii, col_ji) * np.conj(rho(row_ij, col_jj))
    return float(np.real(total))


def controlled_unitary_dense(stacks):
    """Dense block-diagonal controlled unitary of per-pair (M, t, t) stacks.

    Block c of pair k is stacks[k][c]; the pairs combine by Kronecker
    product in factor order.
    """
    u = np.ones((1, 1), dtype=complex)
    for stack in stacks:
        m, t, _ = stack.shape
        block = np.zeros((m * t, m * t), dtype=complex)
        for c in range(m):
            block[c * t : (c + 1) * t, c * t : (c + 1) * t] = stack[c]
        u = kron_brute(u, block)
    return u


def same_up_to_global_phase(u, v, tol=1e-10):
    """True when u = exp(i alpha) v for some real alpha."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    if u.shape != v.shape:
        return False
    pivot = int(np.argmax(np.abs(v)))
    if abs(v[pivot]) < tol or abs(u[pivot]) < tol:
        return bool(np.max(np.abs(u - v)) <= tol)
    phase = u[pivot] / v[pivot]
    phase /= abs(phase)
    return bool(np.max(np.abs(u - phase * v)) <= tol)


def wigner_angle_mp(boost, p, digits=60):
    """Half-angle Wigner angle evaluated with mpmath at ``digits`` digits.

    The inputs are the float components the library receives: the boost
    rapidity and direction, and the stored (e, px, py, pz) of ``p``, whose
    mass sqrt(e^2 - |p|^2) is taken exactly.  (``FourMomentum.from_spatial``
    rounds e, so that mass differs from the requested one by up to about
    (|p|/m)^2 * 1e-16 relative.)  The angle is
    2 atan2(sh(w/2) sh(a/2) |e x p_hat|, ch(w/2) ch(a/2) + sh(w/2) sh(a/2) e . p_hat)
    with a = asinh(|p|/m).
    """
    import mpmath

    with mpmath.workdps(digits):
        mpf = mpmath.mpf
        e = [mpf(float(x)) for x in boost.direction]
        k = [mpf(p.px), mpf(p.py), mpf(p.pz)]
        k_mag = mpmath.sqrt(sum(x * x for x in k))
        mass = mpmath.sqrt(mpf(p.e) ** 2 - k_mag**2)
        k_hat = [x / k_mag for x in k]
        dot = sum(x * y for x, y in zip(e, k_hat))
        cross = (
            e[1] * k_hat[2] - e[2] * k_hat[1],
            e[2] * k_hat[0] - e[0] * k_hat[2],
            e[0] * k_hat[1] - e[1] * k_hat[0],
        )
        half_w = mpf(boost.rapidity) / 2
        half_a = mpmath.asinh(k_mag / mass) / 2
        sh_sh = mpmath.sinh(half_w) * mpmath.sinh(half_a)
        cos_half = mpmath.cosh(half_w) * mpmath.cosh(half_a) + sh_sh * dot
        sin_half = sh_sh * mpmath.sqrt(sum(x * x for x in cross))
        return float(2 * mpmath.atan2(sin_half, cos_half))


# ---------------------------------------------------------------------------
# Per-draw references for the batched check suites.
# ---------------------------------------------------------------------------


def apply_boost_loop(state, boost):
    """Amplitudes of ``apply_boost``, one ``su2_rotations`` call per particle.

    Each particle's stack is built from the per-mode closed form
    ``_wigner_angle_axis``, the way ``apply_boost`` built it before the
    batched ``physical_stacks``.
    """
    from ccrsim.linalg import apply_controlled
    from ccrsim.relativity import _wigner_angle_axis, su2_rotations

    stacks = []
    for particle in state.particles:
        angles, axes = zip(*(_wigner_angle_axis(boost, m.momentum) for m in particle.modes))
        stacks.append(su2_rotations(np.array(angles), np.array(axes)))
    return apply_controlled(state.vector, state.dims, stacks)


def boost_purity_loop(rng):
    """Max deviation of ``boost-purity-preservation``, state by state."""
    from ccrsim.boost import apply_boost
    from ccrsim.checks import _random_boost, _random_momentum, _random_spin_pair
    from ccrsim.states import make_product_state

    dev = 0.0
    for _ in range(50):
        momenta = []
        for _ in range(2):
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            amps /= np.linalg.norm(amps)
            momenta.append(
                [
                    ("a", _random_momentum(rng), complex(amps[0])),
                    ("b", _random_momentum(rng), complex(amps[1])),
                ]
            )
        state = make_product_state(momenta, [_random_spin_pair(rng) for _ in range(2)])
        boosted = apply_boost(state, _random_boost(rng))
        dev = max(dev, abs(float(np.linalg.norm(boosted.vector)) - 1.0))
    return dev


def single_momentum_separability_loop(rng):
    """Max deviation of ``single-momentum-separability``, state by state."""
    from ccrsim.boost import apply_boost
    from ccrsim.checks import _random_boost, _random_momentum, _random_spin_pair
    from ccrsim.measures import linear_entropy
    from ccrsim.states import make_product_state, reduced_density_matrix

    dev = 0.0
    for _ in range(500):
        state = make_product_state(
            [[("k", _random_momentum(rng), 1.0)]], [_random_spin_pair(rng)]
        )
        boosted = apply_boost(state, _random_boost(rng))
        dev = max(dev, linear_entropy(reduced_density_matrix(boosted, {1})))
    return dev


def entropy_multiindex_loop(rng):
    """Max deviation of ``entropy-multiindex-equivalence``, state by state.

    The reduced side is the dense route: ``outer`` and ``partial_trace``.
    """
    from ccrsim.checks import _random_state
    from ccrsim.linalg import outer, partial_trace, purity
    from ccrsim.measures import linear_entropy_multiindex

    dev = 0.0
    for dims in ((2, 2, 2), (2, 2, 2, 2)):
        for _ in range(100):
            psi = _random_state(rng, dims)
            rho = outer(psi)
            for sub in range(len(dims)):
                direct = linear_entropy_multiindex(psi, sub)
                reduced = 1.0 - purity(partial_trace(rho, {sub}))
                dev = max(dev, abs(direct - reduced))
    return dev


# ---------------------------------------------------------------------------
# Reference rendering of sweep rows.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRecord:
    scenario: str
    theta: float
    phi: float
    particle: int
    dof: str
    predictability: float
    coherence: float
    entropy: float
    total: float
    residual: float

    def csv_row(self):
        return ",".join(
            (
                self.scenario,
                format(self.theta, ".12g"),
                format(self.phi, ".12g"),
                str(self.particle),
                self.dof,
                format(self.predictability, ".12g"),
                format(self.coherence, ".12g"),
                format(self.entropy, ".12g"),
                format(self.total, ".12g"),
                format(self.residual, ".12g"),
            )
        )


def sweep_records(config):
    """One record per row of ``run_sweep(config)``, in row order."""
    from ccrsim.sweep import run_sweep

    records = []
    for block in run_sweep(config):
        columns = [
            a.tolist()
            for a in (block.predictability, block.coherence, block.entropy, block.residual)
        ]
        for i, theta in enumerate(block.thetas):
            for j, phi in enumerate(block.phis):
                for k, (particle, dof) in enumerate(block.subsystems):
                    p, c, s, residual = (column[i][j][k] for column in columns)
                    records.append(
                        SweepRecord(
                            scenario=config.scenario.value,
                            theta=theta,
                            phi=phi,
                            particle=particle,
                            dof=dof,
                            predictability=p,
                            coherence=c,
                            entropy=s,
                            total=p + c + s,
                            residual=residual,
                        )
                    )
    return records


def sweep_csv_text(records):
    """The CSV text of ``records``: the header, then one line per record."""
    from ccrsim.sweep import CSV_COLUMNS

    return "\n".join([",".join(CSV_COLUMNS)] + [r.csv_row() for r in records]) + "\n"
