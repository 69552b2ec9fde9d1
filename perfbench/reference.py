"""The benchmark's own output reference, written from the physics.

Nothing here imports ccrsim or its tests.  The closed forms follow the
paper's setup (arXiv 2007.14480) and the conventions the package documents:
factor order (momentum_1, spin_1, momentum_2, spin_2), spin |0> up along z,
scenario momenta +-p along y (mode 0 is +p), boost direction
(cos theta, 0, sin theta), and per-mode spin rotation
D = cos(f/2) I + i sin(f/2) (sigma . n) about n = e x p_hat.

Every sweep CSV row and every boost-large triple is scored against these
values; a mismatch is returned as a problem string, which fails the job.
"""

from __future__ import annotations

import math

import numpy as np

CSV_COLUMNS = "scenario,theta,phi,particle,dof,P,C,S,sum,residual"
VALUE_TOL = 1e-9  # P, C, S, sum against the reference
RESIDUAL_TOL = 1e-10  # residual column, and boost-large sums against (d-1)/d
MOMENTUM_P_TOL = 1e-12  # a boost only relabels momentum populations
ANGLE_TOL = 1e-11  # theta, phi columns are printed with 12 significant digits

DOFS = ("momentum", "spin")
TWO_PARTICLE = ("xi2", "upsilon")

_R = 1.0 / math.sqrt(2.0)


def scenario_tensor(scenario: str) -> np.ndarray:
    """Pre-boost amplitudes indexed (m1, s1) or (m1, s1, m2, s2)."""
    if scenario == "psi":  # (|+p> + |-p>)/sqrt2 (x) |0>
        psi = np.zeros((2, 2), complex)
        psi[0, 0] = psi[1, 0] = _R
    elif scenario == "xi":  # (|+p,0> + |-p,1>)/sqrt2
        psi = np.zeros((2, 2), complex)
        psi[0, 0] = psi[1, 1] = _R
    elif scenario == "phi":  # (|+p> + |-p>)(|0> + |1>)/2
        psi = np.full((2, 2), 0.5, complex)
    elif scenario == "xi2":  # (|+p,-p> + |-p,+p>)/sqrt2 (x) |0,0>
        psi = np.zeros((2, 2, 2, 2), complex)
        psi[0, 0, 1, 0] = psi[1, 0, 0, 0] = _R
    elif scenario == "upsilon":  # (|+p,-p>|0,1> + |-p,+p>|1,0>)/sqrt2
        psi = np.zeros((2, 2, 2, 2), complex)
        psi[0, 0, 1, 1] = psi[1, 1, 0, 0] = _R
    else:
        raise ValueError(f"unknown scenario {scenario!r}")
    return psi


def su2(cos_half: np.ndarray, sin_vec: np.ndarray) -> np.ndarray:
    """cos(f/2) I + i (sigma . sin_vec), batched over leading axes of sin_vec."""
    sx, sy, sz = sin_vec[..., 0], sin_vec[..., 1], sin_vec[..., 2]
    out = np.empty(sin_vec.shape[:-1] + (2, 2), complex)
    out[..., 0, 0] = cos_half + 1j * sz
    out[..., 0, 1] = 1j * sx + sy
    out[..., 1, 0] = 1j * sx - sy
    out[..., 1, 1] = cos_half - 1j * sz
    return out


def angle_mode_rotations(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Direct-angle per-mode rotations, shape (T, F, mode, 2, 2).

    For p = +-|p| y-hat the axis e x p_hat is +-(-sin theta, 0, cos theta).
    """
    half = np.asarray(phi)[None, :] / 2.0
    th = np.asarray(theta)[:, None]
    cos_half = np.broadcast_to(np.cos(half), (th.shape[0], half.shape[1]))
    out = []
    for sign in (1.0, -1.0):
        n = np.stack(np.broadcast_arrays(-sign * np.sin(th), 0.0 * th, sign * np.cos(th)), -1)
        out.append(su2(cos_half, np.sin(half)[..., None] * n))
    return np.stack(out, axis=2)


def boosted_scenario(scenario: str, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Boosted amplitudes on the whole grid, shape (T, F) + scenario shape."""
    psi = scenario_tensor(scenario)
    d = angle_mode_rotations(theta, phi)
    if psi.ndim == 2:
        return np.einsum("tfmab,mb->tfma", d, psi)
    return np.einsum("tfiab,tfjcd,ibjd->tfiajc", d, d, psi)


def reduce_factor(psi: np.ndarray, factor: int, n_factors: int) -> np.ndarray:
    """Single-factor marginal of pure states psi[..., f_1, ..., f_n]."""
    letters = "abcdefghijkl"[:n_factors]
    col = letters[:factor] + "z" + letters[factor + 1 :]
    return np.einsum(f"...{letters},...{col}->...{letters[factor]}z", psi, psi.conj())


def triple(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P_l, C_hs, S_l) of density matrices rho[..., d, d]."""
    d = rho.shape[-1]
    diag = np.real(np.diagonal(rho, axis1=-2, axis2=-1))
    weight = np.sum(np.abs(rho) ** 2, axis=(-2, -1))
    diag_sq = np.sum(diag * diag, axis=-1)
    return diag_sq - 1.0 / d, weight - diag_sq, 1.0 - weight


def sweep_reference(
    scenario: str,
    theta: np.ndarray,
    phi: np.ndarray,
    subsystems: list[tuple[int, str]] | None,
) -> list[tuple]:
    """Expected sweep rows (scenario, theta, phi, particle, dof, P, C, S, sum)
    in CLI order: theta ascending, then phi, then global subsystem index."""
    theta = np.sort(np.asarray(theta, float))
    phi = np.sort(np.asarray(phi, float))
    n_particles = 2 if scenario in TWO_PARTICLE else 1
    if subsystems is None:
        subsystems = [(k, dof) for k in range(n_particles) for dof in DOFS]
    subs = sorted(subsystems, key=lambda s: 2 * s[0] + DOFS.index(s[1]))
    psi = boosted_scenario(scenario, theta, phi)
    per_sub = []
    for particle, dof in subs:
        rho = reduce_factor(psi, 2 * particle + DOFS.index(dof), 2 * n_particles)
        p, c, s = (x.tolist() for x in triple(rho))
        per_sub.append((particle, dof, p, c, s))
    rows = []
    for i, t in enumerate(theta.tolist()):
        for j, f in enumerate(phi.tolist()):
            for particle, dof, p, c, s in per_sub:
                pcs = (p[i][j], c[i][j], s[i][j])
                rows.append((scenario, t, f, particle, dof, *pcs, sum(pcs)))
    return rows


def score_sweep_csv(text: str, expected: list[tuple]) -> list[str]:
    """Problems with a sweep CSV: header, row count and order, values."""
    lines = text.splitlines()
    if not lines or lines[0] != CSV_COLUMNS:
        return [f"bad CSV header {lines[:1]!r}"]
    rows = lines[1:]
    if len(rows) != len(expected):
        return [f"{len(rows)} CSV rows, expected {len(expected)}"]
    problems = []
    for n, (line, want) in enumerate(zip(rows, expected), start=1):
        fields = line.split(",")
        if len(fields) != 10:
            problems.append(f"row {n}: {len(fields)} fields")
            continue
        scenario, particle, dof = want[0], want[3], want[4]
        if fields[0] != scenario or fields[3] != str(particle) or fields[4] != dof:
            problems.append(f"row {n}: labels {fields[0]},{fields[3]},{fields[4]} out of order")
            continue
        try:
            got = [float(x) for x in fields[1:3] + fields[5:]]
        except ValueError:
            problems.append(f"row {n}: unparsable number in {line!r}")
            continue
        if abs(got[0] - want[1]) > ANGLE_TOL or abs(got[1] - want[2]) > ANGLE_TOL:
            problems.append(f"row {n}: (theta, phi) = {got[:2]}, expected {want[1:3]}")
        dev = max(abs(g - w) for g, w in zip(got[2:6], want[5:9]))
        if not dev <= VALUE_TOL:
            problems.append(f"row {n}: P, C, S, sum off the reference by {dev:.3e}")
        if not 0.0 <= got[6] <= RESIDUAL_TOL:
            problems.append(f"row {n}: residual {got[6]!r} above {RESIDUAL_TOL}")
        if len(problems) >= 5:
            break
    return problems


def wigner_su2(rapidity: float, direction: np.ndarray, mass: float, p_vec: np.ndarray) -> np.ndarray:
    """Half-angle closed form of the little-group rotation of one mode."""
    p_mag = float(np.linalg.norm(p_vec))
    a = math.asinh(p_mag / mass)
    p_hat = p_vec / p_mag
    dot = float(direction @ p_hat)
    w = rapidity
    norm = math.sqrt((1.0 + math.cosh(w) * math.cosh(a) + math.sinh(w) * math.sinh(a) * dot) / 2.0)
    cos_half = (math.cosh(w / 2) * math.cosh(a / 2) + math.sinh(w / 2) * math.sinh(a / 2) * dot) / norm
    sin_vec = (math.sinh(w / 2) * math.sinh(a / 2) / norm) * np.cross(direction, p_hat)
    return su2(np.asarray(cos_half), sin_vec)


def boosted_product_triples(particles: list[dict], rapidity: float, direction: np.ndarray) -> list[tuple]:
    """Expected (P, C, S, d) per single-DOF subsystem of a boosted product state.

    A boost acts particle by particle, so the state stays a product and each
    particle's (mode, spin) block psi'[m] = a_m D_m s is reduced on its own.
    """
    out = []
    for part in particles:
        block = np.array(
            [
                amp * (wigner_su2(rapidity, direction, part["mass"], p) @ part["spin"])
                for amp, p in zip(part["amps"], part["momenta"])
            ]
        )
        for rho in (block @ block.conj().T, block.T @ block.conj()):
            p, c, s = triple(rho)
            out.append((float(p), float(c), float(s), rho.shape[0]))
    return out
