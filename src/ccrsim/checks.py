"""Self-check battery: the package's invariants bundled as named suites.

Each suite reports its worst deviation against its tolerance, so a regression
shows up as a number rather than just a boolean.  Random suites draw from one
sequentially consumed generator; a fixed seed reproduces the run exactly.
The suites that boost, rotate or reduce random states draw their inputs one
by one and then evaluate them as one batch (the Wigner closed form,
``physical_stacks``, ``apply_controlled``, ``linalg.reduced_matrices``, the
multi-index core; only the 4x4 oracle runs draw by draw);
every reduced stack is validated once, by ``reduced_matrices``.  The
measures are looked up on their modules at call time, so a measure replaced
at run time reaches every suite that uses it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg, measures
from .boost import physical_stacks, wigner_angle_grid
from .linalg import StateVector, kron, outer, partial_trace, purity
from .measures import ccr, concurrence_momentum_x
from .relativity import (
    METRIC,
    BoostSpec,
    FourMomentum,
    _wigner_angles_axes,
    boost_matrix,
    rotation_angle,
    su2_rotations,
    wigner_oracle,
)
from .states import SPIN, ScenarioId, make_scenario
from .sweep import SweepBlock, SweepConfig, run_sweep

DEFAULT_SEED = 1905

# The sweep grid the complementarity suites run on.
GRID_THETA = (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
GRID_PHI = tuple(float(x) for x in np.linspace(0.0, math.pi / 2, 65))


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool
    detail: str = ""


def _result(name: str, dev: float, tol: float, detail: str = "") -> SuiteResult:
    return SuiteResult(name, float(dev), tol, bool(dev <= tol), detail)


def _random_state(rng: np.random.Generator, dims: tuple[int, ...]) -> StateVector:
    n = math.prod(dims)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector(dims, v / np.linalg.norm(v))


def _random_unit3(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_mode(rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """(mass, spatial momentum) of one random mode."""
    return rng.uniform(0.5, 2.0), rng.uniform(0.0, 3.0) * _random_unit3(rng)


def _random_momentum(rng: np.random.Generator) -> FourMomentum:
    return FourMomentum.from_spatial(*_random_mode(rng))


def _random_boost(rng: np.random.Generator, max_rapidity: float = 5.0) -> BoostSpec:
    return BoostSpec(rng.uniform(0.0, max_rapidity), _random_unit3(rng))


def _random_spin_pair(rng: np.random.Generator) -> tuple[complex, complex]:
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    v /= np.linalg.norm(v)
    return complex(v[0]), complex(v[1])


# ---------------------------------------------------------------------------
# tensor-core suites


def _check_kron_associativity(rng: np.random.Generator) -> SuiteResult:
    dev = 0.0
    for _ in range(25):
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
        left = kron(kron(a, b), c)
        right = kron(a, kron(b, c))
        dev = max(dev, float(np.max(np.abs(left - right)) / np.max(np.abs(left))))
    return _result("kron-associativity", dev, 1e-15)


def _check_partial_trace_identity(rng: np.random.Generator) -> SuiteResult:
    dev = 0.0
    for dims in ((2, 2), (2, 2, 2), (2, 2, 2, 2)):
        rho = outer(_random_state(rng, dims))
        back = partial_trace(rho, set(range(len(dims))))
        if not np.array_equal(back.matrix, rho.matrix):
            dev = max(dev, float(np.max(np.abs(back.matrix - rho.matrix))), 1.0e-300)
    return _result("partial-trace-identity", dev, 0.0, "keep-all must be bit-exact")


def _check_partial_trace_preservation(rng: np.random.Generator) -> SuiteResult:
    dev = 0.0
    for dims in ((2, 2, 2), (2, 2, 2, 2)):
        rho = outer(_random_state(rng, dims))
        for r in range(1, len(dims) + 1):
            for keep in itertools.combinations(range(len(dims)), r):
                reduced = partial_trace(rho, set(keep))
                dev = max(dev, abs(float(np.real(np.trace(reduced.matrix))) - 1.0))
    return _result("partial-trace-preservation", dev, 1e-12)


def _check_product_reduction_purity(rng: np.random.Generator) -> SuiteResult:
    dev = 0.0
    for _ in range(25):
        a = _random_state(rng, (4,))
        b = _random_state(rng, (4,))
        psi = StateVector((4, 4), np.kron(a.amplitudes, b.amplitudes))
        rho = outer(psi)
        for keep in ({0}, {1}):
            dev = max(dev, abs(purity(partial_trace(rho, keep)) - 1.0))
    return _result("product-reduction-purity", dev, 1e-12)


def _check_outer_psd(rng: np.random.Generator) -> SuiteResult:
    dev = 0.0
    for _ in range(100):
        rho = outer(_random_state(rng, (2, 2, 2)))
        dev = max(dev, max(0.0, -float(np.min(np.linalg.eigvalsh(rho.matrix)))))
    return _result("outer-psd", dev, 1e-12)


# ---------------------------------------------------------------------------
# relativity suites


def _check_wigner_su2(rng: np.random.Generator) -> SuiteResult:
    boosts, modes = zip(*[(_random_boost(rng), _random_mode(rng)) for _ in range(100)])
    masses, momenta = (np.array(column)[:, None] for column in zip(*modes))  # (100, 1) modes
    m = physical_stacks(boosts, masses, momenta)
    dev = float(np.max(np.abs(m @ np.swapaxes(m, -1, -2).conj() - np.eye(2))))
    dev = max(dev, float(np.max(np.abs(np.linalg.det(m) - 1.0))))
    return _result("wigner-su2", dev, 1e-12)


def _check_wigner_oracle_agreement(rng: np.random.Generator) -> SuiteResult:
    draws = [(_random_boost(rng), _random_momentum(rng)) for _ in range(100)]
    columns = zip(*((b.rapidity, b.direction, p.mass, p.spatial) for b, p in draws))
    angles, _ = _wigner_angles_axes(*map(np.array, columns))
    dev = 0.0
    for (boost, p), angle in zip(draws, angles.tolist()):
        w = wigner_oracle(boost, p)
        dev = max(dev, abs(rotation_angle(w) - angle))
        k = np.array([p.mass, 0.0, 0.0, 0.0])
        dev = max(dev, float(np.max(np.abs(w @ k - k))))
        r = w[1:, 1:]
        dev = max(dev, float(np.max(np.abs(r @ r.T - np.eye(3)))))
    return _result("wigner-oracle-agreement", dev, 1e-9)


def _check_boost_metric(rng: np.random.Generator) -> SuiteResult:
    dev = 0.0
    for _ in range(100):
        lam = boost_matrix(_random_boost(rng))
        dev = max(dev, float(np.max(np.abs(lam.T @ METRIC @ lam - METRIC))))
        dev = max(dev, max(0.0, 1.0 - lam[0, 0]))
    return _result("boost-metric-preservation", dev, 1e-10)


def _check_collinear_identity(rng: np.random.Generator) -> SuiteResult:
    draws = []  # (rapidity, direction, mass, momentum)
    for _ in range(50):
        direction = _random_unit3(rng)
        sign = 1.0 if rng.uniform() < 0.5 else -1.0
        mass, momentum = rng.uniform(0.5, 2.0), sign * rng.uniform(0.1, 3.0) * direction
        draws.append((rng.uniform(0.0, 5.0), direction, mass, momentum))
    angles, axes = _wigner_angles_axes(*map(np.array, zip(*draws)))
    m = su2_rotations(angles, axes)
    dev = max(float(np.max(np.abs(m - np.eye(2)))), float(np.max(np.abs(angles))))
    return _result("collinear-identity", dev, 1e-12)


def _check_boost_purity(rng: np.random.Generator) -> SuiteResult:
    # Two particles, each two random modes in a random superposition times a
    # random spin, under one random boost per draw.
    # modes[k] holds particle k's ((m1, m2), (p1, p2)) of each draw.
    amplitudes, modes, boosts = [], ([], []), []
    for _ in range(50):
        mode_amps = []
        for draws in modes:
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            mode_amps.append(amps / np.linalg.norm(amps))
            draws.append(tuple(zip(_random_mode(rng), _random_mode(rng))))
        (m_a, m_b), (s_a, s_b) = mode_amps, [_random_spin_pair(rng) for _ in range(2)]
        amplitudes.append(np.kron(np.kron(m_a, s_a), np.kron(m_b, s_b)))
        boosts.append(_random_boost(rng))
    stacks = [physical_stacks(boosts, *zip(*draws)) for draws in modes]
    boosted = linalg.apply_controlled(np.array(amplitudes), (2, 2, 2, 2), stacks)
    dev = float(np.max(np.abs(np.linalg.norm(boosted, axis=-1) - 1.0)))
    return _result("boost-purity-preservation", dev, 1e-10)


def _check_single_momentum_separability(rng: np.random.Generator) -> SuiteResult:
    # One particle with one momentum mode: the boost is a spin rotation, so
    # the spin must stay pure.
    modes, spins, boosts = [], [], []
    for _ in range(500):
        modes.append(_random_mode(rng))
        spins.append(_random_spin_pair(rng))
        boosts.append(_random_boost(rng))
    masses, momenta = (np.array(column)[:, None] for column in zip(*modes))  # (500, 1) modes
    stacks = physical_stacks(boosts, masses, momenta)
    boosted = linalg.apply_controlled(np.array(spins), (1, 2), [stacks])
    rho = linalg.reduced_matrices(boosted, (1, 2), 1)
    dev = max(0.0, float(np.max(measures.linear_entropy(rho))))
    return _result("single-momentum-separability", dev, 1e-12)


# ---------------------------------------------------------------------------
# states suites


def _check_scenario_preboost_ccr() -> SuiteResult:
    dev = 0.0
    for sid in ScenarioId:
        state = make_scenario(sid)
        dev = max(dev, abs(float(np.linalg.norm(state.vector)) - 1.0))
        for _, _, idx in state.single_dof_subsystems():
            dev = max(dev, ccr(state, idx).residual)
    return _result("scenario-preboost-ccr", dev, 1e-12)


def _check_scenario_preboost_marginals() -> SuiteResult:
    dev = 0.0
    half = np.eye(2) / 2.0
    up = np.diag([1.0, 0.0])
    for sid, marginals in (("xi2", (half, up, half, up)), ("upsilon", (half,) * 4)):
        state = make_scenario(sid)
        for idx, expect in enumerate(marginals):
            rho = linalg.reduced_matrices(state.vector, state.dims, idx)
            dev = max(dev, float(np.max(np.abs(rho - expect))))
    return _result("scenario-preboost-marginals", dev, 1e-12)


# ---------------------------------------------------------------------------
# measures suites (share the sweep blocks of the check grid)


# (scenario, pre-boost triples in the blocks' subsystem order, one sweep block)
_Grid = list[tuple[str, list[measures.ComplementarityTriple], SweepBlock]]


def _complementarity_grid() -> _Grid:
    """Every ``run_sweep`` block of the check grid, with its scenario's pre-boost triples."""
    grid = []
    for sid in ScenarioId:
        base = make_scenario(sid)
        pre = [ccr(base, idx) for _, _, idx in base.single_dof_subsystems()]
        blocks = run_sweep(SweepConfig(sid, GRID_THETA, GRID_PHI))
        grid.extend((sid.value, pre, block) for block in blocks)
    return grid


def _check_ccr_identity(grid: _Grid) -> SuiteResult:
    dev = 0.0
    for _, pre, block in grid:
        dev = max(dev, *(t.residual for t in pre), float(block.residual.max()))
    return _result("ccr-identity-grid", dev, 1e-10)


def _max_shift(post: np.ndarray, pre: list[float]) -> float:
    """Largest |post - pre| over a block column, with ``pre`` given per subsystem."""
    return float(np.max(np.abs(post - np.array(pre))))


def _check_ccr_invariance(grid: _Grid) -> SuiteResult:
    dev = 0.0
    witness: dict[str, float] = {}
    for scenario, pre, block in grid:
        dev = max(dev, _max_shift(block.total, [t.total for t in pre]))
        shift = max(
            _max_shift(block.predictability, [t.predictability for t in pre]),
            _max_shift(block.coherence, [t.coherence for t in pre]),
        )
        witness[scenario] = max(witness.get(scenario, 0.0), shift)
    missing = [s for s, shift in witness.items() if shift <= 0.1]
    detail = "each scenario must move P or C by > 0.1 somewhere on the grid"
    if missing:
        return SuiteResult("ccr-invariance", dev, 1e-10, False, f"no witness for {missing}")
    return _result("ccr-invariance", dev, 1e-10, detail)


def _check_measure_ranges(grid: _Grid) -> SuiteResult:
    dev = 0.0
    for _, pre, block in grid:
        tops = [(t.d - 1.0) / t.d for t in pre]
        for t, top in zip(pre, tops):
            for v in (t.predictability, t.coherence, t.entropy):
                dev = max(dev, -v, v - top)
        for v in (block.predictability, block.coherence, block.entropy):
            dev = max(dev, -float(v.min()), float(np.max(v - np.array(tops))))
    return _result("measure-ranges", max(0.0, dev), 1e-12)


def _check_entropy_multiindex(rng: np.random.Generator) -> SuiteResult:
    dev = 0.0
    for dims in ((2, 2, 2), (2, 2, 2, 2)):
        amps = np.array([_random_state(rng, dims).amplitudes for _ in range(100)])
        for sub in range(len(dims)):
            direct = measures.linear_entropy_multiindex_arrays(amps, dims, sub)
            rho = linalg.reduced_matrices(amps, dims, sub)
            dev = max(dev, float(np.max(np.abs(direct - (1.0 - purity(rho))))))
    return _result("entropy-multiindex-equivalence", dev, 1e-12)


def _xi2_reductions(thetas, phis, keep: set[int]) -> np.ndarray:
    """Validated reduced matrices of xi2 boosted over a (theta, phi) grid."""
    base = make_scenario(ScenarioId.XI2)
    return linalg.reduced_matrices(wigner_angle_grid(base, thetas, phis), base.dims, keep)


def _check_xi2_momentum_marginal() -> SuiteResult:
    dev = 0.0
    half = np.eye(2) / 2.0
    for idx in (0, 2):
        rho = _xi2_reductions(GRID_THETA, GRID_PHI[::4], {idx})
        dev = max(dev, float(np.max(np.abs(rho - half))))
    return _result("xi2-momentum-marginal", dev, 1e-12)


def _check_xi2_concurrence_monotonic() -> SuiteResult:
    rho = _xi2_reductions((math.pi / 2,), GRID_PHI, {0, 2})[0]
    values = [concurrence_momentum_x(m) for m in rho]
    dev = max(0.0, max(b - a for a, b in zip(values, values[1:])))
    return _result("xi2-concurrence-monotonic", dev, 1e-12, "E must not increase with phi")


def _check_upsilon_coherence_growth(grid: _Grid) -> SuiteResult:
    # The theta = pi/2 row, joined from every block that holds part of it.
    values = np.concatenate(
        [
            block.coherence[block.thetas.index(math.pi / 2), :, block.subsystems.index((0, SPIN))]
            for scenario, _, block in grid
            if scenario == ScenarioId.UPSILON.value and math.pi / 2 in block.thetas
        ]
    )
    dev = max(0.0, float(np.max(values[:-1] - values[1:])))
    dev = max(dev, abs(float(values[-1]) - 0.5))
    return _result("upsilon-coherence-growth", dev, 1e-12, "C must reach 1/2 at phi = pi/2")


def run_all_checks(seed: int = DEFAULT_SEED) -> list[SuiteResult]:
    """Run every suite in a fixed order; the seed feeds all random draws."""
    rng = np.random.default_rng(seed)
    grid = _complementarity_grid()
    return [
        _check_kron_associativity(rng),
        _check_partial_trace_identity(rng),
        _check_partial_trace_preservation(rng),
        _check_product_reduction_purity(rng),
        _check_outer_psd(rng),
        _check_wigner_su2(rng),
        _check_wigner_oracle_agreement(rng),
        _check_boost_metric(rng),
        _check_collinear_identity(rng),
        _check_boost_purity(rng),
        _check_single_momentum_separability(rng),
        _check_scenario_preboost_ccr(),
        _check_scenario_preboost_marginals(),
        _check_ccr_identity(grid),
        _check_ccr_invariance(grid),
        _check_measure_ranges(grid),
        _check_entropy_multiindex(rng),
        _check_xi2_momentum_marginal(),
        _check_xi2_concurrence_monotonic(),
        _check_upsilon_coherence_growth(grid),
    ]
