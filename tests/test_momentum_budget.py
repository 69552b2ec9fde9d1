"""Property tests of the paper's central claim: momentum coherence is the budget.

A boost acts on each particle as a momentum-controlled spin unitary, so every
momentum-basis population survives it.  For the momentum of every particle:

* P_l does not move;
* C_hs + S_l is conserved, so the boost only turns momentum coherence into
  spin-momentum entanglement;
* for a product state, S_l of the spin after the boost is at most C_hs of
  the momentum before it: a fully predictable momentum (C_hs = 0) keeps the
  spin separable.

Draws cover 1-2 particles with 1-3 modes each, mass 0.5-2, |p| up to 3 per
axis, rapidity up to 8 along any direction, and product as well as generic
states.  The closed form S_l(spin, after) = C_hs(momentum, before)
sin^2(theta) sin^2(phi) for (a|+p> + b|-p>) (x) |0> under the prescribed
Wigner angle pins the budget down exactly.  Every tolerance is 1e-12.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")

from ccrsim import (  # noqa: E402
    BoostSpec,
    FourMomentum,
    MultipartiteState,
    Particle,
    ScenarioId,
    StateVector,
    apply_boost,
    boost_by_wigner_angle,
    boost_direction,
    ccr,
    make_product_state,
    make_scenario,
)

st = hypothesis.strategies

TOL = 1e-12

_UNIT = st.floats(min_value=-1.0, max_value=1.0)
_DIRECTION = st.tuples(_UNIT, _UNIT, _UNIT).filter(lambda v: math.hypot(*v) > 0.1)


def _unit_complex(draw, n):
    """A unit-norm complex n-vector."""
    parts = draw(
        st.lists(_UNIT, min_size=2 * n, max_size=2 * n).filter(
            lambda xs: math.hypot(*xs) > 0.1
        )
    )
    v = np.array(parts[:n]) + 1j * np.array(parts[n:])
    return v / np.linalg.norm(v)


def _separated(momenta, gap=1e-3):
    return all(
        np.max(np.abs(a - b)) > gap for i, a in enumerate(momenta) for b in momenta[i + 1 :]
    )


@st.composite
def _particle_modes(draw):
    """(mass, spatial momenta) of one particle, its modes pairwise apart."""
    mass = draw(st.floats(min_value=0.5, max_value=2.0))
    n_modes = draw(st.integers(min_value=1, max_value=3))
    vectors = [
        3.0 * np.array(draw(st.tuples(_UNIT, _UNIT, _UNIT))) for _ in range(n_modes)
    ]
    hypothesis.assume(_separated(vectors))
    return [FourMomentum.from_spatial(mass, v) for v in vectors]


@st.composite
def _states(draw):
    """(state, is_product) over 1-2 particles with 1-3 modes each."""
    modes = [draw(_particle_modes()) for _ in range(draw(st.integers(1, 2)))]
    if draw(st.booleans()):
        momenta = [
            [(f"k{m}", p, a) for m, (p, a) in enumerate(zip(ps, _unit_complex(draw, len(ps))))]
            for ps in modes
        ]
        spins = [tuple(_unit_complex(draw, 2)) for _ in modes]
        return make_product_state(momenta, spins), True
    particles = tuple(
        Particle(
            tuple(f"k{m}" for m in range(len(ps))),
            [p.mass for p in ps],
            [p.spatial for p in ps],
        )
        for ps in modes
    )
    dims = tuple(d for ps in modes for d in (len(ps), 2))
    amps = _unit_complex(draw, math.prod(dims))
    return MultipartiteState(particles, StateVector(dims, amps)), False


@hypothesis.settings(derandomize=True, deadline=None, max_examples=150)
@hypothesis.given(
    drawn=_states(),
    rapidity=st.floats(min_value=0.0, max_value=8.0),
    direction=_DIRECTION,
)
def test_boost_only_moves_momentum_coherence_into_entanglement(drawn, rapidity, direction):
    state, is_product = drawn
    e_hat = np.array(direction) / math.hypot(*direction)
    boosted = apply_boost(state, BoostSpec(rapidity, e_hat))
    for k in range(state.n_particles):
        mom = 2 * k
        before, after = ccr(state, mom), ccr(boosted, mom)
        assert abs(after.predictability - before.predictability) <= TOL
        budget_before = before.coherence + before.entropy
        assert abs(after.coherence + after.entropy - budget_before) <= TOL
        if is_product:
            assert ccr(boosted, mom + 1).entropy <= before.coherence + TOL


@hypothesis.settings(derandomize=True, deadline=None, max_examples=100)
@hypothesis.given(
    weight=st.floats(min_value=0.0, max_value=1.0),
    phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
    theta=st.floats(min_value=0.0, max_value=math.pi / 2),
    phi=st.floats(min_value=0.0, max_value=math.pi / 2),
)
def test_spin_entropy_closed_form_for_two_mode_superposition(weight, phase, theta, phi):
    # (a|+p> + b|-p>) (x) |0> with |a|^2 = weight and a relative phase; the
    # modes are those of the scenario states, +-p along y.
    modes = make_scenario(ScenarioId.PSI).particles[0]
    plus, minus = (FourMomentum.from_spatial(m, p) for m, p in zip(modes.masses, modes.momenta))
    a = math.sqrt(weight)
    b = math.sqrt(1.0 - weight) * complex(math.cos(phase), math.sin(phase))
    state = make_product_state(
        [[(modes.tokens[0], plus, a), (modes.tokens[1], minus, b)]], [(1.0, 0.0)]
    )
    coherence = ccr(state, 0).coherence
    boosted = boost_by_wigner_angle(state, phi, boost_direction(theta))
    expected = coherence * math.sin(theta) ** 2 * math.sin(phi) ** 2
    assert abs(ccr(boosted, 1).entropy - expected) <= TOL
