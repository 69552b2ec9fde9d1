"""Property tests of the Wigner closed form and the physical boost over the admitted domain.

Boost rapidity in [0, RAPIDITY_CAP], mass in [0.5, 2], and momentum
directions that are generic, near-collinear or near-anti-collinear with the
boost (1 - |e . p_hat| from 1e-12 to 1e-1).  Every draw must give an SU(2)
matrix within 1e-12 and an angle within 1e-11 of a 60-digit mpmath
evaluation, for |p|/m in [1e-6, 1e4] in every geometry and up to 1e8 in the
generic and near-collinear ones.  Near-anti-collinear angles up to
|p|/m = 1e8 are asserted within 1e-11 of an evaluation whose boost
direction is normalised at full precision, as ``BoostSpec`` promises: there
the ~1e-16 norm defect of a float unit vector is amplified by
sinh(w/2) sinh(a/2) (see the README).  ``apply_boost`` must refuse no draw
with |p|/m up to 1e8, under two boosts in a row, keep every mass bit for
bit, and put every momentum within 1e-10 max(|p|, |p'|, m) of mpmath.
Masses and momenta are carried exactly from ``FourMomentum.from_spatial``;
no mass is recomputed from E.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
pytest.importorskip("mpmath")

import helpers  # noqa: E402
from ccrsim import BoostSpec, FourMomentum, apply_boost, make_product_state  # noqa: E402
from ccrsim import wigner_rotation  # noqa: E402
from ccrsim.relativity import RAPIDITY_CAP  # noqa: E402

st = hypothesis.strategies

_COMPONENT = st.floats(min_value=-1.0, max_value=1.0)
_VECTOR = st.tuples(_COMPONENT, _COMPONENT, _COMPONENT).filter(
    lambda v: math.hypot(*v) > 0.1
)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def _tilted(e_hat, gap):
    """e_hat tilted by a small angle towards a unit vector orthogonal to it.

    1 - cos(tilt) = gap, so e_hat . p_hat = 1 - gap up to rounding.
    """
    side = _unit(np.cross(e_hat, np.eye(3)[np.argmin(np.abs(e_hat))]))
    tilt = 2.0 * math.asin(math.sqrt(gap / 2.0))
    return math.cos(tilt) * e_hat + math.sin(tilt) * side


@st.composite
def _geometry(draw, kinds=("generic", "collinear", "anti-collinear")):
    """(boost direction, momentum direction) pairs."""
    e_hat = _unit(draw(_VECTOR))
    kind = draw(st.sampled_from(kinds))
    if kind == "generic":
        return e_hat, _unit(draw(_VECTOR))
    p_hat = _tilted(e_hat, 10.0 ** draw(st.floats(min_value=-12.0, max_value=-1.0)))
    return e_hat, (p_hat if kind == "collinear" else -p_hat)


# A boost that reverses a fast, near-anti-collinear momentum along e, the
# case where forming p' from E and e . p cancels most digits; the second
# boost, along -e, reverses it again.
_E_HAT = _unit((0.3, -0.5, 0.8))


@hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
@hypothesis.given(
    rapidity=st.floats(min_value=0.0, max_value=RAPIDITY_CAP),
    log_ratio=st.floats(min_value=-6.0, max_value=4.0),
    mass=st.floats(min_value=0.5, max_value=2.0),
    geometry=_geometry(),
)
def test_wigner_rotation_over_the_admitted_domain(rapidity, log_ratio, mass, geometry):
    e_hat, p_hat = geometry
    boost = BoostSpec(rapidity, e_hat)
    p = FourMomentum.from_spatial(mass, mass * 10.0**log_ratio * p_hat)
    w = wigner_rotation(boost, p)
    m = w.matrix
    assert np.max(np.abs(m @ m.conj().T - np.eye(2))) <= 1e-12
    assert abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0] - 1.0) <= 1e-12
    assert abs(w.angle - helpers.wigner_angle_mp(boost, p)) <= 1e-11


@hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
@hypothesis.given(
    rapidity=st.floats(min_value=0.0, max_value=RAPIDITY_CAP),
    log_ratio=st.floats(min_value=-6.0, max_value=8.0),
    mass=st.floats(min_value=0.5, max_value=2.0),
    geometry=_geometry(kinds=("generic", "collinear")),
)
def test_wigner_rotation_up_to_extreme_momentum_ratios(rapidity, log_ratio, mass, geometry):
    e_hat, p_hat = geometry
    boost = BoostSpec(rapidity, e_hat)
    p = FourMomentum.from_spatial(mass, mass * 10.0**log_ratio * p_hat)
    assert p.mass == mass
    assert abs(wigner_rotation(boost, p).angle - helpers.wigner_angle_mp(boost, p)) <= 1e-11


@hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
@hypothesis.given(
    rapidity=st.floats(min_value=0.0, max_value=RAPIDITY_CAP),
    log_ratio=st.floats(min_value=-6.0, max_value=8.0),
    mass=st.floats(min_value=0.5, max_value=2.0),
    geometry=_geometry(kinds=("anti-collinear",)),
)
@hypothesis.example(
    rapidity=50.0, log_ratio=8.0, mass=1.7, geometry=(_E_HAT, -_tilted(_E_HAT, 1e-12))
)
@hypothesis.example(
    rapidity=34.3, log_ratio=6.1, mass=1.0, geometry=(_E_HAT, -_tilted(_E_HAT, 1.2e-12))
)
def test_wigner_rotation_near_anti_collinear_up_to_extreme_momentum_ratios(
    rapidity, log_ratio, mass, geometry
):
    e_hat, p_hat = geometry
    boost = BoostSpec(rapidity, e_hat)
    p = FourMomentum.from_spatial(mass, mass * 10.0**log_ratio * p_hat)
    exact = helpers.wigner_angle_mp(boost, p, normalise_direction=True)
    assert abs(wigner_rotation(boost, p).angle - exact) <= 1e-11


@hypothesis.settings(derandomize=True, deadline=None, max_examples=200)
@hypothesis.given(
    rapidities=st.tuples(*[st.floats(min_value=0.0, max_value=RAPIDITY_CAP)] * 2),
    log_ratio=st.floats(min_value=-6.0, max_value=8.0),
    mass=st.floats(min_value=0.5, max_value=2.0),
    geometry=_geometry(),
    second_direction=_VECTOR,
)
@hypothesis.example(
    rapidities=(50.0, 50.0),
    log_ratio=8.0,
    mass=1.7,
    geometry=(_E_HAT, -_tilted(_E_HAT, 1e-12)),
    second_direction=tuple(-_E_HAT),
)
@hypothesis.example(
    rapidities=(31.0, 44.0),
    log_ratio=6.0,
    mass=0.6,
    geometry=(_E_HAT, -_tilted(_E_HAT, 1e-10)),
    second_direction=tuple(-_E_HAT),
)
def test_apply_boost_over_the_admitted_domain(
    rapidities, log_ratio, mass, geometry, second_direction
):
    # One mode, boosted twice: the second boost, along an unrelated
    # direction, acts on whatever the first one produced.
    e_hat, p_hat = geometry
    p = FourMomentum.from_spatial(mass, mass * 10.0**log_ratio * p_hat)
    state = make_product_state([[("k", p, 1.0)]], [(1.0, 0.0)])
    for rapidity, direction in zip(rapidities, (e_hat, _unit(second_direction))):
        boost = BoostSpec(rapidity, direction)
        before = state.particles[0]
        state = apply_boost(state, boost)
        after = state.particles[0]
        assert after.masses[0] == mass
        exact = helpers.boosted_momentum_mp(boost, mass, before.momenta[0])
        scale = max(np.linalg.norm(before.momenta[0]), np.linalg.norm(exact), mass)
        assert np.max(np.abs(after.momenta[0] - exact)) <= 1e-10 * scale
