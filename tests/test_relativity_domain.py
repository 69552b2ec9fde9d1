"""Property tests of the Wigner closed form over the whole admitted domain.

Boost rapidity in [0, RAPIDITY_CAP], momentum |p|/m in [1e-6, 1e4], mass in
[0.5, 2], and momentum directions that are generic, near-collinear or
near-anti-collinear with the boost (1 - |e . p_hat| from 1e-12 to 1e-1).
Every draw must give an SU(2) matrix within 1e-12 and an angle within 1e-11
of a 60-digit mpmath evaluation.  |p|/m beyond about 1e5 is refused with
BadPhysicalParams by ``FourMomentum``'s timelike floor, so it is not drawn.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
pytest.importorskip("mpmath")

import helpers  # noqa: E402
from ccrsim import BoostSpec, FourMomentum, wigner_rotation  # noqa: E402
from ccrsim.relativity import RAPIDITY_CAP  # noqa: E402

st = hypothesis.strategies

_COMPONENT = st.floats(min_value=-1.0, max_value=1.0)
_VECTOR = st.tuples(_COMPONENT, _COMPONENT, _COMPONENT).filter(
    lambda v: math.hypot(*v) > 0.1
)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


@st.composite
def _geometry(draw):
    """(boost direction, momentum direction) pairs."""
    e_hat = _unit(draw(_VECTOR))
    kind = draw(st.sampled_from(("generic", "collinear", "anti-collinear")))
    if kind == "generic":
        return e_hat, _unit(draw(_VECTOR))
    # Tilt e_hat by a small angle towards a unit vector orthogonal to it;
    # 1 - cos(tilt) = gap, so e . p_hat = +-(1 - gap) up to rounding.
    side = _unit(np.cross(e_hat, np.eye(3)[np.argmin(np.abs(e_hat))]))
    gap = 10.0 ** draw(st.floats(min_value=-12.0, max_value=-1.0))
    tilt = 2.0 * math.asin(math.sqrt(gap / 2.0))
    p_hat = math.cos(tilt) * e_hat + math.sin(tilt) * side
    return e_hat, (p_hat if kind == "collinear" else -p_hat)


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
