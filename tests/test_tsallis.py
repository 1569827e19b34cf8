import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bsderisk.tsallis import DomainError, exp_q, is_classical, ln_q


def test_exp_q_at_zero_is_one():
    for q in (0.1, 0.5, 0.999, 1.0, 1.5, 2.0):
        assert exp_q(0.0, q) == pytest.approx(1.0, abs=1e-15)


def test_exp_q_boundary_is_zero():
    # q in (0,1): the boundary x = 1/(q-1) is included and maps to 0
    for q in (0.2, 0.5, 0.8):
        x = 1.0 / (q - 1.0)
        assert exp_q(x, q) == 0.0


def test_ln_q_at_one_is_zero():
    for q in (0.1, 0.5, 1.0, 1.7):
        assert ln_q(1.0, q) == pytest.approx(0.0, abs=1e-15)


def test_inverse_pair_value():
    assert ln_q(exp_q(0.7, 0.5), 0.5) == pytest.approx(0.7, abs=1e-12)


def test_classical_limit_values():
    # near q = 1 the deformed maps sit on top of exp/log
    assert abs(exp_q(1.0, 0.999) - math.e) <= 1e-2
    assert abs(ln_q(2.0, 0.999) - math.log(2.0)) <= 1e-2


def test_q_one_branch_is_exact():
    # within 1e-8 of q = 1 the classical branch avoids cancellation
    assert exp_q(3.0, 1.0 + 1e-12) == math.exp(3.0)
    assert ln_q(5.0, 1.0 - 1e-12) == math.log(5.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        exp_q(-2.5, 0.5)  # below 1/(q-1) = -2
    with pytest.raises(DomainError):
        exp_q(1.0, 2.0)  # at/above 1/(q-1) = 1 for q > 1
    with pytest.raises(DomainError):
        ln_q(-0.1, 0.5)
    with pytest.raises(DomainError):
        ln_q(0.0, 1.5)
    with pytest.raises(DomainError):
        ln_q(0.0, 1.0)


def test_domain_error_carries_context():
    with pytest.raises(DomainError) as err:
        exp_q(-3.0, 0.5)
    assert err.value.x == -3.0
    assert err.value.q == 0.5
    assert "-2" in err.value.bound


def test_qindex_validation():
    # q must be a positive finite real; within Q_ONE_TOL of 1 it is classical
    for q in (0.0, -1.0):
        with pytest.raises(ValueError):
            exp_q(1.0, q)
        with pytest.raises(ValueError):
            ln_q(1.0, q)
    assert exp_q(1.0, 0.25) == pytest.approx(1.75 ** (1.0 / 0.75))  # 1 - q = 0.75
    assert not is_classical(0.25)
    assert is_classical(1.0 + 1e-9)


def test_elementwise_arrays():
    x = np.array([0.0, 0.5, 1.0])
    out = exp_q(x, 0.5)
    assert out.shape == x.shape
    back = ln_q(out, 0.5)
    np.testing.assert_allclose(back, x, atol=1e-12)


@st.composite
def q_and_x(draw):
    q = draw(
        st.one_of(
            st.floats(min_value=0.05, max_value=0.95),
            st.floats(min_value=1.05, max_value=2.0),
        )
    )
    if q < 1.0:
        lo, hi = 1.0 / (q - 1.0) + 1e-9, 50.0
    else:
        lo, hi = -50.0, 1.0 / (q - 1.0) - 1e-9
    x = draw(st.floats(min_value=lo, max_value=hi, allow_nan=False))
    return q, x


@given(q_and_x())
@settings(max_examples=200, deadline=None)
def test_inverse_pair_property(qx):
    q, x = qx
    assert ln_q(exp_q(x, q), q) == pytest.approx(x, abs=1e-12, rel=1e-9)


@given(q_and_x(), st.floats(min_value=1e-6, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_strict_monotonicity(qx, step):
    q, x = qx
    if q < 1.0:
        x2 = x + step
    else:
        x2 = min(x + step, 1.0 / (q - 1.0) - 1e-9)
        if x2 <= x:
            return
    assert exp_q(x2, q) > exp_q(x, q)


@given(
    st.floats(min_value=0.1, max_value=0.9),
    st.floats(min_value=-1.0, max_value=3.0),
    st.floats(min_value=-1.0, max_value=3.0),
)
@settings(max_examples=200, deadline=None)
def test_midpoint_convexity_for_q_below_one(q, a, b):
    mid = exp_q(0.5 * (a + b), q)
    assert mid <= 0.5 * (exp_q(a, q) + exp_q(b, q)) + 1e-12


def test_limit_consistency_monotone():
    # |exp_q(x) - e^x| shrinks monotonically as q increases to 1 on |x| <= 3
    xs = np.linspace(-3.0, 3.0, 25)
    qs = [0.7, 0.8, 0.9, 0.99, 0.999]  # all domains cover |x| <= 3
    gaps = [np.max(np.abs(exp_q(xs, q) - np.exp(xs))) for q in qs]
    assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 1e-1 < gaps[0]
