"""Property-based tests of the autograd engine (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn import Tensor
from repro.verify.gradcheck import numeric_gradient

SHAPES = st.tuples(st.integers(1, 4), st.integers(1, 4))


def arrays(shape):
    return hnp.arrays(
        dtype=np.float64,
        shape=shape,
        elements=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
    )


@settings(max_examples=30, deadline=None)
@given(SHAPES.flatmap(lambda s: st.tuples(arrays(s), arrays(s))))
def test_addition_gradient_is_ones(data):
    a_data, b_data = data
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    (a + b).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones_like(a_data))
    np.testing.assert_allclose(b.grad, np.ones_like(b_data))


@settings(max_examples=30, deadline=None)
@given(SHAPES.flatmap(lambda s: st.tuples(arrays(s), arrays(s))))
def test_product_rule(data):
    a_data, b_data = data
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    (a * b).sum().backward()
    np.testing.assert_allclose(a.grad, b_data)
    np.testing.assert_allclose(b.grad, a_data)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(1, 3), st.integers(1, 4), st.integers(1, 3),
    st.data(),
)
def test_matmul_matches_numeric_gradient(m, k, n, data):
    a_data = data.draw(arrays((m, k)))
    b_data = data.draw(arrays((k, n)))
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    (a @ b).sum().backward()
    expected_a = numeric_gradient(lambda: (a @ b).sum(), a)
    np.testing.assert_allclose(a.grad, expected_a, atol=1e-5)


@settings(max_examples=30, deadline=None)
@given(SHAPES.flatmap(arrays))
def test_softmax_gradient_rows_sum_to_zero(a_data):
    """d/dx of any function of a softmax has zero row-sum gradient component
    for uniform upstream gradients (softmax is shift-invariant)."""
    a = Tensor(a_data, requires_grad=True)
    a.softmax(axis=-1).sum().backward()
    np.testing.assert_allclose(a.grad.sum(axis=-1), 0.0, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(SHAPES.flatmap(arrays))
def test_sigmoid_bounded(a_data):
    out = Tensor(a_data).sigmoid().data
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


@settings(max_examples=30, deadline=None)
@given(SHAPES.flatmap(arrays))
def test_exp_log_roundtrip(a_data):
    a = Tensor(a_data)
    np.testing.assert_allclose(a.exp().log().data, a_data, atol=1e-10)


@settings(max_examples=30, deadline=None)
@given(SHAPES.flatmap(arrays), st.integers(0, 1))
def test_sum_then_backward_counts_elements(a_data, axis):
    a = Tensor(a_data, requires_grad=True)
    a.sum(axis=axis).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones_like(a_data))
