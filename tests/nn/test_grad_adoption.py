"""A first dense gradient is adopted, not copied; it is copied on write."""

from __future__ import annotations

import numpy as np

from repro.nn import Parameter
from repro.nn.tensor import Tensor, embedding_lookup


def test_parents_sharing_one_array_keep_independent_gradients():
    a = Parameter(np.ones((3, 2)))
    b = Parameter(np.full((3, 2), 2.0))
    # add's backward hands the same array to both parents.
    total = ((a + b) * Tensor(np.full((3, 2), 3.0))).sum() + (a * 5.0).sum()
    total.backward()
    np.testing.assert_array_equal(a.grad, np.full((3, 2), 8.0))
    np.testing.assert_array_equal(b.grad, np.full((3, 2), 3.0))
    assert a.grad is not b.grad


def test_shared_array_survives_a_later_contribution_to_one_parent():
    a = Parameter(np.zeros(4))
    b = Parameter(np.zeros(4))
    seed = np.arange(4.0)
    (a + b).backward(seed)
    shared = b.grad
    a._accumulate(np.ones(4))
    np.testing.assert_array_equal(a.grad, seed + 1.0)
    np.testing.assert_array_equal(b.grad, seed)
    assert b.grad is shared
    np.testing.assert_array_equal(seed, np.arange(4.0))


def test_rows_onto_borrowed_dense_gradient_leave_the_lender_intact():
    weight = Parameter(np.zeros((5, 2)))
    lender = np.arange(10.0).reshape(5, 2)
    weight._accumulate(lender)
    assert weight.grad is lender
    embedding_lookup(weight, np.array([1, 1, 4])).sum().backward()
    expected = np.arange(10.0).reshape(5, 2)
    np.testing.assert_array_equal(lender, expected)
    expected[1] += 2.0
    expected[4] += 1.0
    np.testing.assert_array_equal(weight.grad, expected)


def test_second_backward_through_a_shared_node_does_not_rewrite_lent_grads():
    w = Parameter(np.ones(3))
    h = w * 2.0
    (h * 3.0).sum().backward()
    first = w.grad.copy()
    (h * 5.0).sum().backward()
    # h accumulates 3 then 3 + 5; w receives 2 * 3 and then 2 * (3 + 5).
    np.testing.assert_array_equal(first, np.full(3, 6.0))
    np.testing.assert_array_equal(w.grad, np.full(3, 6.0 + 16.0))
