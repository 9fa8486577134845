"""Gradient checks for every autograd operation against central differences."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AutogradError, ShapeError
from repro.nn import (
    Tensor,
    concat,
    embedding_lookup,
    gather_rows,
    sparse_matmul,
    stack,
    where,
)
from repro.nn.tensor import Segments, segment_sum, segments, stable_sort
from repro.sampling import sample_blocks
from repro.verify.gradcheck import check_gradients


def make(shape, seed=0):
    rng = np.random.default_rng(seed)
    return Tensor(rng.normal(size=shape), requires_grad=True)


class TestElementwise:
    def test_add(self):
        a, b = make((3, 4), 1), make((3, 4), 2)
        check_gradients(lambda: (a + b).sum(), [a, b])

    def test_add_broadcast(self):
        a, b = make((3, 4), 1), make((4,), 2)
        check_gradients(lambda: (a + b).sum(), [a, b])

    def test_sub(self):
        a, b = make((2, 3), 1), make((2, 3), 2)
        check_gradients(lambda: (a - b).sum(), [a, b])

    def test_mul(self):
        a, b = make((3, 4), 1), make((3, 4), 2)
        check_gradients(lambda: (a * b).sum(), [a, b])

    def test_mul_broadcast_scalar(self):
        a = make((3, 4), 1)
        check_gradients(lambda: (a * 2.5).sum(), [a])

    def test_div(self):
        a, b = make((3, 3), 1), make((3, 3), 2)
        b.data += 3.0  # keep the denominator away from zero
        check_gradients(lambda: (a / b).sum(), [a, b])

    def test_neg(self):
        a = make((5,), 1)
        check_gradients(lambda: (-a).sum(), [a])

    def test_pow(self):
        a = make((4,), 1)
        a.data = np.abs(a.data) + 0.5
        check_gradients(lambda: (a**3).sum(), [a])

    def test_pow_requires_scalar_exponent(self):
        a = make((4,), 1)
        with pytest.raises(ShapeError):
            a ** np.ones(4)


class TestMatmul:
    def test_2d(self):
        a, b = make((3, 4), 1), make((4, 5), 2)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_batched(self):
        a, b = make((2, 3, 4), 1), make((2, 4, 5), 2)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_batched_broadcast(self):
        a, b = make((2, 3, 4), 1), make((4, 5), 2)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_vector_matrix(self):
        a, b = make((4,), 1), make((4, 5), 2)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_matrix_vector(self):
        a, b = make((3, 4), 1), make((4,), 2)
        check_gradients(lambda: (a @ b).sum(), [a, b])

    def test_vector_vector(self):
        a, b = make((4,), 1), make((4,), 2)
        check_gradients(lambda: a @ b, [a, b])

    def test_batched_matrix_vector(self):
        a, b = make((2, 3, 4), 1), make((4,), 2)
        check_gradients(lambda: (a @ b).sum(), [a, b])


class TestReductions:
    def test_sum_all(self):
        a = make((3, 4), 1)
        check_gradients(lambda: a.sum(), [a])

    def test_sum_axis(self):
        a = make((3, 4), 1)
        check_gradients(lambda: a.sum(axis=1).sum(), [a])

    def test_sum_keepdims(self):
        a = make((3, 4), 1)
        check_gradients(lambda: a.sum(axis=0, keepdims=True).sum(), [a])

    def test_mean_all(self):
        a = make((3, 4), 1)
        check_gradients(lambda: a.mean(), [a])

    def test_mean_axis(self):
        a = make((3, 4, 2), 1)
        check_gradients(lambda: a.mean(axis=1).sum(), [a])

    def test_max(self):
        a = make((3, 4), 1)
        check_gradients(lambda: a.max(axis=1).sum(), [a])

    def test_max_splits_ties(self):
        a = Tensor(np.asarray([[1.0, 1.0, 0.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.5, 0.5, 0.0]])


class TestNonlinearities:
    @pytest.mark.parametrize("op", ["exp", "tanh", "sigmoid", "relu"])
    def test_unary(self, op):
        a = make((3, 4), 1)
        a.data += 0.1  # avoid the relu kink at exactly zero
        check_gradients(lambda: getattr(a, op)().sum(), [a])

    def test_log(self):
        a = make((3, 4), 1)
        a.data = np.abs(a.data) + 0.5
        check_gradients(lambda: a.log().sum(), [a])

    def test_leaky_relu(self):
        a = make((3, 4), 1)
        a.data += 0.05
        check_gradients(lambda: a.leaky_relu(0.2).sum(), [a])

    def test_softmax(self):
        a = make((3, 4), 1)
        weights = Tensor(np.random.default_rng(9).normal(size=(3, 4)))
        check_gradients(lambda: (a.softmax(axis=-1) * weights).sum(), [a])

    def test_softmax_rows_sum_to_one(self):
        a = make((5, 7), 1)
        out = a.softmax(axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5))

    def test_log_softmax(self):
        a = make((3, 4), 1)
        weights = Tensor(np.random.default_rng(9).normal(size=(3, 4)))
        check_gradients(lambda: (a.log_softmax(axis=-1) * weights).sum(), [a])

    def test_sigmoid_stable_at_extremes(self):
        a = Tensor(np.asarray([-1000.0, 1000.0]))
        out = a.sigmoid().data
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)


class TestShapeOps:
    def test_reshape(self):
        a = make((3, 4), 1)
        check_gradients(lambda: a.reshape(2, 6).sum(axis=0).sum(), [a])

    def test_transpose(self):
        a = make((3, 4), 1)
        weights = Tensor(np.random.default_rng(2).normal(size=(4, 3)))
        check_gradients(lambda: (a.transpose(-2, -1) * weights).sum(), [a])

    def test_getitem_slice(self):
        a = make((5, 4), 1)
        check_gradients(lambda: a[1:3].sum(), [a])

    def test_getitem_fancy(self):
        a = make((5, 4), 1)
        idx = np.asarray([0, 2, 2, 4])
        check_gradients(lambda: a[idx].sum(), [a])

    def test_squeeze_unsqueeze(self):
        a = make((3, 1, 4), 1)
        check_gradients(lambda: a.squeeze(1).unsqueeze(0).sum(), [a])

    def test_broadcast_to(self):
        a = make((1, 4), 1)
        check_gradients(lambda: a.broadcast_to((3, 4)).sum(), [a])

    def test_concat(self):
        a, b = make((2, 3), 1), make((4, 3), 2)
        check_gradients(lambda: concat([a, b], axis=0).sum(), [a, b])

    def test_concat_axis1(self):
        a, b = make((2, 3), 1), make((2, 5), 2)
        check_gradients(lambda: concat([a, b], axis=1).sum(), [a, b])

    def test_concat_empty_raises(self):
        with pytest.raises(ShapeError):
            concat([])

    def test_stack(self):
        a, b = make((2, 3), 1), make((2, 3), 2)
        check_gradients(lambda: stack([a, b], axis=1).sum(), [a, b])


class TestSpecialOps:
    def test_embedding_lookup(self):
        weight = make((6, 4), 1)
        idx = np.asarray([[0, 1], [1, 5]])
        check_gradients(lambda: embedding_lookup(weight, idx).sum(), [weight])

    def test_embedding_repeated_indices_accumulate(self):
        weight = make((3, 2), 1)
        idx = np.asarray([1, 1, 1])
        embedding_lookup(weight, idx).sum().backward()
        np.testing.assert_allclose(weight.grad[1], [3.0, 3.0])
        np.testing.assert_allclose(weight.grad[0], [0.0, 0.0])

    def test_embedding_rejects_float_indices(self):
        weight = make((3, 2), 1)
        with pytest.raises(ShapeError):
            embedding_lookup(weight, np.asarray([0.5]))

    def test_gather_rows_addresses_flattened_rows(self):
        x = make((2, 3, 4), 1)
        idx = np.asarray([[0, 4], [5, 5]])
        out = gather_rows(x, idx)
        assert out.shape == (2, 2, 4)
        np.testing.assert_array_equal(out.data[1, 0], x.data[1, 2])
        check_gradients(lambda: (gather_rows(x, idx) * gather_rows(x, idx)).sum(), [x])

    def test_gather_rows_scatter_adds_repeated_rows(self):
        x = make((3, 2), 1)
        gather_rows(x, np.asarray([2, 0, 2, 2])).sum().backward()
        np.testing.assert_array_equal(x.grad, [[1.0, 1.0], [0.0, 0.0], [3.0, 3.0]])

    def test_gather_rows_rejects_float_indices(self):
        with pytest.raises(ShapeError):
            gather_rows(make((3, 2), 1), np.asarray([0.5]))

    def test_where(self):
        a, b = make((3, 4), 1), make((3, 4), 2)
        cond = np.random.default_rng(3).random((3, 4)) > 0.5
        check_gradients(lambda: where(cond, a, b).sum(), [a, b])

    def test_sparse_matmul(self):
        from scipy import sparse

        matrix = sparse.random(5, 4, density=0.5, random_state=0, format="csr")
        x = make((4, 3), 1)
        check_gradients(lambda: sparse_matmul(matrix, x).sum(), [x])


class TestBackwardSemantics:
    def test_requires_scalar_output(self):
        a = make((3,), 1)
        with pytest.raises(AutogradError):
            (a * 2).backward()

    def test_backward_on_non_grad_tensor(self):
        a = Tensor(np.ones(3))
        with pytest.raises(AutogradError):
            a.backward()

    def test_gradient_accumulates_across_backward_calls(self):
        a = make((3,), 1)
        (a.sum()).backward()
        (a.sum()).backward()
        np.testing.assert_allclose(a.grad, 2 * np.ones(3))

    def test_diamond_graph(self):
        a = make((3,), 1)
        b = a * 2
        c = a * 3
        (b + c).sum().backward()
        np.testing.assert_allclose(a.grad, 5 * np.ones(3))

    def test_reused_tensor(self):
        a = make((3,), 1)
        (a * a).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a.data)

    def test_detach_blocks_gradient(self):
        a = make((3,), 1)
        (a.detach() * 2.0).sum()
        assert a.grad is None

    def test_grad_shape_mismatch_rejected(self):
        a = make((3,), 1)
        out = a.sum()
        with pytest.raises(ShapeError):
            out.backward(np.ones(2))


def bincount_backward(index, grad, rows):
    """The scatter-add ``gather_rows`` made before it took layouts: one
    weighted ``bincount`` over an ``index x width`` slot array."""
    width = grad.shape[-1]
    slots = (index.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
    sums = np.bincount(slots, weights=grad.reshape(-1), minlength=rows * width)
    return sums.reshape(rows, width)


class TestGatherRowsLayout:
    @staticmethod
    def indices(case, rng):
        if case == "duplicates":  # rows 3-6 unused, rows 0-2 repeated ~70 times
            return 7, rng.integers(0, 3, (50, 4)), None
        if case == "empty":
            return 5, np.zeros((0, 3), dtype=np.int64), None
        def draw(shift):
            return lambda hop, frontier, fanout: (
                (shift * frontier[:, None] + np.arange(fanout)) % (9 + shift))

        # Stacked slices of unequal widths: padding, offsets and repeats.
        blocks = sample_blocks(rng.integers(0, 12, 40), [4], [draw(1), draw(3), draw(5)])
        return blocks.nodes[1].size, blocks.children[0], blocks.children_segments[0]

    @pytest.mark.parametrize("case", ["duplicates", "empty", "stacked"])
    def test_backward_is_bit_identical_to_bincount(self, case):
        rng = np.random.default_rng(0)
        rows, index, sampled = self.indices(case, rng)
        # Mixed magnitudes and signed zeros make any change of order show.
        grad = rng.standard_normal(index.shape + (6,)) * 10.0 ** rng.integers(
            -8, 8, index.shape + (1,))
        grad[rng.random(grad.shape) < 0.1] = -0.0
        want = bincount_backward(index, grad, rows)
        layouts = [None, segments(index, rows), lambda: segments(index, rows)]
        layouts += [sampled] if sampled is not None else []
        for layout in layouts:
            x = Tensor(rng.standard_normal((rows, 6)), requires_grad=True)
            gather_rows(x, index, layout).backward(grad)
            assert x.grad.tobytes() == want.tobytes()

    def test_segment_sum_rejects_a_layout_outside_the_values(self):
        values = np.ones((3, 2))
        for indptr, order in [([0, 5, 3], [0, 1, 2]), ([1, 3], [0, 1, 2]),
                              ([0, 3], [0, 1, 3]), ([0, 3], [0, -1, 2])]:
            with pytest.raises(ShapeError):
                segment_sum(values, Segments(np.asarray(indptr), np.asarray(order)))

    def test_layout_must_cover_the_index(self):
        x = Tensor(np.ones((4, 2)), requires_grad=True)
        for layout in (segments(np.asarray([0, 1, 1]), 4),
                       lambda: segments(np.asarray([0, 1]), 3)):
            out = gather_rows(x, np.asarray([0, 1]), layout)
            with pytest.raises(ShapeError):
                out.sum().backward()


class TestStableSort:
    @pytest.mark.parametrize("values", [
        np.zeros(0, dtype=np.int64),
        np.asarray([3, 1, 3, 0, 1, 3]),
        np.random.default_rng(0).integers(-50, 50, 400),
        np.random.default_rng(1).integers(0, 5, 300).astype(np.int8),
        np.asarray([2**61, -(2**61), 5, 2**61, 0]),  # too wide to pack
    ])
    def test_matches_a_stable_argsort(self, values):
        order, ordered = stable_sort(values)
        want = np.argsort(values, kind="stable")
        np.testing.assert_array_equal(order, want)
        np.testing.assert_array_equal(ordered, values[want])
