"""Row-sparse embedding gradients, lazy row-wise Adam, shared parameters.

``embedding_lookup`` keeps its gradient on the weight as compact
``(unique rows, d)`` chunks; ``Tensor.grad`` materialises the dense array
on read.  ``Adam`` updates only the touched rows, and ``named_parameters``
yields a shared parameter once.  See DESIGN.md, "Row-sparse gradients and
lazy Adam".
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.check.state import state_dict_findings
from repro.core import HybridGNN
from repro.core.persistence import load_checkpoint_into
from repro.errors import CheckError, SanitizerError
from repro.nn import SGD, Adam, Linear, Module, Parameter, Tensor, sanitize
from repro.nn import tensor as tensor_module
from repro.nn.tensor import embedding_lookup


def dense_lookup(weight: Tensor, indices: np.ndarray) -> Tensor:
    """The pre-sparse ``embedding_lookup``: a |V|-row scatter per call."""
    indices = np.asarray(indices)

    def backward(grad: np.ndarray) -> None:
        full = np.zeros_like(weight.data)
        np.add.at(full, indices.reshape(-1), grad.reshape(-1, weight.data.shape[-1]))
        weight._accumulate(full)

    return Tensor._make(weight.data[indices], (weight,), backward, op="dense_lookup")


def dense_adam_step(data, grad, m, v, step, lr=1e-3, betas=(0.9, 0.999), eps=1e-8):
    """The pre-sparse ``Adam.step`` body for one parameter, in place."""
    beta1, beta2 = betas
    bias1 = 1.0 - beta1**step
    bias2 = 1.0 - beta2**step
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad**2
    data -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)


def lookup_loss(lookup, weight: Tensor, index_sets, dense_term: bool = False) -> Tensor:
    """A loss mixing several lookups (and optionally a dense use) of ``weight``."""
    loss = None
    for scale, indices in enumerate(index_sets, start=1):
        out = lookup(weight, indices)
        term = (out * out * float(scale)).sum() + out.tanh().sum()
        loss = term if loss is None else loss + term
    if dense_term:
        loss = loss + (weight * weight).sum() * 0.5
    return loss


@pytest.fixture
def index_sets():
    rng = np.random.default_rng(3)
    # Repeated indices within and across lookups, several shapes, and one
    # sorted unique lookup (the flows' kind, stored without a row sum).
    return [rng.integers(0, 40, size=(32, 3)), rng.integers(0, 40, size=64),
            rng.integers(0, 10, size=(4, 5, 6)),
            np.unique(rng.integers(0, 40, size=24))]


class TestSharedParameters:
    def test_shared_parameter_yielded_once_first_name_wins(self):
        class Shared(Module):
            def __init__(self):
                super().__init__()
                self.table = Linear(3, 2, rng=0)
                self.branches = [Linear(3, 2, rng=1), self.table]
                self.alias = {"again": self.table}

        module = Shared()
        names = [name for name, _ in module.named_parameters()]
        assert names == ["table.weight", "table.bias",
                         "branches.0.weight", "branches.0.bias"]
        assert len(module.parameters()) == len({id(p) for p in module.parameters()})
        assert set(module.state_dict()) == set(names)

    def test_hybridgnn_has_exactly_one_features_table(
            self, taobao_dataset, taobao_split, tiny_hybrid_config):
        model = HybridGNN(taobao_split.train_graph, taobao_dataset.all_schemes(),
                          tiny_hybrid_config, rng=0)
        names = [name for name, _ in model.named_parameters()]
        assert [n for n in names if n.endswith("features.weight")] == ["features.weight"]
        params = model.parameters()
        assert len(params) == len({id(p) for p in params})
        assert sum(p is model.features.weight for p in params) == 1


class TestRowSparseGradient:
    def test_lookup_keeps_row_form_and_dense_read_is_fresh(self, index_sets):
        weight = Parameter(np.random.default_rng(0).normal(size=(40, 4)))
        lookup_loss(embedding_lookup, weight, index_sets).backward()
        rows, values = weight.grad_rows()
        touched = np.unique(np.concatenate([i.reshape(-1) for i in index_sets]))
        np.testing.assert_array_equal(rows, touched)
        assert values.shape == (len(touched), 4)
        first = weight.grad
        assert first.shape == weight.shape
        assert weight.grad is not first  # materialised per read, never cached

    @pytest.mark.parametrize("dense_term", [False, True])
    def test_dense_read_equals_old_add_at_reference_exactly(self, index_sets, dense_term):
        data = np.random.default_rng(1).normal(size=(40, 4))
        sparse, reference = Parameter(data.copy()), Parameter(data.copy())
        lookup_loss(embedding_lookup, sparse, index_sets, dense_term).backward()
        lookup_loss(dense_lookup, reference, index_sets, dense_term).backward()
        assert np.array_equal(sparse.grad, reference.grad)
        rows, values = sparse.grad_rows()
        assert np.array_equal(values, reference.grad[rows])

    def test_negative_indices_address_the_same_row(self):
        weight = Parameter(np.ones((5, 2)))
        embedding_lookup(weight, np.array([-1, 4, 0])).sum().backward()
        np.testing.assert_array_equal(weight.grad[:, 0], [1.0, 0.0, 0.0, 0.0, 2.0])
        np.testing.assert_array_equal(weight.grad_rows()[0], [0, 4])

    def test_sorted_unique_indices_are_stored_without_a_row_sum(self, monkeypatch):
        def no_sum(*args):
            raise AssertionError("sorted unique indices need no row sum")

        monkeypatch.setattr(tensor_module, "_sum_rows", no_sum)
        weight = Parameter(np.ones((6, 2)))
        (embedding_lookup(weight, np.array([[1, 3], [4, 5]])) * 2.0).sum().backward()
        rows, values = weight.grad_rows()
        np.testing.assert_array_equal(rows, [1, 3, 4, 5])
        np.testing.assert_array_equal(values, np.full((4, 2), 2.0))

    def test_zero_grad_and_assignment_clear_the_rows(self, index_sets):
        weight = Parameter(np.zeros((40, 4)))
        lookup_loss(embedding_lookup, weight, index_sets).backward()
        weight.zero_grad()
        assert weight.grad is None and weight.grad_rows() == (None, None)
        lookup_loss(embedding_lookup, weight, index_sets).backward()
        weight.grad = np.ones((40, 4))
        rows, values = weight.grad_rows()
        assert rows == slice(None) and np.array_equal(values, np.ones((40, 4)))


def _adam_run(index_sets, steps, read_grad=False, lr=0.05):
    weight = Parameter(np.random.default_rng(2).normal(size=(40, 4)))
    optimizer = Adam([weight], lr=lr)
    for _ in range(steps):
        optimizer.zero_grad()
        lookup_loss(embedding_lookup, weight, index_sets).backward()
        if read_grad:
            assert weight.grad is not None
        optimizer.step()
    return weight, optimizer


class TestLazyAdam:
    def test_all_rows_touched_is_bit_identical_to_dense_adam(self):
        rng = np.random.default_rng(4)
        # Every row appears every step (a permutation), plus repeats.
        index_sets = [np.concatenate([rng.permutation(40), rng.integers(0, 40, 25)]),
                      rng.integers(0, 40, size=(8, 3))]
        weight, optimizer = _adam_run(index_sets, steps=5)

        data = np.random.default_rng(2).normal(size=(40, 4))
        m, v = np.zeros_like(data), np.zeros_like(data)
        for step in range(1, 6):
            reference = Parameter(data)
            lookup_loss(dense_lookup, reference, index_sets).backward()
            dense_adam_step(data, reference.grad, m, v, step, lr=0.05)
        assert weight.data.tobytes() == data.tobytes()
        assert optimizer._m[0].tobytes() == m.tobytes()
        assert optimizer._v[0].tobytes() == v.tobytes()

    def test_dense_parameter_is_bit_identical_to_dense_adam(self):
        data = np.random.default_rng(5).normal(size=(6, 3))
        param = Parameter(data.copy())
        optimizer = Adam([param], lr=0.1)
        m, v = np.zeros_like(data), np.zeros_like(data)
        for step in range(1, 4):
            optimizer.zero_grad()
            (param * param).sum().backward()
            dense_adam_step(data, 2.0 * data, m, v, step, lr=0.1)
            optimizer.step()
        assert param.data.tobytes() == data.tobytes()

    def test_untouched_rows_and_moments_are_byte_identical(self):
        weight = Parameter(np.random.default_rng(6).normal(size=(40, 4)))
        optimizer = Adam([weight], lr=0.05)
        for indices in (np.arange(40), np.arange(0, 40, 3)):
            before = (weight.data.copy(), optimizer._m[0].copy(), optimizer._v[0].copy())
            optimizer.zero_grad()
            (embedding_lookup(weight, indices) ** 2).sum().backward()
            optimizer.step()
        untouched = np.setdiff1d(np.arange(40), np.arange(0, 40, 3))
        for after, old in zip((weight.data, optimizer._m[0], optimizer._v[0]), before):
            assert after[untouched].tobytes() == old[untouched].tobytes()
            assert not np.array_equal(after[::3], old[::3])

    def test_bias_correction_uses_the_global_step(self):
        """A row first touched at step 3 is corrected with 1 - beta^3."""
        weight = Parameter(np.zeros((4, 1)))
        optimizer = Adam([weight], lr=0.5)
        for indices in ([0], [0], [3]):
            optimizer.zero_grad()
            embedding_lookup(weight, np.array(indices)).sum().backward()
            optimizer.step()
        bias1, bias2 = 1 - 0.9**3, 1 - 0.999**3
        expected = -0.5 * (0.1 / bias1) / (np.sqrt(0.001 / bias2) + 1e-8)
        assert weight.data[3, 0] == pytest.approx(expected, rel=1e-12)
        assert weight.data[3, 0] != pytest.approx(-0.5, rel=1e-3)

    def test_reading_grad_does_not_change_the_update(self, index_sets):
        quiet, _ = _adam_run(index_sets, steps=3)
        read, _ = _adam_run(index_sets, steps=3, read_grad=True)
        assert quiet.data.tobytes() == read.data.tobytes()

    def test_row_step_bumps_version_and_sanitizer_flags_stale_activation(self):
        weight = Parameter(np.ones((10, 2)), name="table")
        optimizer = Adam([weight], lr=0.1)
        indices = np.array([1, 2, 2, 7])
        with sanitize():
            first = (embedding_lookup(weight, indices) ** 2).sum()
            stale = (embedding_lookup(weight, indices) ** 2).sum()
            first.backward()
            version = weight.version
            optimizer.step()
            assert weight.version == version + 1
            with pytest.raises(SanitizerError, match="embedding_lookup"):
                stale.backward()


class TestSGD:
    def test_sgd_on_row_sparse_grad_is_bit_identical(self, index_sets):
        data = np.random.default_rng(7).normal(size=(40, 4))
        sparse, reference = Parameter(data.copy()), Parameter(data.copy())
        for param, lookup in ((sparse, embedding_lookup), (reference, dense_lookup)):
            optimizer = SGD([param], lr=0.1, momentum=0.9, weight_decay=0.01)
            for _ in range(3):
                optimizer.zero_grad()
                lookup_loss(lookup, param, index_sets).backward()
                optimizer.step()
        assert sparse.data.tobytes() == reference.data.tobytes()


class TestPreDedupCheckpoint:
    def test_alias_keys_fail_with_typed_c007(self, taobao_dataset, taobao_split,
                                             tiny_hybrid_config, tmp_path):
        model = HybridGNN(taobao_split.train_graph, taobao_dataset.all_schemes(),
                          tiny_hybrid_config, rng=0)
        state = model.state_dict()
        # A checkpoint written before named_parameters deduplicated: every
        # path to the shared h^(0) table was saved under its own key.
        aliases = sorted(name for name, _ in model._walk_parameters("")
                         if name not in state)
        assert aliases and all(a.endswith("_features.weight") for a in aliases)
        assert any(a.startswith("flows.") for a in aliases)
        for alias in aliases:
            state[alias] = state["features.weight"]
        meta = json.dumps({"format": "repro-checkpoint", "version": 1,
                           "parameters": sorted(state)})
        path = tmp_path / "pre_dedup.npz"
        np.savez_compressed(path, **state, __meta__=np.asarray(meta))

        with pytest.raises(CheckError, match="C007") as excinfo:
            load_checkpoint_into(model, path)
        assert aliases[0] in str(excinfo.value)
        flagged = {f.param for f in state_dict_findings(model, state)}
        assert flagged == set(aliases)
