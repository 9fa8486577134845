"""First-order optimisers: SGD (with momentum) and Adam."""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base optimiser over a fixed list of parameters."""

    def __init__(self, params: Iterable[Parameter]):
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimiser received no parameters")

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay.

    Row-sparse gradients are read densely (``param.grad``), so every row
    decays and carries momentum exactly as with a dense gradient.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for param, velocity in zip(self.params, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data -= self.lr * grad


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) — the optimiser the paper trains with.

    Updates are row-wise: a parameter whose gradient is row-sparse (an
    ``embedding_lookup`` table) has m, v and its values updated on the
    touched rows only, with bias correction from the global step count,
    as ``torch.optim.SparseAdam`` does.  Untouched rows keep their stale
    moments, and weight decay reaches touched rows only.  A dense gradient
    is the all-rows case of the same formula, so it matches textbook Adam
    bit for bit.
    """

    def __init__(self, params: Iterable[Parameter], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8, weight_decay: float = 0.0):
        super().__init__(params)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        self._step += 1
        bias1 = 1.0 - self.beta1**self._step
        bias2 = 1.0 - self.beta2**self._step
        for param, m, v in zip(self.params, self._m, self._v):
            rows, grad = param.grad_rows()
            if rows is None:
                continue
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data[rows]
            # Index-array rows are copies (``np.take`` gathers rows several
            # times faster than fancy indexing) and are written back;
            # slice(None) rows are views, whose write-back numpy skips as a
            # self-copy.  Two scratch arrays carry the textbook expression's
            # operations, in its order: lr * (m / bias1) / (sqrt(v / bias2) + eps).
            if isinstance(rows, slice):
                m_rows, v_rows = m[rows], v[rows]
            else:
                m_rows, v_rows = np.take(m, rows, axis=0), np.take(v, rows, axis=0)
            scratch = np.multiply(grad, 1.0 - self.beta1)
            m_rows *= self.beta1
            m_rows += scratch
            np.square(grad, out=scratch)
            scratch *= 1.0 - self.beta2
            v_rows *= self.beta2
            v_rows += scratch
            m[rows], v[rows] = m_rows, v_rows
            np.divide(v_rows, bias2, out=scratch)
            np.sqrt(scratch, out=scratch)
            scratch += self.eps
            update = np.divide(m_rows, bias1)
            update *= self.lr
            update /= scratch
            param.subtract_rows(rows, update)
