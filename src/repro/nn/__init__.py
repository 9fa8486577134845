"""A minimal reverse-mode autodiff / neural-network framework over numpy.

This subpackage replaces the PyTorch dependency of the paper's original
implementation.  Public surface:

- :class:`~repro.nn.tensor.Tensor` plus the functional ops
  :func:`~repro.nn.tensor.concat`, :func:`~repro.nn.tensor.stack`,
  :func:`~repro.nn.tensor.embedding_lookup`, :func:`~repro.nn.tensor.gather_rows`,
  :func:`~repro.nn.tensor.where`
- :class:`~repro.nn.module.Module` / :class:`~repro.nn.module.Parameter`
  containers
- layers: :class:`Linear`, :class:`Embedding`, :class:`Dropout`,
  :class:`LayerNorm`, :class:`SelfAttention`, and the three neighborhood
  aggregators (mean / max-pool / LSTM)
- optimisers: :class:`SGD`, :class:`Adam`
- runtime sanitizers: :func:`~repro.nn.sanitizer.sanitize` (saved-tensor
  mutation tracking via the Tensor version counter) and
  :func:`~repro.nn.sanitizer.detect_anomaly` (NaN/Inf provenance)
"""

from repro.nn.tensor import (
    Tensor,
    concat,
    embedding_lookup,
    gather_rows,
    sparse_matmul,
    stack,
    where,
)
from repro.nn.module import Module, ModuleDict, ModuleList, Parameter
from repro.nn.layers import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    ReLU,
    Sequential,
    Tanh,
)
from repro.nn.attention import SelfAttention
from repro.nn.aggregators import (
    Aggregator,
    LSTMAggregator,
    MaxPoolAggregator,
    MeanAggregator,
    make_aggregator,
)
from repro.nn.optim import SGD, Adam, Optimizer
from repro.nn.sanitizer import (
    anomaly_enabled,
    detect_anomaly,
    sanitize,
    sanitizer_enabled,
    set_detect_anomaly,
    set_sanitizer,
)
from repro.nn import init

__all__ = [
    "Tensor",
    "concat",
    "stack",
    "embedding_lookup",
    "gather_rows",
    "sparse_matmul",
    "where",
    "Module",
    "ModuleList",
    "ModuleDict",
    "Parameter",
    "Linear",
    "Embedding",
    "Dropout",
    "LayerNorm",
    "Sequential",
    "ReLU",
    "Tanh",
    "SelfAttention",
    "Aggregator",
    "MeanAggregator",
    "MaxPoolAggregator",
    "LSTMAggregator",
    "make_aggregator",
    "Optimizer",
    "SGD",
    "Adam",
    "init",
    "sanitize",
    "set_sanitizer",
    "sanitizer_enabled",
    "detect_anomaly",
    "set_detect_anomaly",
    "anomaly_enabled",
]
