"""Module/Parameter containers, mirroring the shape of ``torch.nn.Module``.

A :class:`Module` discovers its parameters by walking its attributes, so
models compose naturally: assigning a ``Parameter``, a child ``Module``, or a
list of modules to ``self`` is enough for ``parameters()`` to find them.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A tensor that is a learnable parameter of a module."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for neural-network components.

    Subclasses implement ``forward`` and are called directly:
    ``y = layer(x)``.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(name, parameter)`` pairs for this module and children.

        A parameter reachable by several paths (a table shared by many
        submodules) is yielded once, under the first name that reaches it,
        as ``torch.nn.Module`` does: optimisers then keep one state per
        tensor and ``state_dict`` stores it once.
        """
        seen = set()
        for name, param in self._walk_parameters(prefix):
            if id(param) not in seen:
                seen.add(id(param))
                yield name, param

    def _walk_parameters(self, prefix: str) -> Iterator[Tuple[str, Parameter]]:
        """Every ``(name, parameter)`` path, shared parameters repeated."""
        for attr, value in vars(self).items():
            name = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield name, value
            elif isinstance(value, Module):
                yield from value._walk_parameters(f"{name}.")
            elif isinstance(value, (list, tuple)):
                for idx, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{name}.{idx}", item
                    elif isinstance(item, Module):
                        yield from item._walk_parameters(f"{name}.{idx}.")
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Parameter):
                        yield f"{name}.{key}", item
                    elif isinstance(item, Module):
                        yield from item._walk_parameters(f"{name}.{key}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of learnable scalars."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for value in vars(self).values():
            if isinstance(value, Module):
                value.train(mode)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item.train(mode)
            elif isinstance(value, dict):
                for item in value.values():
                    if isinstance(item, Module):
                        item.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Snapshot parameter values (copies) keyed by dotted names."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load values saved by :meth:`state_dict`; shapes must match."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            param = params[name]
            if param.data.shape != value.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {param.data.shape} vs {value.shape}"
                )
            param.data = value.copy()


class ModuleList(Module):
    """A list of child modules, discoverable by ``parameters()``."""

    def __init__(self, modules=()):
        super().__init__()
        self.items = list(modules)

    def append(self, module: Module) -> None:
        self.items.append(module)

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, idx: int) -> Module:
        return self.items[idx]

    def forward(self, *args, **kwargs):  # pragma: no cover - container only
        raise NotImplementedError("ModuleList is a container and cannot be called")


class ModuleDict(Module):
    """A string-keyed dictionary of child modules."""

    def __init__(self, modules=None):
        super().__init__()
        self.items = dict(modules or {})

    def __getitem__(self, key: str) -> Module:
        return self.items[key]

    def __setitem__(self, key: str, module: Module) -> None:
        self.items[key] = module

    def __contains__(self, key: str) -> bool:
        return key in self.items

    def keys(self):
        return self.items.keys()

    def values(self):
        return self.items.values()

    def forward(self, *args, **kwargs):  # pragma: no cover - container only
        raise NotImplementedError("ModuleDict is a container and cannot be called")
