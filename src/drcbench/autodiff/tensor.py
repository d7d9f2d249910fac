"""Dense n-dimensional tensors with reverse-mode differentiation.

A ``Tensor`` wraps a row-major numpy array plus an optional gradient. Ops
(see ``ops.py``) record a backward closure and parent links on their result;
``backward()`` walks the graph once in reverse topological order,
accumulating gradients into every branch point, then frees the closures so
a graph cannot be replayed. Dtype follows the data: float64 for gradient
checking, float32 for training.
"""

from __future__ import annotations

import numpy as np

from ..errors import GraphError, NumericError


def check_finite(data: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite values produced by {where}")


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_consumed")

    def __init__(self, data, requires_grad: bool = False, where: str = "tensor creation"):
        """``where`` names the producer in the ``NumericError`` of non-finite data."""
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        check_finite(arr, where)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()
        self._consumed = False

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, grad={self.requires_grad})"

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise GraphError(
                f"gradient shape {g.shape} does not match tensor shape {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar; the graph is consumed by the call."""
        if self.data.size != 1:
            raise GraphError(f"backward target must be scalar, got shape {self.data.shape}")
        if self._consumed:
            raise GraphError("graph already consumed; rebuild the forward pass")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:  # iterative DFS: conv stacks can exceed recursion depth
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            node._consumed = True
            node._backward = None  # free closures; graph is single-use
            node._parents = ()


def result_tensor(data: np.ndarray, parents: tuple[Tensor, ...], op: str) -> Tensor:
    """Wrap an op output, wiring requires_grad from its parents."""
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents), where=op)
    if out.requires_grad:
        out._parents = parents
    return out
