"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; calling
backward() on a scalar result accumulates gradients into every reachable
tensor with requires_grad set. Broadcasting follows numpy semantics, with
gradients summed back over the broadcast axes. This is deliberately a
small engine: only the operations the forecasting network needs exist, in
the forms it uses them: ``sum`` and ``mean`` reduce every element, and
``concat`` works on the last axis.

One layer is a single fused node with a closed-form backward pass:
``linear``: x @ w + b, then an optional constant residual add, applied in
place on the product, so it keeps no intermediate. Any product
with a 2-D right operand is a ``linear`` node without bias. Its backward
pass, ``dense_backward``, is one GEMM per operand gradient over the
flattened rows of the output gradient, plus a row sum for the bias.

A whole transformer block is one node too (``model._block_apply``), built on
the same products and the same ``dense_backward``. It keeps the attention
weights and the FFN's ReLU mask; its backward pass recomputes both layer
norms, q, k, v, the merged heads, the post-attention sum and, when the FFN's
output weight is trainable, the hidden layer with the forward's operations.

Backward closures skip the gradient of any operand without requires_grad,
so frozen weights cost no gradient work. Inside ``with no_grad():`` results
record no parents and no closure, so an inference pass keeps no tape alive;
it computes the same numbers as a pass under the tape.
``backward()`` consumes the tape it walks: leaves keep their gradients, each
intermediate result drops its gradient, parents and saved values once its
closure has run, and a second backward through a consumed result raises
``ValueError``.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = ["Tensor", "concat", "dense_backward", "linear", "no_grad", "take_rows"]

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Build no tape inside the block; the previous setting returns on exit."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _consumed(out):
    raise ValueError("backward() reached a result whose tape an earlier backward() consumed")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=float)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    # -- graph construction -------------------------------------------------

    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    @staticmethod
    def _result(data, parents, backward) -> "Tensor":
        out = Tensor(data)
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accum(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(grad, self.data.shape)
        self.grad = grad if self.grad is None else self.grad + grad

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        other = Tensor._lift(other)
        out_data = self.data + other.data

        def backward(out):
            self._accum(out.grad)
            other._accum(out.grad)

        return Tensor._result(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(out):
            self._accum(-out.grad)

        return Tensor._result(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-Tensor._lift(other))

    def __mul__(self, other):
        other = Tensor._lift(other)
        out_data = self.data * other.data

        def backward(out):
            if self.requires_grad:
                self._accum(out.grad * other.data)
            if other.requires_grad:
                other._accum(out.grad * self.data)

        return Tensor._result(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = Tensor._lift(other)
        if self.data.ndim < 2 or other.data.ndim < 2:
            raise ValueError("matmul operands must be at least 2-D")
        if other.data.ndim == 2:
            return linear(self, other)
        out_data = self.data @ other.data

        def backward(out):
            if self.requires_grad:
                self._accum(out.grad @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                other._accum(np.swapaxes(self.data, -1, -2) @ out.grad)

        return Tensor._result(out_data, (self, other), backward)

    # -- elementwise nonlinearities -------------------------------------------

    def tanh(self):
        out_data = np.tanh(self.data)

        def backward(out):
            self._accum(out.grad * (1.0 - out_data * out_data))

        return Tensor._result(out_data, (self,), backward)

    def sqrt(self):
        out_data = np.sqrt(self.data)

        def backward(out):
            # subgradient 0 at the origin, where sqrt has no derivative
            safe = np.where(out_data > 0.0, out_data, 1.0)
            self._accum(out.grad * np.where(out_data > 0.0, 0.5 / safe, 0.0))

        return Tensor._result(out_data, (self,), backward)

    def abs(self):
        def backward(out):
            self._accum(out.grad * np.sign(self.data))

        return Tensor._result(np.abs(self.data), (self,), backward)

    # -- reductions and shape ops ---------------------------------------------

    def sum(self):
        def backward(out):
            self._accum(np.broadcast_to(out.grad, self.data.shape).copy())

        return Tensor._result(self.data.sum(), (self,), backward)

    def mean(self):
        return self.sum() * (1.0 / self.data.size)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        src_shape = self.data.shape

        def backward(out):
            self._accum(out.grad.reshape(src_shape))

        return Tensor._result(out_data, (self,), backward)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)

        def backward(out):
            self._accum(out.grad.transpose(inverse))

        return Tensor._result(self.data.transpose(axes), (self,), backward)

    def broadcast_to(self, shape):
        out_data = np.broadcast_to(self.data, shape).copy()

        def backward(out):
            self._accum(out.grad)

        return Tensor._result(out_data, (self,), backward)

    # -- autodiff driver --------------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        topo: list[Tensor] = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if id(node) in seen:
                continue
            if expanded:
                seen.add(id(node))
                topo.append(node)
            else:
                stack.append((node, True))
                for parent in node._parents:
                    if id(parent) not in seen:
                        stack.append((parent, False))
        for node in topo:
            node.grad = None
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue  # a leaf keeps its gradient
            node._backward(node)
            # every consumer of node has run, so its gradient, parents and saved values are spent
            node.grad = None
            node._parents = ()
            node._backward = _consumed

    @property
    def shape(self):
        return self.data.shape


def concat(tensors) -> Tensor:
    """Join along the last axis."""
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=-1)
    offsets = np.cumsum([0] + [t.data.shape[-1] for t in tensors])

    def backward(out):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            t._accum(out.grad[..., lo:hi])

    return Tensor._result(out_data, tuple(tensors), backward)


def take_rows(table: Tensor, indices) -> Tensor:
    """Row lookup table[indices] with scatter-add gradients."""
    idx = np.asarray(indices, dtype=int)
    out_data = table.data[idx]

    def backward(out):
        g = np.zeros_like(table.data)
        np.add.at(g, idx, out.grad)
        table._accum(g)

    return Tensor._result(out_data, (table,), backward)


def dense_backward(rows: np.ndarray, x: np.ndarray, w: Tensor, b: Tensor | None = None, need_x: bool = True):
    """Accumulate the gradients of w and b in x (..., K) @ w (K, M) + b from the output
    gradient's rows (-1, M), one GEMM over all rows; return x's, shaped like x, when need_x."""
    if w.requires_grad:
        w._accum(x.reshape(-1, w.data.shape[0]).T @ rows)
    if b is not None and b.requires_grad:
        b._accum(rows.sum(axis=0))
    return (rows @ w.data.T).reshape(x.shape) if need_x else None


def linear(x: Tensor, w: Tensor, b: Tensor | None = None, *, residual: np.ndarray | None = None) -> Tensor:
    """x (..., K) @ w (K, M) + b (M,) [+ residual], as one node.

    b = None leaves out the bias. The bias and then the residual, a constant
    array broadcastable to the output that gets no gradient, are added in
    place on the product, so the tape keeps one output array. The backward
    pass is ``dense_backward``, skipping any operand without requires_grad.
    """
    out_data = x.data @ w.data
    if b is not None:
        out_data += b.data
    if residual is not None:
        out_data += residual

    def backward(out):
        g_x = dense_backward(out.grad.reshape(-1, w.data.shape[1]), x.data, w, b, x.requires_grad)
        if g_x is not None:
            x._accum(g_x)

    return Tensor._result(out_data, (x, w) if b is None else (x, w, b), backward)
