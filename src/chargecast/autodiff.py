"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

A Tensor wraps an ndarray and remembers how it was produced; calling
backward() on a scalar result accumulates gradients into every reachable
tensor with requires_grad set. Broadcasting follows numpy semantics, with
gradients summed back over the broadcast axes. This is deliberately a
small engine: only the operations the forecasting network needs exist, in
the forms it uses them: ``sum`` and ``mean`` reduce every element, and
``concat`` works on the last axis.

Three layers are single fused nodes with closed-form backward passes, each
keeping only the arrays its backward pass reads:

- ``linear``: x @ w + b, then an optional residual add and ReLU, applied in
  place on the product. It keeps its output, whose sign is the ReLU's mask,
  and no pre-activation. Any product with a 2-D right operand is a
  ``linear`` node without bias. Its backward pass is one GEMM per operand
  gradient over the flattened rows, plus a row sum for the bias. Its forward
  product is flattened under the tape; per window under ``no_grad``, so a
  window's prediction does not depend on the others in its batch.
- ``layer_norm``: keeps the normalized input and each row's standard deviation.
- ``attention``: softmax(q @ k_t * scale + bias) @ v with the heads merged.
  It keeps the attention weights; the scores and the per-head product are
  never stored.

Backward closures skip the gradient of any operand without requires_grad,
so frozen weights cost no gradient work. Inside ``with no_grad():`` results
record no parents and no closure, so an inference pass keeps no tape alive.
``backward()`` consumes the tape it walks: leaves keep their gradients, each
intermediate result drops its gradient, parents and saved values once its
closure has run, and a second backward through a consumed result raises
``ValueError``.
"""

from __future__ import annotations

import contextlib

import numpy as np

__all__ = ["Tensor", "attention", "concat", "layer_norm", "linear", "no_grad", "take_rows"]

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


def _weight_product(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x (..., K) @ w (K, M): flattened under the tape; per window under ``no_grad``,
    so a window's prediction does not depend on the others in its batch."""
    if not _grad_enabled:
        return x @ w
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + w.shape[1:])


def linear(
    x: Tensor, w: Tensor, b: Tensor | None = None, *, relu: bool = False, residual: Tensor | np.ndarray | None = None
) -> Tensor:
    """x (..., K) @ w (K, M) + b (M,) [+ residual], then [ReLU], as one node.

    b = None leaves out the bias. The bias, the residual (a Tensor or array
    broadcastable to the output) and the ReLU are applied in that order, in
    place on the product, so the tape keeps one output array and no
    pre-activation. The backward pass masks the output gradient by ``out > 0``
    under ``relu`` (the pre-activation's mask), sends it to the residual, then
    takes one GEMM per operand gradient over the flattened rows and a row sum
    for the bias, skipping any operand without requires_grad.
    """
    k, m = w.data.shape
    out_data = _weight_product(x.data, w.data)
    if b is not None:
        out_data += b.data
    parents = (x, w) if b is None else (x, w, b)
    if residual is not None:
        residual = Tensor._lift(residual)
        out_data += residual.data
        parents += (residual,)
    if relu:
        np.maximum(out_data, 0.0, out=out_data)

    def backward(out):
        g = out.grad * (out.data > 0.0) if relu else out.grad
        if residual is not None:
            residual._accum(g)
        g = g.reshape(-1, m)
        if x.requires_grad:
            x._accum((g @ w.data.T).reshape(x.data.shape))
        if w.requires_grad:
            w._accum(x.data.reshape(-1, k).T @ g)
        if b is not None and b.requires_grad:
            b._accum(g.sum(axis=0))

    return Tensor._result(out_data, parents, backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float) -> Tensor:
    """Normalize over the last axis, then scale by gamma (n,) and shift by beta (n,).

    The forward pass runs the composed form's operations in the same order, so
    its values are bit-identical to it. The backward pass is the closed form of
    Ba et al., Layer Normalization (arXiv 1607.06450):
    g_x = (g_hat - mean(g_hat) - x_hat * mean(g_hat * x_hat)) / std, g_hat = g * gamma.
    """
    n = x.data.shape[-1]
    inv_n = 1.0 / n
    x_hat = x.data - x.data.sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt((x_hat * x_hat).sum(axis=-1, keepdims=True) * inv_n + eps)
    x_hat /= std
    out_data = x_hat * gamma.data
    out_data += beta.data

    def backward(out):
        g = out.grad
        if gamma.requires_grad:
            gamma._accum((g * x_hat).reshape(-1, n).sum(axis=0))
        if beta.requires_grad:
            beta._accum(g.reshape(-1, n).sum(axis=0))
        if x.requires_grad:
            g_hat = g * gamma.data
            g_x = g_hat - g_hat.sum(axis=-1, keepdims=True) * inv_n
            g_x -= x_hat * ((g_hat * x_hat).sum(axis=-1, keepdims=True) * inv_n)
            g_x /= std
            x._accum(g_x)

    return Tensor._result(out_data, (x, gamma, beta), backward)


def attention(q: Tensor, k_t: Tensor, v: Tensor, scale: float, bias: np.ndarray | None = None) -> Tensor:
    """softmax(q @ k_t * scale + bias) @ v with the heads merged, as one node.

    q is (B, H, N, d), k_t (B, H, d, M), v (B, H, M, d_v) and bias, a constant,
    broadcasts to the (B, H, N, M) scores; the result is (B, N, H*d_v). The
    scores are scaled, biased and softmaxed over the last axis (shifted by
    their row max, a constant w.r.t. gradients) in place, so the tape keeps the
    attention weights y and nothing else between the operands and the merged
    output. The backward pass does the composed nodes' arithmetic: y^T @ g for
    v, g_s = y * (g_y - sum(g_y * y)) * scale with g_y = g @ v^T, then g_s @ k
    for q and q^T @ g_s for k_t, skipping any operand without requires_grad.
    """
    y = q.data @ k_t.data
    y *= scale
    if bias is not None:
        y += bias
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    heads = y @ v.data
    b, h, n, d = heads.shape

    def backward(out):
        g = out.grad.reshape(b, n, h, d).transpose(0, 2, 1, 3)
        if v.requires_grad:
            v._accum(np.swapaxes(y, -1, -2) @ g)
        if not (q.requires_grad or k_t.requires_grad):
            return
        g = g @ np.swapaxes(v.data, -1, -2)
        g -= (g * y).sum(axis=-1, keepdims=True)
        g *= y
        g *= scale
        if q.requires_grad:
            q._accum(g @ np.swapaxes(k_t.data, -1, -2))
        if k_t.requires_grad:
            k_t._accum(np.swapaxes(q.data, -1, -2) @ g)

    return Tensor._result(heads.transpose(0, 2, 1, 3).reshape(b, n, h * d), (q, k_t, v), backward)
