"""Gradient checks for the reverse-mode engine against central differences.

Every check builds a scalar loss from one or more leaf tensors, runs
backward, and compares each analytic gradient entry with
(f(x+h) - f(x-h)) / 2h evaluated by replaying the forward pass.
"""

import contextlib

import numpy as np
import pytest

from chargecast import model as model_mod
from chargecast.autodiff import Tensor, concat, linear, no_grad, take_rows
from chargecast.losses import LossConfig, combined_loss
from chargecast.model import ModelConfig, build_model, forward_batch, freeze_and_adapt, mask_bias

RNG = np.random.default_rng(20240816)
H = 1e-6
TOL = 1e-6


def numeric_grad(build_loss, leaves):
    """Central-difference gradient of build_loss w.r.t. each leaf array."""
    grads = []
    for leaf in leaves:
        g = np.zeros_like(leaf)
        flat = leaf.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + H
            up = build_loss()
            flat[i] = orig - H
            down = build_loss()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * H)
        grads.append(g)
    return grads


def check(build, *leaf_arrays):
    """build maps leaf Tensors to a scalar Tensor."""
    tensors = [Tensor(a, requires_grad=True) for a in leaf_arrays]
    loss = build(*tensors)
    loss.backward()

    def replay():
        fresh = [Tensor(a, requires_grad=False) for a in leaf_arrays]
        return float(build(*fresh).data)

    numeric = numeric_grad(replay, leaf_arrays)
    for t, n in zip(tensors, numeric):
        np.testing.assert_allclose(t.grad, n, rtol=TOL, atol=TOL)


def test_add_mul_broadcast():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4,))
    check(lambda x, y: ((x + y) * (x - y)).sum(), a, b)


def test_matmul_batched():
    a = RNG.normal(size=(2, 3, 4))
    b = RNG.normal(size=(4, 5))
    check(lambda x, y: (x @ y).sum(), a, b)


def check_partly_trainable(build, arrays, trainable):
    """Like check, but only the leaves flagged in trainable require grad.

    A frozen leaf must come out of backward with no gradient at all.
    """
    tensors = [Tensor(a, requires_grad=flag) for a, flag in zip(arrays, trainable)]
    build(*tensors).backward()

    def replay():
        return float(build(*[Tensor(a) for a in arrays]).data)

    for t, a, flag in zip(tensors, arrays, trainable):
        if not flag:
            assert t.grad is None
            continue
        (numeric,) = numeric_grad(replay, [a])
        np.testing.assert_allclose(t.grad, numeric, rtol=TOL, atol=TOL)


TRAINABLE_PAIRS = [(False, True), (True, False), (True, True)]


@pytest.mark.parametrize("trainable", TRAINABLE_PAIRS)
def test_matmul_shared_weight_with_frozen_operands(trainable):
    """(B, N, K) @ (K, M), the shape of every projection in the model."""
    x = RNG.normal(size=(2, 3, 4))
    w = RNG.normal(size=(4, 5))
    check_partly_trainable(lambda a, b: ((a @ b) * (a @ b)).sum(), [x, w], trainable)


@pytest.mark.parametrize("trainable", TRAINABLE_PAIRS)
def test_matmul_adapter_shape_with_frozen_operands(trainable):
    """(B, 1, N, W) @ (H, W, r), the stacked per-head adapter factor."""
    x = RNG.normal(size=(2, 1, 3, 4))
    l_q = RNG.normal(size=(2, 4, 3))
    check_partly_trainable(lambda a, b: ((a @ b) * (a @ b)).sum(), [x, l_q], trainable)


@pytest.mark.parametrize("trainable", TRAINABLE_PAIRS)
def test_mul_with_frozen_operands(trainable):
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4,)) + 3.0
    check_partly_trainable(lambda x, y: ((x * y) * (y + x * x + 1.0)).sum(), [a, b], trainable)


@pytest.mark.parametrize("x_shape", [(3, 4, 5), (2, 3, 4, 5)])
def test_shared_weight_gradient_matches_batched_sum(x_shape):
    """The one-GEMM weight gradient equals per-batch products summed over the batch."""
    x = RNG.normal(size=x_shape)
    w = Tensor(RNG.normal(size=(5, 6)), requires_grad=True)
    upstream = RNG.normal(size=x_shape[:-1] + (6,))
    (Tensor(x) @ w * upstream).sum().backward()
    batched = np.swapaxes(x, -1, -2) @ upstream
    expected = batched.reshape(-1, 5, 6).sum(axis=0)
    np.testing.assert_allclose(w.grad, expected, rtol=1e-12, atol=0.0)


def test_matmul_rejects_vectors():
    a = Tensor(RNG.normal(size=(4,)))
    m = Tensor(RNG.normal(size=(4, 3)))
    with pytest.raises(ValueError, match="2-D"):
        a @ m


def test_tanh_sqrt():
    a = RNG.uniform(0.5, 2.0, size=(6,))
    check(lambda x: (x.tanh() + x.sqrt()).sum(), a)


def test_abs_away_from_kink():
    a = np.array([1.5, -2.0, 0.75, -0.25])
    check(lambda x: x.abs().sum(), a)


def test_relu_away_from_kink():
    """The ReLU node the composed block reference applies."""
    a = np.array([[1.0], [-1.0], [2.5], [-0.5]])
    w = np.array([[1.0, -2.0]])
    check(lambda x, y: (relu_node(x @ y) * 3.0).sum(), a, w)


def test_mean_and_sum_reduce_every_element():
    a = RNG.normal(size=(3, 4, 2))
    check(lambda x: (x * x).mean(), a)
    check(lambda x: (x * x).sum(), a)


def test_reshape_transpose_slice():
    a = RNG.normal(size=(4, 6))
    def build(x):
        rows = take_rows(x.reshape((2, 12)).transpose((1, 0)), np.arange(3, 8))
        return (rows * rows).sum()

    check(build, a)


def test_broadcast_to():
    a = RNG.normal(size=(1, 5))
    check(lambda x: (x.broadcast_to((4, 5)) * 2.0).sum(), a)


def test_concat_gradients_split_correctly():
    a = RNG.normal(size=(2, 3))
    b = RNG.normal(size=(2, 2))
    check(lambda x, y: (concat([x, y]) * concat([x, y])).sum(), a, b)


def test_take_rows_accumulates_repeats():
    table = RNG.normal(size=(5, 3))
    idx = np.array([0, 2, 2, 4])

    t = Tensor(table, requires_grad=True)
    loss = take_rows(t, idx).sum()
    loss.backward()
    expected = np.zeros((5, 3))
    for i in idx:
        expected[i] += 1.0
    np.testing.assert_array_equal(t.grad, expected)


def test_getitem_fancy_index_gradient():
    a = RNG.normal(size=(4, 3))
    rows = np.array([3, 0, 3, 1, 3])
    check(lambda x: (take_rows(x, rows) * take_rows(x, rows) * np.arange(1.0, 6.0)[:, None]).sum(), a)


# -- the block's layer-norm and attention math -------------------------------------
#
# ``model._block_apply`` computes its layer norms and its attention with private
# helpers. These two nodes wrap the helpers the way the standalone nodes the block
# absorbed did, so the helpers keep their bit-for-bit and central-difference checks.


def layer_norm(x, gamma, beta):
    """Normalize over the last axis, then scale by gamma (n,) and shift by beta (n,)."""
    normed, x_hat, std = model_mod._layer_norm(x.data, gamma.data, beta.data)

    def backward(out):
        g_x = model_mod._layer_norm_backward(out.grad, x_hat, std, gamma, beta, x.requires_grad)
        if g_x is not None:
            x._accum(g_x)

    return Tensor._result(normed, (x, gamma, beta), backward)


def attention(q, k_t, v, scale, bias=None):
    """softmax(q @ k_t * scale + bias) @ v with the heads merged: (B, H, N, d) operands,
    a (B, N, H*d_v) result."""
    y = model_mod._attention_weights(q.data, k_t.data, scale, bias)
    heads = y @ v.data
    b, h, n, d = heads.shape

    def backward(out):
        g = out.grad.reshape(b, n, h, d).transpose(0, 2, 1, 3)
        grads = model_mod._attention_backward(g, y, q.data, k_t.data, v.data, scale)
        for operand, grad in zip((q, k_t, v), grads):
            operand._accum(grad)

    return Tensor._result(model_mod._merge_heads(heads), (q, k_t, v), backward)


def attention_weights(scores):
    """``attention`` with identity keys and values and unit scale returns its softmax
    weights over the last axis of scores (..., N, M), in the shape of scores."""
    n, m = scores.shape[-2:]
    eye = Tensor(np.eye(m).reshape(1, 1, m, m))
    return attention(scores.reshape(-1, 1, n, m), eye, eye, 1.0).reshape(scores.shape)


def test_softmax_gradient():
    a = RNG.normal(size=(3, 5))
    w = RNG.normal(size=(5,))
    check(lambda x: (attention_weights(x) * w).sum(), a)


def test_softmax_rows_sum_to_one():
    a = RNG.normal(size=(4, 7)) * 10
    s = attention_weights(Tensor(a))
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0, rtol=1e-12)


def test_diamond_graph_accumulates_both_paths():
    # y = x*x + x*x should double the single-path gradient
    x = Tensor(np.array([3.0]), requires_grad=True)
    y = x * x
    (y + y).sum().backward()
    np.testing.assert_allclose(x.grad, [12.0])


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_grad_resets_between_backward_calls():
    x = Tensor(np.array([2.0]), requires_grad=True)
    (x * x).sum().backward()
    first = x.grad.copy()
    (x * x).sum().backward()
    np.testing.assert_array_equal(x.grad, first)


def test_backward_consumes_the_tape():
    """Leaves keep their gradients; an intermediate gives up its gradient and parents."""
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    w = Tensor(np.array([3.0, 0.5]), requires_grad=True)
    y = x * w
    loss = y.tanh().sum()
    loss.backward()
    np.testing.assert_allclose(x.grad, w.data * (1.0 - np.tanh(y.data) ** 2))
    np.testing.assert_allclose(w.grad, x.data * (1.0 - np.tanh(y.data) ** 2))
    for node in (y, loss):
        assert node.grad is None
        assert node._parents == ()


def test_second_backward_through_a_consumed_result_raises():
    """Without the guard the second call would leave x's previous gradient in place."""
    x = Tensor(np.array([2.0]), requires_grad=True)
    y = x * x
    y.sum().backward()
    with pytest.raises(ValueError, match="consumed"):
        (y * 2.0).sum().backward()


def test_layernorm_composition():
    a = RNG.normal(size=(3, 8))
    gamma = RNG.normal(size=(8,))
    beta = RNG.normal(size=(8,))
    weights = RNG.normal(size=(3, 8))
    check(lambda x, g, b: (layer_norm(x, g, b) * weights).sum(), a, gamma, beta)


def test_attention_composition():
    """Four queries over six keys and values, with a mask bias."""
    q = RNG.normal(size=(1, 2, 4, 3))
    k_t = RNG.normal(size=(1, 2, 3, 6))
    v = RNG.normal(size=(1, 2, 6, 2))
    bias = np.where(np.arange(6) > np.arange(4)[:, None] + 1, -1e9, 0.0)
    weights = RNG.normal(size=(1, 4, 4))

    def attn(qq, kk, vv):
        return (attention(qq, kk, vv, 1.0 / np.sqrt(3.0), bias) * weights).sum()

    check(attn, q, k_t, v)


def test_no_grad_records_no_tape():
    x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
    taped = linear(x, w).sum()
    with no_grad():
        out = linear(x, w).sum()
    assert out._parents == ()
    assert out._backward is None
    assert not out.requires_grad
    assert np.array_equal(out.data, taped.data)
    assert taped.requires_grad and taped._parents


def test_no_grad_restores_after_nesting():
    x = Tensor(np.ones(2), requires_grad=True)
    with no_grad():
        with no_grad():
            assert not (x * 2.0).requires_grad
        assert not (x * 2.0).requires_grad
    assert (x * 2.0).requires_grad


def test_no_grad_restores_after_exception():
    x = Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(RuntimeError, match="boom"):
        with no_grad():
            raise RuntimeError("boom")
    y = x * 2.0
    assert y.requires_grad and y._parents


# -- fused nodes ------------------------------------------------------------------
#
# Each reference below is the composed form the fused node replaced, written in
# numpy with the tape operations' order (a tape mean is sum * (1/n), a tape
# subtraction is an addition of the negation), so a fused forward must equal it
# bit for bit.


def linear_reference(x, w, b):
    return x @ w + b


def layer_norm_reference(x, gamma, beta, eps):
    inv_n = 1.0 / x.shape[-1]
    centered = x + -(x.sum(axis=-1, keepdims=True) * inv_n)
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    return centered / np.sqrt(var + eps) * gamma + beta


def softmax_reference(x):
    e = np.exp(x + -x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def relu_node(x):
    """The ReLU node the block node absorbed: it kept its input for the mask."""

    def backward(out):
        x._accum(out.grad * (x.data > 0.0))

    return Tensor._result(np.maximum(x.data, 0.0), (x,), backward)


def softmax_node(x):
    """The softmax node ``attention`` absorbed: it kept its output."""
    y = x.data - x.data.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)

    def backward(out):
        g = out.grad
        x._accum(y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return Tensor._result(y, (x,), backward)


def attention_reference(q, k_t, v, scale, bias):
    """The node chain ``attention`` replaced: scores, scale, bias, softmax, product, head merge."""
    scores = (q @ k_t) * scale
    if bias is not None:
        scores = scores + Tensor(bias)
    heads = softmax_node(scores) @ v
    b, h, n, d = heads.shape
    return heads.transpose(0, 2, 1, 3).reshape(b, n, h * d)


def assert_same_nodes(fused, composed, arrays, trainable):
    """fused and composed map leaf Tensors to one output. Under the tape and under
    ``no_grad`` their outputs, and the gradients of a weighted sum of them, must
    be equal bit for bit; a frozen leaf must get no gradient from either."""
    runs = []
    for build in (fused, composed):
        leaves = [Tensor(a, requires_grad=flag) for a, flag in zip(arrays, trainable)]
        out = build(*leaves)
        with no_grad():
            plain = build(*[Tensor(a) for a in arrays]).data
        weights = np.random.default_rng(5).normal(size=out.shape)
        (out * weights).sum().backward()
        runs.append((out.data, plain, [t.grad for t in leaves]))
    (fused_out, fused_plain, fused_grads), (composed_out, composed_plain, composed_grads) = runs
    assert np.array_equal(fused_out, composed_out)
    assert np.array_equal(fused_plain, composed_plain)
    for fused_grad, composed_grad, flag in zip(fused_grads, composed_grads, trainable):
        if flag:
            assert np.array_equal(fused_grad, composed_grad)
        else:
            assert fused_grad is None and composed_grad is None


TRAINABLE_TRIPLES = [(True, False, False), (False, True, False), (False, False, True), (True, True, True)]


@pytest.mark.parametrize(
    "x_shape, m",
    [((5, 4), 3), ((2, 3, 4), 8), ((2, 3, 4), 5), ((3, 1, 4), 8), ((2, 2, 3, 4), 16), ((4, 8, 6), 3)],
)
def test_linear_forward_matches_composed_form(x_shape, m):
    """numpy's x @ w + b under the tape and under no_grad alike."""
    x = RNG.normal(size=x_shape)
    w = RNG.normal(size=(x_shape[-1], m))
    b = RNG.normal(size=(m,))
    for grad_mode in (contextlib.nullcontext, no_grad):
        with grad_mode():
            assert np.array_equal(linear(Tensor(x), Tensor(w), Tensor(b)).data, linear_reference(x, w, b))
            assert np.array_equal((Tensor(x) @ Tensor(w)).data, x @ w)


@pytest.mark.parametrize("m", [3, 8])
@pytest.mark.parametrize("trainable", TRAINABLE_TRIPLES)
def test_linear_gradient_with_frozen_operands(trainable, m):
    x = RNG.normal(size=(2, 3, 4))
    w = RNG.normal(size=(4, m))
    b = RNG.normal(size=(m,))
    weights = RNG.normal(size=(2, 3, m))
    build = lambda xx, ww, bb: (linear(xx, ww, bb) * linear(xx, ww, bb) * weights).sum()  # noqa: E731
    check_partly_trainable(build, [x, w, b], trainable)


@pytest.mark.parametrize("shape", [(3, 8), (2, 5, 96)])
def test_layer_norm_forward_matches_composed_form(shape):
    x = RNG.normal(size=shape) * 3.0 + 1.0
    gamma = RNG.normal(size=shape[-1:])
    beta = RNG.normal(size=shape[-1:])
    out = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta))
    assert np.array_equal(out.data, layer_norm_reference(x, gamma, beta, 1e-5))


@pytest.mark.parametrize("trainable", TRAINABLE_TRIPLES)
def test_layer_norm_gradient_with_frozen_operands(trainable):
    x = RNG.normal(size=(2, 3, 6))
    gamma = RNG.normal(size=(6,))
    beta = RNG.normal(size=(6,))
    weights = RNG.normal(size=(2, 3, 6))
    build = lambda xx, g, b: (layer_norm(xx, g, b) * layer_norm(xx, g, b) * weights).sum()  # noqa: E731
    check_partly_trainable(build, [x, gamma, beta], trainable)


def test_softmax_forward_matches_composed_form():
    """Products with identity matrices are exact, so the weights equal the composed softmax."""
    x = RNG.normal(size=(2, 4, 7)) * 10.0
    assert np.array_equal(attention_weights(Tensor(x)).data, softmax_reference(x))
    with no_grad():
        assert np.array_equal(attention_weights(Tensor(x)).data, softmax_reference(x))


@pytest.mark.parametrize("trainable", TRAINABLE_PAIRS)
def test_softmax_gradient_with_frozen_operands(trainable):
    """attention's softmax over a shared-weight product, the shape of the attention scores."""
    x = RNG.normal(size=(2, 3, 4))
    w = RNG.normal(size=(4, 8))
    weights = RNG.normal(size=(2, 3, 8))
    check_partly_trainable(lambda a, b: (attention_weights(a @ b) * weights).sum(), [x, w], trainable)


@pytest.mark.parametrize("trainable", TRAINABLE_TRIPLES)
def test_linear_residual_matches_composed_form(trainable):
    """``linear(residual=r)`` is ``linear(...) + r`` for a constant r of the output's shape."""
    rng = np.random.default_rng(14)
    r = rng.normal(size=(3, 5, 6))
    assert_same_nodes(
        lambda x, w, b: linear(x, w, b, residual=r),
        lambda x, w, b: linear(x, w, b) + Tensor(r),
        [rng.normal(size=(3, 5, 4)), rng.normal(size=(4, 6)), rng.normal(size=(6,))],
        trainable,
    )


def test_linear_constant_residual_matches_composed_form():
    """A constant residual broadcast over the leading axes, like the positional rows."""
    rng = np.random.default_rng(15)
    rows = rng.normal(size=(5, 6))
    assert_same_nodes(
        lambda x, w, b: linear(x, w, b, residual=rows),
        lambda x, w, b: linear(x, w, b) + Tensor(rows),
        [rng.normal(size=(3, 5, 4)), rng.normal(size=(4, 6)), rng.normal(size=(6,))],
        (True, True, True),
    )


@pytest.mark.parametrize("trainable", TRAINABLE_TRIPLES)
def test_linear_residual_gradient(trainable):
    """Bias, then a constant residual: the gradient check runs both at once."""
    rng = np.random.default_rng(16)
    x, w, b, r = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(5,)), rng.normal(size=(2, 3, 5))
    weights = np.random.default_rng(18).normal(size=(2, 3, 5))

    def build(xx, ww, bb):
        out = linear(xx, ww, bb, residual=r)
        return (out * out * weights).sum()

    check_partly_trainable(build, [x, w, b], trainable)


def attention_operands(rng, masked):
    q = rng.normal(size=(2, 3, 5, 3))
    k_t = rng.normal(size=(2, 3, 3, 5))
    v = rng.normal(size=(2, 3, 5, 4))
    adjacency = (rng.random((5, 5)) < 0.5) | np.eye(5, dtype=bool)
    bias = np.where(adjacency, 0.0, -1e9) if masked else None
    return [q, k_t, v], bias


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("trainable", TRAINABLE_TRIPLES + [(True, True, False), (False, False, False)])
def test_attention_matches_composed_form(trainable, masked):
    arrays, bias = attention_operands(np.random.default_rng(19), masked)
    scale = 1.0 / np.sqrt(3)  # not a power of two, so moving the scale would change bits
    assert_same_nodes(
        lambda q, k_t, v: attention(q, k_t, v, scale, bias),
        lambda q, k_t, v: attention_reference(q, k_t, v, scale, bias),
        arrays,
        trainable,
    )


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("trainable", TRAINABLE_TRIPLES)
def test_attention_gradient(trainable, masked):
    arrays, bias = attention_operands(np.random.default_rng(20), masked)
    weights = np.random.default_rng(21).normal(size=(2, 5, 12))
    build = lambda q, k_t, v: (attention(q, k_t, v, 1.0 / np.sqrt(3), bias) * weights).sum()  # noqa: E731
    check_partly_trainable(build, arrays, trainable)


def closure_nodes(out):
    """Tape nodes reachable from out that carry a backward closure."""
    seen, stack, count = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += node._backward is not None
            stack.extend(node._parents)
    return count


def _buffer(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def tape_bytes(out, parameters=()):
    """Bytes of the arrays out's tape holds: every reachable node's output and every array
    (or Tensor's array) its closure saved, each buffer counted once, whatever views of it
    are held, and the buffers of the given parameter arrays left out."""
    skipped = {id(_buffer(p)) for p in parameters}
    held, seen, stack = {}, set(), [out]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        saved = [node.data]
        closure = node._backward.__closure__ if node._backward is not None else None
        for cell in closure or ():
            contents = cell.cell_contents
            saved.extend(contents if isinstance(contents, (list, tuple)) else [contents])
        for item in saved:
            array = item.data if isinstance(item, Tensor) else item
            if isinstance(array, np.ndarray) and id(_buffer(array)) not in skipped:
                held[id(_buffer(array))] = _buffer(array).nbytes
        stack.extend(node._parents)
    return sum(held.values())


def default_training_forward(freeze_mode, batch):
    """One training forward of the default model on six channels and eight stations."""
    cfg = ModelConfig(c_in=6)
    rng = np.random.default_rng(3)
    model = freeze_and_adapt(build_model(cfg, rng), rng, freeze_mode=freeze_mode)
    hist = rng.normal(size=(batch, cfg.lookback, 8, cfg.c_in))
    out = forward_batch(model, hist, np.arange(batch) % 24, np.arange(batch) % 7, np.ones((8, 8)))
    return model, out


@pytest.mark.parametrize("freeze_mode, nodes", [("none", 17), ("partial", 17)])
def test_tape_nodes_per_forward(freeze_mode, nodes):
    """Default model, six channels, eight stations: ten nodes embed, each of the four
    blocks is one node whatever its adapters, and the head is a linear node and two
    shape nodes."""
    _, out = default_training_forward(freeze_mode, 4)
    assert closure_nodes(out) == nodes


def test_tape_bytes_helper_counts_each_buffer_once():
    x = Tensor(RNG.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(RNG.normal(size=(3, 5)), requires_grad=True)
    h = linear(x, w)  # keeps its output; its parents are the operands
    out = h.reshape(20).reshape(4, 5)  # two views of h's buffer
    assert tape_bytes(out) == (12 + 15 + 20) * 8
    assert tape_bytes(out, [w.data]) == (12 + 20) * 8


@pytest.mark.parametrize("freeze_mode", ["none", "partial"])
def test_tape_bytes_per_training_forward(freeze_mode):
    """A block keeps only its attention weights and its ReLU mask, and recomputes its
    layer norms, q, k, v, x1 and the hidden layer, so at batch 64 the whole tape holds
    under 5 MB (14.8 MB when a block kept q, k, v and the hidden layer too)."""
    model, out = default_training_forward(freeze_mode, 64)
    held = tape_bytes(out, [t.data for _, t in model.named_parameters()])
    assert held < 5e6, f"one training forward holds {held / 1e6:.2f} MB"


@pytest.mark.parametrize("freeze_mode", ["none", "partial"])
def test_block_node_keeps_attention_weights_and_relu_mask(freeze_mode):
    """Under the tape, each block node's closure holds two arrays besides its operands
    (the block input and parameters, all tape parents): the attention weights as a
    float (B, H, N, N) array and the FFN's ReLU mask as a bool (B, N, 4W) array. Both are
    smaller than q alone, so neither q, k, v nor the hidden layer is kept."""
    cfg = ModelConfig(c_in=6)
    rng = np.random.default_rng(3)
    model = freeze_and_adapt(build_model(cfg, rng), rng, freeze_mode=freeze_mode)
    b, n, w = 64, 8, cfg.width
    x = Tensor(rng.normal(size=(b, n, w)), requires_grad=True)
    bias = mask_bias(np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1))
    for blk in model.blocks:
        node = model_mod._block_apply(x, blk, cfg, bias if blk.masked else None)
        parents = {id(p) for p in node._parents}
        held = []
        for cell in node._backward.__closure__:
            contents = cell.cell_contents
            for item in contents if isinstance(contents, (list, tuple)) else [contents]:
                if isinstance(item, Tensor):
                    assert id(item) in parents
                elif isinstance(item, np.ndarray):
                    held.append(item)
        assert sorted((str(a.dtype), a.shape) for a in held) == [
            ("bool", (b, n, 4 * w)),
            ("float64", (b, cfg.heads, n, n)),
        ]
        assert all(a.nbytes < b * n * w * 8 for a in held)


def composed_block(x, blk, cfg, bias, relu=None):
    """``model._block_apply`` as separate nodes: layer norms, projections, adapters, the
    attention chain, the residual adds and the ReLU (``relu``, if given, replaces it)."""
    normed = layer_norm(x, blk.ln1_gamma, blk.ln1_beta)
    b, n, w = normed.shape
    q = (normed @ blk.w_q).reshape(b, n, cfg.heads, cfg.d_k).transpose(0, 2, 1, 3)
    k_t = (normed @ blk.w_k).reshape(b, n, cfg.heads, cfg.d_k).transpose(0, 2, 3, 1)
    v = (normed @ blk.w_v).reshape(b, n, cfg.heads, cfg.d_k).transpose(0, 2, 1, 3)
    if blk.adapters is not None:
        a = blk.adapters
        x_h = normed.reshape(b, 1, n, w)
        q = q + (x_h @ a.l_q) @ a.m_q
        v = v + (x_h @ a.l_v) @ a.m_v
    x = x + attention_reference(q, k_t, v, 1.0 / np.sqrt(cfg.d_k), bias) @ blk.w_o
    normed2 = layer_norm(x, blk.ln2_gamma, blk.ln2_beta)
    return x + linear((relu or relu_node)(linear(normed2, blk.w_1, blk.b_1)), blk.w_2, blk.b_2)


def composed_embed(model, hist, hours, dows):
    """``model._embed_batch`` with the positional rows added by a separate node."""
    cfg, e = model.config, model.embed
    b, p, n, c = hist.shape
    flat = Tensor(hist.transpose(0, 2, 1, 3).reshape(b, n, p * c))
    e_t = take_rows(e.w_d, hours) + take_rows(e.w_w, dows)
    e_t = e_t.reshape(b, 1, cfg.d_embed).broadcast_to((b, n, cfg.d_embed))
    parts = [linear(flat, e.theta_p_w, e.theta_p_b), linear(flat, e.w_s, e.b_s).tanh(), e_t]
    fused = linear(concat(parts), e.theta_f_w, e.theta_f_b)
    return fused + Tensor(model_mod._positional_rows(n, cfg.width))


def adapted_model(cfg, rng, freeze_mode, use_graph_mask=True):
    """A model in the given regime whose adapters, if any, have nonzero up factors, so
    their gradients add into the normalized block input."""
    model = freeze_and_adapt(build_model(cfg, rng), rng, freeze_mode=freeze_mode, use_graph_mask=use_graph_mask)
    for blk in model.blocks:
        if blk.adapters is not None:
            blk.adapters.m_q.data = rng.normal(size=blk.adapters.m_q.shape) * 0.1
            blk.adapters.m_v.data = rng.normal(size=blk.adapters.m_v.shape) * 0.1
    return model


@pytest.mark.parametrize(
    "freeze_mode, use_graph_mask",
    [("none", True), ("partial", True), ("all_graph", True), ("partial", False)],
    ids=["none", "partial", "all_graph", "partial-unmasked"],
)
def test_default_model_matches_composed_nodes(freeze_mode, use_graph_mask, monkeypatch):
    """Default model, six channels, eight stations with a sparse graph: forward_batch's
    output and every trainable gradient of its training loss equal those of the
    composed nodes the block node replaced, bit for bit, and so does each window's
    ``no_grad`` forward alone."""
    cfg = ModelConfig(c_in=6)
    data = np.random.default_rng(4)
    hist = data.normal(size=(16, cfg.lookback, 8, cfg.c_in))
    target = data.normal(size=(16, cfg.horizon, 8, 1))
    hours, dows = data.integers(0, 24, size=16), data.integers(0, 7, size=16)
    adjacency = np.eye(8) + np.eye(8, k=1) + np.eye(8, k=-1)
    runs = []
    for composed in (False, True):
        model = adapted_model(cfg, np.random.default_rng(3), freeze_mode, use_graph_mask)
        with monkeypatch.context() as patch:
            if composed:
                patch.setattr(model_mod, "_block_apply", composed_block)
                patch.setattr(model_mod, "_embed_batch", composed_embed)
            with no_grad():
                plain = forward_batch(model, hist, hours, dows, adjacency).data
            pred = forward_batch(model, hist, hours, dows, adjacency)
            combined_loss(pred, target, LossConfig()).backward()
        runs.append((plain, pred.data, [(name, t.grad) for name, t in model.trainable_parameters()]))
    (fused_plain, fused_pred, fused_grads), (composed_plain, composed_pred, composed_grads) = runs
    assert np.array_equal(fused_plain, composed_plain)
    assert np.array_equal(fused_pred, composed_pred)
    assert [name for name, _ in fused_grads] == [name for name, _ in composed_grads]
    for (name, fused_grad), (_, composed_grad) in zip(fused_grads, composed_grads):
        assert np.array_equal(fused_grad, composed_grad), name
    with no_grad():
        for i in range(16):
            alone = forward_batch(model, hist[i : i + 1], hours[i : i + 1], dows[i : i + 1], adjacency)
            assert np.array_equal(alone.data, fused_plain[i : i + 1]), i


@pytest.mark.parametrize("stations, windows", [(8, 64), (16, 256)])
@pytest.mark.parametrize("freeze_mode", ["none", "partial"])
def test_training_forward_equals_the_no_grad_forward(freeze_mode, stations, windows):
    """Default model, six channels, adapters that act: forward_batch under the tape
    and under ``no_grad`` give the same predictions bit for bit, so training fits
    the function that evaluation and forecasting serve."""
    cfg = ModelConfig(c_in=6)
    rng = np.random.default_rng(6)
    model = adapted_model(cfg, rng, freeze_mode)
    hist = rng.normal(size=(windows, cfg.lookback, stations, cfg.c_in))
    hours, dows = rng.integers(0, 24, size=windows), rng.integers(0, 7, size=windows)
    adjacency = np.eye(stations) + np.eye(stations, k=1) + np.eye(stations, k=-1)
    taped = forward_batch(model, hist, hours, dows, adjacency)
    assert taped.requires_grad
    with no_grad():
        plain = forward_batch(model, hist, hours, dows, adjacency).data
    assert np.array_equal(taped.data, plain)


BLOCK_CFG = ModelConfig(d_embed=4, lookback=2, horizon=1, f_frozen=1, u_unfrozen=1, heads=2, rank=2)


@pytest.mark.parametrize(
    "freeze_mode, index, n_trainable",
    [("none", 1, 12), ("partial", 1, 8), ("partial", 0, 0)],
    ids=["none", "partial", "partial-frozen"],
)
def test_block_gradient(freeze_mode, index, n_trainable):
    """Central differences for the block input and every trainable operand of one block:
    all twelve in ``none``; the layer norms and the four adapter factors of a partial
    graph block, whose other operands must get no gradient; only the input of a fully
    frozen block."""
    cfg = BLOCK_CFG
    for seed in range(100):  # redraw until central differences cannot cross the ReLU's kink
        rng = np.random.default_rng(seed)
        blk = adapted_model(cfg, rng, freeze_mode).blocks[index]
        x = rng.normal(size=(2, 3, cfg.width))
        bias = mask_bias(np.eye(3) + np.eye(3, k=1)) if blk.masked else None
        pre = []
        composed_block(Tensor(x), blk, cfg, bias, relu=lambda t: pre.append(t.data) or relu_node(t))
        if np.abs(pre[0]).min() >= 1e-3:
            break
    weights = rng.normal(size=x.shape)
    operands = [t for _, t in blk.named("")]
    trainable = [t for t in operands if t.requires_grad]
    assert len(trainable) == n_trainable
    x_in = Tensor(x, requires_grad=True)
    (model_mod._block_apply(x_in, blk, cfg, bias) * weights).sum().backward()

    def replay():
        return float((model_mod._block_apply(Tensor(x), blk, cfg, bias) * weights).sum().data)

    numeric = numeric_grad(replay, [x] + [t.data for t in trainable])
    for analytic, expected in zip([x_in.grad] + [t.grad for t in trainable], numeric):
        np.testing.assert_allclose(analytic, expected, rtol=TOL, atol=TOL)
    assert all(t.grad is None for t in operands if not t.requires_grad)
