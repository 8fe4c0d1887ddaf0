"""Gradient checks for the reverse-mode engine against central differences.

Every check builds a scalar loss from one or more leaf tensors, runs
backward, and compares each analytic gradient entry with
(f(x+h) - f(x-h)) / 2h evaluated by replaying the forward pass.
"""

import numpy as np
import pytest

from chargecast.autodiff import Tensor, concat, layer_norm, linear, no_grad, softmax, take_rows
from chargecast.model import ModelConfig, build_model, forward_batch, freeze_and_adapt

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
    a = np.array([1.0, -1.0, 2.5, -0.5])
    check(lambda x: (x.relu() * 3.0).sum(), a)


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


def test_softmax_gradient():
    a = RNG.normal(size=(3, 5))
    w = RNG.normal(size=(5,))
    check(lambda x: (softmax(x) * w).sum(), a)


def test_softmax_rows_sum_to_one():
    a = RNG.normal(size=(4, 7)) * 10
    s = softmax(Tensor(a))
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
    check(lambda x, g, b: (layer_norm(x, g, b, 1e-5) * weights).sum(), a, gamma, beta)


def test_attention_composition():
    q = RNG.normal(size=(4, 3))
    k = RNG.normal(size=(4, 3))
    v = RNG.normal(size=(4, 2))

    def attn(qq, kk, vv):
        scores = (qq @ kk.transpose((1, 0))) * (1.0 / np.sqrt(3.0))
        return (softmax(scores) @ vv).sum()

    check(attn, q, k, v)


def test_no_grad_records_no_tape():
    x = Tensor(RNG.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(RNG.normal(size=(4, 2)), requires_grad=True)
    taped = softmax(x @ w).sum()
    with no_grad():
        out = softmax(x @ w).sum()
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
    """The composed form, which is also ``linear``'s product under ``no_grad``."""
    return x @ w + b


def flattened_product(x, w):
    """``linear``'s product under the tape: one GEMM over all rows of every window."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(x.shape[:-1] + (w.shape[1],))


def layer_norm_reference(x, gamma, beta, eps):
    inv_n = 1.0 / x.shape[-1]
    centered = x + -(x.sum(axis=-1, keepdims=True) * inv_n)
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_n
    return centered / np.sqrt(var + eps) * gamma + beta


def softmax_reference(x):
    e = np.exp(x + -x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


TRAINABLE_TRIPLES = [(True, False, False), (False, True, False), (False, False, True), (True, True, True)]


@pytest.mark.parametrize(
    "x_shape, m",
    [((5, 4), 3), ((2, 3, 4), 8), ((2, 3, 4), 5), ((3, 1, 4), 8), ((2, 2, 3, 4), 16), ((4, 8, 6), 3)],
)
def test_linear_forward_matches_composed_form(x_shape, m):
    """Under the tape rows equal one flattened GEMM; under no_grad, numpy's per-window x @ w."""
    x = RNG.normal(size=x_shape)
    w = RNG.normal(size=(x_shape[-1], m))
    b = RNG.normal(size=(m,))
    assert np.array_equal(linear(Tensor(x), Tensor(w), Tensor(b)).data, flattened_product(x, w) + b)
    assert np.array_equal((Tensor(x) @ Tensor(w)).data, flattened_product(x, w))
    with no_grad():
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
    out = layer_norm(Tensor(x), Tensor(gamma), Tensor(beta), 1e-5)
    assert np.array_equal(out.data, layer_norm_reference(x, gamma, beta, 1e-5))


@pytest.mark.parametrize("trainable", TRAINABLE_TRIPLES)
def test_layer_norm_gradient_with_frozen_operands(trainable):
    x = RNG.normal(size=(2, 3, 6))
    gamma = RNG.normal(size=(6,))
    beta = RNG.normal(size=(6,))
    weights = RNG.normal(size=(2, 3, 6))
    build = lambda xx, g, b: (layer_norm(xx, g, b, 1e-5) * layer_norm(xx, g, b, 1e-5) * weights).sum()  # noqa: E731
    check_partly_trainable(build, [x, gamma, beta], trainable)


def test_softmax_forward_matches_composed_form():
    x = RNG.normal(size=(2, 4, 7)) * 10.0
    assert np.array_equal(softmax(Tensor(x)).data, softmax_reference(x))


@pytest.mark.parametrize("trainable", TRAINABLE_PAIRS)
def test_softmax_gradient_with_frozen_operands(trainable):
    """softmax over a shared-weight product, the shape of the attention scores."""
    x = RNG.normal(size=(2, 3, 4))
    w = RNG.normal(size=(4, 8))
    weights = RNG.normal(size=(2, 3, 8))
    check_partly_trainable(lambda a, b: (softmax(a @ b) * weights).sum(), [x, w], trainable)


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


@pytest.mark.parametrize("freeze_mode, nodes", [("none", 108), ("partial", 122)])
def test_tape_nodes_per_forward(freeze_mode, nodes):
    """Default model, six channels, eight stations: one node per layer norm, softmax and linear layer."""
    cfg = ModelConfig(c_in=6)
    rng = np.random.default_rng(3)
    model = build_model(cfg, rng)
    freeze_and_adapt(model, rng, freeze_mode=freeze_mode)
    hist = rng.normal(size=(4, cfg.lookback, 8, cfg.c_in))
    out = forward_batch(model, hist, np.arange(4), np.arange(4), np.ones((8, 8)))
    assert closure_nodes(out) == nodes
