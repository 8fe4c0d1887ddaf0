"""Partially frozen graph-attention forecasting network.

The network embeds a lookback window of multi-channel station series into
token, spatial, and temporal components, fuses them to width 3D per node,
and runs the result through F frozen transformer blocks followed by U
graph-attention blocks whose attention is masked by the station adjacency.
In the partially frozen regime the attention bases of the graph blocks are
stored 4-bit quantized and only embeddings, graph-block layer norms,
low-rank adapters, and the regression head receive gradients.

Each transformer block is one tape node (``_block_apply``). Attention runs
with the heads as an array axis: q, k and v are reshaped to (B, H, N, d_k) and
one batched product scores, masks and softmaxes every head. The node keeps
two arrays: the attention weights y and the FFN's ReLU mask, as bools (the
block's input and output stay alive as neighbouring nodes' values). q, k, v
and the FFN's hidden layer are dropped as soon as the forward has used them.
Its backward pass recomputes the rest from the block input with the
forward's exact operations and shapes: LN1's normalized input, row
deviations and output; q, k and v with the adapters' updates; the merged
heads from y and v; x1, the post-attention sum, from the same w_o product
plus the residual; LN2 from x1; and the hidden layer only when w_2 takes a
gradient (every other FFN gradient reads only the mask). Each layer norm is
recomputed once and handed to both the FFN's and the projections' backward.
Each of its six dense products (q, k, v, w_o, w_1, w_2) takes its gradients
from ``autodiff.dense_backward``. It adds each gradient in the order the
separate nodes it replaced did (the normalized input's sums the q, k and v
projections' shares, then the two adapters'), so every gradient is
bit-identical to theirs.

The positional rows are added as the residual of the embedding's fusion
layer. The low-rank adapters of a graph block are stacked on a head axis too,
one (H, W, r) and one (H, r, d_k) factor each for query and value.
Checkpoints store those stacked factors as ``block{i}.heads.{l_q,m_q,l_v,m_v}``
and the four arrays of each quantized basis's ``QuantizedTensor`` as they are
(its NF4 codes two per byte, in the layout ``quantize`` owns), in the
container of ``io.write_npz``. The layout is checkpoint version 5. Its meta
holds the architecture sizes, the freeze mode and the block masks, nothing
more: ``load_checkpoint`` replays ``build_model`` and ``freeze_and_adapt`` to
get the trainable flags, the adapters and the quantized layouts, then fills
in the stored values, each of which must have the dtype and shape of the
replayed value it replaces. Other versions are rejected.

Whether a block's attention is masked by the station graph is recorded on
the block alone (``PfgaBlockParams.masked``): ``build_model`` marks the
graph blocks, ``freeze_and_adapt`` re-marks them for fine-tuning, and the
checkpoint keeps the marks, so every forward obeys the model it runs.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .autodiff import Tensor, concat, dense_backward, linear, take_rows
from .errors import ConfigError, DataError
from .io import read_npz, write_npz
from .quantize import NF4_CODEBOOK, dequantize, quantize

__all__ = [
    "ModelConfig",
    "EmbeddingParams",
    "HeadAdapters",
    "PfgaBlockParams",
    "PfgaModel",
    "graph_attention_block",
    "forward_batch",
    "mask_bias",
    "build_model",
    "freeze_and_adapt",
    "trainable_parameter_count",
    "save_checkpoint",
    "load_checkpoint",
]

MASK_FILL = -1e9
LN_EPS = 1e-5

FREEZE_MODES = ("partial", "none", "all_graph")

# the attention bases of a graph block, stored NF4-quantized when it is partially frozen
_QUANTIZED_BASES = ("w_q", "w_k", "w_v", "w_o")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture sizes. Width of the fused representation is 3*d_embed."""

    d_embed: int = 32
    lookback: int = 12
    horizon: int = 3
    c_in: int = 1
    f_frozen: int = 2
    u_unfrozen: int = 2
    heads: int = 4
    rank: int = 4

    def __post_init__(self):
        if self.d_embed < 1:
            raise ConfigError("d_embed must be >= 1")
        if self.lookback < 1 or self.horizon < 1 or self.c_in < 1:
            raise ConfigError("lookback, horizon, and c_in must be >= 1")
        if self.heads < 1 or self.width % self.heads != 0:
            raise ConfigError("heads must be >= 1 and divide 3*d_embed")
        if self.rank < 1 or self.rank >= self.d_k:
            raise ConfigError("rank must satisfy 1 <= rank < d_k")
        if self.f_frozen < 0:
            raise ConfigError("f_frozen must be >= 0")
        if self.u_unfrozen < 1:
            raise ConfigError("u_unfrozen must be >= 1")

    @property
    def width(self) -> int:
        return 3 * self.d_embed

    @property
    def d_k(self) -> int:
        return self.width // self.heads


def _positional_rows(n: int, width: int) -> np.ndarray:
    """Sinusoidal encoding of node indices 0..n-1: sine on even dims, cosine on odd."""
    position = np.arange(n, dtype=float)[:, None]
    dim = np.arange(width, dtype=float)[None, :]
    angle = position / np.power(10000.0, 2.0 * (dim // 2) / width)
    return np.where(dim % 2 == 0, np.sin(angle), np.cos(angle))


def _tensor_fields(params, prefix: str) -> list:
    """(prefix + field name, tensor) for each Tensor field of a dataclass, in field order."""
    return [(prefix + f.name, t) for f in fields(params) if isinstance(t := getattr(params, f.name), Tensor)]


@dataclass
class EmbeddingParams:
    theta_p_w: Tensor
    theta_p_b: Tensor
    w_d: Tensor
    w_w: Tensor
    w_s: Tensor
    b_s: Tensor
    theta_f_w: Tensor
    theta_f_b: Tensor


@dataclass
class HeadAdapters:
    """Low-rank query and value updates of every head, stacked on a leading head axis.

    l_q and l_v are (H, W, r); m_q and m_v are (H, r, d_k).
    """

    l_q: Tensor
    m_q: Tensor
    l_v: Tensor
    m_v: Tensor


@dataclass
class PfgaBlockParams:
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor
    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    w_1: Tensor
    b_1: Tensor
    w_2: Tensor
    b_2: Tensor
    masked: bool = False
    adapters: HeadAdapters | None = None
    quant: dict = field(default_factory=dict)

    def named(self, prefix: str):
        pairs = _tensor_fields(self, f"{prefix}.")
        if self.adapters is not None:
            pairs += _tensor_fields(self.adapters, f"{prefix}.heads.")
        return pairs


@dataclass
class PfgaModel:
    config: ModelConfig
    freeze_mode: str
    embed: EmbeddingParams
    blocks: tuple
    head_w: Tensor
    head_b: Tensor

    def named_parameters(self):
        pairs = _tensor_fields(self.embed, "embed.")
        for i, blk in enumerate(self.blocks):
            pairs += blk.named(f"block{i}")
        return pairs + _tensor_fields(self, "")  # head_w, head_b

    def trainable_parameters(self):
        return [(n, t) for n, t in self.named_parameters() if t.requires_grad]

    def trainable_count(self) -> int:
        return sum(t.data.size for _, t in self.trainable_parameters())


def trainable_parameter_count(cfg: ModelConfig, freeze_mode: str) -> int:
    """Closed-form trainable size for a model built under the given mode."""
    if freeze_mode not in FREEZE_MODES:
        raise ConfigError(f"unknown freeze_mode {freeze_mode!r}")
    w = cfg.width
    flat = cfg.lookback * cfg.c_in
    embeddings = (
        (flat * cfg.d_embed + cfg.d_embed)  # token projection
        + 24 * cfg.d_embed
        + 7 * cfg.d_embed
        + (flat * cfg.d_embed + cfg.d_embed)  # spatial projection
        + (w * w + w)  # fusion
    )
    head = w * cfg.horizon + cfg.horizon
    if freeze_mode == "partial":
        norms = cfg.u_unfrozen * 4 * w
        adapters = cfg.u_unfrozen * 2 * cfg.heads * cfg.rank * (w + cfg.d_k)
        return embeddings + head + norms + adapters
    per_block = 4 * w + 4 * w * w + (w * 4 * w + 4 * w) + (4 * w * w + w)
    return embeddings + head + (cfg.f_frozen + cfg.u_unfrozen) * per_block


# -- transformer blocks -------------------------------------------------------


def mask_bias(adjacency: np.ndarray) -> np.ndarray:
    """Additive pre-softmax bias: 0 where connected, a large negative fill where not.

    The diagonal must be all ones. A node with no edge at all would get
    the same fill on every score, which the softmax cancels, so it would
    attend to every node as if there were no mask.
    """
    adjacency = np.asarray(adjacency)
    if not np.all(np.diag(adjacency) == 1):
        raise ConfigError("adjacency must have a unit diagonal")
    return np.where(adjacency == 0, MASK_FILL, 0.0)


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> tuple:
    """(out, x_hat, std): x normalized over its last axis, then scaled by gamma and
    shifted by beta, with the normalized x_hat and each row's standard deviation."""
    inv_n = 1.0 / x.shape[-1]
    x_hat = x - x.sum(axis=-1, keepdims=True) * inv_n
    std = np.sqrt((x_hat * x_hat).sum(axis=-1, keepdims=True) * inv_n + LN_EPS)
    x_hat /= std
    out = x_hat * gamma
    out += beta
    return out, x_hat, std


def _layer_norm_backward(g, x_hat, std, gamma: Tensor, beta: Tensor, need_x: bool):
    """Accumulate gamma's and beta's gradients from the output gradient g; return the
    input's when need_x, in the closed form of Ba et al., Layer Normalization (arXiv
    1607.06450): (g_hat - mean(g_hat) - x_hat * mean(g_hat * x_hat)) / std, g_hat = g * gamma."""
    n = g.shape[-1]
    if gamma.requires_grad:
        gamma._accum((g * x_hat).reshape(-1, n).sum(axis=0))
    if beta.requires_grad:
        beta._accum(g.reshape(-1, n).sum(axis=0))
    if not need_x:
        return None
    inv_n = 1.0 / n
    g_hat = g * gamma.data
    g_x = g_hat - g_hat.sum(axis=-1, keepdims=True) * inv_n
    g_x -= x_hat * ((g_hat * x_hat).sum(axis=-1, keepdims=True) * inv_n)
    g_x /= std
    return g_x


def _attention_weights(q: np.ndarray, k_t: np.ndarray, scale: float, bias: np.ndarray | None) -> np.ndarray:
    """softmax(q @ k_t * scale + bias) over the last axis, computed in place on the scores;
    the row max it subtracts is a constant with respect to gradients."""
    y = q @ k_t
    y *= scale
    if bias is not None:
        y += bias
    y -= y.max(axis=-1, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y


def _attention_backward(g, y, q, k_t, v, scale: float) -> tuple:
    """Gradients (q, k_t, v) of y @ v with y = _attention_weights(q, k_t, scale, bias),
    from g, the gradient of y @ v: y^T @ g for v; g_s = y * (g_y - sum(g_y * y)) * scale
    with g_y = g @ v^T, then g_s @ k for q and q^T @ g_s for k_t."""
    g_v = np.swapaxes(y, -1, -2) @ g
    g = g @ np.swapaxes(v, -1, -2)
    g -= (g * y).sum(axis=-1, keepdims=True)
    g *= y
    g *= scale
    return g @ np.swapaxes(k_t, -1, -2), np.swapaxes(q, -1, -2) @ g, g_v


def _merge_heads(heads: np.ndarray) -> np.ndarray:
    b, h, n, d = heads.shape
    return heads.transpose(0, 2, 1, 3).reshape(b, n, h * d)


def _project_qkv(normed: np.ndarray, blk: PfgaBlockParams, cfg: ModelConfig) -> tuple:
    """q and v (B, H, N, d_k) and k_t (B, H, d_k, N) from the normalized block input
    (B, N, W), the adapters' low-rank updates added to q and v."""
    b, n, w = normed.shape
    split = (b, n, cfg.heads, cfg.d_k)
    q = (normed @ blk.w_q.data).reshape(split).transpose(0, 2, 1, 3)
    k_t = (normed @ blk.w_k.data).reshape(split).transpose(0, 2, 3, 1)
    v = (normed @ blk.w_v.data).reshape(split).transpose(0, 2, 1, 3)
    if blk.adapters is not None:
        a = blk.adapters
        x_h = normed.reshape(b, 1, n, w)
        q = q + (x_h @ a.l_q.data) @ a.m_q.data
        v = v + (x_h @ a.l_v.data) @ a.m_v.data
    return q, k_t, v


def _adapter_backward(normed, g, l: Tensor, m: Tensor):
    """Accumulate the gradients of l (H, W, r) and m (H, r, d_k) in (x_h @ l) @ m, x_h the
    normalized block input (B, N, W) as (B, 1, N, W), from its gradient g (B, H, N, d_k);
    return x_h's, summed over the heads."""
    b, n, w = normed.shape
    x_h = normed.reshape(b, 1, n, w)
    if m.requires_grad:
        m._accum(np.swapaxes(x_h @ l.data, -1, -2) @ g)
    g = g @ np.swapaxes(m.data, -1, -2)
    if l.requires_grad:
        l._accum(np.swapaxes(x_h, -1, -2) @ g)
    return (g @ np.swapaxes(l.data, -1, -2)).sum(axis=1, keepdims=True)


def _qkv_backward(g_q, g_k_t, g_v, x: Tensor, normed, x_hat, std, blk: PfgaBlockParams):
    """Accumulate the gradients of w_q, w_k, w_v, the adapters and LN1 from those of
    ``_project_qkv``'s outputs, given LN1's output normed and its x_hat and std on the
    block input x; return x's gradient through LN1, or None when x needs none. The
    normalized input's gradient sums the q, k and v projections' shares in that order,
    then the two adapters' as one term."""
    b, n, w = x.shape
    g_normed = None
    heads_first = (0, 2, 1, 3)  # its own inverse; (0, 3, 1, 2) undoes k_t's (0, 2, 3, 1)
    for g, axes, weight in ((g_q, heads_first, blk.w_q), (g_k_t, (0, 3, 1, 2), blk.w_k), (g_v, heads_first, blk.w_v)):
        share = dense_backward(g.transpose(axes).reshape(-1, w), normed, weight)
        if g_normed is None:
            g_normed = share
        else:
            g_normed += share
    if blk.adapters is not None:
        a = blk.adapters
        g_x_h = _adapter_backward(normed, g_q, a.l_q, a.m_q) + _adapter_backward(normed, g_v, a.l_v, a.m_v)
        g_normed += g_x_h.reshape(b, n, w)
    return _layer_norm_backward(g_normed, x_hat, std, blk.ln1_gamma, blk.ln1_beta, x.requires_grad)


def _ffn_backward(g, normed2, x_hat, std, hidden, active, blk: PfgaBlockParams) -> np.ndarray:
    """Accumulate the gradients of LN2 and the FFN in relu(normed2 @ w_1 + b_1) @ w_2 + b_2 + x1
    from its gradient g, given LN2's output normed2 and its x_hat and std on x1 and the
    ReLU's mask active; return x1's: the residual's g plus LN2's. hidden, the ReLU's
    output, is read for w_2's gradient only and is None when w_2 is frozen."""
    g_hidden = dense_backward(g.reshape(-1, g.shape[-1]), active if hidden is None else hidden, blk.w_2, blk.b_2)
    g_hidden *= active
    rows = g_hidden.reshape(-1, active.shape[-1])
    g_normed2 = dense_backward(rows, normed2, blk.w_1, blk.b_1)
    del g_hidden, rows
    return g + _layer_norm_backward(g_normed2, x_hat, std, blk.ln2_gamma, blk.ln2_beta, True)


def _ffn_hidden(normed2: np.ndarray, blk: PfgaBlockParams) -> np.ndarray:
    """The FFN's hidden layer relu(normed2 @ w_1 + b_1), computed in place on the product."""
    hidden = normed2 @ blk.w_1.data
    hidden += blk.b_1.data
    np.maximum(hidden, 0.0, out=hidden)
    return hidden


def _block_apply(x: Tensor, blk: PfgaBlockParams, cfg: ModelConfig, bias: np.ndarray | None) -> Tensor:
    """One transformer block on x (B, N, W) as one tape node.

    LN1; q, k and v with the heads on an array axis, plus the adapters' updates of
    q and v; attention scored, masked by bias and softmaxed; the heads merged,
    projected by w_o and added to x, giving x1; LN2; the FFN with its ReLU, its
    output added to x1. The node keeps the attention weights y (B, H, N, N) and the
    ReLU's mask (B, N, 4W, bool), and drops q, k, v and the hidden layer once the
    forward has used them. Its backward pass recomputes LN1, q, k and v, x1 and LN2
    from x with the forward's operations and shapes (and the hidden layer too when
    w_2 takes a gradient), then sums every gradient in the order the composed nodes
    did, skipping frozen operands.
    """
    b, n, w = x.shape
    scale = 1.0 / np.sqrt(cfg.d_k)
    q, k_t, v = _project_qkv(_layer_norm(x.data, blk.ln1_gamma.data, blk.ln1_beta.data)[0], blk, cfg)
    y = _attention_weights(q, k_t, scale, bias)
    del q, k_t
    x1 = _merge_heads(y @ v) @ blk.w_o.data
    del v
    x1 += x.data
    hidden = _ffn_hidden(_layer_norm(x1, blk.ln2_gamma.data, blk.ln2_beta.data)[0], blk)
    active = hidden > 0.0
    out = hidden @ blk.w_2.data
    out += blk.b_2.data
    out += x1

    saved = [y, active]

    def backward(node):
        y, active = saved
        saved.clear()  # the tape is consumed: each saved array goes once its last reader is done
        normed, x_hat, std = _layer_norm(x.data, blk.ln1_gamma.data, blk.ln1_beta.data)
        q, k_t, v = _project_qkv(normed, blk, cfg)
        merged = _merge_heads(y @ v)
        x1 = merged @ blk.w_o.data
        x1 += x.data
        normed2, x_hat2, std2 = _layer_norm(x1, blk.ln2_gamma.data, blk.ln2_beta.data)
        del x1
        hidden = _ffn_hidden(normed2, blk) if blk.w_2.requires_grad else None
        g_x1 = _ffn_backward(node.grad, normed2, x_hat2, std2, hidden, active, blk)
        del normed2, x_hat2, std2, hidden, active
        x._accum(g_x1)  # x1 = merged @ w_o + x
        g_heads = dense_backward(g_x1.reshape(-1, w), merged, blk.w_o)
        del merged
        g_heads = g_heads.reshape(b, n, cfg.heads, cfg.d_k).transpose(0, 2, 1, 3)
        g_q, g_k_t, g_v = _attention_backward(g_heads, y, q, k_t, v, scale)
        del q, k_t, v, y, g_heads
        g_x = _qkv_backward(g_q, g_k_t, g_v, x, normed, x_hat, std, blk)
        if g_x is not None:
            x._accum(g_x)

    return Tensor._result(out, (x, *(t for _, t in blk.named(""))), backward)


def graph_attention_block(
    h: np.ndarray | Tensor, adjacency: np.ndarray, blk: PfgaBlockParams, cfg: ModelConfig
) -> Tensor:
    """One adjacency-masked block applied to node states h (N, W)."""
    x = h if isinstance(h, Tensor) else Tensor(np.asarray(h, dtype=float))
    if x.data.ndim != 2 or x.shape[-1] != cfg.width:
        raise ConfigError("block input must have shape (N, width)")
    n = x.shape[0]
    adjacency = np.asarray(adjacency, dtype=float)
    if adjacency.shape != (n, n):
        raise ConfigError("adjacency shape does not match node count")
    out = _block_apply(x.reshape(1, n, cfg.width), blk, cfg, mask_bias(adjacency))
    return out.reshape(n, cfg.width)


# -- full forward -------------------------------------------------------------


def _embed_batch(model: PfgaModel, hist: np.ndarray, hours: np.ndarray, dows: np.ndarray) -> Tensor:
    cfg = model.config
    b, p, n, c = hist.shape
    flat = Tensor(hist.transpose(0, 2, 1, 3).reshape(b, n, p * c))
    e = model.embed
    e_p = linear(flat, e.theta_p_w, e.theta_p_b)
    e_s = linear(flat, e.w_s, e.b_s).tanh()
    e_t = take_rows(e.w_d, hours) + take_rows(e.w_w, dows)
    e_t = e_t.reshape(b, 1, cfg.d_embed).broadcast_to((b, n, cfg.d_embed))
    return linear(concat([e_p, e_s, e_t]), e.theta_f_w, e.theta_f_b, residual=_positional_rows(n, cfg.width))


def forward_batch(
    model: PfgaModel,
    hist: np.ndarray,
    hours: np.ndarray,
    dows: np.ndarray,
    adjacency: np.ndarray,
) -> Tensor:
    """Predict (B, S, N, 1) from histories (B, P, N, C) and anchor clock fields.

    Blocks marked ``masked`` attend along the adjacency only; the adjacency
    values are read only when some block is masked.
    """
    cfg = model.config
    hist = np.asarray(hist, dtype=float)
    if hist.ndim != 4 or hist.shape[1] != cfg.lookback or hist.shape[3] != cfg.c_in:
        raise ConfigError("history batch must have shape (B, P, N, C_in)")
    b, _, n, _ = hist.shape
    hours = np.asarray(hours, dtype=int)
    dows = np.asarray(dows, dtype=int)
    if hours.shape != (b,) or dows.shape != (b,):
        raise ConfigError("anchor hour and day-of-week must be (B,) arrays")
    if np.any(hours < 0) or np.any(hours >= 24):
        raise ConfigError("anchor hour out of range [0, 24)")
    if np.any(dows < 0) or np.any(dows >= 7):
        raise ConfigError("anchor day-of-week out of range [0, 7)")
    adjacency = np.asarray(adjacency, dtype=float)
    if adjacency.shape != (n, n):
        raise ConfigError("adjacency shape does not match node count")
    bias = mask_bias(adjacency) if any(blk.masked for blk in model.blocks) else None

    x = _embed_batch(model, hist, hours, dows)
    for blk in model.blocks:
        x = _block_apply(x, blk, cfg, bias if blk.masked else None)
    out = linear(x, model.head_w, model.head_b)  # (B, N, S)
    return out.transpose(0, 2, 1).reshape(b, cfg.horizon, n, 1)


# -- construction -------------------------------------------------------------


def _tensor(data, trainable: bool) -> Tensor:
    return Tensor(np.asarray(data, dtype=float), requires_grad=trainable)


def build_model(cfg: ModelConfig, rng: np.random.Generator) -> PfgaModel:
    """Full-precision stack with every parameter trainable (the pretraining form).

    The graph blocks (the last u_unfrozen) are marked masked.
    """
    w = cfg.width
    flat = cfg.lookback * cfg.c_in

    def weight(n_in, n_out):
        return rng.normal(0.0, n_in**-0.5, size=(n_in, n_out))

    embed = EmbeddingParams(
        theta_p_w=_tensor(weight(flat, cfg.d_embed), True),
        theta_p_b=_tensor(np.zeros(cfg.d_embed), True),
        w_d=_tensor(rng.normal(0.0, 0.02, size=(24, cfg.d_embed)), True),
        w_w=_tensor(rng.normal(0.0, 0.02, size=(7, cfg.d_embed)), True),
        w_s=_tensor(weight(flat, cfg.d_embed), True),
        b_s=_tensor(np.zeros(cfg.d_embed), True),
        theta_f_w=_tensor(weight(w, w), True),
        theta_f_b=_tensor(np.zeros(w), True),
    )
    blocks = []
    for i in range(cfg.f_frozen + cfg.u_unfrozen):
        blocks.append(
            PfgaBlockParams(
                ln1_gamma=_tensor(np.ones(w), True),
                ln1_beta=_tensor(np.zeros(w), True),
                ln2_gamma=_tensor(np.ones(w), True),
                ln2_beta=_tensor(np.zeros(w), True),
                w_q=_tensor(weight(w, w), True),
                w_k=_tensor(weight(w, w), True),
                w_v=_tensor(weight(w, w), True),
                w_o=_tensor(weight(w, w), True),
                w_1=_tensor(weight(w, 4 * w), True),
                b_1=_tensor(np.zeros(4 * w), True),
                w_2=_tensor(weight(4 * w, w), True),
                b_2=_tensor(np.zeros(w), True),
                masked=i >= cfg.f_frozen,
            )
        )
    return PfgaModel(
        config=cfg,
        freeze_mode="none",
        embed=embed,
        blocks=tuple(blocks),
        head_w=_tensor(weight(w, cfg.horizon), True),
        head_b=_tensor(np.zeros(cfg.horizon), True),
    )


def _set_trainable(tensor: Tensor, trainable: bool) -> None:
    tensor.requires_grad = trainable
    tensor.grad = None


def freeze_and_adapt(
    model: PfgaModel,
    rng: np.random.Generator,
    freeze_mode: str,
    use_graph_mask: bool = True,
) -> PfgaModel:
    """Convert a full-precision stack into the requested fine-tuning regime.

    partial: blocks 1..F fully frozen; graph-block attention bases quantized
    to 4 bits and frozen; their layer norms stay trainable and fresh low-rank
    adapters are attached. none: everything stays trainable in full precision.
    all_graph: every block is a graph block, everything trainable.
    use_graph_mask marks the graph blocks masked (True) or unmasked (False);
    the other blocks are unmasked. The input model is modified in place and
    returned; it must be in freeze mode none, as ``build_model`` makes it,
    since adapting it again would quantize its bases twice and replace
    trained adapters.
    """
    cfg = model.config
    if freeze_mode not in FREEZE_MODES:
        raise ConfigError(f"unknown freeze_mode {freeze_mode!r}")
    if model.freeze_mode != "none":
        raise ConfigError(f"model is already in freeze mode {model.freeze_mode!r}; only a 'none' backbone adapts")
    model.freeze_mode = freeze_mode

    for i, blk in enumerate(model.blocks):
        is_graph = freeze_mode == "all_graph" or i >= cfg.f_frozen
        blk.masked = is_graph and use_graph_mask
        if freeze_mode != "partial":
            continue
        if not is_graph:
            for _, t in blk.named(""):
                _set_trainable(t, False)
            continue
        blk.quant = {}
        for name in _QUANTIZED_BASES:
            t = getattr(blk, name)
            qt = quantize(t.data)
            t.data = dequantize(qt)
            _set_trainable(t, False)
            blk.quant[name] = qt
        for name in ("w_1", "b_1", "w_2", "b_2"):
            _set_trainable(getattr(blk, name), False)
        # one draw in the order head 0 l_q, head 0 l_v, head 1 l_q, ...; zero up factors
        l_qv = rng.normal(size=(cfg.heads, 2, cfg.width, cfg.rank)) * 0.01
        m_shape = (cfg.heads, cfg.rank, cfg.d_k)
        blk.adapters = HeadAdapters(
            l_q=_tensor(np.ascontiguousarray(l_qv[:, 0]), True),
            m_q=_tensor(np.zeros(m_shape), True),
            l_v=_tensor(np.ascontiguousarray(l_qv[:, 1]), True),
            m_v=_tensor(np.zeros(m_shape), True),
        )
    return model


# -- checkpointing ------------------------------------------------------------

_CHECKPOINT_VERSION = 5
# the arrays of a QuantizedTensor, stored as they are under q_{part}__block{i}__{basis}
_QUANTIZED_PARTS = ("codes", "scale_codes", "scale_min", "scale_step")


def _quantized_names(model: PfgaModel) -> set:
    return {f"block{i}.{wname}" for i, blk in enumerate(model.blocks) for wname in blk.quant}


def _stored(arrays: dict, key: str, like: np.ndarray) -> np.ndarray:
    """Pop the array stored under key; it must have the dtype and shape of the replayed value it replaces."""
    stored = arrays.pop(key)
    if stored.dtype != like.dtype or stored.shape != like.shape:
        raise ValueError(f"{key} is {stored.dtype} {stored.shape}, expected {like.dtype} {like.shape}")
    return stored


def save_checkpoint(model: PfgaModel, path: str) -> None:
    """Write the values, plus the sizes, freeze mode and block masks that rebuild the rest,
    to path exactly, whatever its extension."""
    meta = {
        "version": _CHECKPOINT_VERSION,
        "freeze_mode": model.freeze_mode,
        "config": asdict(model.config),
        "masked": [bool(b.masked) for b in model.blocks],
    }
    quantized = _quantized_names(model)
    arrays = {"nf4_codebook": np.asarray(NF4_CODEBOOK)}
    for name, t in model.named_parameters():
        if name not in quantized:  # a quantized basis is stored in quantized form below
            arrays[name.replace(".", "__")] = t.data
    for i, blk in enumerate(model.blocks):
        for wname, qt in blk.quant.items():
            tag = f"block{i}__{wname}"
            for part in _QUANTIZED_PARTS:
                arrays[f"q_{part}__{tag}"] = getattr(qt, part)
    write_npz(path, meta, arrays)


def load_checkpoint(path: str) -> PfgaModel:
    """Rebuild through ``build_model`` and ``freeze_and_adapt``, then fill in the stored values.

    A missing, misshapen, mistyped or unused entry, or a stored model size that
    ``ModelConfig`` rejects, is a ``DataError``; another version, codebook or
    freeze mode is a ``ConfigError``.
    """
    meta, arrays = read_npz(path, "checkpoint")
    if "nf4_codebook" not in arrays:
        raise DataError(f"{path} is not a chargecast checkpoint: it has no nf4_codebook")
    try:
        if meta.get("version") != _CHECKPOINT_VERSION:
            raise ConfigError(f"unsupported checkpoint version {meta.get('version')} in {path}")
        if not np.array_equal(arrays.pop("nf4_codebook"), NF4_CODEBOOK):
            raise ConfigError(f"checkpoint codebook of {path} does not match this build")
        if meta["freeze_mode"] not in FREEZE_MODES:
            raise ConfigError(f"unknown freeze_mode {meta['freeze_mode']!r} in {path}")
        try:
            config = ModelConfig(**meta["config"])
        except ConfigError as exc:  # a stored size this build rejects is damage, not a setting
            raise DataError(f"malformed checkpoint {path}: {exc}") from exc
        rng = np.random.default_rng(0)
        model = freeze_and_adapt(build_model(config, rng), rng, meta["freeze_mode"])
        for blk, masked in zip(model.blocks, meta["masked"], strict=True):
            blk.masked = bool(masked)
        for i, blk in enumerate(model.blocks):
            for wname, qt in blk.quant.items():
                tag = f"block{i}__{wname}"
                stored = {part: _stored(arrays, f"q_{part}__{tag}", getattr(qt, part)) for part in _QUANTIZED_PARTS}
                blk.quant[wname] = qt = replace(qt, **stored)
                getattr(blk, wname).data = dequantize(qt)
        quantized = _quantized_names(model)
        for name, t in model.named_parameters():
            if name not in quantized:
                t.data = _stored(arrays, name.replace(".", "__"), t.data)
        if arrays:
            raise ValueError(f"no tensor takes {', '.join(sorted(arrays))}")
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint {path}: {type(exc).__name__}: {exc}") from exc
    return model
