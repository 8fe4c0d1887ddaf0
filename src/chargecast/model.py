"""Partially frozen graph-attention forecasting network.

The network embeds a lookback window of multi-channel station series into
token, spatial, and temporal components, fuses them to width 3D per node,
and runs the result through F frozen transformer blocks followed by U
graph-attention blocks whose attention is masked by the station adjacency.
In the partially frozen regime the attention bases of the graph blocks are
stored 4-bit quantized and only embeddings, graph-block layer norms,
low-rank adapters, and the regression head receive gradients.

Attention runs with the heads as an array axis: q, k and v are reshaped to
(B, H, N, d_k) and one ``autodiff.attention`` node scores, masks and
softmaxes every head, applies the weights to v and merges the heads; the
tape keeps only its attention weights. The output projection is a
``linear`` node that also adds the block's residual, and the feed-forward
layer is two ``linear`` nodes, the first with its ReLU and the second with
the residual, so no block stores a pre-activation or a separate sum. The
positional rows are added as the residual of the embedding's fusion layer.
The low-rank adapters of a graph block are stacked the
same way, one (H, W, r) and one (H, r, d_k) factor each for query and value,
so a block adds the same number of autodiff nodes whatever the head count.
Checkpoints store those stacked factors as ``block{i}.heads.{l_q,m_q,l_v,m_v}``
and the NF4 codes of the quantized bases two per byte (low nibble first).
The layout is checkpoint version 5. Its meta holds the architecture sizes,
the freeze mode and the block masks, nothing more: ``load_checkpoint``
replays ``build_model`` and ``freeze_and_adapt`` to get the trainable flags,
the adapters and the quantized layouts, then fills in the stored values.
Other versions are rejected.

Whether a block's attention is masked by the station graph is recorded on
the block alone (``PfgaBlockParams.masked``): ``build_model`` marks the
graph blocks, ``freeze_and_adapt`` re-marks them for fine-tuning, and the
checkpoint keeps the marks, so every forward obeys the model it runs.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .autodiff import Tensor, attention, concat, layer_norm, linear, take_rows
from .errors import ConfigError, DataError
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


def _split_heads(t: Tensor, cfg: ModelConfig, axes: tuple) -> Tensor:
    b, n, _ = t.shape
    return t.reshape(b, n, cfg.heads, cfg.d_k).transpose(axes)


def _attention(x: Tensor, blk: PfgaBlockParams, cfg: ModelConfig, bias: np.ndarray | None) -> Tensor:
    """Multi-head attention of x (B, N, W) with the heads on an array axis, merged back to
    (B, N, W); the caller applies w_o."""
    b, n, w = x.shape
    q = _split_heads(x @ blk.w_q, cfg, (0, 2, 1, 3))  # (B, H, N, d_k)
    k_t = _split_heads(x @ blk.w_k, cfg, (0, 2, 3, 1))  # (B, H, d_k, N)
    v = _split_heads(x @ blk.w_v, cfg, (0, 2, 1, 3))
    if blk.adapters is not None:
        a = blk.adapters
        x_h = x.reshape(b, 1, n, w)
        q = q + (x_h @ a.l_q) @ a.m_q
        v = v + (x_h @ a.l_v) @ a.m_v
    return attention(q, k_t, v, 1.0 / np.sqrt(cfg.d_k), bias)  # (B, N, W)


def _block_apply(x: Tensor, blk: PfgaBlockParams, cfg: ModelConfig, bias: np.ndarray | None) -> Tensor:
    normed = layer_norm(x, blk.ln1_gamma, blk.ln1_beta, LN_EPS)
    x = linear(_attention(normed, blk, cfg, bias), blk.w_o, residual=x)
    normed2 = layer_norm(x, blk.ln2_gamma, blk.ln2_beta, LN_EPS)
    hidden = linear(normed2, blk.w_1, blk.b_1, relu=True)
    return linear(hidden, blk.w_2, blk.b_2, residual=x)


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
    returned.
    """
    cfg = model.config
    if freeze_mode not in FREEZE_MODES:
        raise ConfigError(f"unknown freeze_mode {freeze_mode!r}")
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


def _pack_codes(codes: np.ndarray) -> np.ndarray:
    """Two 4-bit codes per byte, ``lo | hi << 4``; an odd count pads the last high nibble with 0."""
    flat = codes.reshape(-1)
    if flat.size % 2:
        flat = np.append(flat, np.uint8(0))
    return flat[0::2] | (flat[1::2] << 4)


def _unpack_codes(packed: np.ndarray, size: int, name: str) -> np.ndarray:
    if packed.dtype != np.uint8 or packed.shape != ((size + 1) // 2,):
        raise DataError(f"checkpoint codes of {name} do not hold {size} packed 4-bit codes")
    codes = np.empty(2 * packed.size, dtype=np.uint8)
    codes[0::2] = packed & 0x0F
    codes[1::2] = packed >> 4
    return codes[:size]


def _quantized_names(model: PfgaModel) -> set:
    return {f"block{i}.{wname}" for i, blk in enumerate(model.blocks) for wname in blk.quant}


def _stored(arrays: dict, key: str, like: np.ndarray) -> np.ndarray:
    """Pop the array stored under key; it must have the shape of the replayed value it replaces."""
    stored = arrays.pop(key)
    if stored.shape != like.shape:
        raise ValueError(f"{key} has shape {stored.shape}, expected {like.shape}")
    return stored


def save_checkpoint(model: PfgaModel, path: str) -> None:
    """Write the values, plus the sizes, freeze mode and block masks that rebuild the rest."""
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
            arrays[f"q_codes__{tag}"] = _pack_codes(qt.codes)
            arrays[f"q_scale_codes__{tag}"] = qt.scale_codes
            arrays[f"q_scale_min__{tag}"] = qt.scale_min
            arrays[f"q_scale_step__{tag}"] = qt.scale_step
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    np.savez(path, **arrays)


def load_checkpoint(path: str) -> PfgaModel:
    """Rebuild through ``build_model`` and ``freeze_and_adapt``, then fill in the stored values.

    A missing, misshapen or unused entry, or a stored model size that
    ``ModelConfig`` rejects, is a ``DataError``; another version, codebook or
    freeze mode is a ``ConfigError``.
    """
    try:
        data = np.load(path)
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise DataError(f"{path} is not a chargecast checkpoint: it holds a bare array")
        with data:
            arrays = {k: data[k] for k in data.files}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc}") from exc
    if "meta_json" not in arrays or "nf4_codebook" not in arrays:
        raise DataError(f"{path} is not a chargecast checkpoint: it has no meta_json or nf4_codebook")
    try:
        meta = json.loads(bytes(arrays.pop("meta_json")).decode())
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
                blk.quant[wname] = qt = replace(
                    qt,
                    codes=_unpack_codes(arrays.pop(f"q_codes__{tag}"), qt.codes.size, f"block{i}.{wname}"),
                    scale_codes=_stored(arrays, f"q_scale_codes__{tag}", qt.scale_codes),
                    scale_min=_stored(arrays, f"q_scale_min__{tag}", qt.scale_min),
                    scale_step=_stored(arrays, f"q_scale_step__{tag}", qt.scale_step),
                )
                getattr(blk, wname).data = dequantize(qt)
        quantized = _quantized_names(model)
        for name, t in model.named_parameters():
            if name not in quantized:
                t.data = np.asarray(_stored(arrays, name.replace(".", "__"), t.data), dtype=float)
        if arrays:
            raise ValueError(f"no tensor takes {', '.join(sorted(arrays))}")
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint {path}: {type(exc).__name__}: {exc}") from exc
    return model
