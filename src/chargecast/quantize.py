"""4-bit NormalFloat quantization with double-quantized scale constants.

Frozen weight matrices are stored as 4-bit indices into a 16-level codebook
whose levels are quantiles of a standard normal, rescaled so the extreme
levels sit exactly at -1 and +1. Each block of ``BLOCK_SIZE`` = 64 values
shares one absmax scale; the absmax constants themselves are quantized to 8
bits per superblock of ``SUPERBLOCK`` = 256 blocks to shave the constant
overhead. The codes are stored two per byte, the low nibble first; an odd
count pads the last byte with a 0 high nibble. This is the layout the
checkpoints hold, so ``quantize`` and ``dequantize`` are the only code that
knows it.

The codebook is written out as literals. They come from the normal-quantile
construction (8 positive and 7 negative quantiles at probabilities evenly
spaced from 0.9677083 to 0.5, normalized to +/-1, plus an exact zero) as
computed once with ``scipy.stats.norm.ppf``. Keeping them literal spares
every import the cost of loading ``scipy.stats``; the stdlib
``statistics.NormalDist.inv_cdf`` is not a substitute, since it lands up to
3e-16 away from those levels and the codebook is part of the checkpoint
format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["NF4_CODEBOOK", "QuantizedTensor", "quantize", "dequantize"]

NF4_CODEBOOK = np.array(
    [
        -1.0,
        -0.69619289060372,
        -0.5250730386952291,
        -0.3949174906993099,
        -0.2844413576181077,
        -0.18477343519288886,
        -0.09104999214427931,
        0.0,
        0.07958032909416937,
        0.16093017270493618,
        0.2461122939299359,
        0.33791519352165506,
        0.44070980241319013,
        0.562616970075237,
        0.7229567278928821,
        1.0,
    ]
)
NF4_CODEBOOK.setflags(write=False)

BLOCK_SIZE = 64
SUPERBLOCK = 256


@dataclass(frozen=True)
class QuantizedTensor:
    """4-bit codes plus the constants needed to reconstruct the values."""

    codes: np.ndarray  # uint8, two codebook indices per byte, low nibble first
    scale_codes: np.ndarray  # uint8, one 8-bit code per block
    scale_min: np.ndarray  # float64, per superblock
    scale_step: np.ndarray  # float64, per superblock
    shape: tuple

    @property
    def n_blocks(self) -> int:
        return self.scale_codes.shape[0]

    def block_scales(self) -> np.ndarray:
        """Dequantized absmax constant for each block."""
        sb = np.arange(self.n_blocks) // SUPERBLOCK
        return self.scale_min[sb] + self.scale_step[sb] * self.scale_codes


def quantize(values: np.ndarray) -> QuantizedTensor:
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("cannot quantize an empty tensor")
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")

    flat = values.reshape(-1)
    absmax = np.maximum.reduceat(np.abs(flat), np.arange(0, flat.size, BLOCK_SIZE))
    n_blocks = absmax.size
    scale = np.repeat(absmax, BLOCK_SIZE)[: flat.size]
    normalized = np.divide(flat, scale, out=np.zeros_like(flat), where=scale != 0.0)
    dist = np.abs(normalized[:, None] - NF4_CODEBOOK[None, :])
    codes = np.zeros(flat.size + flat.size % 2, dtype=np.uint8)  # an odd count pads a 0 high nibble
    codes[: flat.size] = dist.argmin(axis=1)

    starts = np.arange(0, n_blocks, SUPERBLOCK)
    scale_min = np.minimum.reduceat(absmax, starts)
    scale_step = (np.maximum.reduceat(absmax, starts) - scale_min) / 255.0
    lo = np.repeat(scale_min, SUPERBLOCK)[:n_blocks]
    step = np.repeat(scale_step, SUPERBLOCK)[:n_blocks]
    ratio = np.divide(absmax - lo, step, out=np.zeros(n_blocks), where=step != 0.0)
    scale_codes = np.clip(np.round(ratio), 0, 255).astype(np.uint8)

    return QuantizedTensor(
        codes=codes[0::2] | (codes[1::2] << 4),
        scale_codes=scale_codes,
        scale_min=scale_min,
        scale_step=scale_step,
        shape=values.shape,
    )


def dequantize(qt: QuantizedTensor) -> np.ndarray:
    size = math.prod(qt.shape)
    codes = np.stack([qt.codes & 0x0F, qt.codes >> 4], axis=1).reshape(-1)[:size]
    flat = NF4_CODEBOOK[codes] * np.repeat(qt.block_scales(), BLOCK_SIZE)[:size]
    return flat.reshape(qt.shape)
