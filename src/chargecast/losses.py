"""Time-domain and frequency-domain losses plus evaluation metrics.

The training objective is mean absolute error plus a weighted penalty on
the modulus of the DFT of the prediction error, taken along the horizon
axis per node. Both terms are differentiable through the tape engine; the
frequency term rides on DFT linearity, transforming pred minus truth once
instead of transforming each side separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError, DataError

__all__ = [
    "LossConfig",
    "mae_loss",
    "frequency_loss",
    "combined_loss",
    "metrics",
]

MAPE_EPS = 1e-8


@dataclass(frozen=True)
class LossConfig:
    lambda_freq: float = 0.1

    def __post_init__(self):
        if not (np.isfinite(self.lambda_freq) and self.lambda_freq >= 0):
            raise ConfigError("lambda_freq must be finite and non-negative")


def _pair(pred, truth):
    p = pred if isinstance(pred, Tensor) else Tensor(np.asarray(pred, dtype=float))
    t = truth if isinstance(truth, Tensor) else Tensor(np.asarray(truth, dtype=float))
    if p.shape != t.shape:
        raise DataError(f"shape mismatch: pred {p.shape} vs truth {t.shape}")
    return p, t


def mae_loss(pred, truth) -> Tensor:
    p, t = _pair(pred, truth)
    return (p - t).abs().mean()


def _dft_mats(s: int):
    k = np.arange(s)
    angle = 2.0 * np.pi * np.outer(k, k) / s
    return np.cos(angle), np.sin(angle)


def frequency_loss(pred, truth) -> Tensor:
    """Mean modulus of the horizon-axis DFT of the prediction error.

    Inputs are (S, N, 1) or batched (B, S, N, 1); the transform always runs
    along the S axis, separately per node, and the moduli are averaged over
    every node, bin, and batch element.
    """
    p, t = _pair(pred, truth)
    if p.data.ndim not in (3, 4):
        raise DataError("expected (S, N, 1) or (B, S, N, 1) inputs")
    s = p.shape[-3]
    d = (p - t).reshape(p.shape[:-1])  # (..., S, N)
    axes = tuple(range(d.data.ndim - 2)) + (d.data.ndim - 1, d.data.ndim - 2)
    d = d.transpose(axes)  # (..., N, S)
    cos_m, sin_m = _dft_mats(s)
    re = d @ Tensor(cos_m)
    im = -(d @ Tensor(sin_m))
    return (re * re + im * im).sqrt().mean()


def combined_loss(pred, truth, cfg: LossConfig) -> Tensor:
    base = mae_loss(pred, truth)
    if cfg.lambda_freq == 0.0:
        return base
    return base + cfg.lambda_freq * frequency_loss(pred, truth)


def metrics(pred, truth) -> dict:
    """MAE, RMSE, and MAPE (as a fraction) over flattened arrays.

    Truth entries smaller than 1e-8 in magnitude are excluded from the MAPE
    mean; the count of exclusions is reported, and MAPE is None when nothing
    survives.
    """
    pred = np.asarray(pred, dtype=float).reshape(-1)
    truth = np.asarray(truth, dtype=float).reshape(-1)
    if pred.shape != truth.shape:
        raise DataError("metrics inputs must have equal lengths")
    if pred.size == 0:
        raise DataError("metrics of empty arrays")
    err = pred - truth
    keep = np.abs(truth) >= MAPE_EPS
    excluded = int(np.count_nonzero(~keep))
    mape = None
    if np.any(keep):
        mape = float(np.mean(np.abs((truth[keep] - pred[keep]) / truth[keep])))
    return {
        "mae": float(np.mean(np.abs(err))),
        "rmse": float(np.sqrt(np.mean(err * err))),
        "mape": mape,
        "mape_excluded": excluded,
    }
