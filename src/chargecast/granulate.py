"""Fuzzy information granulation over non-overlapping windows.

Each window is summarized by a triangular granule (a, m, b) fitted as the
window minimum, median, and maximum; ``fig_granulate`` returns a tuple of
``Granule``, one per window. Granule cores can be step-hold
upsampled back to the original resolution to serve as coarse-scale
channels (daily and weekly in the default ``ChannelConfig`` for hourly data).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Granule",
    "membership",
    "fig_granulate",
    "granule_channels",
]


@dataclass(frozen=True)
class Granule:
    """Triangular fuzzy set with support [a, b] and core m."""

    a: float
    m: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.m) and np.isfinite(self.b)):
            raise ValueError("granule parameters must be finite")
        if not (self.a <= self.m <= self.b):
            raise ValueError(f"need a <= m <= b, got ({self.a}, {self.m}, {self.b})")


def membership(x: float, g: Granule) -> float:
    """Triangular membership of x in g, a total function into [0, 1].

    A collapsed ramp (a = m or m = b) evaluates to 1 at x = m.
    """
    if x < g.a or x > g.b:
        return 0.0
    if x <= g.m:
        if g.m == g.a:
            return 1.0
        return (x - g.a) / (g.m - g.a)
    return (g.b - x) / (g.b - g.m)


def _blocks(x: np.ndarray, window: int) -> np.ndarray:
    """x's first len(x) // window full windows, shaped (count, window, ...); trailing remainder dropped."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window > len(x):
        raise ValueError(f"window {window} exceeds series length {len(x)}")
    count = len(x) // window
    return x[: count * window].reshape(count, window, *x.shape[1:])


def fig_granulate(series, window: int) -> tuple[Granule, ...]:
    """One granule per non-overlapping window, in order; trailing remainder dropped.

    The granule is (min, median, max) of the window; an even-length median
    is the mean of the two central order statistics.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be 1-D")
    blocks = _blocks(x, window)
    lows, cores, highs = blocks.min(axis=1), np.median(blocks, axis=1), blocks.max(axis=1)
    return tuple(Granule(float(a), float(m), float(b)) for a, m, b in zip(lows, cores, highs))


def granule_channels(series, windows) -> dict:
    """Step-hold channels of granule cores, one per window size.

    series is (T,) or (T, N), one column per station. Each channel repeats the
    covering granule's core (the window median, as in ``fig_granulate``)
    across that window's steps and holds the last core past the final full
    window. Returns {window: array shaped like series}.
    """
    x = np.asarray(series, dtype=float)
    out = {}
    for window in map(int, windows):
        cores = np.median(_blocks(x, window), axis=1)
        held = np.repeat(cores, window, axis=0)
        out[window] = np.concatenate([held, np.repeat(cores[-1:], len(x) - len(held), axis=0)])
    return out
