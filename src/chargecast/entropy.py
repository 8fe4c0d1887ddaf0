"""Multiscale sample entropy.

Sample entropy follows the Richman-Moorman counting convention: the first
N - m starting positions supply templates of both length m and m + 1, the
match predicate is Chebyshev distance <= r, and self-matches are excluded.
The entropy is -ln(A/B) over ordered template pairs.

The counts come from a sort-and-sweep over template pairs rather than a
dense n x n distance matrix. The n = N - m start positions are sorted by
their lag-0 value; a pair can only match if its lag-0 values differ by at
most r, so for each sorted row ``np.searchsorted`` bounds the later rows
that may match at ``value + r + slack``. The slack, a few ulps of
max(|x|, r), covers the rounding of that bound and of the computed
difference, so every pair the predicate accepts lies inside its window.
Every candidate pair is then re-tested with the exact predicate
``max_lag |x[i+lag] - x[j+lag]| <= r`` (lag 0 included), and the
predicate is symmetric, so counting unordered pairs and doubling gives
the same integers as the dense count. Candidates are gathered in chunks
of at most ``_CHUNK_PAIRS`` pairs, which keeps working memory at
O(n + _CHUNK_PAIRS) instead of O(n^2).
"""

from __future__ import annotations

import numpy as np

__all__ = ["coarse_grain", "sample_entropy", "msse_curve"]

# Most candidate pairs tested at once; bounds the sweep's working memory.
_CHUNK_PAIRS = 1 << 13
# Window slack in ulps of max(|x|, r); 3 cover the rounding, one spare.
_SLACK_ULPS = 4


def coarse_grain(series, tau: int) -> np.ndarray:
    """Average non-overlapping blocks of length tau; trailing remainder is dropped.

    Parameters
    ----------
    series : 1-D real array
    tau : scale factor, >= 1 and <= len(series)
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be 1-D")
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if tau > x.size:
        raise ValueError(f"tau {tau} exceeds series length {x.size}")
    n = x.size // tau
    return x[: n * tau].reshape(n, tau).mean(axis=1)


def sample_entropy(series, m: int = 2, r: float = 0.0) -> float:
    """Sample entropy -ln(A/B) with absolute tolerance r.

    B counts ordered pairs of length-m templates within Chebyshev distance
    r, A the same for length m + 1. Returns +inf when no (m+1)-templates
    match (A = 0) and 0 when every m-match extends (A = B).

    Callers that want the conventional relative tolerance pass
    r = r_frac * std(series).
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 1:
        raise ValueError("series must be 1-D")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if r < 0:
        raise ValueError(f"r must be >= 0, got {r}")
    if x.size <= m + 1:
        raise ValueError(f"series length {x.size} must exceed m+1 = {m + 1}")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    a, b = _match_counts(x, m, float(r))
    if a == 0:
        return float("inf")
    return float(-np.log(a / b))


def _match_counts(x: np.ndarray, m: int, r: float) -> tuple[int, int]:
    """(A, B): ordered pairs of (m+1)- and m-templates within distance r."""
    n = x.size - m
    order = np.argsort(x[:n], kind="stable")
    # lag-major template values in lag-0 sorted order: cols[lag][p]
    cols = [x[lag : lag + n][order] for lag in range(m + 1)]
    lead = cols[0]
    slack = _SLACK_ULPS * np.spacing(max(float(np.max(np.abs(x))), r))
    # sorted rows p+1 .. stop[p]-1 are the only possible partners of row p
    stop = np.searchsorted(lead, lead + r + slack, side="right")
    counts = stop - np.arange(1, n + 1)
    ends = np.cumsum(counts)
    total = int(ends[-1])
    a = b = 0
    for start in range(0, total, _CHUNK_PAIRS):
        pair = np.arange(start, min(start + _CHUNK_PAIRS, total))
        i = np.searchsorted(ends, pair, side="right")
        j = pair - ends[i] + stop[i]
        for col in cols[:m]:
            keep = np.abs(col[i] - col[j]) <= r
            i = i[keep]
            j = j[keep]
        b += i.size
        a += int(np.count_nonzero(np.abs(cols[m][i] - cols[m][j]) <= r))
    return 2 * a, 2 * b


def msse_curve(series, m: int = 2, r_frac: float = 0.15, tau_max: int = 5) -> np.ndarray:
    """Sample entropy of the coarse-grained series at scales 1..tau_max.

    The tolerance r = r_frac * std(series) is fixed from the original
    series across all scales, the standard multiscale convention.
    """
    x = np.asarray(series, dtype=float)
    if tau_max < 1:
        raise ValueError(f"tau_max must be >= 1, got {tau_max}")
    if x.size // tau_max <= m + 1:
        raise ValueError(
            f"series length {x.size} too short for tau_max={tau_max} with m={m}"
        )
    r = r_frac * float(np.std(x))
    return np.array(
        [sample_entropy(coarse_grain(x, tau), m, r) for tau in range(1, tau_max + 1)]
    )
