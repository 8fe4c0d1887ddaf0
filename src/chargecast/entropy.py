"""Multiscale sample entropy.

Sample entropy follows the Richman-Moorman counting convention: the first
N - m starting positions supply templates of both length m and m + 1, the
match predicate is Chebyshev distance <= r, and self-matches are excluded.
The entropy is -ln(A/B) over ordered template pairs.

The counts come from a sort-and-sweep over template pairs rather than a
dense n x n distance matrix. The n = N - m start positions are sorted by
their lag-0 value. For each sorted row ``np.searchsorted`` bounds the
later rows that may match at ``value + r + slack``; the slack, a few ulps
of max(|x|, r), covers the rounding of that bound, so every partner the
predicate accepts lies inside this window. Within it the computed lag-0
distance ``fl(lead[q] - lead[p])`` is monotone in q, so the partners that
pass the exact lag-0 test ``|x[i] - x[j]| <= r`` form a prefix of the
window; a bisection over all rows in lockstep finds each row's exact
stop in about log2(widest window) passes of O(n) work. Lag 0 is thereby decided once per row
and never re-tested per pair: each pair inside the exact window is tested
only at lags 1..m, with the same predicate. The predicate is symmetric,
so counting unordered pairs and doubling gives the same integers as the
dense count. Pairs are enumerated row by row in chunks of whole rows
holding at most ``_CHUNK_PAIRS`` pairs (a row with more partners goes
through alone), which keeps working memory at O(n + _CHUNK_PAIRS) instead
of O(n^2).
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


def sample_entropy(series, m: int, r: float) -> float:
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


def _partner_stops(lead: np.ndarray, r: float, scale: float) -> np.ndarray:
    """Exclusive end of each sorted row's lag-0 partners.

    lead is sorted ascending; row p matches rows p+1 .. stop[p]-1 at lag 0
    (``|lead[p] - lead[q]| <= r``) and no later row. scale is max(|x|, r),
    which sizes the slack of the searchsorted bound.
    """
    n = lead.size
    slack = _SLACK_ULPS * np.spacing(scale)
    # the answer lies in [lo, hi]: rows below lo pass, rows from hi on fail
    lo = np.arange(1, n + 1)
    hi = np.searchsorted(lead, lead + r + slack, side="right")
    # each pass at least halves every row's hi - lo; all rows move in step
    for _ in range(int(np.max(hi - lo)).bit_length()):
        mid = (lo + hi) >> 1
        ok = (lo < hi) & (np.abs(lead - lead[np.minimum(mid, n - 1)]) <= r)
        lo = np.where(ok, mid + 1, lo)
        hi = np.where(ok, hi, mid)
    return lo


def _match_counts(x: np.ndarray, m: int, r: float) -> tuple[int, int]:
    """(A, B): ordered pairs of (m+1)- and m-templates within distance r."""
    n = x.size - m
    order = np.argsort(x[:n], kind="stable")
    # lag-major template values in lag-0 sorted order: cols[lag][p]
    cols = [x[lag : lag + n][order] for lag in range(m + 1)]
    stop = _partner_stops(cols[0], r, max(float(np.max(np.abs(x))), r))
    counts = stop - np.arange(1, n + 1)
    ends = np.cumsum(counts)
    a = b = 0
    first = 0
    while first < n:
        base = ends[first] - counts[first]
        last = max(int(np.searchsorted(ends, base + _CHUNK_PAIRS, side="right")), first + 1)
        rows = np.arange(first, last)
        per_row = counts[first:last]
        i = np.repeat(rows, per_row)
        # the pair at chunk offset o in row p pairs it with row p + 1 + o - s,
        # s being the chunk offset of row p's first pair
        j = i + 1 + np.arange(i.size) - np.repeat(ends[first:last] - per_row - base, per_row)
        for col in cols[1:m]:
            keep = np.abs(col[i] - col[j]) <= r
            i = i[keep]
            j = j[keep]
        b += i.size
        a += int(np.count_nonzero(np.abs(cols[m][i] - cols[m][j]) <= r))
        first = last
    return 2 * a, 2 * b


def msse_curve(series, m: int, r_frac: float, tau_max: int) -> np.ndarray:
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
