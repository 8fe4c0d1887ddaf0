"""Empirical mode decomposition and its noise-assisted ensemble variant.

Sifting uses natural cubic spline envelopes through the local extrema,
with up to two extrema mirrored past each end of the signal to tame the
splines at the boundaries. A candidate is accepted as an IMF when the
variance-normalized change between successive siftings drops below
``SD_THRESHOLD`` (Huang et al., Proc. R. Soc. A 1998) or after
``MAX_SIFTINGS`` siftings.

``iceemdan`` computes ensemble EMD (Wu & Huang 2009): it averages the
IMFs of per-realization EMDs of the noise-perturbed signal. It does not
run the ICEEMDAN recursion of Colominas et al. (2014), which adds noise
modes to running residuals; that would change every number downstream.

All rows being decomposed (the noisy realizations of ``iceemdan``, or the
one signal of ``emd``) sift in lockstep as rows of one array: extrema,
knots and both envelopes are computed for every row still sifting at
once. The envelopes come from an in-repo batched natural-spline kernel
that follows scipy's ``CubicSpline(bc_type="natural")`` operation for
operation (the same tridiagonal system, LAPACK ``dgtsv``'s elimination
with partial pivoting, and ``PPoly``'s power-sum evaluation), so its
values equal scipy's to the bit (checked against scipy 1.17).

Both return the IMFs as the rows of one (k, T) array, in extraction
order, with shape (0, T) when the signal yields none. The residual of
every decomposition is the remainder signal - imfs.sum(axis=0), which
makes the reconstruction identity exact by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ImfSet", "emd", "iceemdan"]

# sifting stop rule: SD threshold between siftings, sifting cap per IMF
SD_THRESHOLD = 0.2
MAX_SIFTINGS = 10

# Realizations sift together in chunks of at most this many samples
# (rows x length), which bounds the batch working set for long series.
_CHUNK_CELLS = 1 << 18
# Spline evaluation works in row blocks of about this many samples, small
# enough for the temporaries to stay in cache.
_EVAL_CELLS = 1 << 14


@dataclass(frozen=True)
class ImfSet:
    """IMFs as the rows of a (k, T) array, in extraction order, plus the residual.

    sift_capped counts IMF extractions that used all ``MAX_SIFTINGS``
    siftings without the SD rule firing, summed over realizations.
    """

    imfs: np.ndarray
    residual: np.ndarray
    sift_capped: int = 0

    def reconstruct(self) -> np.ndarray:
        """imfs.sum(axis=0) + residual, the decomposed signal."""
        return self.imfs.sum(axis=0) + self.residual


def _extrema_masks(x: np.ndarray) -> np.ndarray:
    """(2, R, T) flags of each row's local maxima ([0]) and minima ([1]).

    Plateaus count once, at their end; the first and last samples are
    never extrema.
    """
    flags = np.zeros((2,) + x.shape, dtype=bool)
    if x.shape[1] < 3:
        return flags
    s = np.diff(x, axis=1)
    np.sign(s, out=s)
    if not s.all():
        # a flat step carries the last nonzero slope sign forward
        pos = np.where(s != 0, np.arange(s.shape[1]), -1)
        np.maximum.accumulate(pos, axis=1, out=pos)
        s = np.where(pos >= 0, np.take_along_axis(s, np.maximum(pos, 0), axis=1), 0.0)
    np.less(s[:, 1:], s[:, :-1], out=flags[0, :, 1:-1])
    np.greater(s[:, 1:], s[:, :-1], out=flags[1, :, 1:-1])
    return flags


def _enough_extrema(flags: np.ndarray) -> np.ndarray:
    """Rows with at least two maxima and two minima, the sifting minimum."""
    return (flags.sum(axis=2) >= 2).all(axis=0)


def _mirrored_knots(mask: np.ndarray, values: np.ndarray):
    """Envelope knots: each row's extrema plus up to two mirrored per end.

    mask: (..., R, n) extrema flags, at least one per row; values: the
    signal, broadcastable to mask. The first two extrema of a row are
    reflected about index 0 and the last two about n - 1, except an
    extremum on the boundary itself. Returns column-major (K, Q) knot
    abscissae and values, Q = mask.size // n rows in mask's order, plus
    per-column knot counts, with K > max count; entries past a column's
    count are padding.
    """
    n = mask.shape[-1]
    flags = mask.reshape(-1, n)
    Q = flags.shape[0]
    m = flags.sum(axis=1)
    at = np.flatnonzero(flags)
    vals = values.ravel()[at % values.size if values.size < mask.size else at]
    cols = at - np.repeat(np.arange(Q) * n, m)
    del at
    start = np.cumsum(m) - m
    last_at = start + m - 1
    first, second = cols[start], cols[np.minimum(start + 1, last_at)]
    last, penult = cols[last_at], cols[np.maximum(last_at - 1, start)]
    two = m >= 2
    left1 = two & (second > 0)
    left0 = first > 0
    right0 = last < n - 1
    right1 = two & (penult < n - 1)
    n_left = left1 + left0.astype(np.intp)
    nk = n_left + m + right0 + right1

    K = int(nk.max()) + 1
    xk = np.zeros((K, Q))
    yk = np.zeros((K, Q))
    # extremum j of row q lands at knot n_left[q] + j, flat (K, Q) index
    # (n_left[q] + j) * Q + q
    dest = np.repeat((n_left - start) * Q + np.arange(Q), m)
    dest += np.arange(cols.size) * Q
    xk.ravel()[dest] = cols
    yk.ravel()[dest] = vals
    del dest
    for present, pos, src, mirror in (
        (left1, 0, start + 1, 0),
        (left0, left1, start, 0),
        (right0, n_left + m, last_at, 2 * (n - 1)),
        (right1, n_left + m + right0, last_at - 1, 2 * (n - 1)),
    ):
        q = np.flatnonzero(present)
        p = np.broadcast_to(pos, present.shape)[q].astype(np.intp)
        xk[p, q] = mirror - cols[src[q]]
        yk[p, q] = vals[src[q]]
    return xk, yk, nk


def _natural_spline_rows(xk: np.ndarray, yk: np.ndarray, nk: np.ndarray, n: int) -> np.ndarray:
    """Natural cubic splines through column-major knots, evaluated at 0..n-1.

    Column q of the (K, Q) arrays xk, yk holds nk[q] >= 2 knots with
    strictly increasing integer-valued abscissae that bracket [0, n - 1];
    entries past nk[q] are ignored, and K must exceed nk.max(). Returns
    (Q, n), equal to ``CubicSpline(x, y, bc_type="natural")(np.arange(n))``
    per column.

    The derivative system is scipy's, stored as rows (d, dl, du, b) per
    knot; padding rows are identity rows, so one LAPACK ``dgtsv``
    transcript, including its partial pivoting, sweeps every column at
    once along the knot axis.
    """
    K, Q = xk.shape
    knot = np.arange(K)[:, None]
    last = nk - 1
    cols = np.arange(Q)
    system = np.zeros((K, 4, Q))
    d, dl, du, b = (system[:, j] for j in range(4))
    with np.errstate(divide="ignore", invalid="ignore"):
        dx = np.diff(xk, axis=0)
        slope = np.diff(yk, axis=0)
        slope /= dx
        d[0] = 2 * dx[0]
        np.add(dx[:-1], dx[1:], out=d[1:-1])
        d[1:-1] *= 2
        d[last, cols] = 2 * dx[last - 1, cols]
        du[0] = dx[0]
        du[1:-1] = dx[:-1]
        dl[:-2] = dx[1:]
        dl[last - 1, cols] = dx[last - 1, cols]
        b[0] = 3 * (yk[1] - yk[0])
        np.multiply(dx[1:], slope[:-1], out=b[1:-1])
        b[1:-1] += dx[:-1] * slope[1:]
        b[1:-1] *= 3
        b[last, cols] = 3 * (yk[last, cols] - yk[last - 1, cols]) + 0.0
    pad = knot > last
    d[pad] = 1.0
    b[pad] = 0.0
    pad = knot >= last
    du[pad] = 0.0
    dl[pad] = 0.0
    del pad

    # dgtsv forward elimination. Afterwards row i holds LAPACK's D(i),
    # DL(i) (the fill-in, zero without interchange), DU(i) and B(i). The
    # last row is always padding, so its final step (never an
    # interchange, a no-op) is left out.
    pair = np.arange(8)[:, None] * Q  # flat offsets of rows i, i+1 in system[i:i+2]
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(K - 2):
            cur, nxt = system[i], system[i + 1]
            mag = np.abs(cur[:2])
            swap = (mag[0] < mag[1]).nonzero()[0]
            if swap.size:
                at = pair + swap
                old = system[i:i + 2].take(at)
            fact = cur[1] / cur[0]
            nxt[::3] -= fact * cur[2:]
            cur[1] = 0.0
            if swap.size:
                # interchange rows i and i + 1 in these columns: old holds
                # (d, dl, du, b) of row i, then of row i + 1
                fx = (old[0] / old[1]) * old[4:]
                new = np.empty_like(old)
                new[:4] = old[[1, 6, 4, 7]]
                np.subtract(old[2:4], fx[::3], out=new[4::3])
                new[5] = old[5]
                np.negative(fx[2], out=new[6])
                system[i:i + 2].put(at, new)

    # back substitution
    b[K - 1] /= d[K - 1]
    b[K - 2] = (b[K - 2] - du[K - 2] * b[K - 1]) / d[K - 2]
    for i in range(K - 3, -1, -1):
        row = system[i]
        row[3] = (row[3] - row[2] * b[i + 1] - row[1] * b[i + 2]) / row[0]

    # PPoly coefficients per segment: c0 (into dx), c1 (into slope)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = b[:-1] + b[1:]
        t -= 2 * slope
        t /= dx
        slope -= b[:-1]
        slope /= dx
        slope -= t
        np.divide(t, dx, out=dx)
    coef = (xk[:-1], dx, slope, b[:-1], yk[:-1])
    del t

    # every sample takes the segment [x_i, x_{i+1}) holding it, the last
    # segment closed on the right
    bounds = np.clip(xk, 0, n).astype(np.intp)
    bounds[0] = 0
    bounds[knot >= last] = n
    counts = np.diff(bounds, axis=0)
    del bounds

    # PPoly's power-sum order, ((c3 + c2*s) + c1*s^2) + c0*s^3, in
    # cache-sized blocks of rows
    grid = np.arange(n, dtype=float)
    out = np.empty((Q, n))
    step = max(1, _EVAL_CELLS // n)
    for lo in range(0, Q, step):
        hi = min(lo + step, Q)
        at = np.repeat(np.arange((hi - lo) * (K - 1)), counts[:, lo:hi].T.ravel()).reshape(-1, n)
        x0, c0, c1, c2, c3 = (c[:, lo:hi].T.ravel()[at] for c in coef)
        s = grid - x0
        blk = out[lo:hi]
        np.multiply(c2, s, out=blk)
        blk += c3
        power = s * s
        blk += c1 * power
        power *= s
        blk += c0 * power
    return out


def _sift_levels(rows: np.ndarray):
    """Lockstep EMD of every row of an (R, T) array, which it consumes.

    Yields one (imfs, capped) pair per IMF index: the IMFs of the rows that
    produced one at that index, in row order, and how many of them used
    all MAX_SIFTINGS siftings without the SD rule firing. Each row
    goes through exactly the operations of a one-row decomposition.
    """
    residual = rows
    alive = np.arange(rows.shape[0])
    while alive.size:
        h = residual[alive]
        extrema = _extrema_masks(h)
        keep = _enough_extrema(extrema)
        if not keep.all():
            alive, h, extrema = alive[keep], h[keep], extrema[:, keep]
        if not alive.size:
            return
        sifting = np.arange(alive.size)
        for it in range(MAX_SIFTINGS):
            if it:
                extrema = _extrema_masks(h[sifting])
                ok = _enough_extrema(extrema)
                if not ok.all():
                    sifting, extrema = sifting[ok], extrema[:, ok]
                if not sifting.size:
                    break
            hs = h if sifting.size == h.shape[0] else h[sifting]
            S = sifting.size
            env = _natural_spline_rows(*_mirrored_knots(extrema, hs), h.shape[1])
            # h_new = h - 0.5 * (upper + lower) and the SD rule, in env's rows
            h_new, scratch = env[:S], env[S:]
            h_new += scratch
            h_new *= 0.5
            np.subtract(hs, h_new, out=h_new)
            np.subtract(hs, h_new, out=scratch)
            scratch *= scratch
            change = scratch.sum(axis=1)
            np.multiply(hs, hs, out=scratch)
            denom = scratch.sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                sd = np.where(denom > 0, change / denom, 0.0)
            h[sifting] = h_new
            # let the next sifting's envelopes reuse this memory
            del env, h_new, scratch, hs
            sifting = sifting[~(sd < SD_THRESHOLD)]
            if not sifting.size:
                break
        yield h, int(sifting.size)
        residual[alive] -= h


def _check_signal(signal) -> np.ndarray:
    x = np.asarray(signal, dtype=float)
    if x.ndim != 1:
        raise ValueError("signal must be 1-D")
    if not np.all(np.isfinite(x)):
        raise ValueError("signal contains non-finite values")
    return x


def emd(signal) -> ImfSet:
    """Decompose a signal into IMFs by sifting.

    A signal with fewer than four extrema is returned whole as the
    residual with zero IMFs.
    """
    x = _check_signal(signal)
    levels = list(_sift_levels(x[None, :].copy()))
    imfs = np.vstack([level for level, _ in levels]) if levels else np.zeros((0, x.size))
    return ImfSet(imfs, x - imfs.sum(axis=0), sum(n_capped for _, n_capped in levels))


def iceemdan(signal, ensemble_n: int, noise_amp: float, seed) -> ImfSet:
    """Ensemble EMD (Wu & Huang 2009): the mean IMFs of noisy realizations.

    Each realization adds seeded white noise scaled by
    noise_amp * std(signal) and is decomposed by plain EMD; the i-th IMFs
    are averaged across the ensemble (runs that produced fewer IMFs
    contribute zeros). This is not the ICEEMDAN recursion of Colominas
    et al. (2014). noise_amp = 0 degenerates to a single emd() call.
    Deterministic for a fixed seed: each realization draws from its own
    spawned child stream, so results are schedule-independent; a
    SeedSequence passed as seed is left untouched.
    """
    if ensemble_n < 1:
        raise ValueError(f"ensemble_n must be >= 1, got {ensemble_n}")
    if not 0 <= noise_amp < np.inf:
        raise ValueError(f"noise_amp must be >= 0 and finite, got {noise_amp}")
    x = _check_signal(signal)

    sigma = noise_amp * float(np.std(x))
    if sigma == 0.0:
        return emd(x)

    if isinstance(seed, np.random.SeedSequence):
        # spawn from a twin so the caller's spawn counter does not move
        root = np.random.SeedSequence(
            seed.entropy,
            spawn_key=seed.spawn_key,
            pool_size=seed.pool_size,
            n_children_spawned=seed.n_children_spawned,
        )
    else:
        root = np.random.SeedSequence(seed)
    children = root.spawn(ensemble_n)

    acc = []
    capped = 0
    chunk = max(1, _CHUNK_CELLS // max(1, x.size))
    for lo in range(0, ensemble_n, chunk):
        noisy = np.stack(
            [x + sigma * np.random.default_rng(child).standard_normal(x.size) for child in children[lo:lo + chunk]]
        )
        for k, (level, n_capped) in enumerate(_sift_levels(noisy)):
            if k == len(acc):
                acc.append(np.zeros(x.size))
            # realization order, as the per-realization sum adds them
            for imf in level:
                acc[k] += imf
            capped += n_capped

    imfs = (np.vstack(acc) if acc else np.zeros((0, x.size))) / ensemble_n
    return ImfSet(imfs, x - imfs.sum(axis=0), capped)
