"""ReliefF feature weighting and selection.

Weights follow the classic neighbor-based update: each row, visited once
in one seeded random order, pulls its feature weights down by the mean
diff to its k nearest hits and up by the prior-weighted mean diff to the
k nearest misses of every other class. Neighbor search runs on
min-max-normalized features (squared Euclidean over the per-feature diff
values), which also gives the documented scale invariance for continuous
columns.

Visits are processed in blocks of consecutive draws whose temporaries
stay under about ``_BLOCK_BYTES``. Per block and class pool, one
(visits, pool) distance array is built feature by feature, and the k
nearest of each visit come from ``np.partition`` with ties broken by pool
position, which is the order of a stable argsort. The block's update rows
(per visit in turn: hits, then misses by ascending class) are gathered by
indexing and folded into the weights with one ``np.add.accumulate``.
Every weight is thus added in the same order as a one-row-at-a-time
update, so the result is bit-identical to it.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FeatureTable",
    "relieff",
    "select_features",
    "write_weights_csv",
]

CONTINUOUS = "continuous"
DISCRETE = "discrete"


@dataclass(frozen=True)
class FeatureTable:
    """M rows of F features plus a class label per row.

    kinds marks each column continuous or discrete; continuous diffs are
    normalized by the column range, constant columns diff to 0.
    """

    values: np.ndarray
    kinds: tuple
    labels: np.ndarray
    feature_names: tuple

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.size == 0:
            raise ValueError(f"values must be a non-empty (M, F) array, got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("feature values must be finite")
        kinds = tuple(self.kinds)
        if len(kinds) != vals.shape[1]:
            raise ValueError("need one kind per feature column")
        if any(k not in (CONTINUOUS, DISCRETE) for k in kinds):
            raise ValueError(f"kinds must be '{CONTINUOUS}' or '{DISCRETE}'")
        labels = np.asarray(self.labels)
        if labels.shape != (vals.shape[0],):
            raise ValueError("need one label per row")
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != vals.shape[1]:
            raise ValueError("need one name per feature column")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "kinds", kinds)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", names)

    @property
    def M(self) -> int:
        return self.values.shape[0]

    @property
    def F(self) -> int:
        return self.values.shape[1]


# Bytes of the temporaries of one block of visits (see `per_visit` below).
_BLOCK_BYTES = 1 << 21


def _feature_diffs(va: np.ndarray, vb: np.ndarray, ranges: np.ndarray, is_discrete: np.ndarray) -> list:
    """Per-feature diffs in [0, 1] between broadcastable (..., F) row values.

    Returns one array per feature. Continuous columns diff by |v1 - v2|
    over the column range (0 for a constant column); discrete columns diff
    by 0 when equal, else 1.
    """
    shape = np.broadcast_shapes(va.shape, vb.shape)[:-1]
    out = []
    for j in range(va.shape[-1]):
        if is_discrete[j]:
            out.append((va[..., j] != vb[..., j]).astype(float))
        elif ranges[j] > 0.0:
            out.append(np.abs(va[..., j] - vb[..., j]) / ranges[j])
        else:
            out.append(np.zeros(shape))
    return out


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Columns of the k smallest entries per row, nearest first, ties by column.

    Equal to ``np.argsort(dist, axis=1, kind="stable")[:, :k]`` without
    sorting whole rows: every entry at or below the row's k-th smallest
    value is kept, and only those are sorted.
    """
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1 : k]
    rows, cols = np.nonzero(dist <= kth)
    # lexsort is stable, so equal distances keep their column order
    cols = cols[np.lexsort((dist[rows, cols], rows))]
    kept = np.bincount(rows, minlength=dist.shape[0])
    return cols[(np.cumsum(kept) - kept)[:, None] + np.arange(k)]


def relieff(table: FeatureTable, k: int, seed) -> np.ndarray:
    """Per-feature weights in [-1, 1], from one visit of every row.

    Rows are visited in one seeded random order. k is clamped per class
    when a class is too small, and every clamp is reported in a warning.
    For each visited row the hit updates are applied first, then miss
    updates per other class in ascending class order, so results are
    bit-deterministic.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    classes, counts = np.unique(table.labels, return_counts=True)
    if classes.size < 2:
        raise ValueError("weighting needs at least two classes")
    m = table.M

    n_cls = classes.size
    priors = counts / table.M
    k_hit = np.minimum(k, counts - 1)
    k_miss = np.minimum(k, counts)
    clamped = {}
    for i, c in enumerate(classes):
        if counts[i] < k + 1:
            clamped[c.item()] = {"hits": int(k_hit[i]), "misses": int(k_miss[i])}
    if clamped:
        warnings.warn(
            f"classes too small for k={k}; clamped neighbor counts: {clamped}",
            stacklevel=2,
        )

    values = table.values
    ranges = values.max(axis=0) - values.min(axis=0)
    is_discrete = np.array([kind == DISCRETE for kind in table.kinds])

    order = np.random.default_rng(seed).permutation(m)

    label_idx = np.searchsorted(classes, table.labels)
    pools = [np.flatnonzero(label_idx == c) for c in range(n_cls)]
    # A visit's update rows fill `width` slots in the order they are
    # applied: the hit group of its own class, then one miss group per
    # other class, ascending. Group c is k_miss[c] slots wide, so a clamped
    # class (k_hit = k_miss - 1) leaves the last slot of its hit group empty.
    # start[ci, c] is where group c begins for a visit of class ci; coef and
    # denom give each slot's update as coef * diff / denom.
    width = int(k_miss.sum())
    start = np.empty((n_cls, n_cls), dtype=int)
    coef = np.empty((n_cls, width))
    denom = np.empty((n_cls, width))
    for ci in range(n_cls):
        at = 0
        for c in [ci] + [c for c in range(n_cls) if c != ci]:
            start[ci, c] = at
            group = slice(at, at + k_miss[c])
            if c == ci:
                coef[ci, group] = -1.0
                denom[ci, group] = m * k_hit[c]
            else:
                coef[ci, group] = priors[c] / (1.0 - priors[ci])
                denom[ci, group] = m * k_miss[c]
            at += k_miss[c]

    weights = np.zeros(table.F)
    # per visit: about four float rows of a class pool while ranking, and
    # about eight float rows of (width, F) values while updating
    per_visit = 8 * (4 * max(p.size for p in pools) + 8 * width * table.F)
    block = max(1, _BLOCK_BYTES // per_visit)
    for first in range(0, m, block):
        visits = order[first : first + block]
        vclass = label_idx[visits]
        visit_values = values[visits][:, None]
        slots = np.full((visits.size, width), -1)
        for c, pool in enumerate(pools):
            # squared Euclidean over diff values, accumulated in feature
            # order; monotone in the Euclidean metric, no sqrt for ranking
            dist = np.zeros((visits.size, pool.size))
            for d in _feature_diffs(visit_values, values[pool], ranges, is_discrete):
                dist += d * d
            own = np.flatnonzero(vclass == c)
            kh = int(k_hit[c])
            if own.size and kh:
                # the visit is among its kh + 1 nearest unless tied rows
                # sort before it; dropping it leaves the kh nearest others
                near = pool[_nearest(dist[own], kh + 1)]
                keep = near != visits[own][:, None]
                keep &= np.cumsum(keep, axis=1) <= kh
                slots[own, :kh] = near[keep].reshape(own.size, kh)
            other = np.flatnonzero(vclass != c)
            if other.size:
                cols = start[vclass[other], c][:, None] + np.arange(k_miss[c])
                slots[other[:, None], cols] = pool[_nearest(dist[other], int(k_miss[c]))]

        rows, pos = np.nonzero(slots >= 0)
        cls = vclass[rows]
        diffs = np.stack(
            _feature_diffs(values[visits[rows]], values[slots[rows, pos]], ranges, is_discrete),
            axis=1,
        )
        update = coef[cls, pos][:, None] * diffs / denom[cls, pos][:, None]
        # add.accumulate adds row after row, the same sums as one row at a time
        weights = np.add.accumulate(np.vstack([weights, update]), axis=0)[-1]
    return weights


def select_features(weights: np.ndarray) -> list:
    """Every feature index by descending weight, ties broken by lower index."""
    return [int(i) for i in np.argsort(-weights, kind="stable")]


def write_weights_csv(path, feature_names, weights: np.ndarray) -> None:
    """Export (feature_name, weight) rows, heaviest first."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "weight"])
        for idx in select_features(weights):
            writer.writerow([feature_names[idx], repr(float(weights[idx]))])
