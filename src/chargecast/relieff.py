"""ReliefF feature weighting and selection.

Weights follow the classic neighbor-based update: each sampled instance
pulls its feature weights down by the mean diff to its k nearest hits and
up by the prior-weighted mean diff to the k nearest misses of every other
class. Neighbor search runs on min-max-normalized features (squared
Euclidean over the per-feature diff values), which also gives the
documented scale invariance for continuous columns.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FeatureTable",
    "FeatureWeights",
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
    feature_names: tuple = None

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
        names = self.feature_names
        if names is None:
            names = tuple(f"f{i}" for i in range(vals.shape[1]))
        else:
            names = tuple(str(n) for n in names)
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


@dataclass(frozen=True)
class FeatureWeights:
    """Per-feature weights in [-1, 1] plus the sampling settings used."""

    weights: np.ndarray
    k: int
    m_samples: int
    clamped: dict

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))


def _row_diffs(table: FeatureTable, ridx: int, ranges: np.ndarray, is_discrete: np.ndarray) -> np.ndarray:
    """(M, F) per-feature diffs in [0, 1] between row ridx and every row.

    Continuous columns diff by |v1 - v2| over the column range (0 for a
    constant column); discrete columns diff by 0 when equal, else 1.
    """
    vals = table.values
    out = np.zeros_like(vals)
    cont = ~is_discrete
    safe = ranges > 0.0
    cc = cont & safe
    out[:, cc] = np.abs(vals[ridx, cc] - vals[:, cc]) / ranges[cc]
    dd = is_discrete
    out[:, dd] = (vals[ridx, dd] != vals[:, dd]).astype(float)
    return out


def relieff(table: FeatureTable, k: int = 70, m_samples: int | None = None, seed=0) -> FeatureWeights:
    """Neighbor-based feature weighting over m_samples seeded draws.

    Instances are visited in seeded random order without replacement,
    cycling through fresh permutations when m_samples exceeds the row
    count. k is clamped per class when a class is too small, and every
    clamp is reported in the result (plus a warning). For each sampled
    instance the hit updates are applied first, then miss updates per
    other class in ascending class order, so results are bit-deterministic.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    classes, counts = np.unique(table.labels, return_counts=True)
    if classes.size < 2:
        raise ValueError("weighting needs at least two classes")
    m = table.M if m_samples is None else int(m_samples)
    if m < 1:
        raise ValueError(f"m_samples must be >= 1, got {m}")

    priors = {c: counts[i] / table.M for i, c in enumerate(classes)}
    count_of = {c: int(counts[i]) for i, c in enumerate(classes)}
    k_hit = {c: min(k, count_of[c] - 1) for c in classes}
    k_miss = {c: min(k, count_of[c]) for c in classes}
    clamped = {}
    for c in classes:
        if count_of[c] < k + 1:
            clamped[c] = {"hits": k_hit[c], "misses": k_miss[c]}
    if clamped:
        warnings.warn(
            f"classes too small for k={k}; clamped neighbor counts: {clamped}",
            stacklevel=2,
        )

    ranges = np.array(
        [col.max() - col.min() for col in table.values.T], dtype=float
    )
    is_discrete = np.array([kind == DISCRETE for kind in table.kinds])

    if isinstance(seed, np.random.SeedSequence):
        rng = np.random.default_rng(seed)
    else:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = []
    while len(order) < m:
        order.extend(rng.permutation(table.M).tolist())
    order = order[:m]

    weights = np.zeros(table.F)
    by_class = {c: np.nonzero(table.labels == c)[0] for c in classes}
    for ridx in order:
        c_r = table.labels[ridx]
        diffs = _row_diffs(table, ridx, ranges, is_discrete)
        # squared Euclidean over diff values, accumulated in feature order;
        # monotone in the true Euclidean metric, no sqrt needed for ranking
        dist_row = np.zeros(table.M)
        for j in range(table.F):
            dist_row += diffs[:, j] * diffs[:, j]

        pool = by_class[c_r]
        ranked = pool[np.argsort(dist_row[pool], kind="stable")]
        ranked = ranked[ranked != ridx]
        kk = k_hit[c_r]
        rows = [-(diffs[ranked[:kk]] / (m * kk))]

        for c in classes:
            if c == c_r:
                continue
            pool = by_class[c]
            ranked = pool[np.argsort(dist_row[pool], kind="stable")]
            kk = k_miss[c]
            scale = priors[c] / (1.0 - priors[c_r])
            rows.append(scale * diffs[ranked[:kk]] / (m * kk))
        # add.accumulate adds row after row, the same sums as one row at a time
        weights = np.add.accumulate(np.vstack([weights, *rows]), axis=0)[-1]
    return FeatureWeights(weights=weights, k=k, m_samples=m, clamped=clamped)


def select_features(weights: FeatureWeights, top_n: int):
    """Indices of the top_n weights, descending, ties broken by lower index."""
    w = weights.weights
    if not 1 <= top_n <= w.size:
        raise ValueError(f"top_n must be in [1, {w.size}], got {top_n}")
    ranked = np.argsort(-w, kind="stable")
    return [int(i) for i in ranked[:top_n]]


def write_weights_csv(path, feature_names, weights: FeatureWeights) -> None:
    """Export (feature_name, weight) rows, heaviest first."""
    ranked = select_features(weights, len(feature_names))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature", "weight"])
        for idx in ranked:
            writer.writerow([feature_names[idx], repr(float(weights.weights[idx]))])
