"""Complexity-driven recombination into high/mid/low frequency bands,
and the full multi-frequency extraction pipeline.

Components are grouped by a deterministic 1-D k-means (k=3) over their
complexity scores, initialized at the min/median/max score. The group
with the highest centroid becomes the high band; band series are
element-wise sums accumulated top to bottom over the components, which
are the rows of one (n, T) array, as ``vmd``'s modes and ``emd``'s IMFs are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .emd import iceemdan
from .entropy import msse_curve
from .errors import ConfigError
from .vmd import VmdConfig, vmd

__all__ = [
    "BandSet",
    "DecomposeConfig",
    "band_recombine",
    "multi_frequency_pipeline",
]

_BAND_NAMES = ("low", "mid", "high")

# multiscale sample entropy of each component: embedding dimension,
# tolerance as a fraction of the component's std, and coarse-graining scales
ENTROPY_M = 2
ENTROPY_R_FRAC = 0.15
ENTROPY_TAU_MAX = 5


@dataclass(frozen=True)
class BandSet:
    """The three recombined band series plus the component→band record."""

    high: np.ndarray
    mid: np.ndarray
    low: np.ndarray
    membership: tuple

    def total(self) -> np.ndarray:
        return self.high + self.mid + self.low


@dataclass(frozen=True)
class DecomposeConfig:
    """The multi-frequency pipeline's settings: VMD and the ICEEMDAN ensemble."""

    vmd: VmdConfig = field(default_factory=VmdConfig)
    ensemble_n: int = 100
    noise_amp: float = 0.2

    def __post_init__(self):
        if self.ensemble_n < 1:
            raise ConfigError(f"ensemble_n must be >= 1, got {self.ensemble_n}")
        if not 0 <= self.noise_amp < np.inf:
            raise ConfigError(f"noise_amp must be >= 0 and finite, got {self.noise_amp}")


def _kmeans3(scores: np.ndarray) -> np.ndarray:
    """1-D k-means with centroids seeded at min/median/max.

    Returns per-score labels 0/1/2 ordered so that label 0 has the lowest
    final centroid and label 2 the highest. Assignment ties go to the
    lower cluster index; empty clusters keep their previous centroid.
    """
    centroids = np.array(
        [float(np.min(scores)), float(np.median(scores)), float(np.max(scores))]
    )
    labels = None
    for _ in range(200):
        dist = np.abs(scores[:, None] - centroids[None, :])
        new_labels = np.argmin(dist, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(3):
            members = scores[labels == j]
            if members.size:
                centroids[j] = members.mean()
    order = np.argsort(centroids, kind="stable")
    remap = np.empty(3, dtype=int)
    remap[order] = np.arange(3)
    return remap[labels]


def band_recombine(components, complexity) -> BandSet:
    """Partition the rows of an (n, T) components array into high/mid/low bands.

    Each component lands in exactly one band, so the three band series sum
    to the sum of all rows. Expects at least three rows and one finite
    complexity score per row (callers typically pass the mean of each
    component's multiscale entropy curve).
    """
    if len(components) < 3:
        raise ValueError(f"need at least 3 components, got {len(components)}")
    if len({np.shape(c) for c in components}) != 1 or np.ndim(components[0]) != 1:
        raise ValueError("components must be 1-D arrays of equal length")
    comps = np.asarray(components, dtype=float)
    length = comps.shape[1]
    scores = np.asarray(complexity, dtype=float)
    if scores.shape != (len(comps),):
        raise ValueError(
            f"need one complexity score per component, got {scores.shape}"
        )
    if not np.all(np.isfinite(scores)):
        raise ValueError("complexity scores must be finite")

    labels = _kmeans3(scores)
    sums = [np.zeros(length), np.zeros(length), np.zeros(length)]
    for comp, lab in zip(comps, labels):
        sums[lab] += comp
    membership = tuple(_BAND_NAMES[lab] for lab in labels)
    return BandSet(high=sums[2], mid=sums[1], low=sums[0], membership=membership)


def _mean_msse(components) -> list:
    """Raw complexity score of each component: its mean multiscale entropy."""
    return [
        float(np.mean(msse_curve(c, ENTROPY_M, ENTROPY_R_FRAC, ENTROPY_TAU_MAX))) for c in components
    ]


def _complexity_scores(raw) -> np.ndarray:
    scores = np.asarray(raw, dtype=float)
    finite = scores[np.isfinite(scores)]
    if finite.size < scores.size:
        # entropy curves can hit the +inf no-match sentinel; rank such
        # components above everything measurable and keep k-means finite
        cap = (finite.max() if finite.size else 0.0) + 1.0
        scores = np.where(np.isfinite(scores), scores, cap)
    return scores


def multi_frequency_pipeline(signal, cfg: DecomposeConfig, seed):
    """Full multi-frequency extraction for one series.

    Steps: decompose with vmd, drop the highest-center-frequency mode to
    form the denoised signal, score the retained modes by mean multiscale
    entropy, replace the most complex mode by its ensemble-EMD
    sub-components (IMFs plus residual, in place), then recombine all
    components into high/mid/low bands.

    Returns (denoised, BandSet, (ids, components)): components is the
    (n, T) array whose rows are the components behind the bands, and ids
    names each row.
    """
    modes, _ = vmd(signal, cfg.vmd)
    retained = modes[:-1]
    denoised = retained.sum(axis=0)

    # each component is scored once: the retained modes here, the new
    # sub-components below; the +inf cap is applied per ranked list
    mode_scores = _mean_msse(retained)
    target = int(np.argmax(_complexity_scores(mode_scores)))
    sub = iceemdan(retained[target], cfg.ensemble_n, cfg.noise_amp, seed)

    parts = np.vstack([sub.imfs, sub.residual])
    ids = [f"mode{i}" for i in range(len(retained))]
    ids[target:target + 1] = [f"mode{target}_sub{j}" for j in range(len(sub.imfs))] + [f"mode{target}_subres"]
    mode_scores[target:target + 1] = _mean_msse(parts)
    components = np.vstack([retained[:target], parts, retained[target + 1:]])

    bands = band_recombine(components, _complexity_scores(mode_scores))
    return denoised, bands, (tuple(ids), components)
