"""Flat-clustering baseline and column normalization used in comparisons."""

from __future__ import annotations

import warnings

import numpy as np

from .hierarchy import ClusterLabels
from .kernels import Dataset, _squared_distances
from .rng import SplitMix64


def _plusplus_seeding(x: np.ndarray, k: int, rng: SplitMix64) -> np.ndarray:
    n = x.shape[0]
    chosen = [rng.below(n)]
    d2 = _squared_distances(x, x[chosen])[:, 0]
    for _ in range(k - 1):
        total = float(d2.sum())
        if total <= 0.0:
            idx = rng.below(n)  # all mass on existing centers: fall back to uniform
        else:
            r = rng.uniform() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
        chosen.append(idx)
        d2 = np.minimum(d2, _squared_distances(x, x[[idx]])[:, 0])
    return x[chosen].copy()


def kmeans(
    data: Dataset,
    k: int,
    seed: int = 0,
    max_iters: int = 300,
) -> ClusterLabels:
    """Lloyd iterations from ++-style seeding on the package PRNG.

    Assignment ties go to the lowest centroid index; a cluster that empties
    is re-seeded to the point farthest from its current centroid.  Missing
    values are refused, not imputed, and so are values large enough for a
    sum of squared distances to overflow.
    """
    if not data.fully_present:
        raise ValueError("kmeans requires complete data")
    n = data.n
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}]")
    if max_iters < 1:
        raise ValueError(f"max_iters must be >= 1, not {max_iters}")

    x = data.values
    # then a squared distance, at most p (2 max|x|)^2, a sum of n of them and a centroid sum stay finite
    bound = np.sqrt(np.finfo(float).max / (n * data.p)) / 2
    if not np.abs(x).max() <= bound:
        raise ValueError(f"kmeans requires feature values within +-sqrt(float max / np) / 2 = {bound:.6g}")
    rng = SplitMix64(seed)
    centers = _plusplus_seeding(x, k, rng)

    labels = None
    for _ in range(max_iters):
        d2 = _squared_distances(x, centers)
        new_labels = d2.argmin(axis=1)

        # steal the farthest points for clusters that came up empty
        assigned_d2 = d2[np.arange(n), new_labels].copy()
        counts = np.bincount(new_labels, minlength=k)
        for empty in np.nonzero(counts == 0)[0]:
            far = int(assigned_d2.argmax())
            new_labels[far] = empty
            assigned_d2[far] = -1.0

        if labels is not None and np.array_equal(labels, new_labels):
            break
        labels = new_labels
        for c in range(k):
            centers[c] = x[labels == c].mean(axis=0)

    return ClusterLabels(assignments=labels, n_clusters=k)


def zscore_normalize(data: Dataset) -> Dataset:
    """Center and scale each column to mean 0, standard deviation 1.

    Statistics use only the present entries of a column and the population
    (1/n) standard deviation.  Columns without at least two present values
    of nonzero variance come out as all zeros, with a warning.
    """
    values = np.zeros_like(data.values)
    present = data.present.copy()
    # every column's statistics first, so a column too large to normalize is
    # refused before any other column is warned about
    stats = []
    for j in range(data.p):
        col = data.values[present[:, j], j]
        if len(col) < 2:
            stats.append(None)
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            mean = col.mean()
            sd = np.sqrt(((col - mean) ** 2).mean())
        if not np.isfinite(sd):  # a sum past the float range
            raise ValueError(f"column {j} is too large to normalize: its mean or variance overflows")
        stats.append((mean, sd))
    for j, stat in enumerate(stats):
        if stat is None:
            warnings.warn(f"column {j} has fewer than 2 present values; emitting zeros")
        elif stat[1] == 0.0:
            warnings.warn(f"column {j} has zero variance; emitting zeros")
        else:
            mask = present[:, j]
            values[mask, j] = (data.values[mask, j] - stat[0]) / stat[1]
    return Dataset(values, present)
