"""Pairwise clustering evaluation: matching matrix, ROC over a hierarchy, AUC.

The reference relation over unordered pairs comes either from class labels
(same class = positive) or from graph edges (connected = positive).  All
pair counts are exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hierarchy import ClusterLabels, Dendrogram
from .kernels import Graph


@dataclass(frozen=True)
class MatchingMatrix:
    """Pair-level confusion counts between a clustering and a reference."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def tpr(self) -> float:
        pos = self.tp + self.fn
        return self.tp / pos if pos else 0.0

    @property
    def fpr(self) -> float:
        neg = self.fp + self.tn
        return self.fp / neg if neg else 0.0


@dataclass(frozen=True)
class RocCurve:
    """(FPR, TPR) points sorted ascending, anchored at (0,0) and (1,1)."""

    points: tuple[tuple[float, float], ...]

    @classmethod
    def from_points(cls, points) -> "RocCurve":
        pts = {(float(f), float(t)) for f, t in points}
        pts.add((0.0, 0.0))
        pts.add((1.0, 1.0))
        return cls(points=tuple(sorted(pts)))


def _class_index(labels) -> np.ndarray:
    arr = np.asarray(labels)
    _, idx = np.unique(arr, return_inverse=True)
    return idx.astype(np.int64)


def _pairs_within(counts: np.ndarray) -> int:
    counts = counts.astype(object)  # exact integer arithmetic
    return int(sum(c * (c - 1) // 2 for c in counts))


def matching_matrix(pred: ClusterLabels, reference) -> MatchingMatrix:
    """Exact pair counts of co-clustering against the reference relation.

    reference is either a length-n sequence of class labels or a Graph on
    n vertices whose edges are the positive pairs.
    """
    n = pred.n
    total = n * (n - 1) // 2
    assignments = pred.assignments
    co_clustered = _pairs_within(np.bincount(assignments))

    if isinstance(reference, Graph):
        if reference.n_vertices != n:
            raise ValueError("reference graph size does not match labels")
        positives = reference.n_edges
        owners = np.repeat(np.arange(n), reference.degrees)  # each edge is listed from both ends
        tp = int(np.count_nonzero(assignments[owners] == assignments[reference.indices])) // 2
    else:
        ref = _class_index(reference)
        if len(ref) != n:
            raise ValueError("reference labels size does not match predictions")
        positives = _pairs_within(np.bincount(ref))
        n_classes = int(ref.max()) + 1 if n else 0
        contingency = np.zeros((pred.n_clusters, n_classes), dtype=np.int64)
        np.add.at(contingency, (assignments, ref), 1)
        tp = _pairs_within(contingency.ravel())

    fp = co_clustered - tp
    fn = positives - tp
    tn = total - tp - fp - fn
    return MatchingMatrix(tp=int(tp), fp=int(fp), tn=int(tn), fn=int(fn))


def _rate(num: int, den: int) -> float:
    return num / den if den else 0.0


def roc_from_hierarchy(tree: Dendrogram, reference) -> RocCurve:
    """One (FPR, TPR) point per cut level, maintained incrementally.

    A merge of components with a and b members creates a*b newly
    co-clustered pairs; only the positives among those need counting, so
    the full sweep costs about one update per pair actually merged instead
    of n^2/2 recounts per level.
    """
    n = tree.n_leaves
    total = n * (n - 1) // 2

    sizes: dict[int, int] = {i: 1 for i in range(n)}
    if isinstance(reference, Graph):
        if reference.n_vertices != n:
            raise ValueError("reference graph size does not match tree")
        positives = reference.n_edges
        # per-component edge counters keyed by an internal id; the indirection
        # lets a merge keep the larger side's table and relabel the smaller
        comp_of: dict[int, int] = {i: i for i in range(n)}
        link: dict[int, dict[int, int]] = {
            i: dict.fromkeys(reference.neighbors(i).tolist(), 1) for i in range(n)
        }
        hist = None
    else:
        ref = _class_index(reference)
        if len(ref) != n:
            raise ValueError("reference labels size does not match tree")
        positives = _pairs_within(np.bincount(ref))
        hist = {i: {int(ref[i]): 1} for i in range(n)}
        comp_of = link = None

    negatives = total - positives
    co = 0
    tp = 0
    points = [(0.0, 0.0)]

    for m in tree.merges:
        a, b = m.removed, m.kept
        co += sizes[a] * sizes[b]
        sizes[b] += sizes.pop(a)

        if hist is not None:
            ha = hist.pop(a)
            hb = hist[b]
            small, big = (ha, hb) if len(ha) <= len(hb) else (hb, ha)
            tp += sum(k * big.get(cls, 0) for cls, k in small.items())
            for cls, k in small.items():
                big[cls] = big.get(cls, 0) + k
            hist[b] = big
        else:
            ia = comp_of.pop(a)
            ib = comp_of[b]
            ca = link[ia]
            cb = link[ib]
            tp += ca.pop(ib, 0)
            cb.pop(ia, None)
            if len(ca) > len(cb):
                ca, cb = cb, ca
                ia, ib = ib, ia
            for other, k in ca.items():
                d = link[other]
                d[ib] = d.get(ib, 0) + d.pop(ia)
                cb[other] = cb.get(other, 0) + k
            del link[ia]
            comp_of[b] = ib

        points.append((_rate(co - tp, negatives), _rate(tp, positives)))

    return RocCurve.from_points(points)


def roc_from_partitions(partitions, reference) -> RocCurve:
    """Curve through the (FPR, TPR) points of independent flat clusterings."""
    points = []
    for labels in partitions:
        mm = matching_matrix(labels, reference)
        points.append((mm.fpr, mm.tpr))
    return RocCurve.from_points(points)


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the curve over FPR in [0, 1]."""
    area = 0.0
    pts = curve.points
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area
