"""Pairwise clustering evaluation: matching matrix, ROC over a hierarchy, AUC.

The reference relation over unordered pairs comes either from class labels
(same class = positive) or from graph edges (connected = positive).  All
pair counts are exact integers.
"""

from __future__ import annotations

from array import array
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
    co-clustered pairs; only the positives among those need counting.  Each
    merge folds the smaller component into the larger, counting the smaller
    side's graph neighbours already in the larger or folding its class
    counts, so the sweep costs O(E log n) or O(n log n) updates instead of
    n^2/2 recounts per level.
    """
    n = tree.n_leaves
    total = n * (n - 1) // 2

    if isinstance(reference, Graph):
        if reference.n_vertices != n:
            raise ValueError("reference graph size does not match tree")
        positives = reference.n_edges
        indptr, indices = reference.indptr.tolist(), reference.indices.tolist()
        comp = list(range(n))  # the component id of each leaf
        hist = None
    else:
        ref = _class_index(reference)
        if len(ref) != n:
            raise ValueError("reference labels size does not match tree")
        positives = _pairs_within(np.bincount(ref))
        hist = [{c: 1} for c in ref.tolist()]  # class counts of each component id

    # the leaves of each component id, as int arrays: n lists would be n containers the
    # garbage collector tracks, whose collections cost a warm process more than the sweep
    members = [array("q", (i,)) for i in range(n)]
    name = list(range(n))  # the component id of each live leaf
    negatives = total - positives
    co = 0
    tp = 0
    points = [(0.0, 0.0)]

    for m in tree.merges:
        small, big = name[m.removed], name[m.kept]
        if len(members[small]) > len(members[big]):
            small, big = big, small
        moved = members[small]
        co += len(moved) * len(members[big])
        if hist is None:
            for v in moved:
                tp += sum(comp[u] == big for u in indices[indptr[v] : indptr[v + 1]])
            for v in moved:
                comp[v] = big
        else:
            counts = hist[big]
            for c, k in hist[small].items():
                tp += k * counts.get(c, 0)
                counts[c] = counts.get(c, 0) + k
        members[big] += moved
        members[small] = None
        name[m.kept] = big
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
