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
        """The distinct points, sorted, with (0, 0) and (1, 1) added where missing; of equal points the first stays."""
        pts = [(float(f), float(t)) for f, t in points]
        ends = [(0.0, 0.0), *pts, (1.0, 1.0)]
        if not all(f0 <= f1 and t0 <= t1 for (f0, t0), (f1, t1) in zip(ends, ends[1:])):
            return cls(points=tuple(sorted({*pts, (0.0, 0.0), (1.0, 1.0)})))
        # a sweep's points never decrease in either rate, so equal points are neighbours
        kept = [p for p, before in zip(ends[1:], [None, *pts]) if p != before]
        return cls(points=tuple(kept if kept[0] == (0.0, 0.0) else [(0.0, 0.0), *kept]))


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
    """One (FPR, TPR) point per cut level, from one pass over the merges.

    A merge of components with a and b members creates a*b newly
    co-clustered pairs; only the positives among those need counting.  The
    pass appends each merge's removed run of leaves after its kept run, so
    each component is a contiguous run of the final leaf order, and it
    records the step that joined each leaf to the next.  An edge is
    co-clustered from the largest such step between its two ends on
    (_range_max).  Class counts are folded from the smaller component into
    the larger, O(n log n) updates in all.
    """
    n = tree.n_leaves
    total = n * (n - 1) // 2
    graph = isinstance(reference, Graph)
    if graph:
        if reference.n_vertices != n:
            raise ValueError("reference graph size does not match tree")
        positives = reference.n_edges
    else:
        ref = _class_index(reference)
        if len(ref) != n:
            raise ValueError("reference labels size does not match tree")
        positives = _pairs_within(np.bincount(ref))
        hist = [{c: 1} for c in ref.tolist()]  # class counts of each live leaf's component

    never = len(tree.merges) + 1
    size = [1] * n  # of each live leaf's component; 0 once the leaf is removed
    tail = list(range(n))  # the last leaf of each live leaf's run, which the live leaf starts
    after = [-1] * n  # the leaf each leaf's run goes on with
    joined = [never] * n  # the step that joined each leaf to the one after it
    co, tp = [0], [0]
    for step, m in enumerate(tree.merges, 1):
        kept, gone = m.kept, m.removed
        after[tail[kept]], joined[tail[kept]], tail[kept] = gone, step, tail[gone]
        co.append(co[-1] + size[kept] * size[gone])
        if not graph:
            small, big = hist[gone], hist[kept]
            if size[gone] > size[kept]:
                small, big = big, small
            both = 0
            for c, k in small.items():
                both += k * big.get(c, 0)
                big[c] = big.get(c, 0) + k
            hist[kept], hist[gone] = big, None
            tp.append(tp[-1] + both)
        size[kept], size[gone] = size[kept] + size[gone], 0

    if graph:
        order = []
        for root in range(n):
            leaf = root if size[root] else -1  # each tree's run, from its live leaf
            while leaf >= 0:
                order.append(leaf)
                leaf = after[leaf]
        order = np.array(order, dtype=np.int64)
        pos = np.empty(n, dtype=np.int64)
        pos[order] = np.arange(n)
        # each edge once, from its end earlier in the order
        lo, hi = np.repeat(pos, reference.degrees), pos[reference.indices]
        first = lo < hi
        steps = _range_max(np.array(joined, dtype=np.int64)[order[:-1]], lo[first], hi[first])
        tp = np.bincount(steps, minlength=never + 1).cumsum().tolist()

    negatives = total - positives
    return RocCurve.from_points((_rate(c - t, negatives), _rate(t, positives)) for c, t in zip(co, tp))


def _range_max(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """max(values[lo[i]:hi[i]]) for each i, where lo < hi, from a sparse table (Bender & Farach-Colton, 2000).

    Level j holds the maxima of the windows of 2**j cells, all levels in one
    array; a range's maximum is that of the two windows of its level that
    start at its left end and end at its right end.
    """
    levels = [values]
    while 2 ** len(levels) <= len(values):
        half = 2 ** (len(levels) - 1)
        levels.append(np.maximum(levels[-1][:-half], levels[-1][half:]))
    table = np.concatenate(levels)
    starts = np.cumsum([0] + [len(level) for level in levels[:-1]])
    j = np.frexp(hi - lo)[1] - 1  # floor(log2(hi - lo))
    return np.maximum(table[starts[j] + lo], table[starts[j] + hi - (1 << j)])


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
