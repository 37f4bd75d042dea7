"""Merge tree over decomposition steps and flat clusterings cut from it."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import TreeletDecomposition


@dataclass(frozen=True)
class Merge:
    step: int
    removed: int
    kept: int
    score: float


@dataclass(frozen=True)
class Dendrogram:
    """Forest of merges; one root when the decomposition ran to completion."""

    n_leaves: int
    merges: tuple[Merge, ...]

    @property
    def n_roots(self) -> int:
        return self.n_leaves - len(self.merges)

    def to_json(self) -> str:
        payload = {
            "n_leaves": self.n_leaves,
            "merges": [[m.step, m.removed, m.kept, m.score] for m in self.merges],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Dendrogram":
        """Parse a tree file; each merge must join two distinct live leaves below n_leaves.

        Values are checked, not converted: integers must be JSON integers, scores finite numbers.
        """
        try:
            payload = json.loads(text)
        except RecursionError:
            raise ValueError("tree file is nested too deeply") from None
        if not isinstance(payload, dict):
            raise ValueError("tree file is not a JSON object")
        for key in ("n_leaves", "merges"):
            if key not in payload:
                raise ValueError(f"tree file has no {key!r} key")
        n_leaves, rows = payload["n_leaves"], payload["merges"]
        if type(n_leaves) is not int or n_leaves < 0 or not isinstance(rows, list):
            raise ValueError("tree file needs a non-negative integer 'n_leaves' and a list of 'merges'")
        removed = set()  # not a leaf-sized array: n_leaves is not yet checked against anything
        merges = []
        for index, row in enumerate(rows, 1):
            try:
                step, gone, kept, score = row
                # isfinite raises OverflowError on an integer too large for a float
                if not (type(step) is type(gone) is type(kept) is int and type(score) in (int, float)
                        and math.isfinite(score)):
                    raise ValueError
                m = Merge(step, gone, kept, float(score))
            except (TypeError, ValueError, OverflowError):
                raise ValueError(
                    f"tree merge row {index} is {json.dumps(row)}, not [step, removed, kept, score]"
                ) from None
            for leaf in (m.removed, m.kept):
                if not 0 <= leaf < n_leaves:
                    raise ValueError(f"tree merge step {m.step}: leaf {leaf} outside 0..{n_leaves - 1}")
                if leaf in removed:
                    raise ValueError(f"tree merge step {m.step}: leaf {leaf} was removed by an earlier merge")
            if m.removed == m.kept:
                raise ValueError(f"tree merge step {m.step}: leaf {m.removed} merged with itself")
            removed.add(m.removed)
            merges.append(m)
        return cls(n_leaves=n_leaves, merges=tuple(merges))


@dataclass(frozen=True)
class ClusterLabels:
    """Flat clustering; ids are 0..n_clusters-1 and every id occurs."""

    assignments: np.ndarray
    n_clusters: int

    def __post_init__(self):
        object.__setattr__(self, "assignments", np.asarray(self.assignments, dtype=np.int64))
        used = np.unique(self.assignments)
        if self.n_clusters < 1 or len(used) != self.n_clusters:
            raise ValueError("cluster ids must cover 0..n_clusters-1")
        if used[0] != 0 or used[-1] != self.n_clusters - 1:
            raise ValueError("cluster ids must cover 0..n_clusters-1")

    def __eq__(self, other):  # by value: the generated one would compare arrays to a truth value
        same = isinstance(other, ClusterLabels) and self.n_clusters == other.n_clusters
        return same and np.array_equal(self.assignments, other.assignments)

    @property
    def n(self) -> int:
        return len(self.assignments)


def merge_tree(decomp: TreeletDecomposition) -> Dendrogram:
    """Dendrogram mirroring the decomposition's step records."""
    merges = tuple(Merge(r.step, r.alpha, r.beta, r.score) for r in decomp.records)
    return Dendrogram(n_leaves=decomp.p, merges=merges)


def canonical_labels(component_of: np.ndarray) -> ClusterLabels:
    """Relabel arbitrary component ids so clusters are numbered by smallest member."""
    component_of = np.asarray(component_of, dtype=np.int64)
    _, first, inverse = np.unique(component_of, return_index=True, return_inverse=True)
    rank = np.argsort(np.argsort(first))  # first occurrence = smallest member index
    return ClusterLabels(assignments=rank[inverse], n_clusters=len(first))


def _labels_after(tree: Dendrogram, n_merges: int) -> np.ndarray:
    """Each leaf's live representative after the first n_merges merges.

    A merge points its removed leaf at the kept one, which is still live, so
    the pointers form a forest whose roots are the live leaves.  Each jump
    doubles how far a pointer reaches, so bit_length(n) jumps cover any path.
    """
    root = np.arange(tree.n_leaves)
    for m in tree.merges[:n_merges]:
        root[m.removed] = m.kept
    for _ in range(int(tree.n_leaves).bit_length()):
        root = root[root]
    return root


def cut(tree: Dendrogram, n_clusters: int) -> ClusterLabels:
    """Flat clustering with exactly n_clusters, from the first merges.

    A decomposition that stalled early leaves a forest; cuts below its root
    count are unreachable and reported rather than invented.
    """
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    if n_clusters > tree.n_leaves:
        raise ValueError(f"cannot cut {tree.n_leaves} leaves into {n_clusters} clusters")
    if n_clusters < tree.n_roots:
        raise ValueError(
            "decomposition stopped early; requested cut unreachable "
            f"(minimum reachable cluster count is {tree.n_roots})"
        )
    return canonical_labels(_labels_after(tree, tree.n_leaves - n_clusters))


def cut_at_score(tree: Dendrogram, threshold: float) -> ClusterLabels:
    """Apply leading merges while their score stays at or above threshold; -inf applies all, inf none."""
    if math.isnan(threshold):
        raise ValueError("threshold must not be NaN")
    n_merges = 0
    for m in tree.merges:
        if m.score < threshold:
            break
        n_merges += 1
    return canonical_labels(_labels_after(tree, n_merges))
