"""Merge tree over decomposition steps and flat clusterings cut from it."""

from __future__ import annotations

import json
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
        """Parse a tree file; each merge must join two distinct live leaves below n_leaves."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("tree file is not a JSON object")
        for key in ("n_leaves", "merges"):
            if key not in payload:
                raise ValueError(f"tree file has no {key!r} key")
        n_leaves, rows = payload["n_leaves"], payload["merges"]
        if not isinstance(n_leaves, int) or not isinstance(rows, list):
            raise ValueError("tree file needs an integer 'n_leaves' and a list of 'merges'")
        removed = bytearray(max(n_leaves, 0))
        merges = []
        for index, row in enumerate(rows, 1):
            try:
                step, gone, kept, score = row
                m = Merge(int(step), int(gone), int(kept), float(score))
            except (TypeError, ValueError):
                raise ValueError(
                    f"tree merge row {index} is {json.dumps(row)}, not [step, removed, kept, score]"
                ) from None
            for leaf in (m.removed, m.kept):
                if not 0 <= leaf < n_leaves:
                    raise ValueError(f"tree merge step {m.step}: leaf {leaf} outside 0..{n_leaves - 1}")
                if removed[leaf]:
                    raise ValueError(f"tree merge step {m.step}: leaf {leaf} was removed by an earlier merge")
            if m.removed == m.kept:
                raise ValueError(f"tree merge step {m.step}: leaf {m.removed} merged with itself")
            removed[m.removed] = 1
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
    order: dict[int, int] = {}
    for comp in component_of:  # first occurrence = smallest member index
        if comp not in order:
            order[comp] = len(order)
    assignments = np.array([order[c] for c in component_of], dtype=np.int64)
    return ClusterLabels(assignments=assignments, n_clusters=len(order))


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, child: int, kept: int) -> None:
        self.parent[self.find(child)] = self.find(kept)


def _labels_after(tree: Dendrogram, n_merges: int) -> np.ndarray:
    uf = _UnionFind(tree.n_leaves)
    for m in tree.merges[:n_merges]:
        uf.union(m.removed, m.kept)
    return np.array([uf.find(i) for i in range(tree.n_leaves)], dtype=np.int64)


def cut(tree: Dendrogram, n_clusters: int) -> ClusterLabels:
    """Flat clustering with exactly n_clusters, from the first merges.

    A decomposition that stalled early leaves a forest; cuts below its root
    count are unreachable and reported rather than invented.
    """
    if n_clusters > tree.n_leaves:
        raise ValueError(f"cannot cut {tree.n_leaves} leaves into {n_clusters} clusters")
    if n_clusters < tree.n_roots:
        raise ValueError(
            "decomposition stopped early; requested cut unreachable "
            f"(minimum reachable cluster count is {tree.n_roots})"
        )
    return canonical_labels(_labels_after(tree, tree.n_leaves - n_clusters))


def cut_at_score(tree: Dendrogram, threshold: float) -> ClusterLabels:
    """Apply leading merges while their score stays at or above threshold."""
    n_merges = 0
    for m in tree.merges:
        if m.score < threshold:
            break
        n_merges += 1
    return canonical_labels(_labels_after(tree, n_merges))
