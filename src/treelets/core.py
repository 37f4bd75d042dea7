"""Greedy multiscale decomposition of a similarity matrix by plane rotations.

Each step scores every active pair by normalized similarity, rotates the
winning pair so its off-diagonal entry becomes exactly zero, retires the
rotated index with the smaller diagonal, and records the step.  The record
sequence simultaneously encodes an orthogonal basis per level and a merge
tree over the observations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .symmat import RotationCoeffs, SymMatrix, apply_rotation, jacobi_coeffs

# below this diagonal product the correlation term is treated as zero so the
# regularization term alone can still drive pair selection
_TINY_DIAG_PRODUCT = 1e-300

DEFAULT_STOP_TOL = 1e-10


@dataclass(frozen=True)
class RotationRecord:
    """One decomposition step; doubles as one merge of the cluster tree."""

    step: int
    alpha: int  # retired index (smaller post-rotation diagonal)
    beta: int  # surviving index, becomes the merged cluster's label
    coeffs: RotationCoeffs
    diag_alpha: float
    diag_beta: float
    score: float

    def __post_init__(self):
        if self.alpha == self.beta:
            raise ValueError("alpha and beta must differ")
        if self.diag_alpha > self.diag_beta:
            raise ValueError("diag_alpha must not exceed diag_beta")

    @property
    def axes(self) -> tuple[int, int]:
        """Rotation plane in the (low, high) index order used to build it."""
        return (self.alpha, self.beta) if self.alpha < self.beta else (self.beta, self.alpha)


@dataclass(frozen=True)
class TreeletDecomposition:
    p: int
    records: tuple[RotationRecord, ...]
    stop_level: int
    final_diag: np.ndarray
    lam: float

    def scaling_set(self, k: int) -> list[int]:
        """Indices still active after k steps, ascending."""
        if not 0 <= k <= self.stop_level:
            raise ValueError(f"level {k} outside [0, {self.stop_level}]")
        removed = {r.alpha for r in self.records[:k]}
        return [i for i in range(self.p) if i not in removed]

    def basis_matrix(self, k: int) -> np.ndarray:
        """Dense level-k basis, rows are the basis vectors.  O(k p) build."""
        if not 0 <= k <= self.stop_level:
            raise ValueError(f"level {k} outside [0, {self.stop_level}]")
        b = np.eye(self.p)
        for rec in self.records[:k]:
            lo, hi = rec.axes
            c, s = rec.coeffs
            row_lo = b[lo].copy()
            row_hi = b[hi].copy()
            b[lo] = c * row_lo - s * row_hi
            b[hi] = s * row_lo + c * row_hi
        return b


def _pair_scores(a: SymMatrix, diag: np.ndarray, i: int, js: np.ndarray, lam: float) -> np.ndarray:
    """Selection score of (i, j) for each j in js."""
    vals = np.abs(a.row(i, js))
    prod = diag[i] * diag[js]
    corr = np.where(prod > _TINY_DIAG_PRODUCT, vals / np.sqrt(np.maximum(prod, _TINY_DIAG_PRODUCT)), 0.0)
    return corr + lam * vals


def select_pair(a: SymMatrix, active: Iterable[int], lam: float = 0.0) -> tuple[int, int, float]:
    """Highest-scoring active pair by full enumeration.

    Ties resolve to the lexicographically smallest (min, max) pair, which
    makes the choice platform-independent.
    """
    act = np.asarray(sorted(set(int(i) for i in active)), dtype=np.int64)
    if len(act) < 2:
        raise ValueError("need at least two active indices")
    if act[0] < 0 or act[-1] >= a.p:
        raise IndexError("active index out of range")
    diag = a.diagonal()
    rows, cols = np.triu_indices(len(act), 1)
    ii = act[rows]
    jj = act[cols]
    lo = np.minimum(ii, jj)
    hi = np.maximum(ii, jj)
    vals = np.abs(a.data[hi * (hi + 1) // 2 + lo])
    prod = diag[ii] * diag[jj]
    corr = np.where(prod > _TINY_DIAG_PRODUCT, vals / np.sqrt(np.maximum(prod, _TINY_DIAG_PRODUCT)), 0.0)
    scores = corr + lam * vals
    best = int(np.argmax(scores))  # first max = lexicographic winner
    return int(ii[best]), int(jj[best]), float(scores[best])


def decompose(
    a0: SymMatrix,
    lam: float = 0.0,
    stop_tol: float = DEFAULT_STOP_TOL,
    selection: str = "cached",
) -> TreeletDecomposition:
    """Run the rotation loop on a similarity matrix until done or stalled.

    selection="cached" maintains a best-partner cache per active row and
    refreshes only what a rotation can have touched; selection="rescan"
    re-enumerates every pair each step and exists as the slow oracle the
    cached path is tested against.  Both produce identical step sequences.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if stop_tol < 0:
        raise ValueError("stop_tol must be >= 0")
    if selection not in ("cached", "rescan"):
        raise ValueError("selection must be 'cached' or 'rescan'")

    a = a0.copy()
    p = a.p
    diag = a.diagonal().copy()
    if diag.min() < -1e-10:
        raise ValueError("similarity matrix has a negative diagonal entry")

    records: list[RotationRecord] = []
    active = np.ones(p, dtype=bool)

    best_score = np.full(p, -np.inf)
    best_j = np.full(p, -1, dtype=np.int64)

    def rescan(i: int, cols: np.ndarray):
        """Cache row i's best partner among cols other than i; return those and their scores."""
        js = cols[cols != i]
        scores = _pair_scores(a, diag, i, js, lam)
        m = int(np.argmax(scores))
        best_score[i] = scores[m]
        best_j[i] = js[m]
        return js, scores

    if selection == "cached" and p >= 2:
        idx = np.arange(p, dtype=np.int64)
        for i in range(p):
            rescan(i, idx)

    for step in range(1, p):
        if selection == "rescan":
            act_list = np.nonzero(active)[0]
            i_sel, j_sel, score = select_pair(a, act_list, lam)
        else:
            i_star = int(np.argmax(best_score))
            score = float(best_score[i_star])
            j_star = int(best_j[i_star])
            i_sel, j_sel = min(i_star, j_star), max(i_star, j_star)

        if score < stop_tol:
            break

        coeffs = jacobi_coeffs(a.get(i_sel, i_sel), a.get(j_sel, j_sel), a.get(i_sel, j_sel))
        apply_rotation(a, i_sel, j_sel, coeffs)
        diag[i_sel] = a.get(i_sel, i_sel)
        diag[j_sel] = a.get(j_sel, j_sel)

        if diag[i_sel] < diag[j_sel]:
            alpha, beta = i_sel, j_sel
        elif diag[j_sel] < diag[i_sel]:
            alpha, beta = j_sel, i_sel
        else:
            alpha, beta = i_sel, j_sel  # equal diagonals: retire the smaller index
        records.append(
            RotationRecord(
                step=step,
                alpha=alpha,
                beta=beta,
                coeffs=coeffs,
                diag_alpha=float(diag[alpha]),
                diag_beta=float(diag[beta]),
                score=score,
            )
        )
        active[alpha] = False

        if selection == "cached":
            best_score[alpha] = -np.inf
            best_j[alpha] = -1
            act_idx = np.nonzero(active)[0].astype(np.int64)
            if len(act_idx) < 2:
                best_score[beta] = -np.inf
                best_j[beta] = -1
                continue
            js, col_scores = rescan(beta, act_idx)

            stale = (best_j[js] == alpha) | (best_j[js] == beta)
            fresh = ~stale
            if fresh.any():
                rows_f = js[fresh]
                cand = col_scores[fresh]
                take = (cand > best_score[rows_f]) | (
                    (cand == best_score[rows_f]) & (beta < best_j[rows_f])
                )
                upd = rows_f[take]
                best_score[upd] = cand[take]
                best_j[upd] = beta
            for i in js[stale]:
                rescan(int(i), act_idx)

    stop_level = len(records)
    return TreeletDecomposition(
        p=p,
        records=tuple(records),
        stop_level=stop_level,
        final_diag=diag.copy(),
        lam=lam,
    )


def apply_basis(decomp: TreeletDecomposition, k: int, v) -> np.ndarray:
    """Level-k basis representation of v: the first k rotations applied in order."""
    if not 0 <= k <= decomp.stop_level:
        raise ValueError(f"level {k} outside [0, {decomp.stop_level}]")
    w = np.asarray(v, dtype=float).copy()
    if w.shape != (decomp.p,):
        raise ValueError(f"vector must have length {decomp.p}")
    for rec in decomp.records[:k]:
        lo, hi = rec.axes
        c, s = rec.coeffs
        w_lo = w[lo]
        w_hi = w[hi]
        w[lo] = c * w_lo - s * w_hi
        w[hi] = s * w_lo + c * w_hi
    return w


def compress(decomp: TreeletDecomposition, k: int, v, epsilon: float) -> np.ndarray:
    """Level-k representation with small detail coordinates dropped.

    Coordinates outside the level-k scaling set whose magnitude falls below
    epsilon are zeroed; scaling coordinates always survive.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be >= 0")
    w = apply_basis(decomp, k, v)
    keep = np.zeros(decomp.p, dtype=bool)
    keep[decomp.scaling_set(k)] = True
    drop = ~keep & (np.abs(w) < epsilon)
    w[drop] = 0.0
    return w
