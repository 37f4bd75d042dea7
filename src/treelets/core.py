"""Greedy multiscale decomposition of a similarity matrix by plane rotations.

Each step scores every active pair by normalized similarity, rotates the
winning pair so its off-diagonal entry becomes exactly zero, retires the
rotated index with the smaller diagonal, and records the step.  The record
sequence simultaneously encodes an orthogonal basis per level and a merge
tree over the observations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symmat import RotationCoeffs, SymMatrix, apply_rotation, jacobi_coeffs

# below this diagonal product the correlation term is treated as zero so the
# regularization term alone can still drive pair selection
_TINY_DIAG_PRODUCT = 1e-300

DEFAULT_STOP_TOL = 1e-10

# cells of the p x p score matrix per row chunk: the initial fill scores one
# chunk at a time and a stale-row refresh gathers one for its argmax, so a
# step that makes every row stale allocates no p x p temporary; 128 KB per
# float64 temporary (1 << 13 ran the graph Gram's decompose ~10% slower)
_BLOCK_ELEMENTS = 1 << 14


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


def _scores(vals: np.ndarray, prod: np.ndarray, lam: float) -> np.ndarray:
    """Selection scores from |a_ij| and a_ii a_jj, elementwise."""
    corr = np.where(prod > _TINY_DIAG_PRODUCT, vals / np.sqrt(np.maximum(prod, _TINY_DIAG_PRODUCT)), 0.0)
    return corr + lam * vals


def _block_scores(a: SymMatrix, diag: np.ndarray, rows: np.ndarray, cols: np.ndarray, lam: float) -> np.ndarray:
    """Score of (i, j) for every i in rows and j in cols; a row's own column scores -inf."""
    scores = _scores(np.abs(a.block(rows, cols)), diag[rows][:, None] * diag[cols], lam)
    scores[rows[:, None] == cols] = -np.inf
    return scores


def decompose(
    a0: SymMatrix,
    lam: float = 0.0,
    stop_tol: float = DEFAULT_STOP_TOL,
) -> TreeletDecomposition:
    """Run the rotation loop on a copy of a similarity matrix until done or stalled.

    Each step takes the highest-scoring active pair; ties go to the
    lexicographically smallest (min, max) pair, which makes the choice
    platform-independent.  Every pair score is kept in a p x p matrix (8p^2
    bytes) whose own-index cells and retired rows and columns hold -inf.  A
    rotation changes scores only in the rotated rows and columns, so each
    step sets the retired index's row and column to -inf, rescores the
    surviving index's row and column, and refreshes a row's cached best
    partner only where that partner was one of the two rotated indices: by
    one argmax over its stored scores, in row chunks of at most
    _BLOCK_ELEMENTS cells.
    """
    return _decompose(a0.copy(), lam, stop_tol)


def _decompose(a: SymMatrix, lam: float, stop_tol: float) -> TreeletDecomposition:
    """decompose, rotating `a` itself: for callers that own the matrix."""
    if lam < 0:
        raise ValueError("lam must be >= 0")
    if stop_tol < 0:
        raise ValueError("stop_tol must be >= 0")

    p = a.p
    diag = a.diagonal()
    if not np.isfinite(a.data).all():
        raise ValueError("similarity matrix has a non-finite entry")
    if diag.min() < -1e-10:
        raise ValueError("similarity matrix has a negative diagonal entry")

    records: list[RotationRecord] = []
    active = np.ones(p, dtype=bool)
    idx = np.arange(p, dtype=np.int64)
    height = max(1, _BLOCK_ELEMENTS // p)
    scores = np.empty((p, p))
    for start in range(0, p, height):
        scores[start : start + height] = _block_scores(a, diag, idx[start : start + height], idx, lam)

    best_score = np.empty(p)
    best_j = np.empty(p, dtype=np.int64)

    def refresh(rows: np.ndarray) -> None:
        """Cache each row's best partner: its first maximum, the smallest column."""
        for start in range(0, len(rows), height):
            chunk = rows[start : start + height]
            best_j[chunk] = scores[chunk].argmax(axis=1)
            best_score[chunk] = scores[chunk, best_j[chunk]]

    refresh(idx)
    for step in range(1, p):
        i_star = int(np.argmax(best_score))  # first max = smallest row
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
        scores[alpha] = scores[:, alpha] = best_score[alpha] = -np.inf

        act_idx = np.nonzero(active)[0]
        fresh = _block_scores(a, diag, np.array([beta]), act_idx, lam)[0]
        scores[beta, act_idx] = scores[act_idx, beta] = fresh
        js = act_idx[act_idx != beta]
        stale = (best_j[js] == alpha) | (best_j[js] == beta)
        rows_f = js[~stale]
        cand = scores[rows_f, beta]
        take = (cand > best_score[rows_f]) | ((cand == best_score[rows_f]) & (beta < best_j[rows_f]))
        best_score[rows_f[take]] = cand[take]
        best_j[rows_f[take]] = beta
        refresh(np.append(js[stale], beta))

    return TreeletDecomposition(
        p=p,
        records=tuple(records),
        stop_level=len(records),
        final_diag=diag,
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
