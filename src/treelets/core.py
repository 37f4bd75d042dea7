"""Greedy multiscale decomposition of a similarity matrix by plane rotations.

Each step scores every active pair by normalized similarity, rotates the
winning pair so its off-diagonal entry becomes exactly zero, retires the
rotated index with the smaller diagonal, and records the step.  The record
sequence simultaneously encodes an orthogonal basis per level and a merge
tree over the observations.  The 2x2 Jacobi rotation's formulas live here
too, in _pair_rotation and _rotated_row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# below this diagonal product the correlation term is treated as zero so the
# regularization term alone can still drive pair selection
_TINY_DIAG_PRODUCT = 1e-300

DEFAULT_STOP_TOL = 1e-10

# the largest lambda.  decompose's entry bound keeps every entry within
# sqrt(float max) / 2 throughout the loop, so lam |a_ij| stays within
# float max / 2, and a pair score corr + lam |a_ij| stays finite
MAX_LAM = math.sqrt(np.finfo(float).max)

# cells of one row chunk of the first scan (so it allocates no p x p
# temporary) and of one chunk a compaction moves: 64 KB per float64 chunk.
# Budgets of 1 << 12 to 1 << 16 ran the three bench Grams' decompose level
# (2 vCPUs); the first scan holds about four chunks at once (|a|, the scores,
# and a transient copy numpy's broadcast product takes), under 0.3 MB here
_BLOCK_ELEMENTS = 1 << 13

# when the active count falls to 1 / _COMPACT_SHRINK of the stored size, and
# that is above _COMPACT_MIN, the active block is moved to the front of the dense
# Gram, and the loop goes on at the smaller size.  Floors of 16 to 256 ran the
# three bench Grams' decompose level (2 vCPUs); never compacting ran the
# 1000-row RBF and 1080-row masked Grams 10-13 % slower and the 700-vertex
# graph 6-9 % slower.  A shrink of 1.5 ran level with 2.
_COMPACT_SHRINK = 2
_COMPACT_MIN = 64


class RotationCoeffs(NamedTuple):
    """Cosine/sine of a plane rotation; c is kept positive, s signs it."""

    c: float
    s: float


def jacobi_coeffs(a_pp: float, a_qq: float, a_pq: float) -> RotationCoeffs:
    """Rotation coefficients that zero the (p, q) entry of a symmetric 2x2 block.

    Uses the round-off-stable small-tangent root: with the diagonal-gap
    ratio tau = (a_qq - a_pp) / (2 a_pq), take t = sgn(tau) / (|tau| +
    sqrt(tau^2 + 1)) (sgn(0) = +1), then c = 1 / sqrt(t^2 + 1), s = c t.
    Conjugating with J (J_pp = J_qq = c, J_pq = -J_qp = s) as Jt A J
    annihilates the off-diagonal pair exactly.
    """
    a_pp, a_qq, a_pq = float(a_pp), float(a_qq), float(a_pq)  # a numpy scalar warns where a float overflows
    if not (math.isfinite(a_pp) and math.isfinite(a_qq) and math.isfinite(a_pq)):
        raise ValueError("non-finite matrix entry")
    if a_pq == 0.0:
        return RotationCoeffs(1.0, 0.0)
    tau = (a_qq - a_pp) / (2.0 * a_pq)
    sign = 1.0 if tau >= 0.0 else -1.0
    # math.sqrt rounds correctly, as np.sqrt does, without a numpy scalar per call
    t = sign / (abs(tau) + math.sqrt(tau * tau + 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    return RotationCoeffs(float(c), float(c * t))


def _pair_rotation(
    g: np.ndarray, i: int, j: int, coeffs: RotationCoeffs | None = None
) -> tuple[RotationCoeffs, float, float]:
    """The coefficients of Jt G J on rows and columns i and j of a symmetric array g, and its new (i, i) and (j, j) cells.

    coeffs None takes jacobi_coeffs of the 2x2 block; the new diagonals are
    the block's closed forms.
    """
    a_ii, a_jj, a_ij = float(g[i, i]), float(g[j, j]), float(g[i, j])
    if coeffs is None:
        coeffs = jacobi_coeffs(a_ii, a_jj, a_ij)
    c, s = coeffs
    return coeffs, c * c * a_ii - 2.0 * s * c * a_ij + s * s * a_jj, s * s * a_ii + 2.0 * s * c * a_ij + c * c * a_jj


def _rotated_row(g: np.ndarray, i: int, j: int, coeffs: RotationCoeffs, t: int) -> np.ndarray:
    """Row t (i or j) of Jt G J, as a new array; its cells in columns i and j are left to the caller."""
    c, s = coeffs
    return c * g[i] - s * g[j] if t == i else s * g[i] + c * g[j]


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
    final_diag: np.ndarray
    lam: float
    # best remaining pair score when the loop stalled below stop_tol; None when it completed
    stop_score: float | None = None
    # work counters of the pair search, not part of the result: markings of
    # stale rows as lazy, lazy rows rescanned at the top
    rows_made_lazy: int = 0
    lazy_rescans: int = 0
    # times the active block was moved to the front of the dense Gram
    compactions: int = 0

    def __eq__(self, other):  # by value: the generated one would compare arrays to a truth value
        if not isinstance(other, TreeletDecomposition):
            return NotImplemented
        mine = (self.p, self.records, self.lam, self.stop_score)
        same = mine == (other.p, other.records, other.lam, other.stop_score)
        return same and np.array_equal(self.final_diag, other.final_diag)

    @property
    def stop_level(self) -> int:
        """Number of steps taken: the deepest level with a basis."""
        return len(self.records)

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
        return _rotate(self.records[:k], np.eye(self.p))


def _rotate(records, w: np.ndarray) -> np.ndarray:
    """Apply each record's rotation, in order, to axis 0 of w in place; returns w."""
    for rec in records:
        lo, hi = rec.axes
        w[lo], w[hi] = _rotated_row(w, lo, hi, rec.coeffs, lo), _rotated_row(w, lo, hi, rec.coeffs, hi)
    return w


def _scores(vals: np.ndarray, prod: np.ndarray, lam: float) -> np.ndarray:
    """Selection scores from |a_ij| and a_ii a_jj, elementwise; written over prod, which callers own."""
    # not <=: a NaN product scores 0 too, and a NaN minimum takes the masked path
    tiny = None
    if not prod.min() > _TINY_DIAG_PRODUCT:  # above it, the maximum changes nothing
        tiny = ~(prod > _TINY_DIAG_PRODUCT)
        np.maximum(prod, _TINY_DIAG_PRODUCT, out=prod)
    corr = np.divide(vals, np.sqrt(prod, out=prod), out=prod)
    if tiny is not None:
        np.putmask(corr, tiny, 0.0)
    # corr >= +0 and vals is finite, so at lam 0 the sum would be corr bit for bit
    if lam:
        corr += lam * vals
    return corr


def _first_scan(g: np.ndarray, diag: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Each row's best partner (its first maximum) and score, in row chunks of at most _BLOCK_ELEMENTS cells.

    Nothing is retired yet, so only each row's own cell is masked.
    """
    p = len(g)
    height = max(1, _BLOCK_ELEMENTS // p)
    best_j = np.empty(p, dtype=np.intp)
    best_score = np.empty(p)
    buf = np.empty((min(height, p), p))  # |a| of each chunk
    for r in range(0, p, height):
        rows = g[r : r + height]
        chunk = _scores(np.abs(rows, out=buf[: len(rows)]), diag[r : r + height, None] * diag, lam)
        np.fill_diagonal(chunk[:, r:], -np.inf)
        best_j[r : r + height] = chunk.argmax(axis=1)
        best_score[r : r + height] = chunk.max(axis=1)  # the value at the argmax, also when it is NaN
    return best_j, best_score


def check_params(lam: float, stop_tol: float) -> None:
    """Refuse a lambda or stop_tol under which a pair score or the stop test means nothing."""
    if not 0 <= lam <= MAX_LAM:  # not <: a NaN fails
        raise ValueError(f"lam must be in [0, sqrt(float max) = {MAX_LAM:.6g}], not {lam}")
    if not stop_tol >= 0:
        raise ValueError(f"stop_tol must be >= 0, not {stop_tol}")


def decompose(a, lam: float = 0.0, stop_tol: float = DEFAULT_STOP_TOL) -> TreeletDecomposition:
    """Run the rotation loop on a copy of a symmetric array-like a until done or stalled; a is not modified.

    a must be square, non-empty, finite and symmetric within 1e-12 of its
    largest magnitude (a skew that overflows is refused).  The loop holds
    one p x p array g (8p^2 bytes), here a C-contiguous copy of a with its
    lower triangle on both sides; fit_predict runs it (_decompose) on the
    Gram it built instead.

    Each step takes the highest-scoring active pair; ties go to the
    lexicographically smallest (min, max) pair, which makes the choice
    platform-independent.  Each step takes the coefficients and both new
    diagonals from the closed forms of the pair's 2x2 block
    (_pair_rotation), marks the retired index, rotates the surviving index's
    row alone (_rotated_row) and writes it to its row and its column of g,
    and rescores it.  The retired index's row and column are left stale:
    its row is never read again, and its column is masked where a row is
    read.  No pair score is stored: a row is scored where it is read, by the
    chunked first scan or by one scorer (a lazy row's rescan, the survivor's
    row), with -inf at its own and at retired columns.

    When the active count falls to half the stored size len(g), and that is
    above _COMPACT_MIN, the active block is moved to the front of g's own
    buffer, in order and in place, and the per-index arrays with it.  Later
    steps touch only the active entries of each row, and the index order, so
    every tie rule below, is unchanged.

    Each row caches its best partner (its first maximum) and score, or, for
    a lazy row, partner -1 and an upper bound on its best (lazy greedy
    evaluation, Minoux 1978).  A row whose partner was one of the two
    rotated indices is stale: its other scores did not move, so its old best
    bounds them.  Where the survivor's new score beats a row's cached one,
    the survivor is its partner, exact; a stale row not beaten goes lazy.  A
    step takes the first maximum of the cached scores, and while that row is
    lazy it rescans that row alone and takes the first maximum again.  The
    row taken is then exact and every other row's best is at or below its
    cached value, so the pair, the tie rules and the stop test are those of
    an exact rescan of every row.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not a.size:
        raise ValueError("dimension must be >= 1")
    if not np.isfinite(a).all():
        raise ValueError("matrix has a non-finite entry")
    with np.errstate(over="ignore"):  # a skew that overflows is inf, and refused
        skew = a - a.T
    # max and -min, not abs: one p x p temporary, dropped before the copy
    skew = max(skew.max(), -skew.min())
    if skew > 1e-12 * max(1.0, a.max(), -a.min()):
        raise ValueError("matrix is not symmetric")
    # picked, not summed, so a -0.0 stays -0.0; np.where's result is a new C-ordered array
    return _decompose(np.where(np.tri(len(a), dtype=bool), a, a.T), lam, stop_tol)


def _decompose(g: np.ndarray, lam: float = 0.0, stop_tol: float = DEFAULT_STOP_TOL) -> TreeletDecomposition:
    """decompose's loop on g, a C-contiguous symmetric p x p array, which it rotates and compacts in place.

    Each step writes one row and one column of g, the survivor's; g's
    contents mean nothing once it returns.
    """
    check_params(lam, stop_tol)

    p = len(g)
    final_diag = diag = g.diagonal().copy()
    # ahead of the loop; min and max propagate NaN and +-inf and make no
    # temporary.  Active cells evolve as under whole rotations, which keep
    # the Frobenius norm, at most p max|a|, so every active entry and
    # diagonal stays within it.  A stale cell, in a retired column of an
    # active row, only passes through orthogonal 2x2 maps whose other entry
    # is dropped, so that column's norm over the active rows never grows,
    # and the cell stays within the same bound.  So a rotation's
    # intermediates stay within 3x it, and a diagonal product a_ii a_jj
    # within its square: at max|a| <= sqrt(float max) / 2p nothing in the
    # loop overflows, _scores' divide included
    lo, hi = g.min(), g.max()
    bound = np.sqrt(np.finfo(float).max) / (2 * p)
    if not max(-lo, hi) <= bound:  # not >: a NaN fails
        raise ValueError(
            f"similarity matrix has a non-finite entry or one above sqrt(float max) / 2p = {bound:.6g},"
            " where a rotation or a pair score could overflow"
        )
    if diag.min() < -1e-10:
        raise ValueError("similarity matrix has a negative diagonal entry")

    # every per-index array below is indexed by storage position; ids maps a
    # position to its sample index, and compaction keeps both in index order
    records: list[RotationRecord] = []
    ids = np.arange(p)
    retired = np.zeros(p, dtype=bool)
    cells = g.reshape(-1)  # g's buffer; a len(g) x len(g) block at its front is in use
    made_lazy = rescans = compactions = 0

    def rescore(i: int, vals: np.ndarray) -> np.ndarray:
        """Row i's scores from its |a| vals, -inf at its own and retired columns; caches their first maximum."""
        row = _scores(vals, diag[i] * diag, lam)
        np.putmask(row, retired, -np.inf)  # assigned: an overflowed +inf plus -inf would be NaN
        row[i] = -np.inf
        best_j[i] = j = int(row.argmax())
        best_score[i] = row[j]
        return row

    # best_j -1: no partner cached, for a lazy row (best_score bounds its
    # best) and for a retired one (best_score -inf)
    best_j, best_score = _first_scan(g, diag, lam)
    stop_score = None
    for step in range(1, p):
        i_star = int(best_score.argmax())  # first max = smallest row
        while best_j[i_star] < 0:  # a lazy bound on top: rescan that row alone
            rescore(i_star, np.abs(g[i_star]))
            rescans += 1
            i_star = int(best_score.argmax())
        score = float(best_score[i_star])
        j_star = int(best_j[i_star])
        i_sel, j_sel = min(i_star, j_star), max(i_star, j_star)

        if score < stop_tol:
            stop_score = score
            break

        coeffs, diag[i_sel], diag[j_sel] = _pair_rotation(g, i_sel, j_sel)

        if diag[i_sel] < diag[j_sel]:
            alpha, beta = i_sel, j_sel
        elif diag[j_sel] < diag[i_sel]:
            alpha, beta = j_sel, i_sel
        else:
            alpha, beta = i_sel, j_sel  # equal diagonals: retire the smaller index
        records.append(
            RotationRecord(
                step=step,
                alpha=int(ids[alpha]),
                beta=int(ids[beta]),
                coeffs=coeffs,
                diag_alpha=float(diag[alpha]),
                diag_beta=float(diag[beta]),
                score=score,
            )
        )
        retired[alpha] = True
        best_j[alpha] = -1
        best_score[alpha] = -np.inf  # alpha's row is never read again; its column is masked on read

        # beta's row alone is rotated; alpha's row and column are left stale
        vals = _rotated_row(g, i_sel, j_sel, coeffs, beta)
        vals[beta] = diag[beta]
        g[beta] = g[:, beta] = vals
        fresh = rescore(beta, np.abs(vals, out=vals))  # beta's whole row is fresh: it needs no rescan
        stale = (best_j == alpha) | (best_j == beta)
        stale[beta] = False  # at the last step beta's row is all -inf: its cached partner 0 may be alpha
        np.putmask(best_j, stale, -1)  # its other scores did not move: its old best bounds them
        made_lazy += int(np.count_nonzero(stale))
        # none of a row's other scores is above its cached one, or equal to it
        # before its partner.  So beta is the first maximum of a row whose
        # score fresh beats, or ties before its partner (never a lazy or
        # retired row's -1), and that row is exact
        take = (fresh > best_score) | ((fresh == best_score) & (beta < best_j))
        np.putmask(best_score, take, fresh)
        np.putmask(best_j, take, beta)

        live = p - step
        if len(g) > _COMPACT_MIN and live * _COMPACT_SHRINK <= len(g):
            # move the active block to the front, in order: first maxima and
            # the beta < best_j rule see the same order as before
            keep = np.flatnonzero(~retired)
            final_diag[ids] = diag
            old = g
            g = cells[: live * live].reshape(live, live)
            height = max(1, _BLOCK_ELEMENTS // len(old))
            # in row chunks: row t lands at or before its source row keep[t], and
            # before every row not yet moved
            for start in range(0, live, height):
                moved = keep[start : start + height]
                g[start : start + len(moved)] = old[moved].take(keep, axis=1)
            ids, diag, best_score = ids[keep], diag[keep], best_score[keep]
            best_j = best_j[keep]  # an exact row's partner is active, so it is in keep
            best_j = np.where(best_j < 0, -1, np.searchsorted(keep, best_j))
            retired = np.zeros(live, dtype=bool)
            compactions += 1

    final_diag[ids] = diag
    return TreeletDecomposition(
        p=p,
        records=tuple(records),
        final_diag=final_diag,
        lam=lam,
        stop_score=stop_score,
        rows_made_lazy=made_lazy,
        lazy_rescans=rescans,
        compactions=compactions,
    )


def apply_basis(decomp: TreeletDecomposition, k: int, v) -> np.ndarray:
    """Level-k basis representation of v: the first k rotations applied in order."""
    if not 0 <= k <= decomp.stop_level:
        raise ValueError(f"level {k} outside [0, {decomp.stop_level}]")
    w = np.asarray(v, dtype=float).copy()
    if w.shape != (decomp.p,):
        raise ValueError(f"vector must have length {decomp.p}")
    return _rotate(decomp.records[:k], w)


def compress(decomp: TreeletDecomposition, k: int, v, epsilon: float) -> np.ndarray:
    """Level-k representation with small detail coordinates dropped.

    Coordinates outside the level-k scaling set whose magnitude falls below
    epsilon are zeroed; scaling coordinates always survive.
    """
    if not epsilon >= 0:  # not <: a NaN fails
        raise ValueError("epsilon must be >= 0")
    w = apply_basis(decomp, k, v)
    keep = np.zeros(decomp.p, dtype=bool)
    keep[decomp.scaling_set(k)] = True
    drop = ~keep & (np.abs(w) < epsilon)
    w[drop] = 0.0
    return w
