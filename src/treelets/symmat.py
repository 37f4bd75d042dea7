"""Symmetric matrices with structural symmetry, and the 2x2 rotations on them.

Storage is the packed lower triangle: one cell per unordered index pair, so
`get(i, j) == get(j, i)` holds by construction, not by floating-point luck.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class RotationCoeffs(NamedTuple):
    """Cosine/sine of a plane rotation; c is kept positive, s signs it."""

    c: float
    s: float


class SymMatrix:
    """Dense symmetric p x p matrix, packed lower-triangle storage.

    Entry (i, j) with i >= j lives at data[i * (i + 1) / 2 + j]; the mirror
    entry is the same cell.
    """

    __slots__ = ("p", "data")

    def __init__(self, p: int, data: np.ndarray | None = None):
        if p < 1:
            raise ValueError("dimension must be >= 1")
        self.p = p
        size = p * (p + 1) // 2
        if data is None:
            self.data = np.zeros(size)
        else:
            if data.shape != (size,):
                raise ValueError(f"packed data must have length {size}")
            self.data = np.asarray(data, dtype=float)

    @classmethod
    def from_dense(cls, arr) -> "SymMatrix":
        """Pack a dense symmetric array; rejects asymmetric or non-finite input."""
        a = np.asarray(arr, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix")
        if not np.isfinite(a).all():
            raise ValueError("matrix has a non-finite entry")
        skew = np.abs(a - a.T).max() if a.size else 0.0
        if skew > 1e-12 * max(1.0, float(np.abs(a).max())):
            raise ValueError("matrix is not symmetric")
        p = a.shape[0]
        rows, cols = np.tril_indices(p)
        return cls(p, a[rows, cols].copy())

    def to_dense(self) -> np.ndarray:
        out = np.empty((self.p, self.p))
        rows, cols = np.tril_indices(self.p)
        out[rows, cols] = self.data
        out[cols, rows] = self.data
        return out

    def copy(self) -> "SymMatrix":
        return SymMatrix(self.p, self.data.copy())

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.p:
            raise IndexError(f"index {i} out of range for dimension {self.p}")

    def get(self, i: int, j: int) -> float:
        self._check_index(i)
        self._check_index(j)
        if i < j:
            i, j = j, i
        return float(self.data[i * (i + 1) // 2 + j])

    def set(self, i: int, j: int, value: float) -> None:
        self._check_index(i)
        self._check_index(j)
        if i < j:
            i, j = j, i
        self.data[i * (i + 1) // 2 + j] = value

    def diagonal(self) -> np.ndarray:
        idx = np.arange(self.p, dtype=np.int64)
        return self.data[idx * (idx + 1) // 2 + idx]

    def _offsets(self, rows, cols) -> np.ndarray:
        """Packed offsets of (i, j) for i in rows and j in cols, broadcast together."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        lo = np.minimum(rows, cols)
        hi = np.maximum(rows, cols)
        return hi * (hi + 1) // 2 + lo

    def block(self, rows, cols) -> np.ndarray:
        """Entries (i, j) for every i in rows and j in cols, a len(rows) x len(cols) array.

        Ids are not range-checked: this is the gather on the decomposition's hot path.
        """
        return self.data[self._offsets(np.asarray(rows)[:, None], cols)]

    def lower(self, t: int) -> np.ndarray:
        """Writable view of packed row t: entries (t, 0), ..., (t, t)."""
        self._check_index(t)
        start = t * (t + 1) // 2
        return self.data[start : start + t + 1]

    def row(self, i: int, js: np.ndarray) -> np.ndarray:
        """Entries (i, j) for each j in js, gathered from packed storage."""
        self._check_index(i)
        return self.data[self._offsets(i, js)]

    def set_row(self, i: int, js: np.ndarray, values: np.ndarray) -> None:
        self._check_index(i)
        self.data[self._offsets(i, js)] = values


def jacobi_coeffs(a_pp: float, a_qq: float, a_pq: float) -> RotationCoeffs:
    """Rotation coefficients that zero the (p, q) entry of a symmetric 2x2 block.

    Uses the round-off-stable small-tangent root: with the diagonal-gap
    ratio tau = (a_qq - a_pp) / (2 a_pq), take t = sgn(tau) / (|tau| +
    sqrt(tau^2 + 1)) (sgn(0) = +1), then c = 1 / sqrt(t^2 + 1), s = c t.
    Conjugating with J (J_pp = J_qq = c, J_pq = -J_qp = s) as Jt A J
    annihilates the off-diagonal pair exactly.
    """
    if not (np.isfinite(a_pp) and np.isfinite(a_qq) and np.isfinite(a_pq)):
        raise ValueError("non-finite matrix entry")
    if a_pq == 0.0:
        return RotationCoeffs(1.0, 0.0)
    tau = (a_qq - a_pp) / (2.0 * a_pq)
    sign = 1.0 if tau >= 0.0 else -1.0
    t = sign / (abs(tau) + np.sqrt(tau * tau + 1.0))
    c = 1.0 / np.sqrt(t * t + 1.0)
    return RotationCoeffs(float(c), float(c * t))


def apply_rotation(a: SymMatrix, p_idx: int, q_idx: int, coeffs: RotationCoeffs) -> SymMatrix:
    """In-place Jt A J on rows/columns (p_idx, q_idx); returns the same matrix.

    The (p_idx, q_idx) cell is written as literal zero so later passes see
    no residual.  Everything outside the two rows/columns is untouched.
    """
    a._check_index(p_idx)
    a._check_index(q_idx)
    if p_idx == q_idx:
        raise IndexError("rotation needs two distinct indices")
    c, s = coeffs

    others = np.arange(a.p, dtype=np.int64)
    others = others[(others != p_idx) & (others != q_idx)]
    col_p = a.row(p_idx, others)
    col_q = a.row(q_idx, others)
    a.set_row(p_idx, others, c * col_p - s * col_q)
    a.set_row(q_idx, others, s * col_p + c * col_q)

    app = a.get(p_idx, p_idx)
    aqq = a.get(q_idx, q_idx)
    apq = a.get(p_idx, q_idx)
    a.set(p_idx, p_idx, c * c * app - 2.0 * s * c * apq + s * s * aqq)
    a.set(q_idx, q_idx, s * s * app + 2.0 * s * c * apq + c * c * aqq)
    a.set(p_idx, q_idx, 0.0)
    return a
