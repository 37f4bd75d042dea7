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

    Entry (i, j) with i >= j lives at data[s_i + j], where the row start
    s_t = t (t + 1) / 2 is _starts[t]; the mirror entry is the same cell.
    """

    __slots__ = ("p", "data", "_starts")

    def __init__(self, p: int, data: np.ndarray | None = None):
        if p < 1:
            raise ValueError("dimension must be >= 1")
        self.p = p
        t = np.arange(p + 1, dtype=np.int64)
        self._starts = t * (t + 1) // 2
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
        return self.data[self._starts[1:] - 1]  # (i, i) is the last cell of packed row i

    def lower(self, t: int) -> np.ndarray:
        """Writable view of packed row t: entries (t, 0), ..., (t, t)."""
        self._check_index(t)
        return self.data[self._starts[t] : self._starts[t + 1]]

    def row(self, i: int) -> np.ndarray:
        """Entries (i, 0), ..., (i, p - 1): packed row i, then column i below the diagonal."""
        self._check_index(i)
        s = self._starts
        return np.concatenate((self.data[s[i] : s[i + 1]], self.data[s[i + 1 : -1] + i]))

    def set_row(self, i: int, values: np.ndarray) -> None:
        """Write entries (i, 0), ..., (i, p - 1); the mirror cells are the same cells."""
        self._check_index(i)
        s = self._starts
        self.data[s[i] : s[i + 1]] = values[: i + 1]
        self.data[s[i + 1 : -1] + i] = values[i + 1 :]


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

    Both rows are rotated whole; the 2x2 block is then overwritten by its
    closed forms, with the (p_idx, q_idx) cell a literal zero so later passes
    see no residual.  Everything outside the two rows/columns is untouched.
    """
    a._check_index(p_idx)
    a._check_index(q_idx)
    if p_idx == q_idx:
        raise IndexError("rotation needs two distinct indices")
    c, s = coeffs

    row_p = a.row(p_idx)
    row_q = a.row(q_idx)
    app = float(row_p[p_idx])
    aqq = float(row_q[q_idx])
    apq = float(row_p[q_idx])
    new_p = c * row_p - s * row_q
    new_q = s * row_p + c * row_q
    new_p[p_idx] = c * c * app - 2.0 * s * c * apq + s * s * aqq
    new_q[q_idx] = s * s * app + 2.0 * s * c * apq + c * c * aqq
    new_p[q_idx] = new_q[p_idx] = 0.0
    a.set_row(p_idx, new_p)
    a.set_row(q_idx, new_q)
    return a
