"""Symmetric matrices with structural symmetry, and the 2x2 rotations on them.

Storage is the packed lower triangle: one cell per unordered index pair, so
`get(i, j) == get(j, i)` holds by construction, not by floating-point luck.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# side of the square blocks to_dense mirrors one at a time: 128 KB per float64
# block, so a block's source rows and target columns stay in cache
_BLOCK_SIDE = 128


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
        """Dense p x p copy: each packed row into its row, and its column within the diagonal block,
        then the other blocks mirrored square by square.  Only assigns, so a -0.0 stays -0.0.
        """
        p = self.p
        out = np.empty((p, p))
        for i in range(p):
            row = self.lower(i)
            out[i, : i + 1] = row
            top = i - i % _BLOCK_SIDE  # first row of i's diagonal block
            out[top:i, i] = row[top:i]
        for r in range(0, p, _BLOCK_SIDE):
            rows = slice(r, r + _BLOCK_SIDE)
            for c in range(r + _BLOCK_SIDE, p, _BLOCK_SIDE):
                out[rows, c : c + _BLOCK_SIDE] = out[c : c + _BLOCK_SIDE, rows].T
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
        return float(self.data[self._starts[i] + j])

    def set(self, i: int, j: int, value: float) -> None:
        self._check_index(i)
        self._check_index(j)
        if i < j:
            i, j = j, i
        self.data[self._starts[i] + j] = value

    def diagonal(self) -> np.ndarray:
        return self.data[self._starts[1:] - 1]  # (i, i) is the last cell of packed row i

    def lower(self, t: int) -> np.ndarray:
        """Writable view of packed row t: entries (t, 0), ..., (t, t)."""
        self._check_index(t)
        return self.data[self._starts[t] : self._starts[t + 1]]

    def _cells(self, i: int) -> tuple[slice, np.ndarray]:
        """Where entries (i, 0), ..., (i, p - 1) live: packed row i, then column i below the diagonal."""
        self._check_index(i)
        s = self._starts
        return slice(s[i], s[i + 1]), s[i + 1 : -1] + i

    def row(self, i: int) -> np.ndarray:
        """Entries (i, 0), ..., (i, p - 1), gathered into a new array."""
        head, tail = self._cells(i)
        return np.concatenate((self.data[head], self.data[tail]))


def jacobi_coeffs(a_pp: float, a_qq: float, a_pq: float) -> RotationCoeffs:
    """Rotation coefficients that zero the (p, q) entry of a symmetric 2x2 block.

    Uses the round-off-stable small-tangent root: with the diagonal-gap
    ratio tau = (a_qq - a_pp) / (2 a_pq), take t = sgn(tau) / (|tau| +
    sqrt(tau^2 + 1)) (sgn(0) = +1), then c = 1 / sqrt(t^2 + 1), s = c t.
    Conjugating with J (J_pp = J_qq = c, J_pq = -J_qp = s) as Jt A J
    annihilates the off-diagonal pair exactly.
    """
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


def rotate_rows(
    row_p: np.ndarray, row_q: np.ndarray, p_idx: int, q_idx: int, coeffs: RotationCoeffs | None = None
) -> tuple[RotationCoeffs, np.ndarray, np.ndarray]:
    """Rows p_idx and q_idx of Jt A J from rows p_idx and q_idx of a symmetric A; returns new arrays.

    coeffs None takes jacobi_coeffs of the 2x2 block as read from the rows.
    Each row is rotated whole, then the block is overwritten by its closed
    forms, with the (p_idx, q_idx) cell a literal zero so later passes see no
    residual.  Column t of the result is entry (p_idx, t) or (q_idx, t) of
    the rotated matrix, and also its mirror.
    """
    if p_idx == q_idx:
        raise IndexError("rotation needs two distinct indices")
    app = float(row_p[p_idx])
    aqq = float(row_q[q_idx])
    apq = float(row_p[q_idx])
    if coeffs is None:
        coeffs = jacobi_coeffs(app, aqq, apq)
    c, s = coeffs

    new_p = c * row_p - s * row_q
    new_q = s * row_p + c * row_q
    new_p[p_idx] = c * c * app - 2.0 * s * c * apq + s * s * aqq
    new_q[q_idx] = s * s * app + 2.0 * s * c * apq + c * c * aqq
    new_p[q_idx] = new_q[p_idx] = 0.0
    return coeffs, new_p, new_q


def rotate_pair(
    a: SymMatrix, p_idx: int, q_idx: int, coeffs: RotationCoeffs | None = None
) -> tuple[RotationCoeffs, np.ndarray, np.ndarray]:
    """In-place Jt A J on rows/columns (p_idx, q_idx); returns the coefficients and both rotated rows.

    Each row is gathered once, rotated by rotate_rows and written back to the
    same cells.  Everything outside the two rows/columns is untouched.
    """
    head_p, tail_p = a._cells(p_idx)
    head_q, tail_q = a._cells(q_idx)
    data = a.data
    row_p = np.concatenate((data[head_p], data[tail_p]))
    row_q = np.concatenate((data[head_q], data[tail_q]))
    coeffs, new_p, new_q = rotate_rows(row_p, row_q, p_idx, q_idx, coeffs)
    data[head_p] = new_p[: p_idx + 1]
    data[tail_p] = new_p[p_idx + 1 :]
    data[head_q] = new_q[: q_idx + 1]
    data[tail_q] = new_q[q_idx + 1 :]
    return coeffs, new_p, new_q


def apply_rotation(a: SymMatrix, p_idx: int, q_idx: int, coeffs: RotationCoeffs) -> SymMatrix:
    """rotate_pair with the given coefficients; returns the same matrix."""
    rotate_pair(a, p_idx, q_idx, coeffs)
    return a
