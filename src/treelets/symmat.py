"""Symmetric matrices and the 2x2 plane rotations on them.

A SymMatrix is one dense p x p array whose mirror cells hold the same bits:
it is built symmetric by assignment (kernels.gram also computes the cells
above the diagonal in each row block's diagonal square, with the same
operations as their mirrors), and a rotation writes each rotated row to its
row and its column alike.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class RotationCoeffs(NamedTuple):
    """Cosine/sine of a plane rotation; c is kept positive, s signs it."""

    c: float
    s: float


class SymMatrix:
    """Symmetric p x p matrix held as one C-contiguous float64 array, data.

    Cells (i, j) and (j, i) hold the same bits; every way of building one
    (zeros, from_dense, kernels.gram, which writes each row block and its
    transpose as the block lands) and every rotation here keeps that.
    """

    __slots__ = ("p", "data")

    def __init__(self, p: int):
        if p < 1:
            raise ValueError("dimension must be >= 1")
        self.p = p
        self.data = np.zeros((p, p))

    @classmethod
    def from_dense(cls, arr) -> "SymMatrix":
        """Copy a dense symmetric array, its lower triangle mirrored; rejects asymmetric or non-finite input."""
        a = np.asarray(arr, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("expected a square matrix")
        if not np.isfinite(a).all():
            raise ValueError("matrix has a non-finite entry")
        skew = np.abs(a - a.T).max() if a.size else 0.0
        if skew > 1e-12 * max(1.0, float(np.abs(a).max())):
            raise ValueError("matrix is not symmetric")
        out = cls(a.shape[0])
        # picked, not summed, so a -0.0 stays -0.0
        out.data = np.where(np.tri(out.p, dtype=bool), a, a.T)
        return out

    def to_dense(self) -> np.ndarray:
        """A copy of data."""
        return self.data.copy()

    def diagonal(self) -> np.ndarray:
        """The diagonal, as a new array."""
        return self.data.diagonal().copy()


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


def apply_rotation(a: SymMatrix, p_idx: int, q_idx: int, coeffs: RotationCoeffs) -> SymMatrix:
    """In-place Jt A J on rows and columns p_idx and q_idx with the given coefficients; returns a.

    Both rows are rotated by rotate_rows and written to their rows and their
    columns.  Everything outside the two rows and columns is untouched.
    """
    for t in (p_idx, q_idx):
        if not 0 <= t < a.p:
            raise IndexError(f"index {t} out of range for dimension {a.p}")
    g = a.data
    _, row_p, row_q = rotate_rows(g[p_idx], g[q_idx], p_idx, q_idx, coeffs)
    g[p_idx] = g[:, p_idx] = row_p
    g[q_idx] = g[:, q_idx] = row_q
    return a
