"""Spectral test oracles: slow and exact, used only to check the library."""

import numpy as np

from treelets import SymMatrix, apply_rotation, jacobi_coeffs


def jacobi_eigh(a: SymMatrix, rel_tol: float = 1e-12, max_sweeps: int = 60):
    """Eigen-decomposition by cyclic Jacobi sweeps.

    Returns (eigenvalues, eigenvectors) with eigenvectors in columns, so
    a = V diag(w) Vt.  Sweeps run until every off-diagonal magnitude drops
    below rel_tol times the largest absolute entry of the input.
    """
    work = a.copy()
    p = work.p
    v = np.eye(p)
    scale = float(np.abs(work.data).max())
    if scale == 0.0:
        return np.zeros(p), v
    thresh = rel_tol * scale
    for _ in range(max_sweeps):
        rotated = False
        for i in range(p - 1):
            for j in range(i + 1, p):
                aij = work.get(i, j)
                if abs(aij) <= thresh:
                    continue
                rotated = True
                coeffs = jacobi_coeffs(work.get(i, i), work.get(j, j), aij)
                apply_rotation(work, i, j, coeffs)
                c, s = coeffs
                vi = v[:, i].copy()
                vj = v[:, j].copy()
                v[:, i] = c * vi - s * vj
                v[:, j] = s * vi + c * vj
        if not rotated:
            break
    return work.diagonal().copy(), v


def psd_sqrt(k: SymMatrix, tol: float = 1e-10) -> SymMatrix:
    """Symmetric PSD square root S with S S ~= K.  Used to check kernels and decompositions.

    Eigenvalues in [-tol, 0) are clamped to zero; anything below -tol means
    the input is not a valid similarity matrix.
    """
    w, v = jacobi_eigh(k)
    if w.min() < -tol:
        raise ValueError("kernel matrix not PSD")
    w = np.where(w < 0.0, 0.0, w)
    dense = (v * np.sqrt(w)) @ v.T
    dense = 0.5 * (dense + dense.T)
    return SymMatrix.from_dense(dense)
