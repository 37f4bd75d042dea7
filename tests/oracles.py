"""Test oracles: slow and exact, used only to check the library."""

import numpy as np

from treelets import (
    RocCurve,
    RotationRecord,
    SymMatrix,
    TreeletDecomposition,
    apply_rotation,
    cut,
    jacobi_coeffs,
    matching_matrix,
)
from treelets.core import DEFAULT_STOP_TOL


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


def select_pair(a: SymMatrix, active, lam: float = 0.0) -> tuple[int, int, float]:
    """Highest-scoring active pair by full enumeration of a dense copy.

    Ties resolve to the lexicographically smallest (min, max) pair.
    """
    act = np.asarray(sorted(set(int(i) for i in active)), dtype=np.int64)
    if len(act) < 2:
        raise ValueError("need at least two active indices")
    dense = a.to_dense()
    ii, jj = (act[k] for k in np.triu_indices(len(act), 1))
    vals = np.abs(dense[ii, jj])
    prod = dense[ii, ii] * dense[jj, jj]
    # below 1e-300 the correlation term is zero and the regularization term alone scores
    corr = np.where(prod > 1e-300, vals / np.sqrt(np.maximum(prod, 1e-300)), 0.0)
    scores = corr + lam * vals
    best = int(np.argmax(scores))  # first max = lexicographic winner
    return int(ii[best]), int(jj[best]), float(scores[best])


def decompose_rescan(a0: SymMatrix, lam: float = 0.0, stop_tol: float = DEFAULT_STOP_TOL):
    """decompose() with every active pair rescored at every step, and no cache."""
    a = a0.copy()
    active = list(range(a.p))
    records = []
    while len(active) >= 2:
        i, j, score = select_pair(a, active, lam)
        if score < stop_tol:
            break
        coeffs = jacobi_coeffs(a.get(i, i), a.get(j, j), a.get(i, j))
        apply_rotation(a, i, j, coeffs)
        # the smaller diagonal retires; on a tie the smaller index i does
        alpha, beta = (j, i) if a.get(j, j) < a.get(i, i) else (i, j)
        records.append(
            RotationRecord(len(records) + 1, alpha, beta, coeffs, a.get(alpha, alpha), a.get(beta, beta), score)
        )
        active.remove(alpha)
    return TreeletDecomposition(a.p, tuple(records), len(records), a.diagonal().copy(), lam)


def same_decomposition(fast: TreeletDecomposition, slow: TreeletDecomposition) -> bool:
    """Whole records equal, and final diagonals equal bit for bit."""
    return fast.records == slow.records and fast.final_diag.tobytes() == slow.final_diag.tobytes()


def roc_brute_force(tree, reference) -> RocCurve:
    """Recompute the matching matrix from scratch at every cut."""
    points = []
    for n_clusters in range(tree.n_leaves, tree.n_roots - 1, -1):
        mm = matching_matrix(cut(tree, n_clusters), reference)
        points.append((mm.fpr, mm.tpr))
    return RocCurve.from_points(points)
