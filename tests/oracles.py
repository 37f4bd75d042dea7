"""Test oracles: slow and exact, used only to check the library."""

import csv

import numpy as np

from treelets import (
    ClusterLabels,
    Dataset,
    Graph,
    GraphKernel,
    LinearKernel,
    MissingRbfKernel,
    PolynomialKernel,
    RbfKernel,
    RocCurve,
    RotationRecord,
    TreeletDecomposition,
    cut,
    jacobi_coeffs,
    matching_matrix,
)
from treelets.core import DEFAULT_STOP_TOL, _pair_rotation, _rotated_row
from treelets.io import DEFAULT_MISSING_TOKENS, MAX_VERTEX_ID, _is_header


def obs(data, i: int):
    """Observation i as eval_kernel takes it: (values, present) of a Dataset row, or (graph, vertex)."""
    if isinstance(data, Graph):
        return data, i
    return data.values[i], data.present[i]


def has_edge(graph: Graph, u: int, v: int) -> bool:
    row = graph.neighbors(u)
    at = np.searchsorted(row, v)
    return bool(at < len(row) and row[at] == v)


def _as_numeric_obs(x):
    if isinstance(x, tuple) and len(x) == 2 and isinstance(x[0], np.ndarray):
        values, present = x
        return np.asarray(values, dtype=float), np.asarray(present, dtype=bool)
    values = np.asarray(x, dtype=float)
    return values, np.ones(values.shape, dtype=bool)


def eval_kernel(spec, x1, x2) -> float:
    """Kernel value for one pair of observations, one scalar formula per kernel.

    Numeric kernels take 1-D arrays or (values, present) pairs; the graph
    kernel takes (graph, vertex) pairs as produced by obs.
    """
    if isinstance(spec, GraphKernel):
        g1, u = x1
        g2, v = x2
        if g1 is not g2:
            raise ValueError("graph kernel needs vertices of the same graph")
        if u == v:
            return float(spec.diag)
        return 1.0 if has_edge(g1, u, v) else 0.0

    v1, m1 = _as_numeric_obs(x1)
    v2, m2 = _as_numeric_obs(x2)
    if v1.shape != v2.shape:
        raise ValueError("observation dimension mismatch")

    if isinstance(spec, RbfKernel):
        d2 = float(np.sum((v1 - v2) ** 2))
        return float(np.exp(-d2 / (2.0 * spec.sigma**2)))
    if isinstance(spec, LinearKernel):
        return float(np.dot(v1, v2))
    if isinstance(spec, PolynomialKernel):
        return float((spec.alpha * np.dot(v1, v2) + spec.c0) ** spec.degree)
    if isinstance(spec, MissingRbfKernel):
        shared = m1 & m2
        count = int(shared.sum())
        if count == 0:
            raise ValueError("no shared observed attributes")
        d2 = float(np.sum((v1[shared] - v2[shared]) ** 2))
        return float(np.exp(-spec.gamma * d2 / count))
    raise TypeError(f"unknown kernel spec {spec!r}")


def kernel_distance(spec, x1, x2) -> float:
    """Feature-space distance from kernel values alone.

    d^2 = K(x1,x1) + K(x2,x2) - 2 K(x1,x2), clamped at zero against
    round-off before the square root.
    """
    d2 = eval_kernel(spec, x1, x1) + eval_kernel(spec, x2, x2) - 2.0 * eval_kernel(spec, x1, x2)
    return float(np.sqrt(max(0.0, d2)))


def _pairwise_sum(term, lo: int, n: int, shape) -> np.ndarray:
    """term(lo) + ... + term(lo + n - 1), added in the order numpy's pairwise sum adds them.

    term(c, out) writes the c-th array into out and returns it.  Runs over
    128 split at a multiple of 8 near the middle and recurse; shorter ones
    keep eight partial sums and add the tail after combining them.
    """
    if n > 128:
        half = n // 2 - (n // 2) % 8
        total = _pairwise_sum(term, lo, half, shape)
        total += _pairwise_sum(term, lo + half, n - half, shape)
        return total
    r = [term(lo + j, np.empty(shape)) for j in range(min(n, 8))]
    scratch = np.empty(shape)
    head = max(8, n - n % 8)
    for j in range(8, head):
        r[j % 8] += term(lo + j, scratch)
    # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), or a running sum under 8 terms
    pairs = ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)) if n >= 8 else ((0, j) for j in range(1, n))
    for a, b in pairs:
        r[a] += r[b]
    for j in range(head, n):
        r[0] += term(lo + j, scratch)
    return r[0]


def squared_distances_by_attribute(left, right, left_gap=None, right_gap=None) -> np.ndarray:
    """||l - r||^2 for every row l of left and r of right, one attribute at a time in numpy's pairwise order.

    Each term copies the right attribute row into the block, subtracts the
    left column in place, squares, and with gap masks (True where a value
    is missing) writes 0.0 over the term's gap rows and gap columns.
    """
    right_t = right.T.copy()

    def term(c: int, out: np.ndarray) -> np.ndarray:
        np.copyto(out, right_t[c])
        np.subtract(out, left[:, c, None], out=out)
        np.square(out, out=out)
        if left_gap is not None:
            out[np.flatnonzero(left_gap[:, c])] = 0.0
            out[:, np.flatnonzero(right_gap[:, c])] = 0.0
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        return _pairwise_sum(term, 0, left.shape[1], (len(left), len(right)))


def kernel_from_dict(payload: dict):
    """Inverse of kernels.kernel_to_dict, the kernel entry of labels files and manifests."""
    kind = payload["kind"]
    if kind == "rbf":
        return RbfKernel(sigma=payload["sigma"])
    if kind == "linear":
        return LinearKernel()
    if kind == "polynomial":
        return PolynomialKernel(alpha=payload["alpha"], c0=payload["c0"], degree=payload["degree"])
    if kind == "missing-rbf":
        return MissingRbfKernel(gamma=payload["gamma"])
    if kind == "graph":
        return GraphKernel(diag=payload["diag"])
    raise ValueError(f"unknown kernel kind {kind!r}")


def read_roc_csv(path) -> RocCurve:
    """Inverse of io.write_roc_csv."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["fpr", "tpr"]:
        raise ValueError(f"{path}: expected 'fpr,tpr' header")
    return RocCurve(points=tuple((float(f), float(t)) for f, t in rows[1:]))


def read_edge_list(path) -> Graph:
    """io.read_edge_list line by line: each line stripped, split and converted on its own.

    Ids are ASCII digits; a line of other digits is malformed.
    """
    edges = []
    max_id = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
                raise ValueError(f"{path}: line {lineno}: malformed edge {line!r}")
            u, v = int(parts[0]), int(parts[1])
            if u == v:
                raise ValueError(f"{path}: line {lineno}: self-loop at vertex {u}")
            if max(u, v) > MAX_VERTEX_ID:
                raise ValueError(f"{path}: line {lineno}: vertex id {max(u, v)} too large")
            edges.append((u, v))
            max_id = max(max_id, u, v)
    return Graph(max_id + 1, edges)


def read_csv_numeric(path, has_header=False, missing_tokens=DEFAULT_MISSING_TOKENS) -> Dataset:
    """io.read_csv_numeric cell by cell: the whole file read into a list of rows, then each
    cell parsed, checked and stored on its own.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if has_header is None:
        has_header = bool(rows) and _is_header(rows[0], missing_tokens, classes_last=False)
    offset = 2 if has_header and rows else 1
    header = [h.strip() for h in rows[0]] if offset == 2 else []
    label = header.index("label") if "label" in header else None
    rows = rows[offset - 1 :]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    cols = [c for c in range(width) if c != label]
    values = np.zeros((len(rows), len(cols)))
    present = np.zeros((len(rows), len(cols)), dtype=bool)
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {r + offset} has {len(row)} cells, expected {width}")
        for j, c in enumerate(cols):
            token = row[c].strip()
            if token in missing_tokens:
                continue
            try:
                x = float(token)
            except ValueError:
                raise ValueError(
                    f"{path}: row {r + offset} column {c + 1}: cannot parse {row[c]!r}"
                ) from None
            if not np.isfinite(x):
                raise ValueError(f"{path}: row {r + offset} column {c + 1}: non-finite value")
            values[r, j] = x
            present[r, j] = True
        if not present[r].any():
            raise ValueError(f"{path}: row {r + offset} has no observed values")
    return Dataset(values, present)


def read_class_labels(path, has_header=False) -> np.ndarray:
    """io.read_class_labels row by row from one csv.reader: each row checked and its class cell taken on its own.

    A row csv cannot split is named by file line when the reader reaches it.
    """
    classes, width, label = [], None, None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            for r, row in enumerate(reader, start=1):
                if r == 1 and has_header is None:
                    has_header = _is_header(row, DEFAULT_MISSING_TOKENS, classes_last=True)
                if r == 1 and has_header:
                    header = [h.strip() for h in row]
                    label = header.index("label") if "label" in header else None
                    continue
                if width is None:
                    width = len(row)
                    column = width - 1 if label is None else label
                    if not 0 <= column < width:
                        raise ValueError(f"{path}: row {r} has {width} cells, none in the class column")
                if len(row) != width:
                    raise ValueError(f"{path}: row {r} has {len(row)} cells, expected {width}")
                classes.append(row[column].strip())
        except csv.Error as exc:
            raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    if width is None:
        raise ValueError(f"{path}: no data rows")
    return np.array(classes)


def rotate_dense(d: np.ndarray, i: int, j: int, coeffs) -> np.ndarray:
    """Jt D J on rows/columns i and j of a dense symmetric array, in place; returns d.

    The off-plane cells of both rows are gathered, rotated and scattered to
    the rows and their mirror columns; the 2x2 block takes its closed forms,
    with the (i, j) cell a literal zero.
    """
    c, s = coeffs
    others = [k for k in range(len(d)) if k not in (i, j)]
    col_i = d[i, others].copy()
    col_j = d[j, others].copy()
    d[i, others] = d[others, i] = c * col_i - s * col_j
    d[j, others] = d[others, j] = s * col_i + c * col_j
    aii, ajj, aij = float(d[i, i]), float(d[j, j]), float(d[i, j])
    d[i, i] = c * c * aii - 2.0 * s * c * aij + s * s * ajj
    d[j, j] = s * s * aii + 2.0 * s * c * aij + c * c * ajj
    d[i, j] = d[j, i] = 0.0
    return d


def apply_rotation(g: np.ndarray, p_idx: int, q_idx: int, coeffs) -> np.ndarray:
    """In-place Jt G J on rows and columns p_idx and q_idx of a symmetric array g, by decompose's formulas; returns g.

    Both rows are rotated whole (_rotated_row), the 2x2 block is overwritten
    by its closed forms (_pair_rotation) with the (p_idx, q_idx) cell a
    literal zero, and each new row is written to its row and its column.
    Everything outside the two rows and columns is untouched.
    """
    for t in (p_idx, q_idx):
        if not 0 <= t < len(g):
            raise IndexError(f"index {t} out of range for dimension {len(g)}")
    if p_idx == q_idx:
        raise IndexError("rotation needs two distinct indices")
    i, j = p_idx, q_idx
    _, d_i, d_j = _pair_rotation(g, i, j, coeffs)
    new_i, new_j = _rotated_row(g, i, j, coeffs, i), _rotated_row(g, i, j, coeffs, j)
    new_i[i], new_j[j] = d_i, d_j
    new_i[j] = new_j[i] = 0.0
    g[i] = g[:, i] = new_i
    g[j] = g[:, j] = new_j
    return g


def jacobi_eigh(a: np.ndarray, rel_tol: float = 1e-12, max_sweeps: int = 60):
    """Eigen-decomposition by cyclic Jacobi sweeps.

    Returns (eigenvalues, eigenvectors) with eigenvectors in columns, so
    a = V diag(w) Vt.  Sweeps run until every off-diagonal magnitude drops
    below rel_tol times the largest absolute entry of the input.
    """
    work = np.array(a, dtype=float)
    p = len(work)
    v = np.eye(p)
    scale = float(np.abs(work).max())
    if scale == 0.0:
        return np.zeros(p), v
    thresh = rel_tol * scale
    for _ in range(max_sweeps):
        rotated = False
        for i in range(p - 1):
            for j in range(i + 1, p):
                aij = float(work[i, j])
                if abs(aij) <= thresh:
                    continue
                rotated = True
                coeffs = jacobi_coeffs(float(work[i, i]), float(work[j, j]), aij)
                rotate_dense(work, i, j, coeffs)
                c, s = coeffs
                vi = v[:, i].copy()
                vj = v[:, j].copy()
                v[:, i] = c * vi - s * vj
                v[:, j] = s * vi + c * vj
        if not rotated:
            break
    return np.diag(work).copy(), v


def psd_sqrt(k: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Symmetric PSD square root S with S S ~= K.  Used to check kernels and decompositions.

    Eigenvalues in [-tol, 0) are clamped to zero; anything below -tol means
    the input is not a valid similarity matrix.
    """
    w, v = jacobi_eigh(k)
    if w.min() < -tol:
        raise ValueError("kernel matrix not PSD")
    w = np.where(w < 0.0, 0.0, w)
    dense = (v * np.sqrt(w)) @ v.T
    return 0.5 * (dense + dense.T)  # symmetric bit for bit: the sum commutes


def select_pair(a, active, lam: float = 0.0) -> tuple[int, int, float]:
    """Highest-scoring active pair of a dense symmetric array, by full enumeration.

    Ties resolve to the lexicographically smallest (min, max) pair.
    """
    act = np.asarray(sorted(set(int(i) for i in active)), dtype=np.int64)
    if len(act) < 2:
        raise ValueError("need at least two active indices")
    dense = np.asarray(a, dtype=float)
    ii, jj = (act[k] for k in np.triu_indices(len(act), 1))
    vals = np.abs(dense[ii, jj])
    prod = dense[ii, ii] * dense[jj, jj]
    # below 1e-300 the correlation term is zero and the regularization term alone scores
    corr = np.where(prod > 1e-300, vals / np.sqrt(np.maximum(prod, 1e-300)), 0.0)
    scores = corr + lam * vals
    best = int(np.argmax(scores))  # first max = lexicographic winner
    return int(ii[best]), int(jj[best]), float(scores[best])


def decompose_rescan(a0: np.ndarray, lam: float = 0.0, stop_tol: float = DEFAULT_STOP_TOL):
    """decompose() on a dense copy of a symmetric array, with every active pair rescored at every step, and no cache."""
    d = np.array(a0, dtype=float)
    active = list(range(len(d)))
    records = []
    stop_score = None
    while len(active) >= 2:
        i, j, score = select_pair(d, active, lam)
        if score < stop_tol:
            stop_score = score
            break
        coeffs = jacobi_coeffs(float(d[i, i]), float(d[j, j]), float(d[i, j]))
        rotate_dense(d, i, j, coeffs)
        # the smaller diagonal retires; on a tie the smaller index i does
        alpha, beta = (j, i) if d[j, j] < d[i, i] else (i, j)
        records.append(
            RotationRecord(len(records) + 1, alpha, beta, coeffs, float(d[alpha, alpha]), float(d[beta, beta]), score)
        )
        active.remove(alpha)
    return TreeletDecomposition(len(d), tuple(records), np.diag(d).copy(), lam, stop_score)


def same_decomposition(fast: TreeletDecomposition, slow: TreeletDecomposition) -> bool:
    """Whole records and stop scores equal, and final diagonals equal bit for bit."""
    same = fast.records == slow.records and fast.stop_score == slow.stop_score
    return same and fast.final_diag.tobytes() == slow.final_diag.tobytes()


class UnionFind:
    """Disjoint sets with path compression; union(child, kept) makes kept's root the root."""

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


def union_find_labels(tree, n_merges: int) -> ClusterLabels:
    """Flat clustering after the first n_merges merges, replayed through a union-find.

    Clusters are numbered in order of their smallest member.
    """
    uf = UnionFind(tree.n_leaves)
    for m in tree.merges[:n_merges]:
        uf.union(m.removed, m.kept)
    roots = [uf.find(leaf) for leaf in range(tree.n_leaves)]
    order: dict[int, int] = {}
    for r in roots:
        order.setdefault(r, len(order))
    return ClusterLabels(assignments=[order[r] for r in roots], n_clusters=len(order))


def roc_curve_from_points(points) -> RocCurve:
    """RocCurve.from_points as a set of the points and the two anchors, sorted."""
    pts = {(float(f), float(t)) for f, t in points}
    pts.add((0.0, 0.0))
    pts.add((1.0, 1.0))
    return RocCurve(points=tuple(sorted(pts)))


def roc_brute_force(tree, reference) -> RocCurve:
    """Recompute the matching matrix from scratch at every cut."""
    points = []
    for n_clusters in range(tree.n_leaves, tree.n_roots - 1, -1):
        mm = matching_matrix(cut(tree, n_clusters), reference)
        points.append((mm.fpr, mm.tpr))
    return RocCurve.from_points(points)
