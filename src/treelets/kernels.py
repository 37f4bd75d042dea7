"""Kernel configurations and Gram-matrix construction.

Numeric kernels operate on observation rows (optionally with a presence
mask); the graph kernel operates on vertex ids of an undirected graph.
Every kernel here is symmetric positive semi-definite on the data it is
meant for, which is what lets the Gram matrix stand in for a covariance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import ClassVar, Union

import numpy as np

from .symmat import SymMatrix


@dataclass(frozen=True)
class RbfKernel:
    """exp(-||x1 - x2||^2 / (2 sigma^2)); values in (0, 1]."""

    kind: ClassVar[str] = "rbf"
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("rbf sigma must be > 0")


@dataclass(frozen=True)
class LinearKernel:
    """Plain inner product <x1, x2>."""

    kind: ClassVar[str] = "linear"


@dataclass(frozen=True)
class PolynomialKernel:
    """(alpha <x1, x2> + c0) ** degree."""

    kind: ClassVar[str] = "polynomial"
    alpha: float
    c0: float
    degree: int

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("polynomial degree must be >= 1")


@dataclass(frozen=True)
class MissingRbfKernel:
    """RBF over the attributes observed in both rows.

    K(u, v) = exp(-gamma / |E| * sum_{i in E} (u_i - v_i)^2) where E is the
    set of indices present in both u and v.  E must be non-empty.
    """

    kind: ClassVar[str] = "missing-rbf"
    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("missing-rbf gamma must be > 0")


@dataclass(frozen=True)
class GraphKernel:
    """diag on the diagonal, 1 for adjacent vertices, 0 otherwise.

    With diag at least the maximum vertex degree the Gram matrix is
    diagonally dominant, hence PSD.
    """

    kind: ClassVar[str] = "graph"
    diag: float

    def __post_init__(self):
        if not self.diag > 0:
            raise ValueError("graph kernel diag must be > 0")


KernelSpec = Union[RbfKernel, LinearKernel, PolynomialKernel, MissingRbfKernel, GraphKernel]


def kernel_to_dict(spec: KernelSpec) -> dict:
    """The kernel entry of labels files and manifests: its kind and its parameters."""
    return {"kind": spec.kind, **asdict(spec)}


class Dataset:
    """n x p numeric observations with an explicit presence mask."""

    __slots__ = ("values", "present")

    def __init__(self, values, present=None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be a 2-D array")
        if present is None:
            present = np.ones(values.shape, dtype=bool)
        else:
            present = np.asarray(present, dtype=bool)
            if present.shape != values.shape:
                raise ValueError("present mask shape must match values")
        if not np.isfinite(values[present]).all():
            raise ValueError("present entries must be finite")
        if values.shape[0] and not present.any(axis=1).all():
            raise ValueError("every row needs at least one present attribute")
        self.values = values
        self.present = present

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    @property
    def fully_present(self) -> bool:
        return bool(self.present.all())


class Graph:
    """Undirected simple graph on vertices 0..n-1, held as CSR arrays.

    Vertex u's neighbours are indices[indptr[u]:indptr[u + 1]], sorted and
    int64; degrees[u] is their count.  Duplicate and reversed edges collapse.
    """

    __slots__ = ("n_vertices", "indptr", "indices", "degrees")

    def __init__(self, n_vertices: int, edges):
        if n_vertices < 0:
            raise ValueError("vertex count must be >= 0")
        self.n_vertices = n = n_vertices
        pairs = np.array(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        u, v = pairs.reshape(len(pairs), 2).T
        bad = (u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n)
        if bad.any():  # the first bad edge, as a loop over the edges would name it
            a, b = pairs[np.argmax(bad)]
            raise ValueError(f"self-loop at vertex {a}" if a == b else f"edge ({a}, {b}) out of range")
        # owner * n + neighbour keys, both ways round; sorted and masked (np.unique hashes, 15x slower)
        keys = np.sort(np.concatenate((u * n + v, v * n + u)))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        owners, self.indices = np.divmod(keys, n)
        self.degrees = np.bincount(owners, minlength=n)
        self.indptr = np.concatenate(([0], np.cumsum(self.degrees)))

    @property
    def n_edges(self) -> int:
        return len(self.indices) // 2

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n_vertices else 0

    def neighbors(self, u: int) -> np.ndarray:
        return self.indices[self.indptr[u] : self.indptr[u + 1]]


def graph_kernel_for(graph: Graph) -> GraphKernel:
    """Graph kernel with diag set to the graph's maximum degree."""
    return GraphKernel(diag=float(graph.max_degree))


# cells of one Gram row block (rows x sample ids): 256 KB per float64
# temporary; 16- to 32-row blocks of the 1080-row masked Gram ran fastest
_BLOCK_ELEMENTS = 1 << 15


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


def _squared_distances(left: np.ndarray, right: np.ndarray, left_gap=None, right_gap=None) -> np.ndarray:
    """||l - r||^2 for every row l of left and r of right, one attribute at a time.

    Each cell has the bits of ((l - r) ** 2).sum(), with no rows x cols x
    width temporary.  With gap masks (True where a value is missing), a
    term missing on either side is zero.
    """
    right = right.T.copy()  # a row per attribute
    shape = (len(left), right.shape[1])
    if left_gap is not None:
        right_gap = right_gap.T
        gap = np.empty(shape, dtype=bool)

    def term(c: int, out: np.ndarray) -> np.ndarray:
        np.subtract(right[c], left[:, c, None], out=out)
        np.square(out, out=out)
        if left_gap is not None:
            np.logical_or(right_gap[c], left_gap[:, c, None], out=gap)
            np.copyto(out, 0.0, where=gap)
        return out

    return _pairwise_sum(term, 0, left.shape[1], shape)


def kernel_block(spec: KernelSpec, data, rows, cols) -> np.ndarray:
    """K(x_r, x_c) for every r in rows and c in cols, as a len(rows) x len(cols) array.

    A cell's bits do not depend on the other rows of the block: distance
    kernels sum attribute by attribute in numpy's pairwise order, inner-product
    kernels take one matrix-vector product per row, whose bits do depend on
    the number of columns.
    """
    if isinstance(spec, GraphKernel):
        if not isinstance(data, Graph):
            raise TypeError("graph kernel requires a Graph")
        out = np.empty((len(rows), len(cols)))
        for a, r in enumerate(rows):
            indicator = np.zeros(data.n_vertices)
            indicator[data.neighbors(r)] = 1.0
            indicator[r] = spec.diag
            out[a] = indicator[cols]
        return out

    if not isinstance(data, Dataset):
        raise TypeError("numeric kernels require a Dataset")

    if isinstance(spec, (LinearKernel, PolynomialKernel)):
        values = data.values[cols]
        out = np.empty((len(rows), len(cols)))
        for a, r in enumerate(rows):
            out[a] = values @ data.values[r]
            if isinstance(spec, PolynomialKernel):
                with np.errstate(over="ignore"):  # callers reject the inf
                    out[a] = (spec.alpha * out[a] + spec.c0) ** spec.degree
        return out

    if isinstance(spec, RbfKernel):
        out = _squared_distances(data.values[rows], data.values[cols])
        np.divide(out, -2.0 * spec.sigma**2, out=out)
        return np.exp(out, out=out)
    if isinstance(spec, MissingRbfKernel):
        # attributes present in both rows; 0/1 products sum exactly in any order
        count = data.present[rows].astype(float) @ data.present[cols].T
        if (count == 0).any():
            a, c = np.argwhere(count == 0)[0]
            raise ValueError(f"no shared observed attributes between rows {rows[a]} and {cols[c]}")
        out = _squared_distances(data.values[rows], data.values[cols], ~data.present[rows], ~data.present[cols])
        np.multiply(out, -spec.gamma, out=out)
        np.divide(out, count, out=out)
        return np.exp(out, out=out)
    raise TypeError(f"unknown kernel spec {spec!r}")


def kernel_diag(spec: KernelSpec, data, ids) -> np.ndarray:
    """K(x_i, x_i) for every i in ids; np.dot per row, since a block's diagonal rounds differently.

    The polynomial power is a scalar one, which rounds like Python's float
    power (an array power may not), and overflows to inf rather than raising.
    """
    if isinstance(spec, (RbfKernel, MissingRbfKernel)):
        return np.ones(len(ids))
    if isinstance(spec, GraphKernel):
        return np.full(len(ids), float(spec.diag))
    if isinstance(spec, LinearKernel):
        return np.array([np.dot(v, v) for v in data.values[ids]])
    if isinstance(spec, PolynomialKernel):
        dots = [float(np.dot(v, v)) for v in data.values[ids]]
        with np.errstate(over="ignore"):  # callers reject the inf
            return np.array([np.float64(spec.alpha * dot + spec.c0) ** spec.degree for dot in dots])
    raise TypeError(f"unknown kernel spec {spec!r}")


def gram(spec: KernelSpec, data, indices) -> SymMatrix:
    """Gram matrix K(S, S) over the given row/vertex ids.

    Row blocks of the lower triangle are kernel_block calls of indices[s:e]
    against indices[:e]; each unordered pair is stored in a single cell, so
    the result is symmetric by construction.  A non-finite value (say, a
    polynomial kernel overflowing) is an error that names the kernel and the
    first offending pair of ids in packed order.
    """
    indices = np.asarray(list(indices), dtype=np.int64)
    m = len(indices)
    if m == 0:
        raise ValueError("gram needs at least one index")
    if len(np.unique(indices)) != m:
        raise ValueError("indices must be distinct")
    limit = data.n_vertices if isinstance(data, Graph) else data.n
    if indices.min() < 0 or indices.max() >= limit:
        raise ValueError("index out of range")
    if isinstance(spec, GraphKernel) and spec.diag < data.max_degree:
        raise ValueError(
            f"graph kernel diag {spec.diag} below max degree {data.max_degree}; "
            "the Gram matrix would lose diagonal dominance"
        )

    out = SymMatrix(m)
    # a BLAS matrix-vector product rounds a cell differently with the matrix's
    # height, so an inner-product row keeps its own prefix indices[: t + 1]
    inner = isinstance(spec, (LinearKernel, PolynomialKernel))
    height = 1 if inner else max(1, _BLOCK_ELEMENTS // m)
    for s in range(0, m, height):
        e = min(m, s + height)
        block = kernel_block(spec, data, indices[s:e], indices[:e])
        # only cells on or below the diagonal are stored, so only they are checked
        lower = np.arange(e) <= np.arange(s, e)[:, None]
        bad = lower & ~np.isfinite(block)
        if bad.any():
            a, c = np.argwhere(bad)[0]
            raise ValueError(
                f"kernel {spec} gives a non-finite value for sample ids ({indices[s + a]}, {indices[c]})"
            )
        for t in range(s, e):
            out.lower(t)[:] = block[t - s, : t + 1]
    return out


@dataclass(frozen=True)
class SpsdReport:
    """Advisory Gershgorin-based screen; never blocks clustering."""

    symmetric: bool
    min_eigenvalue_lower_bound: float
    diagonally_dominant: bool


def check_spsd(k: SymMatrix, tol: float = 0.0) -> SpsdReport:
    """Gershgorin screening of a candidate similarity matrix.

    diagonally_dominant is true when every diagonal entry covers its
    off-diagonal absolute row sum (within tol); the eigenvalue bound is
    min_i (K_ii - sum_{j != i} |K_ij|), which is O(p^2) instead of the
    O(p^3) a spectral check would cost.  Row sums are taken one row at a
    time, so no dense copy is made.
    """
    diag = k.diagonal()
    sums = np.array([np.abs(k.row(i)).sum() for i in range(k.p)])
    bound = float((diag - (sums - np.abs(diag))).min())
    return SpsdReport(
        symmetric=True,
        min_eigenvalue_lower_bound=bound,
        diagonally_dominant=bool(bound >= -tol),
    )
