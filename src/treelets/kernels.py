"""Kernel configurations and Gram-matrix construction.

Numeric kernels operate on observation rows (optionally with a presence
mask); the graph kernel operates on vertex ids of an undirected graph.
Every kernel here is symmetric positive semi-definite on the data it is
meant for, which is what lets the Gram matrix stand in for a covariance.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import ClassVar, NamedTuple, Union

import numpy as np


@dataclass(frozen=True)
class RbfKernel:
    """exp(-||x1 - x2||^2 / (2 sigma^2)); values in (0, 1]."""

    kind: ClassVar[str] = "rbf"
    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("rbf sigma must be > 0")
        try:
            scale = 2.0 * self.sigma**2
        except OverflowError:  # a float power raises where a product would give inf
            scale = math.inf
        # 0 makes every kernel value NaN or 0, inf makes every one 1, whatever the data
        if not 0.0 < scale < math.inf:
            raise ValueError(f"rbf sigma {self.sigma} is out of range: 2 sigma^2 is {scale}")


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
        # a NaN or infinite one makes every diagonal value non-finite, whatever the data
        if not (math.isfinite(self.alpha) and math.isfinite(self.c0)):
            raise ValueError("polynomial alpha and c0 must be finite")


@dataclass(frozen=True)
class MissingRbfKernel:
    """RBF over the attributes observed in both rows.

    K(u, v) = exp(-gamma / |E| * sum_{i in E} (u_i - v_i)^2) where E is the
    set of indices present in both u and v.  E must be non-empty.
    """

    kind: ClassVar[str] = "missing-rbf"
    gamma: float

    def __post_init__(self):
        if not 0 < self.gamma < np.inf:
            raise ValueError("missing-rbf gamma must be finite and > 0")


@dataclass(frozen=True)
class GraphKernel:
    """diag on the diagonal, 1 for adjacent vertices, 0 otherwise.

    With diag at least the maximum vertex degree the Gram matrix is
    diagonally dominant, hence PSD.
    """

    kind: ClassVar[str] = "graph"
    diag: float

    def __post_init__(self):
        if not 0 < self.diag < math.inf:
            raise ValueError("graph kernel diag must be finite and > 0")


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
        if type(n_vertices) is bool or not isinstance(n_vertices, (int, np.integer)):
            raise ValueError(f"vertex count must be an integer, not {n_vertices!r}")
        if n_vertices < 0:
            raise ValueError("vertex count must be >= 0")
        self.n_vertices = n = int(n_vertices)
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if pairs.size and pairs.dtype.kind not in "iu":  # a cast would truncate 0.5 to vertex 0
            raise ValueError(f"edge endpoints must be integers, not {pairs.dtype}")
        pairs = pairs.astype(np.int64)
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
# temporary.  The graph kernel's blocks keep it: halving it made the bench's
# graph-ego job 2.6 % slower (2 pairs).  A distance kernel's block is also
# held to its buffers: min(width, 8) partial sums, and as many terms, of at
# most 4 * _BLOCK_ELEMENTS cells (1 MB) each.  On the 1080 x 77 masked Gram
# (BLAS at one thread; medians of 9 calls in each of 5 interleaved processes)
# 512 KB, blocks of 1 << 13 cells, took 68-117 ms (median 80), 1 MB
# (1 << 14) 72-78 ms (73) and 2 MB (1 << 15) 75-90 ms (79), and the bench's
# missing-mpe job read a peak RSS of 51.3-51.5, 52.6-52.8 and 54.8-54.9 MB;
# 512 KB was also slower there (cluster_s 0.27-0.29 s against 0.25-0.28 s)
_BLOCK_ELEMENTS = 1 << 15


class _Distances:
    """||l - r||^2 from blocks of rows l to the leading rows r of right, on one set of buffers.

    An attribute's differences are a BLAS product with inner dimension 2:
    rows [1, -l] times columns [r; 1].  Both products are exact, so a cell
    takes one rounding, fl(r - l), whatever the summation order, FMA use or
    thread count.  With gap masks (True where a value is missing) both
    factors of a gap are zero: the product is +-0 and its square +0, so a
    present value must be finite where the other side has a gap.  Eight
    attributes take one stacked product, one square and one add into eight
    partial sums, in numpy's pairwise order, so a cell has the bits of
    ((l - r) ** 2).sum() with no rows x cols x width temporary.  The
    right factors are made once, as a width x 2 x n array, and a product
    reads its slice of them; the buffers fit blocks of up to `rows` rows.
    """

    def __init__(self, right: np.ndarray, right_gap=None, rows: int = 1):
        width, n = right.shape[1], len(right)
        self.factors = np.empty((width, 2, n))  # each attribute's right factors [r; 1], [0; 0] at a gap
        self.factors[:, 0] = right.T
        self.factors[:, 1] = 1.0 if right_gap is None else ~right_gap.T
        if right_gap is not None:
            np.copyto(self.factors[:, 0], 0.0, where=right_gap.T)
        self.sums = np.empty(min(width, 8) * rows * n)
        self.terms = np.empty(min(width - 8, 8) * rows * n) if width > 8 else None

    def __call__(self, left: np.ndarray, left_gap=None, e=None, out=None) -> np.ndarray:
        """The squared distances from the rows of left to the first e rows of right, in out."""
        e = self.factors.shape[2] if e is None else e
        out = np.empty((len(left), e)) if out is None else out
        a = np.empty((left.shape[1], len(left), 2))  # each attribute's left factors
        np.negative(left.T, out=a[..., 1])
        if left_gap is None:
            a[..., 0] = 1.0
        else:
            a[..., 0] = ~left_gap.T
            np.copyto(a[..., 1], 0.0, where=left_gap.T)
        # a difference or square past the float range is +inf: an RBF kernel's 0
        with np.errstate(over="ignore"):
            return self._sum(a, 0, left.shape[1], out)

    def _terms(self, a: np.ndarray, lo: int, k: int, buf: np.ndarray, e: int) -> np.ndarray:
        """(r - l)^2 for attributes lo to lo + k - 1, from their left factors in a, as a k x rows x e view of buf."""
        terms = buf[: k * a.shape[1] * e].reshape(k, a.shape[1], e)
        return np.square(np.matmul(a[lo : lo + k], self.factors[lo : lo + k, :, :e], out=terms), out=terms)

    def _sum(self, a: np.ndarray, lo: int, n: int, out: np.ndarray) -> np.ndarray:
        """out = term(lo) + ... + term(lo + n - 1), added in the order numpy's pairwise sum adds them.

        Runs over 128 split at a multiple of 8 near the middle and recurse;
        shorter ones keep eight partial sums and add the tail after
        combining them, or under 8 terms add them one by one.
        """
        if n > 128:
            half = n // 2 - (n // 2) % 8
            self._sum(a, lo, half, out)
            return np.add(out, self._sum(a, lo + half, n - half, np.empty_like(out)), out=out)
        e = out.shape[1]
        r = self._terms(a, lo, min(n, 8), self.sums, e)
        if n < 8:  # a running sum; + 0.0 keeps a square's bits
            np.add(r[0], r[1] if n > 1 else 0.0, out=out)
            for t in r[2:]:
                out += t
            return out
        head = n - n % 8
        for c in range(lo + 8, lo + head, 8):
            r += self._terms(a, c, 8, self.terms, e)
        # ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))
        r[::2] += r[1::2]
        r[::4] += r[2::4]
        np.add(r[0], r[4], out=out)
        if n > head:
            for t in self._terms(a, lo + head, n - head, self.terms, e):
                out += t
        return out


def _squared_distances(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """||l - r||^2 for every row l of left and r of right (see _Distances), as a new array."""
    return _Distances(right, rows=len(left))(left)


def _rbf_values(sq, scale: float, out=None) -> np.ndarray:
    """exp(sq / scale): the RBF kernel's values at squared distances sq, for scale = -2 sigma^2."""
    with np.errstate(over="ignore"):  # -inf, whose exp is the intended 0
        out = np.divide(sq, scale, out=out)
    return np.exp(out, out=out)


def _distance_kernel(spec, data: Dataset, rows, dist: _Distances, e=None, out=None) -> np.ndarray:
    """The RBF or masked-RBF kernel from data's rows to the first e rows of dist, in out."""
    if isinstance(spec, RbfKernel):
        out = dist(data.values[rows], None, e, out)
        return _rbf_values(out, -2.0 * spec.sigma**2, out=out)
    present = data.present[rows]
    # attributes present in both rows; 0/1 products sum exactly in any order
    count = present.astype(float) @ dist.factors[:, 1, :e]
    out = dist(data.values[rows], ~present, e, out)
    with np.errstate(over="ignore", invalid="ignore"):
        np.multiply(out, -spec.gamma, out=out)  # an overflow is -inf, whose exp is the intended 0
        np.divide(out, count, out=out)  # -0/0: NaN where no attribute is shared
    return np.exp(out, out=out)


def _distances_for(spec, data: Dataset, cols, rows: int) -> _Distances:
    """A _Distances to data's cols for blocks of up to rows rows, with gap masks for a masked kernel."""
    gap = ~data.present[cols] if isinstance(spec, MissingRbfKernel) else None
    return _Distances(data.values[cols], gap, rows)


def kernel_block(spec: KernelSpec, data, rows, cols) -> np.ndarray:
    """K(x_r, x_c) for every r in rows and c in cols, as a len(rows) x len(cols) array.

    A cell's bits do not depend on the other rows of the block: distance
    kernels sum attribute by attribute in numpy's pairwise order, inner-product
    kernels take one matrix-vector product per row, whose bits do depend on
    the number of columns.  Masked rows that share no observed attribute
    give NaN, which the callers' finiteness checks name.
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
        with np.errstate(over="ignore"):  # callers reject the inf
            for a, r in enumerate(rows):
                out[a] = values @ data.values[r]
                if isinstance(spec, PolynomialKernel):
                    out[a] = (spec.alpha * out[a] + spec.c0) ** spec.degree
        return out

    if isinstance(spec, (RbfKernel, MissingRbfKernel)):
        return _distance_kernel(spec, data, rows, _distances_for(spec, data, cols, len(rows)))
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
    with np.errstate(over="ignore"):  # callers reject the inf
        if isinstance(spec, LinearKernel):
            return np.array([np.dot(v, v) for v in data.values[ids]])
        if isinstance(spec, PolynomialKernel):
            dots = [float(np.dot(v, v)) for v in data.values[ids]]
            return np.array([np.float64(spec.alpha * dot + spec.c0) ** spec.degree for dot in dots])
    raise TypeError(f"unknown kernel spec {spec!r}")


def nonfinite_error(spec: KernelSpec, data, i: int, j: int, where: str) -> ValueError:
    """The error for a non-finite K(x_i, x_j): masked rows i and j share no attribute, or else the value at where."""
    if isinstance(spec, MissingRbfKernel) and not (data.present[i] & data.present[j]).any():
        return ValueError(f"no shared observed attributes between rows {i} and {j}")
    return ValueError(f"kernel {spec} gives a non-finite value for {where}")


def n_rows(data) -> int:
    """The number of rows of a Dataset, or of vertices of a Graph."""
    return data.n_vertices if isinstance(data, Graph) else data.n


def checked_ids(data, ids, name: str) -> np.ndarray:
    """ids as int64; ids not 1-D or not integers, or an id outside [0, n_rows(data)), are an error naming the first."""
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise ValueError(f"{name}s must be a 1-D array, not {ids.ndim}-D")
    if ids.size and ids.dtype.kind not in "iu":  # a cast would truncate floats and take bools as 0/1
        raise ValueError(f"{name}s must be integers, not {ids.dtype}")
    ids = ids.astype(np.int64, copy=False)
    n = n_rows(data)
    outside = (ids < 0) | (ids >= n)
    if outside.any():
        raise ValueError(f"{name} {ids[outside.argmax()]} outside [0, {n})")
    return ids


class SymMatrix(NamedTuple):
    """gram's result: p, and data, a C-contiguous p x p float64 array whose cells (i, j) and (j, i) hold the same bits."""

    p: int
    data: np.ndarray


def gram(spec: KernelSpec, data, indices) -> SymMatrix:
    """Gram matrix K(S, S) over the given row/vertex ids.

    Row blocks are the kernel of indices[s:e] against indices[:e], each
    written into rows s to e of one p x p array (a distance kernel's in
    place, from one _Distances per call) and, transposed, into columns s to
    e above them, so the result is symmetric bit for bit.  A
    cell's mirror outside the block's diagonal square is assigned, so a -0.0
    stays -0.0; inside it the block computes both cells, with the same bits,
    since every kernel here computes K(x, y) and K(y, x) with the same
    operations (inner-product blocks are one row, with no such cells).
    A non-finite value (say, a polynomial kernel overflowing, or masked rows
    with no shared attribute) is an error that names the first offending
    pair of ids on or below the diagonal, in row-major order, whatever the
    block height.
    """
    indices = np.asarray(list(indices))
    m = len(indices)
    if m == 0:
        raise ValueError("gram needs at least one index")
    indices = checked_ids(data, indices, "id")
    if len(np.unique(indices)) != m:
        raise ValueError("indices must be distinct")
    if isinstance(spec, GraphKernel) and spec.diag < data.max_degree:
        raise ValueError(
            f"graph kernel diag {spec.diag} below max degree {data.max_degree}; "
            "the Gram matrix would lose diagonal dominance"
        )

    g = np.zeros((m, m))
    # a BLAS matrix-vector product rounds a cell differently with the matrix's
    # height, so an inner-product row keeps its own prefix indices[: t + 1]
    inner = isinstance(spec, (LinearKernel, PolynomialKernel))
    height = 1 if inner else max(1, _BLOCK_ELEMENTS // m)
    dist = None
    if isinstance(spec, (RbfKernel, MissingRbfKernel)) and isinstance(data, Dataset):
        # a block held to its buffers (see _BLOCK_ELEMENTS); the blocks share one
        # factor array of the columns and one buffer set
        height = max(1, min(_BLOCK_ELEMENTS, 4 * _BLOCK_ELEMENTS // min(data.p, 8)) // m)
        dist = _distances_for(spec, data, indices, min(height, m))
    for s in range(0, m, height):
        e = min(m, s + height)
        if dist is None:
            block = g[s:e, :e] = kernel_block(spec, data, indices[s:e], indices[:e])
        else:
            block = _distance_kernel(spec, data, indices[s:e], dist, e, out=g[s:e, :e])
        if not np.isfinite(block).all():
            # a bad cell above the diagonal has a bad mirror below it in the same block
            bad = (np.arange(e) <= np.arange(s, e)[:, None]) & ~np.isfinite(block)
            a, c = np.argwhere(bad)[0]
            i, j = indices[s + a], indices[c]
            raise nonfinite_error(spec, data, j, i, f"sample ids ({i}, {j})")
        g[:s, s:e] = block[:, :s].T
    return SymMatrix(m, g)


@dataclass(frozen=True)
class SpsdReport:
    """Advisory Gershgorin-based screen; never blocks clustering."""

    min_eigenvalue_lower_bound: float
    diagonally_dominant: bool


def check_spsd(k) -> SpsdReport:
    """Gershgorin screening of a candidate similarity matrix, a non-empty square array-like.

    diagonally_dominant is true when every diagonal entry covers its
    off-diagonal absolute row sum; the eigenvalue bound is
    min_i (K_ii - sum_{j != i} |K_ij|), which is O(p^2) instead of the
    O(p^3) a spectral check would cost.  Row sums are taken in row chunks
    of at most _BLOCK_ELEMENTS cells, so no p x p temporary is made.
    """
    k = np.asarray(k, dtype=float)
    if k.ndim != 2 or k.shape[0] != k.shape[1] or not k.size:
        raise ValueError("expected a non-empty square matrix")
    diag = k.diagonal()
    height = max(1, _BLOCK_ELEMENTS // len(k))
    with np.errstate(over="ignore"):  # a row sum that overflows is inf: the bound is -inf, not dominant
        sums = np.concatenate([np.abs(k[r : r + height]).sum(axis=1) for r in range(0, len(k), height)])
    bound = float((diag - (sums - np.abs(diag))).min())
    return SpsdReport(min_eigenvalue_lower_bound=bound, diagonally_dominant=bound >= 0)
