"""Kernel configurations and Gram-matrix construction.

Numeric kernels operate on observation rows (optionally with a presence
mask); the graph kernel operates on vertex ids of an undirected graph.
Every kernel here is symmetric positive semi-definite on the data it is
meant for, which is what lets the Gram matrix stand in for a covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .symmat import SymMatrix


@dataclass(frozen=True)
class RbfKernel:
    """exp(-||x1 - x2||^2 / (2 sigma^2)); values in (0, 1]."""

    sigma: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError("rbf sigma must be > 0")


@dataclass(frozen=True)
class LinearKernel:
    """Plain inner product <x1, x2>."""


@dataclass(frozen=True)
class PolynomialKernel:
    """(alpha <x1, x2> + c0) ** degree."""

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

    diag: float

    def __post_init__(self):
        if not self.diag > 0:
            raise ValueError("graph kernel diag must be > 0")


KernelSpec = Union[RbfKernel, LinearKernel, PolynomialKernel, MissingRbfKernel, GraphKernel]


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

    def obs(self, i: int):
        return self.values[i], self.present[i]


class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n_vertices", "edges", "_adjacency", "degrees")

    def __init__(self, n_vertices: int, edges):
        if n_vertices < 0:
            raise ValueError("vertex count must be >= 0")
        self.n_vertices = n_vertices
        adjacency = [set() for _ in range(n_vertices)]
        canonical = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u > v:
                u, v = v, u
            canonical.add((u, v))
            adjacency[u].add(v)
            adjacency[v].add(u)
        self.edges = frozenset(canonical)
        self._adjacency = adjacency
        self.degrees = np.array([len(a) for a in adjacency], dtype=np.int64)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n_vertices else 0

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adjacency[u]

    def neighbors(self, u: int):
        return self._adjacency[u]

    def obs(self, u: int):
        return self, u


def graph_kernel_for(graph: Graph) -> GraphKernel:
    """Graph kernel with diag set to the graph's maximum degree."""
    return GraphKernel(diag=float(graph.max_degree))


def _as_numeric_obs(x):
    if isinstance(x, tuple) and len(x) == 2 and isinstance(x[0], np.ndarray):
        values, present = x
        return np.asarray(values, dtype=float), np.asarray(present, dtype=bool)
    values = np.asarray(x, dtype=float)
    return values, np.ones(values.shape, dtype=bool)


def eval_kernel(spec: KernelSpec, x1, x2) -> float:
    """Kernel value for one pair of observations.

    Numeric kernels take 1-D arrays or (values, present) pairs; the graph
    kernel takes (graph, vertex) pairs as produced by Graph.obs.
    """
    if isinstance(spec, GraphKernel):
        g1, u = x1
        g2, v = x2
        if g1 is not g2:
            raise ValueError("graph kernel needs vertices of the same graph")
        if u == v:
            return float(spec.diag)
        return 1.0 if g1.has_edge(u, v) else 0.0

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


def kernel_block(spec: KernelSpec, data, rows, cols) -> np.ndarray:
    """K(x_r, x_c) for every r in rows and c in cols, as a len(rows) x len(cols) array.

    A cell's bits do not depend on the block's shape: distance kernels sum along
    the last axis, inner-product kernels take one matrix-vector product per row.
    """
    if isinstance(spec, GraphKernel):
        if not isinstance(data, Graph):
            raise TypeError("graph kernel requires a Graph")
        out = np.empty((len(rows), len(cols)))
        for a, r in enumerate(rows):
            indicator = np.zeros(data.n_vertices)
            indicator[list(data.neighbors(int(r)))] = 1.0
            indicator[r] = spec.diag
            out[a] = indicator[cols]
        return out

    if not isinstance(data, Dataset):
        raise TypeError("numeric kernels require a Dataset")
    values = data.values[cols]

    if isinstance(spec, (LinearKernel, PolynomialKernel)):
        out = np.empty((len(rows), len(cols)))
        for a, r in enumerate(rows):
            out[a] = values @ data.values[r]
            if isinstance(spec, PolynomialKernel):
                with np.errstate(over="ignore"):  # callers reject the inf
                    out[a] = (spec.alpha * out[a] + spec.c0) ** spec.degree
        return out

    diff2 = (values - data.values[rows][:, None, :]) ** 2
    if isinstance(spec, RbfKernel):
        return np.exp(-diff2.sum(axis=2) / (2.0 * spec.sigma**2))
    if isinstance(spec, MissingRbfKernel):
        shared = data.present[cols] & data.present[rows][:, None, :]
        count = shared.sum(axis=2)
        if (count == 0).any():
            a, c = np.argwhere(count == 0)[0]
            raise ValueError(f"no shared observed attributes between rows {rows[a]} and {cols[c]}")
        d2 = np.where(shared, diff2, 0.0).sum(axis=2)
        return np.exp(-spec.gamma * d2 / count)
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

    Row t of the lower triangle is one kernel_block call of one row against
    indices[: t + 1], so each unordered pair is evaluated once and stored in
    a single cell, and the result is symmetric by construction.  A
    non-finite value (say, a polynomial kernel overflowing) is an error that
    names the kernel and the first offending pair of ids.
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
    for t in range(m):
        row = out.lower(t)
        row[:] = kernel_block(spec, data, [indices[t]], indices[: t + 1])
        finite = np.isfinite(row)
        if not finite.all():
            c = int(np.argmin(finite))
            raise ValueError(
                f"kernel {spec} gives a non-finite value for sample ids ({indices[t]}, {indices[c]})"
            )
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
    O(p^3) a spectral check would cost.
    """
    dense = np.abs(k.to_dense())
    diag = k.diagonal()
    bound = float((diag - (dense.sum(axis=1) - np.abs(diag))).min())
    return SpsdReport(
        symmetric=True,
        min_eigenvalue_lower_bound=bound,
        diagonally_dominant=bool(bound >= -tol),
    )
