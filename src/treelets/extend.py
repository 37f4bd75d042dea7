"""End-to-end clustering pipeline: sample, Gram, decompose, cut, extend.

When the sample covers the whole dataset the cut labels are the answer;
otherwise remaining points are labeled by majority vote of their nearest
sampled neighbors under the kernel-induced distance.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import DEFAULT_STOP_TOL, TreeletDecomposition, check_params
from .core import _decompose as decompose
from .hierarchy import ClusterLabels, Dendrogram, cut, merge_tree
from .kernels import Graph, KernelSpec, gram, kernel_block, kernel_diag, nonfinite_error
from .rng import SplitMix64

# cells of one query block (queries x sample), whatever the width and the
# thread count: 1 MB per float64 temporary.  On the 11000 x 1000 extension
# (2 vCPUs, one fresh process per round) 1 << 17 beat 1 << 16 in 9 and 10
# of two sets of 10 rounds (median 0.27 vs 0.30 s), 1 << 15 in 4 of 10
_BLOCK_ELEMENTS = 1 << 17
# where K(x, x) is one constant c, query cells whose kernel value is more
# than |c| * _SCREEN_MARGIN below a row's k-th largest are screened out
_SCREEN_MARGIN = 2.0**-26


@dataclass(frozen=True)
class KtConfig:
    kernel: KernelSpec
    sample_size: int
    n_clusters: int
    lam: float = 0.0
    knn_k: int = 5
    seed: int = 0
    stop_tol: float = DEFAULT_STOP_TOL

    def __post_init__(self):
        if self.sample_size < 2:
            raise ValueError("sample_size must be >= 2")
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if self.knn_k < 1 or self.knn_k % 2 == 0:
            raise ValueError("knn_k must be a positive odd number")
        check_params(self.lam, self.stop_tol)


@dataclass(frozen=True)
class KtResult:
    labels: ClusterLabels
    tree: Dendrogram
    sample: tuple[int, ...]
    sample_labels: ClusterLabels
    decomposition: TreeletDecomposition = field(repr=False)
    # seconds per stage: sample, gram, decompose, cut, extend, total
    timings: dict = field(compare=False, repr=False)


class Timer:
    """Wall-clock stage times: lap(name) records the seconds since the previous lap."""

    def __init__(self):
        self.start = self._last = time.perf_counter()
        self.laps: dict = {}

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.laps[name] = now - self._last
        self._last = now

    def total(self) -> dict:
        """The laps so far plus 'total', the seconds since the timer started."""
        return {**self.laps, "total": time.perf_counter() - self.start}


def sample_indices(n: int, n_sample: int, seed: int) -> list[int]:
    """n_sample distinct indices, uniform without replacement, seed-determined."""
    if n_sample > n:
        raise ValueError(f"cannot sample {n_sample} of {n} observations")
    return SplitMix64(seed).sample_without_replacement(n, n_sample)


def _distance(k: np.ndarray, c: float) -> np.ndarray:
    """sqrt(max(0, (c + c) - 2k)): the kernel distance where K(x, x) = c for every x.

    These are the operations of knn_extend's general branch, in its order,
    so the bits are the same; each is correctly rounded and monotone, so
    the distance never increases as k rises.
    """
    d = (c + c) - 2.0 * k
    return np.sqrt(np.maximum(0.0, d, out=d), out=d)


def _first_k(cells: np.ndarray, width: int, d: np.ndarray, kth: np.ndarray, k: int) -> np.ndarray:
    """Column ids of each row's k nearest cells, ascending by column; ties go to the smaller column.

    cells are ascending flat ids (row * width + column) with distances d;
    they hold every cell at or below its row's k-th smallest distance
    kth[row], and possibly others.  Every cell below kth is taken, then the
    cells at kth in column order until the row has k: the set
    np.argsort(d, kind="stable")[:, :k] picks.
    """
    n_rows = len(kth)
    starts = np.searchsorted(cells, np.arange(0, (n_rows + 1) * width, width))
    row_kth = np.repeat(kth, np.diff(starts))
    below = np.flatnonzero(d < row_kth)
    tied = np.flatnonzero(d == row_kth)
    room = k - np.diff(np.searchsorted(below, starts))
    # positions in `tied` of each row's first room[row] tied cells
    at = np.repeat(np.searchsorted(tied, starts[:-1]) - (np.cumsum(room) - room), room)
    at += np.arange(len(at))
    # the picked positions, back in row-major order: k per row
    picked = np.sort(np.concatenate((below, tied[at])))
    return (cells[picked] % width).reshape(n_rows, k)


def knn_extend(
    spec: KernelSpec,
    data,
    sample: np.ndarray,
    sample_labels: np.ndarray,
    queries: np.ndarray,
    knn_k: int,
    threads: int = 1,
) -> np.ndarray:
    """Label each query by majority vote of its knn_k nearest sampled points.

    Queries are labeled in blocks whose height keeps one block of kernel
    work within a fixed element budget; `threads` workers take whole
    blocks.  Distance ties prefer the smaller sample position, vote ties
    the smaller cluster id, so the result is deterministic and independent
    of the thread count and the block height.  A non-finite kernel value
    is an error naming the kernel and the first sample or query id with one.
    """
    sample = np.asarray(sample, dtype=np.int64)
    queries = np.asarray(queries, dtype=np.int64)
    sample_labels = np.asarray(sample_labels, dtype=np.int64)
    if len(sample) == 0:
        raise ValueError("sample must be non-empty")
    if knn_k > len(sample):
        raise ValueError("knn_k cannot exceed the sample size")

    self_sample = kernel_diag(spec, data, sample)
    if not np.isfinite(self_sample).all():
        s = sample[np.argmin(np.isfinite(self_sample))]
        raise nonfinite_error(spec, data, s, s, f"sample id {s}")
    n_labels = int(sample_labels.max()) + 1
    n = len(sample)
    height = max(1, _BLOCK_ELEMENTS // n)
    # the screen needs one self-similarity c everywhere, and c + c finite so
    # that no distance is NaN
    c = self_sample[0]
    constant_diag = bool((self_sample == c).all()) and abs(c) <= np.finfo(float).max / 2

    def label_block(start: int) -> np.ndarray:
        block = queries[start : start + height]
        k = kernel_block(spec, data, block, sample)
        self_block = kernel_diag(spec, data, block)
        finite = np.isfinite(k).all(axis=1) & np.isfinite(self_block)
        if not finite.all():
            a = np.argmin(finite)
            j = sample[np.argmin(np.isfinite(k[a]))]
            raise nonfinite_error(spec, data, block[a], j, f"query id {block[a]}")
        if constant_diag and (self_block == c).all():
            # the k-th largest kernel value kappa gives the k-th smallest
            # distance; a cell whose value is below lo = kappa - margin is
            # farther still if f(lo) > f(kappa), else the row keeps every cell
            kappa = np.partition(k, n - knn_k, axis=1)[:, n - knn_k]
            kth = _distance(kappa, c)
            lo = kappa - _SCREEN_MARGIN * abs(c)
            lo = np.where(_distance(lo, c) > kth, lo, -np.inf)
            cells = np.flatnonzero(k >= lo[:, None])
            d = _distance(k.ravel()[cells], c)
        else:
            d = self_block[:, None] + self_sample
            d -= np.multiply(k, 2.0, out=k)
            np.sqrt(np.maximum(0.0, d, out=d), out=d)
            kth = np.partition(d, knn_k - 1, axis=1)[:, knn_k - 1]
            cells = np.flatnonzero(d <= kth[:, None])
            d = d.ravel()[cells]
        nearest = sample_labels[_first_k(cells, n, d, kth, knn_k)]
        flat = (np.arange(len(block))[:, None] * n_labels + nearest).ravel()
        votes = np.bincount(flat, minlength=len(block) * n_labels)
        return votes.reshape(len(block), n_labels).argmax(axis=1)

    starts = range(0, len(queries), height)
    if threads <= 1:  # in the calling thread: a pool thread may allocate from its own malloc arena
        blocks = list(map(label_block, starts))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(label_block, starts))
    return np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)


def fit_predict(data, config: KtConfig, threads: int = 1) -> KtResult:
    """Run the whole pipeline and return everything needed to audit it."""
    n = data.n_vertices if isinstance(data, Graph) else data.n
    if config.sample_size > n:
        raise ValueError(f"sample_size {config.sample_size} exceeds dataset size {n}")
    if config.sample_size < n and config.knn_k > config.sample_size:
        raise ValueError("knn_k cannot exceed the sample size")

    timer = Timer()
    # ascending order makes tree leaf i the i-th smallest sampled row, so a
    # full-sample tree lines up with the dataset and external references
    sample = sorted(sample_indices(n, config.sample_size, config.seed))
    timer.lap("sample")
    a0 = gram(config.kernel, data, sample)
    timer.lap("gram")
    # decomposed in place, then dropped: its rotated cells mean nothing.
    # Freeing it also raises glibc's mmap threshold, so the extension's 1 MB
    # block temporaries come from the heap, not fresh mappings (held, a fresh
    # process took 70k minor faults, not 8k, and twice the time to extend
    # 11000 queries from a 1000-row sample)
    decomp = decompose(a0.data, lam=config.lam, stop_tol=config.stop_tol)
    del a0
    timer.lap("decompose")
    tree = merge_tree(decomp)
    sample_labels = cut(tree, config.n_clusters)
    timer.lap("cut")

    full = np.empty(n, dtype=np.int64)
    full[np.asarray(sample)] = sample_labels.assignments
    if config.sample_size < n:
        queries = np.setdiff1d(np.arange(n), sample)
        full[queries] = knn_extend(
            config.kernel,
            data,
            np.asarray(sample),
            sample_labels.assignments,
            queries,
            config.knn_k,
            threads=threads,
        )
    timer.lap("extend")

    return KtResult(
        labels=ClusterLabels(assignments=full, n_clusters=config.n_clusters),
        tree=tree,
        sample=tuple(sample),
        sample_labels=sample_labels,
        decomposition=decomp,
        timings=timer.total(),
    )
