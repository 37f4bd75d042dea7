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
from .kernels import Dataset, KernelSpec, RbfKernel, checked_ids, gram, kernel_block, kernel_diag, n_rows, nonfinite_error
from .kernels import _rbf_values, _squared_distances
from .rng import SplitMix64

# cells of one query block (queries x sample), whatever the width and the
# thread count: 1 MB per float64 temporary.  On the 11000 x 1000 extension
# (2 vCPUs, one fresh process per round) 1 << 17 beat 1 << 16 in 9 and 10
# of two sets of 10 rounds (median 0.27 vs 0.30 s), 1 << 15 in 4 of 10
_BLOCK_ELEMENTS = 1 << 17
# RBF query cells past a row's margin edge are screened out before exp: in
# units of 2 sigma^2, the edge is _RBF_MARGIN * (1 + x) past the row's k-th
# smallest squared distance x, so with the allowance below the guard proves
# a row wherever x is under about 30 (k exact duplicates included)
_RBF_MARGIN = 2.0**-16
# an RBF query block's pilot: the _PILOT_PER_K * knn_k samples nearest its
# middle in column-0 order.  On the 11000 x 1000 extension (2 vCPUs, 9
# interleaved in-process calls each) 8 took 42 % of the squared distances
# (86 ms), 12 took 32 % (74 ms), 16 took 27 % (71 ms), 24 and 32 27-31 %
# (73-74 ms), since their pilots' own cells count
_PILOT_PER_K = 16
# np.exp is within 2 ulps of math.exp over [-745, 0] (tests/test_extend.py),
# and math.exp within 1 ulp of exp: a relative error under 2**-50 on normal
# values, which this allowance covers 1000 times over
_EXP_ALLOWANCE = 2.0**-40


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
    # knn_extend's work: queries labeled, kernel values computed for them,
    # rows that took all their cells (no guard proved a cell farther), and
    # squared distances computed by the RBF selection
    extension: dict = field(compare=False, repr=False)


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
    if not 0 <= n_sample <= n:
        raise ValueError(f"cannot sample {n_sample} of {n} observations")
    return SplitMix64(seed).sample_without_replacement(n, n_sample)


def _distance(k: np.ndarray, self_sum=2.0) -> np.ndarray:
    """sqrt(max(0, self_sum - 2k)), written over k: the kernel distance at kernel values k.

    self_sum is K(x, x) + K(y, y), 2 for an RBF kernel.  Each operation is
    correctly rounded and monotone, so the distance never increases as k
    rises.
    """
    np.subtract(self_sum, np.multiply(k, 2.0, out=k), out=k)
    return np.sqrt(np.maximum(0.0, k, out=k), out=k)


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


def _row_kth(cells: np.ndarray, values: np.ndarray, shape: tuple, k: int) -> np.ndarray:
    """Each row's k-th smallest of values, those of cells: ascending flat ids into shape, at least k a row."""
    n_rows, width = shape
    # each row's values, left-aligned in an inf-padded array
    starts = np.searchsorted(cells, np.arange(n_rows + 1) * width)
    counts = np.diff(starts)
    rows = np.repeat(np.arange(n_rows), counts)
    pad = np.full((n_rows, counts.max()), np.inf)
    pad[rows, np.arange(len(cells)) - starts[rows]] = values
    return np.partition(pad, k - 1, axis=1)[:, k - 1]


def _rbf_guard(kth_sq: np.ndarray, scale: float):
    """Each RBF row's margin edge at kth_sq, a bound on its k-th smallest squared distance, and whether the guard
    proves the row there (_rbf_select).  An infinite bound or margin gives values of 0 or NaN, which it does not."""
    with np.errstate(over="ignore", invalid="ignore"):
        edge = kth_sq * (1.0 + _RBF_MARGIN) + -scale * _RBF_MARGIN
        hi, lo = _rbf_values((edge, kth_sq), scale) * [[1.0 + _EXP_ALLOWANCE], [1.0 - _EXP_ALLOWANCE]]
        return edge, _distance(hi) > _distance(lo)


def _rbf_select(values: np.ndarray, sample_values: np.ndarray, by_col0: np.ndarray, scale: float, k: int):
    """Candidate cells of an RBF query block, at one bound on each row's k-th smallest squared distance.

    values are the block's rows, ascending in column 0; by_col0 the sample
    positions in column-0 order; scale = -2 sigma^2.  A row's bound b is its
    k-th smallest over the pilot, the _PILOT_PER_K * k samples nearest the
    block's middle in column-0 order, where the sample is larger and the
    guard proves every row there; otherwise its exact k-th over every
    column, taken among the cells at or below the pilot's bound where there
    is a pilot.  Its candidates are the cells with sq at most b's margin edge,
    (b + 2 sigma^2) (1 + _RBF_MARGIN) - 2 sigma^2.  A value never rises with
    sq, so, allowing for exp's rounding, every dropped cell has a value at
    most hi, the computed exp at the edge plus the allowance, and at least k
    cells (sq <= b) a value at least lo, the computed exp at b less it.  If
    _distance(hi) > _distance(lo), every dropped cell is strictly farther
    than the row's k-th nearest, for any b at least the true k-th.  At the
    pilot's bounds the block's window (Friedman, Baskett & Shustek, 1975)
    drops a sample whose column-0 term at the block's nearer end,
    fl((s0 - qa)^2) or fl((s0 - qb)^2), is past the largest edge: a squared
    distance is a rounded sum of non-negative terms, at least each of them,
    so that cell is past every row's edge; each row's pilot cells up to b
    stay in the window.

    Returns the window's ascending sample positions (None for every
    column), the squared distances to them, the candidates for _first_k
    (ascending flat ids, distances, each row's k-th smallest distance) or
    None where the guard does not prove every row at its exact k-th, so that
    the block takes the general branch on sq; and the number of squared
    distances computed, the pilot's included.
    """
    n, pilot = len(by_col0), _PILOT_PER_K * k
    cols, bound, proven, counted = None, None, None, 0
    if pilot < n:
        s0 = sample_values[by_col0, 0]
        start = min(max(np.searchsorted(s0, values[len(values) // 2, 0]) - pilot // 2, 0), n - pilot)
        sq = _squared_distances(values, sample_values[by_col0[start : start + pilot]])
        counted = sq.size
        bound = np.partition(sq, k - 1, axis=1)[:, k - 1]
        edge, proven = _rbf_guard(bound, scale)
        if proven.all():
            qa, qb = values[0, 0], values[-1, 0]
            reach = np.max(edge)
            with np.errstate(over="ignore"):
                term = np.square(s0 - np.where(s0 < qa, qa, np.minimum(s0, qb)))
            keep = ~(term > reach)
            cols = None if keep.all() else np.sort(by_col0[keep])
    sq = _squared_distances(values, sample_values if cols is None else sample_values[cols])
    counted += sq.size
    if proven is None or not proven.all():
        if bound is None:
            bound = np.partition(sq, k - 1, axis=1)[:, k - 1]
        else:  # the pilot's k-th is at least the exact one: at least k cells lie at or below it
            below = np.flatnonzero(sq <= bound[:, None])
            bound = _row_kth(below, sq.ravel()[below], sq.shape, k)
        edge, proven = _rbf_guard(bound, scale)
        if not proven.all():
            return None, sq, None, counted
    cells = np.flatnonzero(sq <= edge[:, None])
    d = _distance(_rbf_values(sq.ravel()[cells], scale))
    return cols, sq, (cells, d, _row_kth(cells, d, sq.shape, k)), counted


def knn_extend(
    spec: KernelSpec,
    data,
    sample: np.ndarray,
    sample_labels: np.ndarray,
    queries: np.ndarray,
    knn_k: int,
    threads: int = 1,
) -> tuple[np.ndarray, dict]:
    """Label each query by majority vote of its knn_k nearest sampled points; return the labels and the work.

    Queries are labeled in blocks whose height keeps one block of kernel
    work within a fixed element budget; `threads` workers take whole
    blocks.  Distance ties prefer the smaller sample position, vote ties
    the smaller cluster id, so the result is deterministic and independent
    of the thread count and the block height.  An RBF block on finite rows
    computes few distances: its queries are taken in column-0 order, and
    each block computes kernel values for its candidates alone
    (_rbf_select).  Ids that are not a 1-D integer array, a knn_k below 1,
    a label count that differs from the sample's, a negative label, or a
    sample or query id outside the data is an error naming the first bad
    value, raised before any block.  A non-finite
    kernel value is an error naming the kernel and the first sample or
    query id with one.  The work counts the queries, the kernel values
    computed, the rows that took all their cells, and the squared distances
    computed.
    """
    sample = checked_ids(data, sample, "sample id")
    queries = checked_ids(data, queries, "query id")
    sample_labels = np.asarray(sample_labels, dtype=np.int64)
    if len(sample) == 0:
        raise ValueError("sample must be non-empty")
    if knn_k < 1:
        raise ValueError(f"knn_k must be >= 1, not {knn_k}")
    if knn_k > len(sample):
        raise ValueError("knn_k cannot exceed the sample size")
    if len(sample_labels) != len(sample):
        raise ValueError(f"{len(sample_labels)} sample labels for {len(sample)} sampled ids")
    negative = sample_labels < 0
    if negative.any():
        raise ValueError(f"sample label {sample_labels[negative.argmax()]} is negative")

    self_sample = kernel_diag(spec, data, sample)
    if not np.isfinite(self_sample).all():
        s = sample[np.argmin(np.isfinite(self_sample))]
        raise nonfinite_error(spec, data, s, s, f"sample id {s}")
    n_labels = int(sample_labels.max()) + 1
    n = len(sample)
    height = max(1, _BLOCK_ELEMENTS // n)
    # RBF selects on squared distances, which finite rows never make NaN;
    # with a non-finite row (a value not present) every block takes the
    # general branch, which names the first non-finite value
    on_sq = (
        isinstance(spec, RbfKernel)
        and isinstance(data, Dataset)
        and np.isfinite(data.values[sample]).all()
        and np.isfinite(data.values[queries]).all()
    )
    order = np.arange(len(queries))  # the query positions, in the order blocks take them
    if on_sq:
        sample_values, scale = data.values[sample], -2.0 * spec.sigma**2
        by_col0 = np.argsort(sample_values[:, 0], kind="stable")
        # blocks of queries close in column 0, whose windows are narrow
        order = np.argsort(data.values[queries, 0], kind="stable")
    labels = np.empty(len(queries), dtype=np.int64)

    def label_block(start: int):
        """Labels a block; returns its kernel values, rows that took all their cells and squared distances."""
        rows = order[start : start + height]
        block = queries[rows]
        cols, selected, sq_cells = None, None, 0  # cols: the sample positions the block's cells are in, where not all
        if on_sq:
            cols, sq, selected, sq_cells = _rbf_select(data.values[block], sample_values, by_col0, scale, knn_k)
        if selected is not None:
            cells, d, kth = selected
            computed, full_rows = len(cells), 0
        else:
            k = _rbf_values(sq, scale) if on_sq else kernel_block(spec, data, block, sample)
            computed = k.size
            self_block = kernel_diag(spec, data, block)
            finite = np.isfinite(k).all(axis=1) & np.isfinite(self_block)
            if not finite.all():
                a = np.argmin(finite)
                j = sample[np.argmin(np.isfinite(k[a]))]
                raise nonfinite_error(spec, data, block[a], j, f"query id {block[a]}")
            d = _distance(k, self_block[:, None] + self_sample)
            kth = np.partition(d, knn_k - 1, axis=1)[:, knn_k - 1]
            full_rows = len(block)
            cells = np.flatnonzero(d <= kth[:, None])
            d = d.ravel()[cells]
        picked = _first_k(cells, n if cols is None else len(cols), d, kth, knn_k)
        nearest = sample_labels[picked if cols is None else cols[picked]]
        flat = (np.arange(len(block))[:, None] * n_labels + nearest).ravel()
        votes = np.bincount(flat, minlength=len(block) * n_labels)
        labels[rows] = votes.reshape(len(block), n_labels).argmax(axis=1)
        return computed, full_rows, sq_cells

    starts = range(0, len(queries), height)
    if threads <= 1:  # in the calling thread: a pool thread may allocate from its own malloc arena
        blocks = list(map(label_block, starts))
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(label_block, starts))
    work = dict.fromkeys(("kernel_values", "full_rows", "squared_distances"), 0)
    for key, counts in zip(work, zip(*blocks)):
        work[key] = sum(counts)
    return labels, {"queries": len(queries), **work}


def fit_predict(data, config: KtConfig, threads: int = 1) -> KtResult:
    """Run the whole pipeline and return everything needed to audit it."""
    n = n_rows(data)
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
    work = dict.fromkeys(("queries", "kernel_values", "full_rows", "squared_distances"), 0)
    if config.sample_size < n:
        queries = np.setdiff1d(np.arange(n), sample)
        # positional, as bench/worker.py's tracer reads the sample and the queries
        full[queries], work = knn_extend(
            config.kernel, data, np.asarray(sample), sample_labels.assignments, queries, config.knn_k, threads=threads
        )
    timer.lap("extend")

    return KtResult(
        labels=ClusterLabels(assignments=full, n_clusters=config.n_clusters),
        tree=tree,
        sample=tuple(sample),
        sample_labels=sample_labels,
        decomposition=decomp,
        timings=timer.total(),
        extension=work,
    )
