import dataclasses
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treelets.extend
from oracles import decompose_rescan, eval_kernel, kernel_distance, obs, same_decomposition
from treelets import (
    ClusterLabels,
    Dataset,
    Graph,
    GraphKernel,
    KtConfig,
    LinearKernel,
    MissingRbfKernel,
    PolynomialKernel,
    RbfKernel,
    fit_predict,
    generate,
    gram,
    knn_extend,
    matching_matrix,
    sample_indices,
)
from treelets.datagen import Blobs, Circles
from treelets.kernels import kernel_block, kernel_diag


def co_membership(assignments) -> np.ndarray:
    a = np.asarray(assignments)
    return a[:, None] == a[None, :]


def agreement_of(labels, reference) -> float:
    mm = matching_matrix(labels, reference)
    return (mm.tp + mm.tn) / mm.total


def single_linkage_two_clusters(points: np.ndarray) -> np.ndarray:
    """O(n^3) single-linkage oracle, stopped at two clusters."""
    n = len(points)
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    clusters = [{i} for i in range(n)]
    while len(clusters) > 2:
        best = (math.inf, None, None)
        for a in range(len(clusters)):
            for b in range(a + 1, len(clusters)):
                link = min(d[i, j] for i in clusters[a] for j in clusters[b])
                if link < best[0]:
                    best = (link, a, b)
        _, a, b = best
        clusters[a] |= clusters[b]
        del clusters[b]
    labels = np.empty(n, dtype=np.int64)
    for cid, members in enumerate(clusters):
        labels[list(members)] = cid
    return labels


class TestSampleIndices:
    def test_full_sample_is_a_permutation(self):
        assert sorted(sample_indices(8, 8, seed=3)) == list(range(8))

    def test_deterministic(self):
        assert sample_indices(10, 3, seed=42) == sample_indices(10, 3, seed=42)

    def test_distinct(self):
        s = sample_indices(100, 40, seed=7)
        assert len(set(s)) == 40

    def test_oversample_rejected(self):
        with pytest.raises(ValueError):
            sample_indices(3, 4, seed=0)

    def test_negative_count_rejected(self):
        """A count of -2 took items[:-2], eight indices of ten."""
        with pytest.raises(ValueError, match="^cannot sample -2 of 10 observations$"):
            sample_indices(10, -2, seed=0)

    def test_uniformity_five_sigma(self):
        """Frequency of each index over 1e5 single draws stays within 5 sigma."""
        counts = np.zeros(10, dtype=np.int64)
        for seed in range(100_000):
            counts[sample_indices(10, 1, seed=seed)[0]] += 1
        sigma = math.sqrt(100_000 * 0.1 * 0.9)
        assert np.abs(counts - 10_000).max() <= 5 * sigma


class TestKernelDistance:
    def test_zero_for_identical(self):
        x = np.array([1.0, 2.0])
        assert kernel_distance(RbfKernel(sigma=0.3), x, x) == 0.0

    def test_rbf_identity(self, np_rng):
        # unit self-similarity makes d^2 = 2 - 2K
        spec = RbfKernel(sigma=0.7)
        for _ in range(20):
            x1 = np_rng.normal(size=3)
            x2 = np_rng.normal(size=3)
            k = eval_kernel(spec, x1, x2)
            assert kernel_distance(spec, x1, x2) == pytest.approx(
                math.sqrt(2.0 - 2.0 * k), rel=1e-12
            )

    def test_linear_orthonormal(self):
        d = kernel_distance(LinearKernel(), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert d == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_round_off_clamped(self):
        # nearly identical points must not sqrt a negative
        x = np.array([0.1, 0.2])
        y = x + 1e-16
        assert kernel_distance(RbfKernel(sigma=1.0), x, y) >= 0.0


class TestKnnExtend:
    def test_query_in_sample_keeps_its_label(self, np_rng):
        data = Dataset(np_rng.normal(size=(6, 2)))
        sample = np.arange(6)
        labels = np.array([0, 1, 0, 1, 0, 1])
        out, _ = knn_extend(RbfKernel(sigma=1.0), data, sample, labels, np.array([3]), knn_k=1)
        assert out[0] == 1

    def test_majority_beats_single_close_vote(self):
        # two A points at distance 1, one B point at distance 10, k=3 -> A
        data = Dataset([[0.0], [1.0], [-1.0], [10.0]])
        sample = np.array([1, 2, 3])
        labels = np.array([0, 0, 1])
        out, _ = knn_extend(LinearKernel(), data, sample, labels, np.array([0]), knn_k=3)
        assert out[0] == 0

    def test_unanimous_sample(self, np_rng):
        data = Dataset(np_rng.normal(size=(9, 2)))
        sample = np.arange(5)
        labels = np.zeros(5, dtype=np.int64)
        out, _ = knn_extend(RbfKernel(sigma=1.0), data, sample, labels, np.arange(5, 9), knn_k=3)
        assert (out == 0).all()

    def test_k1_matches_brute_force_scan(self, np_rng):
        spec = RbfKernel(sigma=0.5)
        data = Dataset(np_rng.normal(size=(30, 2)))
        sample = np.array(sample_indices(30, 12, seed=5))
        labels = np_rng.integers(0, 3, size=12)
        queries = np.array([i for i in range(30) if i not in set(sample.tolist())])
        got, _ = knn_extend(spec, data, sample, labels, queries, knn_k=1)
        for qi, q in enumerate(queries):
            dists = [
                kernel_distance(spec, data.values[q], data.values[int(s)]) for s in sample
            ]
            best = int(np.lexsort((np.arange(len(sample)), np.array(dists)))[0])
            assert got[qi] == labels[best]

    def test_distance_tie_prefers_earlier_sample_position(self):
        # both sample points equidistant from the query; position 0 wins
        data = Dataset([[1.0], [-1.0], [0.0]])
        out, _ = knn_extend(
            LinearKernel(), data, np.array([0, 1]), np.array([1, 0]), np.array([2]), knn_k=1
        )
        assert out[0] == 1

    def test_vote_tie_prefers_smaller_cluster_id(self):
        data = Dataset([[0.0], [1.0], [-1.0]])
        out, _ = knn_extend(
            LinearKernel(),
            data,
            np.array([1, 2]),
            np.array([1, 0]),
            np.array([0]),
            knn_k=1,
        )
        # distances tie at position level already resolved; force a 2-vote tie
        out2, _ = knn_extend(
            LinearKernel(),
            data,
            np.array([1, 2]),
            np.array([1, 0]),
            np.array([0]),
            knn_k=2,
        )
        assert out2[0] == 0
        assert out[0] == 1

    def test_threads_do_not_change_results(self, np_rng):
        data = Dataset(np_rng.normal(size=(40, 2)))
        sample = np.arange(15)
        labels = np_rng.integers(0, 4, size=15)
        queries = np.arange(15, 40)
        spec = RbfKernel(sigma=0.8)
        a, _ = knn_extend(spec, data, sample, labels, queries, knn_k=3, threads=1)
        b, _ = knn_extend(spec, data, sample, labels, queries, knn_k=3, threads=4)
        assert np.array_equal(a, b)
        # one thread labels its blocks in the calling thread, with no pool
        with patch.object(treelets.extend, "ThreadPoolExecutor", side_effect=AssertionError("pool started")):
            c, _ = knn_extend(spec, data, sample, labels, queries, knn_k=3, threads=1)
        assert np.array_equal(a, c)

    def test_non_finite_query_names_kernel_and_query_id(self):
        data = Dataset([[0.1, 0.0], [0.2, 0.0], [1000.0, 0.0], [0.3, 0.0], [2000.0, 0.0]])
        spec = PolynomialKernel(alpha=1.0, c0=0.0, degree=201)
        with pytest.raises(ValueError, match=r"PolynomialKernel\(.*query id 2$"):
            knn_extend(spec, data, np.array([0, 1]), np.array([0, 1]), np.array([3, 2, 4]), knn_k=1)

    def test_non_finite_sample_self_similarity_names_the_sample_id(self):
        """Sample 0's <x, x> overflows: it is refused, not taken as infinitely far."""
        data = Dataset([[1e200, 0.0], [0.0, 1.0], [0.0, 2.0], [0.0, 1.5]])
        with pytest.raises(ValueError, match=r"^kernel LinearKernel\(\) gives a non-finite value for sample id 0$"):
            knn_extend(LinearKernel(), data, np.array([0, 1, 2]), np.array([0, 1, 1]), np.array([3]), 1)

    def test_query_sharing_no_attribute_names_the_pair(self):
        present = np.array([[True, True], [True, False], [False, True], [True, True]])
        data = Dataset(np.ones((4, 2)), present)
        with pytest.raises(ValueError, match="^no shared observed attributes between rows 2 and 1$"):
            knn_extend(MissingRbfKernel(gamma=1.0), data, np.array([0, 1]), np.array([0, 1]),
                       np.array([3, 2]), knn_k=1)

    def test_empty_sample_rejected(self, np_rng):
        data = Dataset(np_rng.normal(size=(3, 2)))
        with pytest.raises(ValueError):
            knn_extend(
                RbfKernel(sigma=1.0),
                data,
                np.array([], dtype=np.int64),
                np.array([], dtype=np.int64),
                np.array([0]),
                knn_k=1,
            )


@pytest.mark.parametrize("kind", ["rbf", "linear"])
@pytest.mark.parametrize(
    "bad, message",
    [
        ({"sample_labels": np.r_[np.arange(10) % 2, 0, 0, 0]}, "^13 sample labels for 10 sampled ids$"),
        ({"sample_labels": np.r_[np.arange(9) % 2, -1]}, "^sample label -1 is negative$"),
        ({"sample": np.r_[np.arange(9), -1]}, r"^sample id -1 outside \[0, 20\)$"),
        ({"sample": np.r_[np.arange(9), 20]}, r"^sample id 20 outside \[0, 20\)$"),
        ({"queries": np.r_[np.arange(10, 20), -1]}, r"^query id -1 outside \[0, 20\)$"),
        ({"queries": np.r_[np.arange(10, 20), 25, -3]}, r"^query id 25 outside \[0, 20\)$"),
        ({"sample": np.arange(10) + 0.5}, "^sample ids must be integers, not float64$"),
        ({"queries": np.arange(10, 20.0)}, "^query ids must be integers, not float64$"),
        ({"queries": np.arange(10, 20).reshape(2, 5)}, "^query ids must be a 1-D array, not 2-D$"),
        ({"sample": np.arange(10)[:, None]}, "^sample ids must be a 1-D array, not 2-D$"),
        ({"knn_k": 0}, "^knn_k must be >= 1, not 0$"),
        ({"knn_k": -2}, "^knn_k must be >= 1, not -2$"),
    ],
    ids=["labels-too-long", "negative-label", "negative-sample-id", "sample-id-n", "negative-query-id", "query-id-past-n",
         "float-sample-ids", "float-query-ids", "2d-queries", "2d-sample", "knn-k-0", "knn-k-negative"],
)
def test_knn_extend_refuses_bad_labels_and_ids_before_any_block(kind, bad, message, monkeypatch):
    """Too many labels, a negative label, and an id outside [0, n) on either side were
    taken silently (a negative id wrapping to the last row), voted with, or failed in
    numpy's bincount or indexing; float ids were truncated, and 2-D queries and a knn_k
    below 1 failed in numpy's indexing or repeat; each is refused, naming the first bad value."""
    data = Dataset(np.random.default_rng(3).normal(size=(20, 2)))
    spec = RbfKernel(sigma=1.0) if kind == "rbf" else LinearKernel()
    args = {"sample": np.arange(10), "sample_labels": np.arange(10) % 2, "queries": np.arange(10, 20), "knn_k": 3, **bad}
    monkeypatch.setattr(treelets.extend, "kernel_block", lambda *a: pytest.fail("a block was computed"))
    monkeypatch.setattr(treelets.extend, "_rbf_select", lambda *a: pytest.fail("a block was computed"))
    with pytest.raises(ValueError, match=message):
        knn_extend(spec, data, args["sample"], args["sample_labels"], args["queries"], args["knn_k"])


def test_knn_extend_takes_graph_ids_below_n_vertices():
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    spec = treelets.graph_kernel_for(g)
    labels, _ = knn_extend(spec, g, np.array([0, 5]), np.array([0, 1]), np.array([1, 4]), 1)
    assert labels.tolist() == [0, 1]
    with pytest.raises(ValueError, match=r"^query id 6 outside \[0, 6\)$"):
        knn_extend(spec, g, np.array([0, 5]), np.array([0, 1]), np.array([1, 6]), 1)


def knn_by_kernel_distance(spec, data, sample, labels, queries, knn_k):
    """Oracle: per-query kernel_distance scan, stable on distance ties."""
    out = []
    for q in queries:
        d = [kernel_distance(spec, obs(data, int(q)), obs(data, int(s))) for s in sample]
        nearest = labels[np.argsort(d, kind="stable")[:knn_k]]
        out.append(int(np.bincount(nearest).argmax()))
    return np.array(out)


def extension_case(kind):
    rng = np.random.default_rng(31)
    if kind == "graph":
        pairs = [(u, v) for u in range(40) for v in range(u + 1, 40) if rng.random() < 0.15]
        data = Graph(40, pairs)
        return GraphKernel(diag=float(data.max_degree)), data
    # multiples of 1/4 keep inner products exact, so the oracle's distances
    # equal knn_extend's bit for bit; rows 30-39 duplicate rows 0-9
    values = np.round(rng.normal(size=(40, 3)) * 4) / 4
    values[30:] = values[:10]
    present = rng.random(values.shape) < 0.8
    present[:, 0] = True
    present[30:] = present[:10]
    spec = {
        "rbf": RbfKernel(sigma=0.8),
        "linear": LinearKernel(),
        "poly": PolynomialKernel(0.5, 1.0, 3),
        "missing-rbf": MissingRbfKernel(gamma=0.5),
    }[kind]
    return spec, Dataset(values, present if kind == "missing-rbf" else None)


@pytest.mark.parametrize("knn_k", [1, 3, 5])
@pytest.mark.parametrize("kind", ["rbf", "linear", "poly", "missing-rbf", "graph"])
def test_knn_extend_matches_kernel_distance_scan(kind, knn_k, monkeypatch):
    spec, data = extension_case(kind)
    sample = np.array([0, 2, 3, 5, 7, 8, 11, 13, 17, 19, 23, 24, 29, 31, 33])
    queries = np.setdiff1d(np.arange(40), sample)
    labels = np.random.default_rng(5).integers(0, 4, size=len(sample))
    expected = knn_by_kernel_distance(spec, data, sample, labels, queries, knn_k)
    # the default budget fits every query in one block; the small one
    # splits them into blocks of three queries
    for budget in (treelets.extend._BLOCK_ELEMENTS, 3 * len(sample)):
        monkeypatch.setattr(treelets.extend, "_BLOCK_ELEMENTS", budget)
        for threads in (1, 2, 4):
            got, _ = knn_extend(spec, data, sample, labels, queries, knn_k, threads=threads)
            assert np.array_equal(got, expected), (budget, threads)


def argsort_vote(spec, data, sample, labels, queries, knn_k):
    """Oracle: knn_extend's distances, the k nearest by a stable argsort."""
    k = kernel_block(spec, data, queries, sample)
    self_q = kernel_diag(spec, data, queries)
    d = np.sqrt(np.maximum(0.0, self_q[:, None] + kernel_diag(spec, data, sample) - 2.0 * k))
    nearest = labels[np.argsort(d, axis=1, kind="stable")[:, :knn_k]]
    return np.array([np.bincount(row, minlength=labels.max() + 1).argmax() for row in nearest])


@st.composite
def tie_heavy_extension(draw):
    """Few distinct coordinates and duplicated rows, so distances tie often."""
    knn_k = draw(st.sampled_from([1, 3, 5]))
    n = draw(st.integers(knn_k + 1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["rbf", "linear", "graph"]))
    if kind == "graph":
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        data = Graph(n, pairs)
        spec = GraphKernel(diag=float(max(1, data.max_degree)))
    else:
        values = rng.integers(-2, 3, size=(n, draw(st.integers(1, 3)))) / 2
        dup = rng.integers(0, n, size=n // 3)
        values[rng.integers(0, n, size=len(dup))] = values[dup]
        data = Dataset(values)
        spec = RbfKernel(sigma=1.0) if kind == "rbf" else LinearKernel()
    order = rng.permutation(n)
    n_sample = draw(st.integers(knn_k, n - 1))
    sample, queries = order[:n_sample], order[n_sample:]
    labels = rng.integers(0, draw(st.integers(1, 4)), size=n_sample)
    return spec, data, sample, labels, queries, knn_k


@settings(max_examples=200, deadline=None)
@given(tie_heavy_extension())
def test_partition_selection_votes_like_stable_argsort(case):
    spec, data, sample, labels, queries, knn_k = case
    got, _ = knn_extend(spec, data, sample, labels, queries, knn_k)
    assert np.array_equal(got, argsort_vote(spec, data, sample, labels, queries, knn_k))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 30),
    st.integers(0, 2**32 - 1),
    st.sampled_from([1, 3, 5]),
)
def test_first_k_takes_the_stable_argsort_set(n_rows, width, seed, k):
    rng = np.random.default_rng(seed)
    k = min(k, width)
    d = rng.integers(0, 4, size=(n_rows, width)).astype(float)
    kth = np.partition(d, k - 1, axis=1)[:, k - 1]
    # candidates: every cell at or below kth and a random share of the rest
    cells = np.flatnonzero((d <= kth[:, None]) | (rng.random(d.shape) < 0.5))
    got = treelets.extend._first_k(cells, width, d.ravel()[cells], kth, k)
    expected = np.sort(np.argsort(d, axis=1, kind="stable")[:, :k], axis=1)
    assert np.array_equal(got, expected)


@st.composite
def screened_extension(draw):
    """Cases where K(x, x) is one constant: tied kernel values, values a few
    ulps below 1, distinct values near 0 for which c - 2k rounds to one
    distance, values that all underflow to 0, missing cells, and graphs whose
    query vertices have no sampled neighbour."""
    knn_k = draw(st.sampled_from([1, 3, 5]))
    n = draw(st.integers(knn_k + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(
        st.sampled_from(["rbf", "near-one", "near-zero", "underflow", "missing-rbf", "graph", "unit-linear"])
    )
    if kind == "graph":
        edge_p = draw(st.sampled_from([0.02, 0.1, 0.3]))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < edge_p]
        data = Graph(n, pairs)
        spec = GraphKernel(diag=float(max(1, data.max_degree)))
    elif kind == "unit-linear":
        axes = np.vstack([np.eye(3), -np.eye(3)])
        data, spec = Dataset(axes[rng.integers(0, 6, size=n)]), LinearKernel()
    else:
        # half-integer coordinates with duplicated rows
        values = rng.integers(-2, 3, size=(n, draw(st.integers(1, 3)))) / 2
        dup = rng.integers(0, n, size=n // 3)
        values[rng.integers(0, n, size=len(dup))] = values[dup]
        present = rng.random(values.shape) < 0.7
        present[:, 0] = True
        spec, data = {
            "rbf": (RbfKernel(sigma=draw(st.sampled_from([0.3, 1.0]))), Dataset(values)),
            # squared distances of a few 1e-16: kernel values 1 or a few ulps below
            "near-one": (RbfKernel(sigma=1.0), Dataset(values * 1e-8)),
            # kernel values of 1e-15 and below: 2 - 2k rounds to 2
            "near-zero": (RbfKernel(sigma=0.06), Dataset(values)),
            # distinct rows are at least 0.5 apart: every kernel value off the diagonal is 0
            "underflow": (RbfKernel(sigma=1e-3), Dataset(values)),
            "missing-rbf": (MissingRbfKernel(gamma=draw(st.sampled_from([0.5, 1e6]))), Dataset(values, present)),
        }[kind]
    order = rng.permutation(n)
    n_sample = draw(st.integers(knn_k, n - 1))
    sample, queries = order[:n_sample], order[n_sample:]
    labels = rng.integers(0, draw(st.integers(1, 4)), size=n_sample)
    return spec, data, sample, labels, queries, knn_k


@settings(max_examples=150, deadline=None)
@given(screened_extension())
def test_screen_votes_like_stable_argsort(case):
    """Every kind gives the stable argsort's vote, at every thread count and
    block height."""
    spec, data, sample, labels, queries, knn_k = case
    expected = argsort_vote(spec, data, sample, labels, queries, knn_k)
    for budget in (treelets.extend._BLOCK_ELEMENTS, 3 * len(sample)):
        with patch.object(treelets.extend, "_BLOCK_ELEMENTS", budget):
            for threads in (1, 2, 4):
                got, _ = knn_extend(spec, data, sample, labels, queries, knn_k, threads=threads)
                assert np.array_equal(got, expected), (budget, threads)


@pytest.mark.parametrize("kind", ["rbf", "missing-rbf", "graph", "linear"])
def test_only_rbf_selects_on_squared_distances(kind, monkeypatch):
    """An RBF block (its sample no larger than its pilot) partitions all its
    squared distances, then its candidates' distances, each for the k-th
    smallest; every other kernel partitions the distances of all its cells,
    for the k-th smallest."""
    spec, data = extension_case(kind)
    sample = np.arange(0, 40, 3)
    queries = np.setdiff1d(np.arange(40), sample)
    labels = np.arange(len(sample)) % 3
    kths = []
    partition = np.partition

    def spy(a, kth, **kwargs):
        kths.append(kth)
        return partition(a, kth, **kwargs)

    monkeypatch.setattr(np, "partition", spy)
    knn_extend(spec, data, sample, labels, queries, 3)
    assert kths == {"rbf": [2, 2]}.get(kind, [2])


@pytest.mark.parametrize("margin", [2.0**-26, 0.0])
def test_screen_keeps_a_tie_below_the_kth_largest_kernel_value(margin):
    """Kernel values 4e-61 and 1.9e-22 both give distance sqrt(2), so the
    earlier sample position wins the tie though its kernel value is the
    smaller: the guard proves nothing and the row takes every cell, with a
    small RBF margin as with none."""
    data = Dataset([[0.0], [1.0], [0.6]])
    with patch.object(treelets.extend, "_RBF_MARGIN", margin):
        got, _ = knn_extend(RbfKernel(sigma=0.06), data, np.array([1, 2]), np.array([0, 1]), np.array([0]), 1)
    assert got[0] == 0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_self_similarity_whose_double_overflows_takes_the_general_branch():
    """K(x, x) = 1e308 for every row, so c + c is inf and a parallel pair's
    distance is NaN, which the partition on distances sorts last."""
    data = Dataset([[1e154, 0.0], [0.0, 1e154], [-1e154, 0.0], [1e154, 0.0]])
    sample, labels, queries = np.array([0, 1, 2]), np.array([0, 1, 2]), np.array([3])
    got, _ = knn_extend(LinearKernel(), data, sample, labels, queries, 1)
    assert got[0] == argsort_vote(LinearKernel(), data, sample, labels, queries, 1)[0] == 1


def stress_case(kind):
    data, _ = generate(Circles(factor=0.5, noise=0.05), 1500, 3)
    sample = np.array(sorted(sample_indices(1500, 300, 3)))
    if kind == "sparse-graph":
        rng = np.random.default_rng(7)
        pairs = rng.integers(0, 1500, size=(2250, 2))
        graph = Graph(1500, pairs[pairs[:, 0] != pairs[:, 1]])
        return GraphKernel(diag=float(graph.max_degree)), graph, sample
    if kind == "heavy-ties":
        return RbfKernel(sigma=0.1), Dataset(np.round(data.values * 4) / 2), sample
    sigma = {"far-queries": 1e-3, "mid-sigma": 0.3}[kind]
    return RbfKernel(sigma=sigma), data, sample


@pytest.mark.parametrize("kind", ["far-queries", "heavy-ties", "mid-sigma", "sparse-graph"])
def test_screen_stress_cases_vote_like_stable_argsort(kind):
    """Far queries (every kernel value 0) and a sparse graph (most k-th largest
    values 0) keep every cell; heavy ties and a mid sigma keep few."""
    spec, data, sample = stress_case(kind)
    n = data.n_vertices if isinstance(data, Graph) else data.n
    queries = np.setdiff1d(np.arange(n), sample)
    labels = np.random.default_rng(11).integers(0, 3, size=len(sample))
    got, _ = knn_extend(spec, data, sample, labels, queries, 5)
    assert np.array_equal(got, argsort_vote(spec, data, sample, labels, queries, 5))


@st.composite
def rbf_extension(draw):
    """RBF cases for the screen on squared distances: duplicated rows (squared
    distance 0), ties at the k-th distance on a half-integer grid, squared
    distances of a few 1e-16 (values 1 or a few ulps below), a sigma under
    which every value off the duplicates underflows to 0, and continuous
    points, whose rows the guard mostly proves."""
    knn_k = draw(st.sampled_from([1, 3, 5]))
    n = draw(st.integers(knn_k + 1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "near-one", "underflow", "continuous"]))
    width = draw(st.integers(1, 3))
    if kind == "continuous":
        values = rng.normal(size=(n, width))
    else:
        values = rng.integers(-2, 3, size=(n, width)) / 2
        if kind == "near-one":
            values *= 1e-8
    dup = rng.integers(0, n, size=n // 3)
    values[rng.integers(0, n, size=len(dup))] = values[dup]
    sigma = {"underflow": 1e-3}.get(kind) or draw(st.sampled_from([0.1, 0.3, 1.0, 3.0]))
    order = rng.permutation(n)
    n_sample = draw(st.integers(knn_k, n - 1))
    sample, queries = order[:n_sample], order[n_sample:]
    labels = rng.integers(0, draw(st.integers(1, 4)), size=n_sample)
    return kind, RbfKernel(sigma=sigma), Dataset(values), sample, labels, queries, knn_k


@settings(max_examples=150, deadline=None)
@given(rbf_extension())
def test_rbf_screen_on_squared_distances_votes_like_stable_argsort(case):
    """The default margin, a margin of 0 (no row is proven: each takes all its
    cells) and an infinite one (every cell is a candidate) all give the stable
    argsort's vote, at every thread count and block height.  Where every value
    off the duplicates underflows, the default margin proves just the rows
    with k duplicates in the sample (a k-th squared distance of 0), and a
    block with any other row takes all its cells."""
    kind, spec, data, sample, labels, queries, knn_k = case
    expected = argsort_vote(spec, data, sample, labels, queries, knn_k)
    everything = {"queries": len(queries), "kernel_values": len(queries) * len(sample), "full_rows": len(queries)}
    sq = ((data.values[queries][:, None] - data.values[sample][None]) ** 2).sum(axis=2)
    # in the order knn_extend cuts its blocks: ascending in column 0
    apart = (np.sort(sq, axis=1)[:, knn_k - 1] > 0)[np.argsort(data.values[queries, 0], kind="stable")]
    for margin in (treelets.extend._RBF_MARGIN, 0.0, math.inf):
        for budget in (treelets.extend._BLOCK_ELEMENTS, 3 * len(sample)):
            with patch.object(treelets.extend, "_RBF_MARGIN", margin), patch.object(
                treelets.extend, "_BLOCK_ELEMENTS", budget
            ):
                for threads in (1, 2, 4):
                    got, work = knn_extend(spec, data, sample, labels, queries, knn_k, threads=threads)
                    assert np.array_equal(got, expected), (margin, budget, threads)
                    if margin == 0.0:
                        assert {key: work[key] for key in everything} == everything, (budget, threads)
                    elif kind == "underflow":
                        height = max(1, budget // len(sample))
                        blocks = [apart[s : s + height] for s in range(0, len(queries), height)]
                        full = sum(len(b) for b in blocks if b.any()) if margin < math.inf else len(queries)
                        assert work["full_rows"] == full, (margin, budget)


@pytest.mark.parametrize("margin, work", [(2.0**-45, (3, 1)), (None, (1, 0))], ids=["inside", "default"])
def test_rbf_screen_proves_nothing_with_a_margin_inside_the_allowance(margin, work):
    """The k-th squared distance over 2 sigma^2 is 1/2.  A margin of 2**-45
    puts the value at the edge about 2**-45 (2**7 ulps) below the value at
    the k-th: distinct, but closer than the allowance for exp's rounding, so
    the row is not proven and takes all its cells.  The default margin
    proves it."""
    data = Dataset([[0.0], [1.0], [3.0], [-3.0]])
    with patch.object(treelets.extend, "_RBF_MARGIN", margin or treelets.extend._RBF_MARGIN):
        got, counters = knn_extend(RbfKernel(sigma=1.0), data, np.array([1, 2, 3]), np.array([0, 1, 1]),
                                   np.array([0]), 1)
    assert got[0] == 0
    assert (counters["kernel_values"], counters["full_rows"]) == work


def test_rbf_screen_keeps_a_tie_just_past_the_kth_squared_distance():
    """Column 8 is the nearest (squared distance 1) and gives the bound;
    column 3 is 2 ulps farther: past the bound but within its margin.  With
    sigma 2**10 their kernel values and distances are equal, so column 3
    wins the tie."""
    sample_values = [50.0, 60.0, 70.0, 1.0 + 2.0**-52, 80.0, 90.0, 100.0, 110.0, 1.0]
    data = Dataset(np.array([[0.0]] + [[v] for v in sample_values]))
    sample, labels, queries = np.arange(1, 10), np.array([1, 1, 1, 0, 1, 1, 1, 1, 1]), np.array([0])
    spec = RbfKernel(sigma=2.0**10)
    got, work = knn_extend(spec, data, sample, labels, queries, 1)
    assert got[0] == argsort_vote(spec, data, sample, labels, queries, 1)[0] == 0
    assert (work["kernel_values"], work["full_rows"]) == (2, 0)


def test_np_exp_is_within_two_ulps_of_math_exp():
    """The bound the RBF screen's _EXP_ALLOWANCE rests on: np.exp within 2 ulps
    of math.exp (itself within 1 ulp of exp) over [-745, 0], subnormal
    results included, so within 3 * 2**-52 relative where the result is
    normal; the allowance covers twice that with room for its own rounding."""
    rng = np.random.default_rng(25)
    x = np.concatenate([
        rng.uniform(-745.0, 0.0, 100_000),
        rng.uniform(-745.0, -708.0, 20_000),  # subnormal results
        -np.logspace(-300, np.log10(745.0), 20_000),  # from -1e-300, where exp rounds to 1
        [0.0, -0.0, -745.0, -708.4, -np.finfo(float).tiny],
    ])
    ref = np.array([math.exp(v) for v in x.tolist()])
    assert (np.abs(np.exp(x) - ref) <= 2 * np.spacing(ref)).all()
    assert treelets.extend._EXP_ALLOWANCE >= 2 * 3 * 2.0**-52 + 2.0**-52


def test_rbf_value_not_present_that_is_nan_is_named_as_before():
    """The squared-distance selection runs only on finite rows; a NaN in a cell
    that is not present sends the queries to the general branch, whose error
    names the query, or, for a sample row, the first query it spoils.  Of
    two such queries the first in query order is named, not the first in
    column-0 order, the order of the selection's blocks."""
    values = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [2.0, 2.0], [1.0, 1.0], [3.0, 0.0]])
    present = np.ones(values.shape, dtype=bool)
    sample, labels, queries = np.array([0, 1, 2]), np.array([0, 1, 1]), np.array([3, 4, 5])
    spec = RbfKernel(sigma=1.0)
    for cells, named in ((((4, 1),), 4), (((1, 1),), 3), (((3, 0), (4, 1)), 3)):
        bad, mask = values.copy(), present.copy()
        for cell in cells:
            bad[cell], mask[cell] = np.nan, False
        with pytest.raises(ValueError, match=rf"^kernel RbfKernel\(sigma=1.0\) gives a non-finite value for query id {named}$"):
            knn_extend(spec, Dataset(bad, mask), sample, labels, queries, 1)


@st.composite
def windowed_extension(draw):
    """RBF cases for the column-0 sample window: samples smaller and larger
    than the pilot (16 * knn_k), in no particular order; queries beyond the
    sample's column-0 range on either side; duplicated rows and ties at the
    k-th on a half-integer grid, continuous points, and a sigma under which
    every value off the duplicates underflows to 0."""
    knn_k = draw(st.sampled_from([1, 3, 5]))
    n_sample = draw(st.integers(knn_k, 100))
    n_queries = draw(st.integers(1, 60))
    n = n_sample + n_queries
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["grid", "underflow", "continuous"]))
    width = draw(st.integers(1, 3))
    values = rng.normal(size=(n, width)) if kind == "continuous" else rng.integers(-4, 5, size=(n, width)) / 2
    dup = rng.integers(0, n, size=n // 4)
    values[rng.integers(0, n, size=len(dup))] = values[dup]
    order = rng.permutation(n)
    sample, queries = order[:n_sample], order[n_sample:]
    if draw(st.booleans()):  # some queries beyond the sample's column-0 range
        far = queries[rng.random(n_queries) < 0.3]
        values[far, 0] += rng.choice([-1.0, 1.0], size=len(far)) * draw(st.sampled_from([3.0, 40.0]))
    sigma = 1e-3 if kind == "underflow" else draw(st.sampled_from([0.3, 1.0, 3.0]))
    labels = rng.integers(0, draw(st.integers(1, 4)), size=n_sample)
    return RbfKernel(sigma=sigma), Dataset(values), sample, labels, queries, knn_k


@settings(max_examples=150, deadline=None)
@given(windowed_extension())
def test_rbf_window_votes_like_stable_argsort(case):
    """The windowed RBF selection gives the stable argsort's vote at every
    block height and thread count, and no more full rows than a selection
    without windows (a pilot as large as the sample): a block the guard
    does not prove at its pilot's bounds is bounded as that selection
    bounds it."""
    spec, data, sample, labels, queries, knn_k = case
    expected = argsort_vote(spec, data, sample, labels, queries, knn_k)
    for budget in (treelets.extend._BLOCK_ELEMENTS, 3 * len(sample)):
        with patch.object(treelets.extend, "_BLOCK_ELEMENTS", budget):
            with patch.object(treelets.extend, "_PILOT_PER_K", len(sample)):
                _, unwindowed = knn_extend(spec, data, sample, labels, queries, knn_k)
            for threads in (1, 2, 4):
                got, work = knn_extend(spec, data, sample, labels, queries, knn_k, threads=threads)
                assert np.array_equal(got, expected), (budget, threads)
                assert work["full_rows"] <= unwindowed["full_rows"], (budget, threads)


def test_rbf_window_falls_back_to_every_sample_column():
    """With sigma 1e-3 every value underflows to 0 and every distance ties at
    sqrt(2), so the guard proves no row and the tie goes to sample position
    0, whose column 0 is far outside the window (the sample at 1 alone).
    The guard fails already at the pilot's bound, so no window is made: the
    block counts the pilot's 16 cells and all 21."""
    data = Dataset(np.array([[0.0], [1000.0]] + [[float(v)] for v in range(1, 21)]))
    sample, labels, queries = np.arange(1, 22), np.array([1] + [0] * 20), np.array([0])
    spec = RbfKernel(sigma=1e-3)
    got, work = knn_extend(spec, data, sample, labels, queries, 1)
    assert got[0] == argsort_vote(spec, data, sample, labels, queries, 1)[0] == 1
    assert work == {"queries": 1, "kernel_values": 21, "full_rows": 1, "squared_distances": 16 + 21}


def test_rbf_window_whose_row_the_guard_proves_only_at_the_pilot_bound_is_kept():
    """The guard is not monotone near its limit (x about 28 in units of
    2 sigma^2): at sigma 1 it proves 7.54**2 but not 7.53**2.  The pilot, the
    16 samples at (0, 7.54), bounds the query's squared distance by 7.54**2,
    which the guard proves, so the window is made: it drops the sample at
    1000 and keeps the one at (7.53, 0), the nearest.  A proof at a bound
    holds at the row's true k-th, so the window's 17 cells are the
    candidates, after the pilot's 16 squared distances."""
    points = [[0.0, 0.0]] + [[0.0, 7.54]] * 16 + [[7.53, 0.0], [1000.0, 0.0]]
    data = Dataset(np.array(points))
    sample, labels, queries = np.arange(1, 19), np.array([0] * 16 + [1, 0]), np.array([0])
    spec = RbfKernel(sigma=1.0)
    got, work = knn_extend(spec, data, sample, labels, queries, 1)
    assert got[0] == argsort_vote(spec, data, sample, labels, queries, 1)[0] == 1
    assert work == {"queries": 1, "kernel_values": 17, "full_rows": 0, "squared_distances": 16 + 17}


def test_extension_of_no_queries_reports_no_work():
    """The work counters come back by value, all four keys at 0 where there is nothing to label."""
    data = Dataset(np.array([[0.0], [1.0]]))
    got, work = knn_extend(RbfKernel(sigma=1.0), data, np.array([0, 1]), np.array([0, 1]), np.array([], int), 1)
    assert len(got) == 0
    assert work == {"queries": 0, "kernel_values": 0, "full_rows": 0, "squared_distances": 0}


def test_rbf_block_whose_pilot_bound_the_guard_fails_is_bounded_at_its_exact_kth():
    """The pilot, the 16 samples at (0, 10), bounds the query's squared
    distance by 100 (x = 50 in units of 2 sigma^2), which the guard does not
    prove, so the block makes no window.  Its exact k-th over every sample
    column, 1 at (1, 0), is proven: that one cell is its candidate."""
    data = Dataset(np.array([[0.0, 0.0]] + [[0.0, 10.0]] * 16 + [[1.0, 0.0]]))
    sample, labels, queries = np.arange(1, 18), np.array([0] * 16 + [1]), np.array([0])
    spec = RbfKernel(sigma=1.0)
    got, work = knn_extend(spec, data, sample, labels, queries, 1)
    assert got[0] == argsort_vote(spec, data, sample, labels, queries, 1)[0] == 1
    assert work == {"queries": 1, "kernel_values": 1, "full_rows": 0, "squared_distances": 16 + 17}


def test_rbf_extension_that_proves_no_row_computes_each_block_once():
    """At sigma 1e-3 every value off the duplicates underflows and no row is
    proven, so every block takes every sample column, straight after its
    pilot: 1000 queries x 1000 samples plus 80 pilot cells a query, 108 %."""
    data, truth = generate(Circles(factor=0.5, noise=0.05), 2000, 0)
    sample = np.array(sorted(sample_indices(2000, 1000, 0)))
    queries = np.setdiff1d(np.arange(2000), sample)
    spec, labels = RbfKernel(sigma=1e-3), truth.assignments[sample]
    got, work = knn_extend(spec, data, sample, labels, queries, 5)
    assert np.array_equal(got, argsort_vote(spec, data, sample, labels, queries, 5))
    assert work["full_rows"] == len(queries)
    assert work["squared_distances"] <= 1.10 * len(queries) * len(sample)


def test_rbf_window_keeps_a_column_whose_term_equals_its_reach():
    """sigma 2**12 makes the margin's absolute part 2 sigma^2 * 2**-16 = 512,
    so the query's reach is 256**2 * (1 + 2**-16) + 512 = 257**2 exactly: the
    sample at -257 is kept (a candidate, though not the nearest) and those
    from 1000 up are dropped."""
    data = Dataset(np.array([[0.0], [-257.0], [256.0]] + [[1000.0 + v] for v in range(16)]))
    sample, labels, queries = np.arange(1, 19), np.array([1, 0] + [1] * 16), np.array([0])
    got, work = knn_extend(RbfKernel(sigma=2.0**12), data, sample, labels, queries, 1)
    assert got[0] == 0
    assert work == {"queries": 1, "kernel_values": 2, "full_rows": 0, "squared_distances": 16 + 2}


def test_rbf_window_reaches_as_far_as_the_blocks_farthest_row():
    """One block of two queries, at 0 (a sample there: bound 0) and at 100,
    whose nearest sample, at 110, lies outside the block's column-0 range
    [0, 100] at a term of 100: the window must reach as far as the farther
    row's bound, not the nearer row's."""
    data = Dataset(np.array([[0.0], [100.0], [0.0], [110.0]] + [[1000.0 + v] for v in range(16)]))
    sample, labels, queries = np.arange(2, 20), np.array([0, 1] + [0] * 16), np.array([0, 1])
    got, _ = knn_extend(RbfKernel(sigma=100.0), data, sample, labels, queries, 1)
    assert got.tolist() == [0, 1]


class TestKtConfig:
    def test_even_knn_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            KtConfig(kernel=RbfKernel(sigma=1.0), sample_size=5, n_clusters=2, knn_k=4)

    def test_tiny_sample_rejected(self):
        with pytest.raises(ValueError):
            KtConfig(kernel=RbfKernel(sigma=1.0), sample_size=1, n_clusters=1)

    def test_lam_and_stop_tol_that_corrupt_scores_rejected(self):
        for lam in (math.nan, math.inf, 1e308, -1.0):
            with pytest.raises(ValueError, match="^lam must be in "):
                KtConfig(kernel=RbfKernel(sigma=1.0), sample_size=5, n_clusters=2, lam=lam)
        with pytest.raises(ValueError, match="^stop_tol must be >= 0, not nan$"):
            KtConfig(kernel=RbfKernel(sigma=1.0), sample_size=5, n_clusters=2, stop_tol=math.nan)


class TestFitPredict:
    def test_decomposes_its_gram_without_a_packed_copy(self, monkeypatch):
        """The pipeline decomposes the Gram it built in place, with no working
        copy, and gets the records of the rescanning oracle on that Gram."""
        data, _ = generate(Circles(factor=0.5, noise=0.05), 60, 4)
        cfg = KtConfig(kernel=RbfKernel(sigma=0.2), sample_size=60, n_clusters=2, seed=0, lam=0.5)
        a0 = gram(cfg.kernel, data, range(60))
        built, rotated = [], []
        monkeypatch.setattr(treelets.extend, "gram", lambda *args: built.append(gram(*args)) or built[-1])
        loop = treelets.extend.decompose
        monkeypatch.setattr(treelets.extend, "decompose", lambda g, **kw: rotated.append(g) or loop(g, **kw))
        res = fit_predict(data, cfg)
        monkeypatch.undo()
        assert len(rotated) == 1 and rotated[0] is built[0].data
        assert same_decomposition(res.decomposition, decompose_rescan(a0.data, lam=cfg.lam))

    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.0])
    def test_in_place_decomposition_equals_the_public_one(self, lam):
        """On a graph, an RBF and a masked Gram, each past the compaction floor:
        fit_predict's decomposition of its own Gram has the records, final_diag and
        stop_score that the public decompose gives on that Gram, which it leaves as it was."""
        rng = np.random.default_rng(5)
        graph = Graph(150, {(int(u), int(v)) for u, v in rng.integers(0, 150, size=(400, 2)) if u != v})
        points, _ = generate(Circles(factor=0.5, noise=0.05), 150, 2)
        present = rng.random((150, 4)) > 0.2
        present[:, 0] = True
        masked = Dataset(rng.normal(size=(150, 4)), present)
        cases = [(treelets.graph_kernel_for(graph), graph), (RbfKernel(sigma=0.2), points),
                 (MissingRbfKernel(gamma=0.5), masked)]
        for spec, data in cases:
            cfg = KtConfig(kernel=spec, sample_size=150, n_clusters=2, lam=lam, stop_tol=0.0)
            a0 = gram(spec, data, range(150))
            before = a0.data.tobytes()
            public = treelets.decompose(a0.data, lam=lam, stop_tol=0.0)
            assert a0.data.tobytes() == before
            in_place = fit_predict(data, cfg).decomposition
            assert public.compactions > 0
            assert same_decomposition(in_place, public), spec

    def test_full_sample_labels_come_from_the_cut(self):
        data, truth = generate(Blobs(centers=((0.0, 0.0), (20.0, 0.0)), stds=(1.0, 1.0)), 40, 2)
        cfg = KtConfig(kernel=RbfKernel(sigma=1.0), sample_size=40, n_clusters=2, seed=1)
        res = fit_predict(data, cfg)
        full = np.empty(40, dtype=np.int64)
        full[list(res.sample)] = res.sample_labels.assignments
        assert np.array_equal(res.labels.assignments, full)

    def test_sampled_labels_come_from_one_public_knn_extend_call(self, monkeypatch):
        """The rows outside the sample are labeled by one call of the module's
        knn_extend, with the sample at args[2] and the queries at args[4], where
        the bench's tracer reads them to count the extension's queries."""
        data, _ = generate(Circles(factor=0.5, noise=0.05), 80, 5)
        cfg = KtConfig(kernel=RbfKernel(sigma=0.15), sample_size=50, n_clusters=2, seed=11)
        calls = []
        extend = treelets.extend.knn_extend

        def recorder(*args, **kwargs):
            calls.append(args)
            return extend(*args, **kwargs)

        monkeypatch.setattr(treelets.extend, "knn_extend", recorder)
        res = fit_predict(data, cfg)
        assert len(calls) == 1
        assert calls[0][2].tolist() == list(res.sample)
        assert calls[0][4].tolist() == np.setdiff1d(np.arange(80), res.sample).tolist()
        assert res.extension["queries"] == 30

    def test_blobs_agree_with_single_linkage_oracle(self):
        data, truth = generate(Blobs(centers=((0.0, 0.0), (20.0, 0.0)), stds=(1.0, 1.0)), 60, 3)
        cfg = KtConfig(kernel=RbfKernel(sigma=1.0), sample_size=60, n_clusters=2, seed=0)
        res = fit_predict(data, cfg)
        oracle = single_linkage_two_clusters(data.values)
        assert np.array_equal(co_membership(res.labels.assignments), co_membership(oracle))
        mm = matching_matrix(res.labels, truth.assignments)
        assert (mm.tp + mm.tn) / mm.total == 1.0

    def test_bitwise_deterministic(self):
        data, _ = generate(Circles(factor=0.5, noise=0.05), 80, 5)
        cfg = KtConfig(kernel=RbfKernel(sigma=0.15), sample_size=50, n_clusters=2, seed=11)
        a = fit_predict(data, cfg)
        b = fit_predict(data, cfg)
        assert np.array_equal(a.labels.assignments, b.labels.assignments)
        assert a.sample == b.sample

    def test_results_compare_by_value(self):
        data, _ = generate(Circles(factor=0.5, noise=0.05), 80, 5)
        cfg = KtConfig(kernel=RbfKernel(sigma=0.15), sample_size=50, n_clusters=2, seed=11)
        a = fit_predict(data, cfg)
        b = fit_predict(data, cfg)
        assert a.labels is not b.labels and a.decomposition is not b.decomposition
        assert a == b
        assert a.labels == b.labels and a.decomposition == b.decomposition
        flipped = a.labels.assignments.copy()
        flipped[0] = 1 - flipped[0]
        changed = ClusterLabels(assignments=flipped, n_clusters=2)
        assert changed != a.labels
        assert dataclasses.replace(a, labels=changed) != b
        diag = a.decomposition.final_diag.copy()
        diag[0] += 1.0
        assert dataclasses.replace(a.decomposition, final_diag=diag) != b.decomposition

    def test_subsample_extends_to_everyone(self):
        data, truth = generate(Blobs(centers=((0.0, 0.0), (30.0, 0.0)), stds=(1.0, 1.0)), 50, 9)
        cfg = KtConfig(kernel=RbfKernel(sigma=1.0), sample_size=20, n_clusters=2, seed=2)
        res = fit_predict(data, cfg)
        assert res.labels.n == 50
        mm = matching_matrix(res.labels, truth.assignments)
        assert (mm.tp + mm.tn) / mm.total == 1.0

    def test_same_gram_same_merges(self, np_rng):
        """Only the similarity matrix matters, not the coordinates behind it.

        Swapping and negating coordinates changes every observation while
        keeping each pairwise squared distance bitwise identical, hence the
        gram matrix and therefore the whole merge sequence.
        """
        pts = np_rng.normal(size=(12, 2))
        mirrored = -pts[:, ::-1].copy()
        cfg = KtConfig(kernel=RbfKernel(sigma=0.9), sample_size=12, n_clusters=3, seed=4)
        a = fit_predict(Dataset(pts), cfg)
        b = fit_predict(Dataset(mirrored), cfg)
        assert [(m.removed, m.kept, m.score) for m in a.tree.merges] == [
            (m.removed, m.kept, m.score) for m in b.tree.merges
        ]

    def test_co_membership_invariant_to_relabeling(self):
        data, _ = generate(Circles(factor=0.5, noise=0.03), 60, 6)
        cfg = KtConfig(kernel=RbfKernel(sigma=0.2), sample_size=60, n_clusters=2, seed=3)
        res = fit_predict(data, cfg)
        flipped = 1 - res.labels.assignments
        assert np.array_equal(
            co_membership(res.labels.assignments), co_membership(flipped)
        )

    def test_timings_filled(self):
        data, _ = generate(Circles(), 30, 1)
        cfg = KtConfig(kernel=RbfKernel(sigma=0.2), sample_size=20, n_clusters=2, seed=1)
        timings = fit_predict(data, cfg).timings
        assert {"sample", "gram", "decompose", "cut", "extend", "total"} <= set(timings)

    def test_sample_size_beyond_n_rejected(self):
        data, _ = generate(Circles(), 10, 1)
        cfg = KtConfig(kernel=RbfKernel(sigma=0.2), sample_size=11, n_clusters=2)
        with pytest.raises(ValueError, match="exceeds"):
            fit_predict(data, cfg)

    def test_knn_k_beyond_sample_fails_before_gram(self, monkeypatch):
        def no_gram(*args, **kwargs):
            raise AssertionError("gram reached")

        monkeypatch.setattr(treelets.extend, "gram", no_gram)
        data, _ = generate(Circles(), 20, 1)
        cfg = KtConfig(kernel=RbfKernel(sigma=0.2), sample_size=3, n_clusters=2, knn_k=5)
        with pytest.raises(ValueError, match="knn_k cannot exceed the sample size"):
            fit_predict(data, cfg)

    def test_negative_stop_tol_fails_before_gram(self, monkeypatch):
        def no_gram(*args, **kwargs):
            raise AssertionError("gram reached")

        monkeypatch.setattr(treelets.extend, "gram", no_gram)
        data, _ = generate(Circles(), 20, 1)
        with pytest.raises(ValueError, match="stop_tol must be >= 0"):
            fit_predict(data, KtConfig(kernel=RbfKernel(sigma=0.2), sample_size=10, n_clusters=2, stop_tol=-1.0))

    def test_full_sample_allows_knn_k_beyond_n(self):
        data, _ = generate(Circles(), 3, 1)
        cfg = KtConfig(kernel=RbfKernel(sigma=0.2), sample_size=3, n_clusters=2, knn_k=5)
        assert fit_predict(data, cfg).labels.n == 3

    def test_sample_is_ascending_row_ids(self):
        data, _ = generate(Circles(), 30, 1)
        cfg = KtConfig(kernel=RbfKernel(sigma=0.2), sample_size=12, n_clusters=2, seed=8)
        res = fit_predict(data, cfg)
        assert list(res.sample) == sorted(res.sample)

    def test_full_sample_tree_aligns_with_original_ids(self):
        """Leaf i of a full-sample tree is row i, so a reference in dataset
        order evaluates correctly; a scrambled tree would score near chance."""
        from treelets import Graph, auc, graph_kernel_for, roc_from_hierarchy

        edges = []
        for base in (0, 12):
            for i in range(12):
                for j in range(i + 1, 12):
                    edges.append((base + i, base + j))
        edges.append((0, 12))  # one bridge between the cliques
        g = Graph(24, edges)
        cfg = KtConfig(kernel=graph_kernel_for(g), sample_size=24, n_clusters=2, seed=0)
        res = fit_predict(g, cfg)
        truth = np.repeat([0, 1], 12)
        assert agreement_of(res.labels, truth) == 1.0
        assert auc(roc_from_hierarchy(res.tree, g)) > 0.95
