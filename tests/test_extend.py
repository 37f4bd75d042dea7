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
    SymMatrix,
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
        out = knn_extend(RbfKernel(sigma=1.0), data, sample, labels, np.array([3]), knn_k=1)
        assert out[0] == 1

    def test_majority_beats_single_close_vote(self):
        # two A points at distance 1, one B point at distance 10, k=3 -> A
        data = Dataset([[0.0], [1.0], [-1.0], [10.0]])
        sample = np.array([1, 2, 3])
        labels = np.array([0, 0, 1])
        out = knn_extend(LinearKernel(), data, sample, labels, np.array([0]), knn_k=3)
        assert out[0] == 0

    def test_unanimous_sample(self, np_rng):
        data = Dataset(np_rng.normal(size=(9, 2)))
        sample = np.arange(5)
        labels = np.zeros(5, dtype=np.int64)
        out = knn_extend(RbfKernel(sigma=1.0), data, sample, labels, np.arange(5, 9), knn_k=3)
        assert (out == 0).all()

    def test_k1_matches_brute_force_scan(self, np_rng):
        spec = RbfKernel(sigma=0.5)
        data = Dataset(np_rng.normal(size=(30, 2)))
        sample = np.array(sample_indices(30, 12, seed=5))
        labels = np_rng.integers(0, 3, size=12)
        queries = np.array([i for i in range(30) if i not in set(sample.tolist())])
        got = knn_extend(spec, data, sample, labels, queries, knn_k=1)
        for qi, q in enumerate(queries):
            dists = [
                kernel_distance(spec, data.values[q], data.values[int(s)]) for s in sample
            ]
            best = int(np.lexsort((np.arange(len(sample)), np.array(dists)))[0])
            assert got[qi] == labels[best]

    def test_distance_tie_prefers_earlier_sample_position(self):
        # both sample points equidistant from the query; position 0 wins
        data = Dataset([[1.0], [-1.0], [0.0]])
        out = knn_extend(
            LinearKernel(), data, np.array([0, 1]), np.array([1, 0]), np.array([2]), knn_k=1
        )
        assert out[0] == 1

    def test_vote_tie_prefers_smaller_cluster_id(self):
        data = Dataset([[0.0], [1.0], [-1.0]])
        out = knn_extend(
            LinearKernel(),
            data,
            np.array([1, 2]),
            np.array([1, 0]),
            np.array([0]),
            knn_k=1,
        )
        # distances tie at position level already resolved; force a 2-vote tie
        out2 = knn_extend(
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
        a = knn_extend(spec, data, sample, labels, queries, knn_k=3, threads=1)
        b = knn_extend(spec, data, sample, labels, queries, knn_k=3, threads=4)
        assert np.array_equal(a, b)

    def test_non_finite_query_names_kernel_and_query_id(self):
        data = Dataset([[0.1, 0.0], [0.2, 0.0], [1000.0, 0.0], [0.3, 0.0], [2000.0, 0.0]])
        spec = PolynomialKernel(alpha=1.0, c0=0.0, degree=201)
        with pytest.raises(ValueError, match=r"PolynomialKernel\(.*query id 2$"):
            knn_extend(spec, data, np.array([0, 1]), np.array([0, 1]), np.array([3, 2, 4]), knn_k=1)

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
            got = knn_extend(spec, data, sample, labels, queries, knn_k, threads=threads)
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
    got = knn_extend(spec, data, sample, labels, queries, knn_k)
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
    """Cases for the constant-diagonal screen: tied kernel values, values a few
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
    """The default margin, a margin of 0 (every row falls back to all its cells)
    and an infinite one (every cell is a candidate) all give the stable
    argsort's vote, at every thread count and block height."""
    spec, data, sample, labels, queries, knn_k = case
    expected = argsort_vote(spec, data, sample, labels, queries, knn_k)
    for margin in (treelets.extend._SCREEN_MARGIN, 0.0, math.inf):
        for budget in (treelets.extend._BLOCK_ELEMENTS, 3 * len(sample)):
            with patch.object(treelets.extend, "_SCREEN_MARGIN", margin), patch.object(
                treelets.extend, "_BLOCK_ELEMENTS", budget
            ):
                for threads in (1, 2, 4):
                    got = knn_extend(spec, data, sample, labels, queries, knn_k, threads=threads)
                    assert np.array_equal(got, expected), (margin, budget, threads)


@pytest.mark.parametrize("kind", ["rbf", "missing-rbf", "graph", "linear"])
def test_constant_diagonal_selects_on_kernel_values(kind, monkeypatch):
    """Where K(x, x) is constant the partition runs on kernel values, for the
    k-th largest; otherwise on distances, for the k-th smallest."""
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
    assert kths == [2 if kind == "linear" else len(sample) - 3]


@pytest.mark.parametrize("margin", [2.0**-26, 0.0])
def test_screen_keeps_a_tie_below_the_kth_largest_kernel_value(margin):
    """Kernel values 4e-61 and 1.9e-22 both give distance sqrt(2), so the
    earlier sample position wins the tie though its kernel value is the
    smaller; a margin of 0 proves nothing and must fall back to every cell."""
    data = Dataset([[0.0], [1.0], [0.6]])
    with patch.object(treelets.extend, "_SCREEN_MARGIN", margin):
        got = knn_extend(RbfKernel(sigma=0.06), data, np.array([1, 2]), np.array([0, 1]), np.array([0]), 1)
    assert got[0] == 0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_self_similarity_whose_double_overflows_takes_the_general_branch():
    """K(x, x) = 1e308 for every row, so c + c is inf and a parallel pair's
    distance is NaN, which the partition on distances sorts last."""
    data = Dataset([[1e154, 0.0], [0.0, 1e154], [-1e154, 0.0], [1e154, 0.0]])
    sample, labels, queries = np.array([0, 1, 2]), np.array([0, 1, 2]), np.array([3])
    got = knn_extend(LinearKernel(), data, sample, labels, queries, 1)
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
    got = knn_extend(spec, data, sample, labels, queries, 5)
    assert np.array_equal(got, argsort_vote(spec, data, sample, labels, queries, 5))


class TestKtConfig:
    def test_even_knn_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            KtConfig(kernel=RbfKernel(sigma=1.0), sample_size=5, n_clusters=2, knn_k=4)

    def test_tiny_sample_rejected(self):
        with pytest.raises(ValueError):
            KtConfig(kernel=RbfKernel(sigma=1.0), sample_size=1, n_clusters=1)


class TestFitPredict:
    def test_decomposes_its_gram_in_place(self, monkeypatch):
        """The pipeline rotates the Gram it built, with no working copy, and
        gets the records of the rescanning oracle on that Gram."""
        data, _ = generate(Circles(factor=0.5, noise=0.05), 60, 4)
        cfg = KtConfig(kernel=RbfKernel(sigma=0.2), sample_size=60, n_clusters=2, seed=0, lam=0.5)
        a0 = gram(cfg.kernel, data, range(60))
        monkeypatch.setattr(SymMatrix, "copy", lambda self: pytest.fail("SymMatrix.copy called"))
        res = fit_predict(data, cfg)
        monkeypatch.undo()
        assert same_decomposition(res.decomposition, decompose_rescan(a0, lam=cfg.lam))

    def test_full_sample_labels_come_from_the_cut(self):
        data, truth = generate(Blobs(centers=((0.0, 0.0), (20.0, 0.0)), stds=(1.0, 1.0)), 40, 2)
        cfg = KtConfig(kernel=RbfKernel(sigma=1.0), sample_size=40, n_clusters=2, seed=1)
        res = fit_predict(data, cfg)
        full = np.empty(40, dtype=np.int64)
        full[list(res.sample)] = res.sample_labels.assignments
        assert np.array_equal(res.labels.assignments, full)

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
