import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import psd_sqrt
from treelets import (
    Dataset,
    Graph,
    GraphKernel,
    LinearKernel,
    MissingRbfKernel,
    PolynomialKernel,
    RbfKernel,
    check_spsd,
    eval_kernel,
    gram,
    graph_kernel_for,
)
from treelets.kernels import kernel_block, kernel_diag


def gram_by_scalar_loop(spec, data, indices):
    """Oracle: per-pair eval_kernel instead of the vectorized rows."""
    obs = [data.obs(i) for i in indices]
    m = len(obs)
    out = np.empty((m, m))
    for a in range(m):
        for b in range(m):
            out[a, b] = eval_kernel(spec, obs[a], obs[b])
    return out


class TestDataset:
    def test_rejects_non_finite_present_values(self):
        with pytest.raises(ValueError, match="finite"):
            Dataset([[1.0, math.nan]])

    def test_masked_nan_is_fine(self):
        d = Dataset([[1.0, math.nan]], present=[[True, False]])
        assert d.n == 1 and d.p == 2 and not d.fully_present

    def test_rejects_all_missing_row(self):
        with pytest.raises(ValueError, match="at least one present"):
            Dataset([[0.0, 0.0]], present=[[False, False]])


class TestGraph:
    def test_path_graph(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert g.n_edges == 2
        assert list(g.degrees) == [1, 2, 1]
        assert g.has_edge(1, 0) and not g.has_edge(0, 2)

    def test_duplicate_and_reversed_edges_collapse(self):
        g = Graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.n_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1)])

    def test_max_degree_helper(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert graph_kernel_for(g) == GraphKernel(diag=3.0)


class TestEvalKernel:
    def test_rbf_zero_distance(self):
        x = np.array([0.3, -1.2])
        assert eval_kernel(RbfKernel(sigma=0.1), x, x) == 1.0

    def test_rbf_formula(self):
        x1 = np.array([0.0, 0.0])
        x2 = np.array([3.0, 4.0])
        v = eval_kernel(RbfKernel(sigma=2.0), x1, x2)
        assert v == pytest.approx(math.exp(-25.0 / 8.0), rel=1e-14)

    def test_linear_and_polynomial(self):
        x = np.array([1.0, 0.0])
        assert eval_kernel(LinearKernel(), x, np.array([0.0, 1.0])) == 0.0
        assert eval_kernel(PolynomialKernel(alpha=1.0, c0=0.0, degree=2), x, x) == 1.0
        v = eval_kernel(PolynomialKernel(alpha=2.0, c0=1.0, degree=3), x, x)
        assert v == pytest.approx(27.0)

    def test_graph_kernel_values(self):
        g = Graph(3, [(0, 1)])
        spec = GraphKernel(diag=1045.0)
        assert eval_kernel(spec, g.obs(0), g.obs(0)) == 1045.0
        assert eval_kernel(spec, g.obs(0), g.obs(1)) == 1.0
        assert eval_kernel(spec, g.obs(0), g.obs(2)) == 0.0

    def test_missing_rbf_single_shared_index(self):
        u = (np.array([1.0, 0.0]), np.array([True, False]))
        v = (np.array([0.0, 5.0]), np.array([True, True]))
        got = eval_kernel(MissingRbfKernel(gamma=32.0), u, v)
        assert got == pytest.approx(math.exp(-32.0), rel=1e-14)

    def test_missing_rbf_no_overlap_is_an_error(self):
        u = (np.array([1.0, 0.0]), np.array([True, False]))
        v = (np.array([0.0, 5.0]), np.array([False, True]))
        with pytest.raises(ValueError, match="no shared observed attributes"):
            eval_kernel(MissingRbfKernel(gamma=32.0), u, v)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            eval_kernel(LinearKernel(), np.array([1.0]), np.array([1.0, 2.0]))

    def test_symmetry_across_variants(self, np_rng):
        x1 = np_rng.normal(size=4)
        x2 = np_rng.normal(size=4)
        m1 = np.array([True, True, False, True])
        m2 = np.array([True, False, True, True])
        for spec in (
            RbfKernel(sigma=0.7),
            LinearKernel(),
            PolynomialKernel(alpha=0.5, c0=1.0, degree=3),
        ):
            assert eval_kernel(spec, x1, x2) == eval_kernel(spec, x2, x1)
        spec = MissingRbfKernel(gamma=2.0)
        assert eval_kernel(spec, (x1, m1), (x2, m2)) == eval_kernel(spec, (x2, m2), (x1, m1))
        g = Graph(3, [(0, 1)])
        gk = GraphKernel(diag=4.0)
        for u in range(3):
            for v in range(3):
                assert eval_kernel(gk, g.obs(u), g.obs(v)) == eval_kernel(gk, g.obs(v), g.obs(u))

    def test_missing_rbf_on_full_masks_is_mean_squared_rbf(self, np_rng):
        # with everything present the kernel is exp(-gamma * mean sq diff)
        for _ in range(25):
            u = np_rng.normal(size=6)
            v = np_rng.normal(size=6)
            got = eval_kernel(MissingRbfKernel(gamma=32.0), u, v)
            expect = math.exp(-32.0 * float(np.mean((u - v) ** 2)))
            assert got == pytest.approx(expect, rel=1e-12)

    def test_rbf_range(self, np_rng):
        spec = RbfKernel(sigma=0.5)
        for _ in range(50):
            v = eval_kernel(spec, np_rng.normal(size=3), np_rng.normal(size=3))
            assert 0.0 < v <= 1.0


class TestGram:
    def test_three_identical_points(self):
        data = Dataset(np.zeros((3, 2)))
        k = gram(RbfKernel(sigma=0.1), data, [0, 1, 2])
        assert np.array_equal(k.to_dense(), np.ones((3, 3)))

    def test_path_graph_example(self):
        g = Graph(3, [(0, 1), (1, 2)])
        k = gram(GraphKernel(diag=2.0), g, [0, 1, 2])
        assert np.array_equal(k.to_dense(), [[2, 1, 0], [1, 2, 1], [0, 1, 2]])

    def test_linear_orthonormal_rows(self):
        data = Dataset([[1.0, 0.0], [0.0, 1.0]])
        k = gram(LinearKernel(), data, [0, 1])
        assert np.array_equal(k.to_dense(), np.eye(2))

    def test_non_finite_value_names_kernel_and_sample_ids(self):
        data = Dataset([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1000.0, 0.0]])
        spec = PolynomialKernel(alpha=1.0, c0=0.0, degree=200)
        # packed order visits (1, 1), (3, 1), (3, 3), ...: the first overflow is (3, 1)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(ValueError, match=r"PolynomialKernel\(.*sample ids \(3, 1\)"):
                gram(spec, data, [1, 3, 0])

    def test_matches_scalar_oracle(self, np_rng):
        values = np_rng.normal(size=(6, 3))
        present = np_rng.uniform(size=(6, 3)) > 0.3
        present[:, 0] = True
        data = Dataset(values, present)
        for spec in (
            RbfKernel(sigma=0.8),
            LinearKernel(),
            PolynomialKernel(alpha=1.0, c0=0.5, degree=2),
            MissingRbfKernel(gamma=3.0),
        ):
            got = gram(spec, data, [5, 1, 3]).to_dense()
            np.testing.assert_allclose(got, gram_by_scalar_loop(spec, data, [5, 1, 3]), rtol=1e-13)

    def test_graph_gram_matches_scalar_oracle(self, np_rng):
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (6, 7), (1, 6)])
        spec = graph_kernel_for(g)
        ids = [7, 0, 4, 2, 1]
        got = gram(spec, g, ids).to_dense()
        np.testing.assert_allclose(got, gram_by_scalar_loop(spec, g, ids))

    def test_duplicate_indices_rejected(self):
        data = Dataset(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="distinct"):
            gram(RbfKernel(sigma=1.0), data, [0, 0, 1])

    def test_graph_diag_below_max_degree_rejected(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(ValueError, match="diagonal dominance"):
            gram(GraphKernel(diag=2.0), g, [0, 1, 2, 3])

    def test_kernel_diag_matches_block(self, np_rng):
        values = np_rng.normal(size=(4, 3))
        present = np.ones((4, 3), dtype=bool)
        present[2, 1] = False
        cases = [
            (RbfKernel(sigma=1.0), Dataset(values)),
            (LinearKernel(), Dataset(values)),
            (PolynomialKernel(2.0, 1.0, 2), Dataset(values)),
            (MissingRbfKernel(gamma=0.5), Dataset(values, present)),
            (GraphKernel(diag=2.0), Graph(4, [(0, 2), (1, 2)])),
        ]
        ids = np.array([2, 0, 3])
        for spec, data in cases:
            diag = np.diagonal(kernel_block(spec, data, ids, ids))
            np.testing.assert_allclose(kernel_diag(spec, data, ids), diag, rtol=1e-14)

    def test_gram_names_rows_without_shared_attributes(self):
        values = np.ones((6, 2))
        present = np.ones((6, 2), dtype=bool)
        present[3] = [True, False]
        present[5] = [False, True]
        with pytest.raises(ValueError, match="no shared observed attributes between rows 5 and 3"):
            gram(MissingRbfKernel(gamma=1.0), Dataset(values, present), range(6))


@st.composite
def kernel_case(draw):
    """A kernel, data for it, and row ids split into consecutive parts."""
    kind = draw(st.sampled_from(["rbf", "linear", "poly", "missing-rbf", "graph"]))
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "graph":
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        data = Graph(n, pairs)
        spec = GraphKernel(diag=float(max(1, data.max_degree)))
    else:
        values = rng.normal(size=(n, draw(st.integers(1, 5))))
        present = rng.random(values.shape) < 0.7
        present[:, 0] = True
        spec = {
            "rbf": RbfKernel(sigma=draw(st.floats(0.1, 3.0))),
            "linear": LinearKernel(),
            "poly": PolynomialKernel(
                draw(st.floats(0.1, 2.0)), draw(st.floats(0.0, 2.0)), draw(st.integers(1, 3))
            ),
            "missing-rbf": MissingRbfKernel(gamma=draw(st.floats(0.1, 3.0))),
        }[kind]
        data = Dataset(values, present if kind == "missing-rbf" else None)
    ids = st.integers(0, n - 1)
    rows = draw(st.lists(ids, min_size=1, max_size=10))
    cols = draw(st.lists(ids, min_size=1, max_size=10))
    cuts = sorted(draw(st.lists(st.integers(1, len(rows)), max_size=3)))
    return spec, data, rows, cols, cuts


@settings(max_examples=150, deadline=None)
@given(kernel_case())
def test_kernel_block_is_blocking_invariant_and_matches_eval_kernel(case):
    spec, data, rows, cols, cuts = case
    whole = kernel_block(spec, data, rows, cols)
    parts = [kernel_block(spec, data, part, cols) for part in np.split(np.array(rows), cuts)]
    assert whole.shape == (len(rows), len(cols))
    assert np.array_equal(whole, np.vstack(parts))
    scalar = [[eval_kernel(spec, data.obs(r), data.obs(c)) for c in cols] for r in rows]
    # the atol covers inner products that cancel to near zero (|x| ~ 1)
    np.testing.assert_allclose(whole, scalar, rtol=1e-13, atol=1e-13)


class TestCheckSpsd:
    def test_identity(self):
        from treelets import SymMatrix

        report = check_spsd(SymMatrix.from_dense(np.eye(3)))
        assert report.symmetric
        assert report.min_eigenvalue_lower_bound == 1.0
        assert report.diagonally_dominant

    def test_gershgorin_counterexample(self):
        from treelets import SymMatrix

        report = check_spsd(SymMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]]))
        assert not report.diagonally_dominant
        assert report.min_eigenvalue_lower_bound == -1.0

    def test_graph_gram_with_max_degree_diag_is_dominant(self, np_rng):
        for _ in range(20):
            n = int(np_rng.integers(3, 12))
            edges = set()
            for _ in range(int(np_rng.integers(1, n * 2))):
                u, v = np_rng.choice(n, size=2, replace=False)
                edges.add((int(u), int(v)))
            g = Graph(n, edges)
            if g.max_degree == 0:
                continue
            k = gram(graph_kernel_for(g), g, range(n))
            report = check_spsd(k)
            assert report.diagonally_dominant
            assert report.min_eigenvalue_lower_bound >= -1e-10

    def test_numeric_grams_are_psd(self, np_rng):
        """Gershgorin may be loose for rbf kernels; the spectral check never is.

        The shared-attribute kernel is only near-PSD when missingness is
        mild, which is the regime it is meant for; see the companion test
        for what heavy missingness does.
        """
        for _ in range(30):
            n = int(np_rng.integers(2, 9))
            values = np_rng.normal(size=(n, 6))
            present = np_rng.uniform(size=(n, 6)) > 0.1
            present[:, 1] = True
            data = Dataset(values, present)
            for spec in (RbfKernel(sigma=0.5), MissingRbfKernel(gamma=2.0)):
                k = gram(spec, data, range(n))
                s = psd_sqrt(k, tol=1e-8)  # raises if any eigenvalue < -1e-8
                err = np.abs(s.to_dense() @ s.to_dense() - k.to_dense()).max()
                assert err < 1e-8

    def test_heavy_missingness_can_break_psd(self):
        """Sparse masks give each pair its own feature space, and the
        resulting gram can be genuinely indefinite; the spectral oracle
        rejects it while the advisory check merely reports."""
        values = np.array(
            [
                [-0.8, -0.9, 1.4],
                [-0.9, -1.1, 0.8],
                [-0.9, -1.3, -2.1],
                [-0.5, -1.1, 0.1],
            ]
        )
        present = np.array(
            [
                [True, True, True],
                [False, True, False],
                [True, True, True],
                [False, True, True],
            ]
        )
        k = gram(MissingRbfKernel(gamma=2.0), Dataset(values, present), range(4))
        assert np.linalg.eigvalsh(k.to_dense()).min() < -0.5
        with pytest.raises(ValueError, match="not PSD"):
            psd_sqrt(k, tol=1e-8)
        assert not check_spsd(k).diagonally_dominant

    def test_separated_rbf_gram_is_dominant(self, np_rng):
        # points far apart relative to sigma leave the diagonal in charge
        for _ in range(50):
            n = int(np_rng.integers(2, 10))
            pts = np_rng.uniform(0, 10, size=(n, 2))
            pts += np.arange(n)[:, None] * 25.0  # enforce separation
            k = gram(RbfKernel(sigma=1.0), Dataset(pts), range(n))
            report = check_spsd(k)
            assert report.diagonally_dominant
            assert report.min_eigenvalue_lower_bound >= -1e-10
