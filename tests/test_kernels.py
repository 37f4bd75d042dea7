import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_symmetric
from oracles import eval_kernel, has_edge, obs, psd_sqrt, squared_distances_by_attribute
from treelets import (
    Dataset,
    Graph,
    GraphKernel,
    LinearKernel,
    MissingRbfKernel,
    PolynomialKernel,
    RbfKernel,
    check_spsd,
    gram,
    graph_kernel_for,
)
import treelets.kernels
from treelets.kernels import _Distances, _squared_distances, kernel_block, kernel_diag


def gram_by_scalar_loop(spec, data, indices):
    """Oracle: per-pair eval_kernel instead of the vectorized rows."""
    rows = [obs(data, i) for i in indices]
    m = len(rows)
    out = np.empty((m, m))
    for a in range(m):
        for b in range(m):
            out[a, b] = eval_kernel(spec, rows[a], rows[b])
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
        assert has_edge(g, 1, 0) and not has_edge(g, 0, 2)

    def test_duplicate_and_reversed_edges_collapse(self):
        g = Graph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.n_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, [(1, 1)])

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (3, [(0.5, 1)], "^edge endpoints must be integers, not float64$"),
            (3, np.array([[0.0, 1.0]]), "^edge endpoints must be integers, not float64$"),
            (3, [(True, False)], "^edge endpoints must be integers, not bool$"),
            (3.7, [(0, 1)], "^vertex count must be an integer, not 3.7$"),
            (True, [], "^vertex count must be an integer, not True$"),
        ],
        ids=["float-edge", "float-edge-array", "bool-edge", "float-count", "bool-count"],
    )
    def test_non_integer_edge_or_vertex_count_refused(self, n, edges, message):
        """A float edge was truncated to a vertex (0.5 to 0), and a float vertex count failed in numpy's cast."""
        with pytest.raises(ValueError, match=message):
            Graph(n, edges)

    def test_empty_edge_list_is_valid(self):
        for edges in ([], np.empty((0, 2), dtype=np.int64), ()):
            g = Graph(3, edges)
            assert g.n_edges == 0 and list(g.degrees) == [0, 0, 0]

    def test_max_degree_helper(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert graph_kernel_for(g) == GraphKernel(diag=3.0)


@st.composite
def graph_edges(draw):
    """A vertex count and edges over it, with duplicates and reversals."""
    n = draw(st.integers(0, 12))
    if n < 2:
        return n, []
    ids = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(ids, ids).filter(lambda e: e[0] != e[1]), max_size=30))


@settings(max_examples=200, deadline=None)
@given(graph_edges())
def test_graph_csr_rows_are_sorted_unique_and_symmetric(case):
    n, edges = case
    g = Graph(n, edges)
    expected = [set() for _ in range(n)]
    for u, v in edges:
        expected[u].add(v)
        expected[v].add(u)
    assert np.array_equal(g.degrees, np.diff(g.indptr)) and g.indices.dtype == np.int64
    for u in range(n):
        row = g.neighbors(u).tolist()
        assert row == sorted(expected[u])
        assert all(u in g.neighbors(v) for v in row)
    assert g.n_edges == sum(map(len, expected)) // 2


class TestKernelParameters:
    @pytest.mark.parametrize("diag", [0.0, -1.0, math.inf, math.nan])
    def test_graph_diag_must_be_finite_and_positive(self, diag):
        with pytest.raises(ValueError, match="^graph kernel diag must be finite and > 0$"):
            GraphKernel(diag=diag)

    @pytest.mark.parametrize(
        "alpha, c0", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.inf), (1.0, -math.inf), (1.0, math.nan)]
    )
    def test_polynomial_alpha_and_c0_must_be_finite(self, alpha, c0):
        """Either one non-finite makes every diagonal value (alpha <x, x> + c0)^r non-finite."""
        with pytest.raises(ValueError, match="^polynomial alpha and c0 must be finite$"):
            PolynomialKernel(alpha=alpha, c0=c0, degree=2)


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
        assert eval_kernel(spec, obs(g, 0), obs(g, 0)) == 1045.0
        assert eval_kernel(spec, obs(g, 0), obs(g, 1)) == 1.0
        assert eval_kernel(spec, obs(g, 0), obs(g, 2)) == 0.0

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
                assert eval_kernel(gk, obs(g, u), obs(g, v)) == eval_kernel(gk, obs(g, v), obs(g, u))

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
        assert np.array_equal(k.data, np.ones((3, 3)))

    def test_path_graph_example(self):
        g = Graph(3, [(0, 1), (1, 2)])
        k = gram(GraphKernel(diag=2.0), g, [0, 1, 2])
        assert np.array_equal(k.data, [[2, 1, 0], [1, 2, 1], [0, 1, 2]])

    def test_linear_orthonormal_rows(self):
        data = Dataset([[1.0, 0.0], [0.0, 1.0]])
        k = gram(LinearKernel(), data, [0, 1])
        assert np.array_equal(k.data, np.eye(2))

    def test_non_finite_value_names_kernel_and_sample_ids(self):
        data = Dataset([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1000.0, 0.0]])
        spec = PolynomialKernel(alpha=1.0, c0=0.0, degree=200)
        # packed order visits (1, 1), (3, 1), (3, 3), ...: the first overflow is (3, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the overflow is reported once, as the ValueError
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
            got = gram(spec, data, [5, 1, 3]).data
            np.testing.assert_allclose(got, gram_by_scalar_loop(spec, data, [5, 1, 3]), rtol=1e-13)

    def test_graph_gram_matches_scalar_oracle(self, np_rng):
        g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (6, 7), (1, 6)])
        spec = graph_kernel_for(g)
        ids = [7, 0, 4, 2, 1]
        got = gram(spec, g, ids).data
        np.testing.assert_allclose(got, gram_by_scalar_loop(spec, g, ids))

    def test_result_is_p_and_a_c_contiguous_float64_square(self, np_rng):
        """What gram's callers read: p, the index count, and data, a C-contiguous (p, p)
        float64 array that fit_predict decomposes in place; the bench tracer counts p."""
        g = Graph(9, [(0, 1), (1, 2), (3, 4), (5, 8)])
        data = Dataset(np_rng.normal(size=(9, 3)))
        for spec, on, ids in ((graph_kernel_for(g), g, [4, 0, 8]), (RbfKernel(sigma=1.0), data, range(7)),
                              (LinearKernel(), data, np.array([2, 6]))):
            k = gram(spec, on, ids)
            p = len(list(ids))
            assert k.p == p and k.data.shape == (p, p) and k.data.dtype == np.float64
            assert k.data.flags.c_contiguous

    def test_duplicate_indices_rejected(self):
        data = Dataset(np.zeros((3, 2)))
        with pytest.raises(ValueError, match="distinct"):
            gram(RbfKernel(sigma=1.0), data, [0, 0, 1])

    @pytest.mark.parametrize("ids", [[0, 1.7, 2.2], [True, False], [0.0, 1.0]])
    def test_non_integer_indices_rejected(self, ids):
        data = Dataset(np.arange(6.0).reshape(3, 2))
        with pytest.raises(ValueError, match="^ids must be integers, not (float64|bool)$"):
            gram(RbfKernel(sigma=1.0), data, ids)

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
        # one row block holds rows 0-5; its first such pair in row order is (3, 5)
        with pytest.raises(ValueError, match="no shared observed attributes between rows 3 and 5"):
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
    scalar = [[eval_kernel(spec, obs(data, r), obs(data, c)) for c in cols] for r in rows]
    # the atol covers inner products that cancel to near zero (|x| ~ 1)
    np.testing.assert_allclose(whole, scalar, rtol=1e-13, atol=1e-13)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 300),
    st.integers(1, 6),
    st.integers(1, 6),
    st.booleans(),
    st.sampled_from([0.3, 0.7, 0.99, 1.0]),
    st.none() | st.integers(1, 299),
    st.integers(0, 2**32 - 1),
)
@example(7, 3, 4, True, 0.7, None, 0)
@example(8, 3, 4, False, 1.0, None, 1)
@example(128, 2, 5, True, 0.7, None, 2)
@example(129, 2, 5, False, 1.0, None, 3)
@example(300, 4, 3, True, 0.7, None, 4)
# attribute 0 is never missing; the attribute `lost` is missing in every left row
@example(7, 3, 4, True, 1.0, 3, 5)
@example(9, 6, 2, True, 0.99, 8, 6)
@example(300, 4, 3, True, 0.99, 200, 7)
@example(129, 1, 6, True, 0.3, 128, 8)
def test_column_wise_distances_equal_numpy_sum_bit_for_bit(width, n_rows, n_cols, masked, rate, lost, seed):
    """Attribute by attribute, in numpy's pairwise order, against one .sum(axis=-1)."""
    rng = np.random.default_rng(seed)
    n = max(n_rows, n_cols)
    values = rng.normal(size=(n, width)) * rng.uniform(0.01, 100.0, size=width)
    rows = rng.integers(0, n, size=n_rows)
    cols = rng.integers(0, n, size=n_cols)
    present = rng.random(values.shape) < rate if masked else np.ones(values.shape, dtype=bool)
    if masked and lost is not None:
        present[rows, lost % width] = False
    present[:, 0] = True
    values[~present] = np.nan  # masked cells must not leak into the sum
    diff2 = (values[cols] - values[rows][:, None, :]) ** 2
    shared = present[cols] & present[rows][:, None, :]
    expected = np.where(shared, diff2, 0.0).sum(axis=-1)
    left_gap, right_gap = (~present[rows], ~present[cols]) if masked else (None, None)
    got = _Distances(values[cols], right_gap, n_rows)(values[rows], left_gap)
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 300), st.integers(1, 40), st.integers(1, 8), st.integers(0, 2**32 - 1))
@example(7, 5, 3, 0)
@example(8, 5, 3, 1)
@example(9, 5, 3, 2)
@example(127, 4, 2, 3)
@example(128, 4, 2, 4)
@example(129, 4, 2, 5)
@example(300, 6, 4, 6)
def test_kmeans_distances_equal_the_cube_sum_bit_for_bit(width, n, k, seed):
    """Points against centres, as kmeans calls it, against the n x k x width cube it used to sum."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, width)) * rng.uniform(0.01, 100.0, size=width)
    centers = x[rng.integers(0, n, size=k)] + rng.normal(size=(k, width))
    expected = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    assert _squared_distances(x, centers).tobytes() == expected.tobytes()
    assert _squared_distances(x, x[[0]])[:, 0].tobytes() == ((x - x[0]) ** 2).sum(axis=1).tobytes()


# present values: subnormals, signed zeros, and values whose differences or squares overflow
_EXTREMES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e-160, 1e154, -1.5e154, 1e200,
                      -1e200, 1.5e308, -1.5e308, np.finfo(float).max, -np.finfo(float).max])
# what a gap cell may hold; none of it may reach the sum
_GAP_FILLS = np.array([np.nan, np.inf, -np.inf, -0.0, 1e308])


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([1, 7, 8, 9, 16, 127, 128, 129, 259]),
    st.integers(1, 6),
    st.integers(1, 6),
    st.sampled_from([None, "both", "left", "right"]),
    st.integers(0, 2**32 - 1),
)
@example(1, 3, 1, "both", 0)
@example(8, 4, 1, None, 1)
@example(9, 2, 1, "left", 2)
@example(129, 3, 1, "right", 3)
@example(259, 5, 6, "both", 4)
@example(16, 1, 5, None, 5)
def test_squared_distances_equal_the_by_attribute_oracle_at_the_extremes(width, n_rows, n_cols, gaps, seed):
    """Bit for bit against copy, subtract, square and zero by index, summed in numpy's pairwise
    order: on subnormals, signed zeros, differences and squares that overflow to inf, and NaN
    or inf in gap cells on one side or both; a single right-hand row is kmeans' call.  A
    _Distances reused for a shorter block over fewer columns, as gram uses it, gives the same."""
    rng = np.random.default_rng(seed)

    def draw(n):
        values = rng.uniform(-1.0, 1.0, size=(n, width)) * 10.0 ** rng.integers(-320, 308, size=(n, width))
        extreme = rng.random(values.shape) < 0.3
        values[extreme] = rng.choice(_EXTREMES, size=extreme.sum())
        return values

    def gap_mask(n, side):
        return rng.random((n, width)) < 0.3 if gaps in ("both", side) else np.zeros((n, width), dtype=bool)

    left, right = draw(n_rows), draw(n_cols)
    left_gap, right_gap = (None, None) if gaps is None else (gap_mask(n_rows, "left"), gap_mask(n_cols, "right"))
    for values, gap in ((left, left_gap), (right, right_gap)):
        if gap is not None:
            values[gap] = rng.choice(_GAP_FILLS, size=gap.sum())
    expected = squared_distances_by_attribute(left, right, left_gap, right_gap)
    dist = _Distances(right, right_gap, n_rows)
    assert dist(left, left_gap).tobytes() == expected.tobytes()
    e = max(1, n_cols - 1)
    got = dist(left[1:], None if left_gap is None else left_gap[1:], e)
    assert got.tobytes() == expected[1:, :e].tobytes()


@pytest.mark.parametrize("budget", [1, 3, 2**40])
def test_gram_bytes_do_not_depend_on_row_block_budget(budget, monkeypatch):
    rng = np.random.default_rng(7)
    values = rng.normal(size=(23, 9))
    present = rng.random(values.shape) < 0.8
    present[:, 0] = True
    graph = Graph(23, [(u, v) for u in range(23) for v in range(u + 1, 23) if rng.random() < 0.2])
    cases = [
        (RbfKernel(sigma=1.5), Dataset(values)),
        (LinearKernel(), Dataset(values)),
        (PolynomialKernel(0.5, 1.0, 3), Dataset(values)),
        (MissingRbfKernel(gamma=0.5), Dataset(values, present)),
        (graph_kernel_for(graph), graph),
    ]
    ids = rng.permutation(23)[:19]
    expected = [gram(spec, data, ids).data.tobytes() for spec, data in cases]
    monkeypatch.setattr(treelets.kernels, "_BLOCK_ELEMENTS", budget)
    assert [gram(spec, data, ids).data.tobytes() for spec, data in cases] == expected


@pytest.mark.parametrize("p", [127, 128, 129, 259])
def test_gram_is_symmetric_and_matches_the_scalar_oracle(p):
    """Every cell, the mirrored upper triangle included: bit for bit on a graph, within
    rounding on the numeric kernels; and each cell has its mirror's bits."""
    rng = np.random.default_rng(p)
    graph = Graph(p + 5, [(u, v) for u, v in rng.integers(0, p + 5, size=(4 * p, 2)) if u != v])
    ids = rng.permutation(p + 5)[:p]
    got = gram(graph_kernel_for(graph), graph, ids).data
    assert got.tobytes() == got.T.copy().tobytes()
    assert got.tobytes() == gram_by_scalar_loop(graph_kernel_for(graph), graph, ids).tobytes()
    if p <= 131:
        present = rng.random((p + 5, 3)) > 0.2
        present[:, 0] = True
        data = Dataset(rng.normal(size=(p + 5, 3)), present)
        for spec in (RbfKernel(sigma=0.8), MissingRbfKernel(gamma=3.0)):
            got = gram(spec, data, ids).data
            assert got.tobytes() == got.T.copy().tobytes()
            np.testing.assert_allclose(got, gram_by_scalar_loop(spec, data, ids), rtol=1e-13)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 40), st.integers(0, 10), st.sampled_from([1, 2, 3, 7, 2**40]), st.integers(0, 2**32 - 1))
@example(4, 0, 2**40, 0)
@example(40, 10, 7, 1)
def test_gram_bytes_equal_the_one_block_build_and_their_mirror(p, extra, budget, seed):
    """Each row block writes its own cells and, transposed, the columns above it: at every
    block height the bytes are the one-block build's, and each cell has its mirror's bits.
    The signed-zero polynomial kernel gives -0.0 or +0.0 with the sign of an inner product,
    which an arithmetic mirror would turn to +0.0."""
    rng = np.random.default_rng(seed)
    n = p + extra
    values = rng.normal(size=(n, 4))
    present = rng.random(values.shape) < 0.7
    present[:, 0] = True
    graph = Graph(n, [(u, v) for u, v in rng.integers(0, n, size=(2 * n, 2)) if u != v])
    cases = [
        (RbfKernel(sigma=1.5), Dataset(values)),
        (LinearKernel(), Dataset(values)),
        (PolynomialKernel(0.5, 1.0, 3), Dataset(values)),
        (PolynomialKernel(alpha=-0.0, c0=-0.0, degree=1), Dataset(values)),
        (MissingRbfKernel(gamma=0.5), Dataset(values, present)),
        (GraphKernel(diag=float(max(1, graph.max_degree))), graph),
    ]
    ids = rng.permutation(n)[:p]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(treelets.kernels, "_BLOCK_ELEMENTS", 2**40)
        expected = [gram(spec, data, ids).data.tobytes() for spec, data in cases]
        mp.setattr(treelets.kernels, "_BLOCK_ELEMENTS", budget)
        for (spec, data), one_block in zip(cases, expected):
            got = gram(spec, data, ids).data
            assert got.tobytes() == one_block
            assert got.tobytes() == got.T.copy().tobytes()


@pytest.mark.parametrize("budget", [1, 2**15])
def test_gram_names_the_first_unshared_pair_in_packed_order_whatever_the_budget(budget, monkeypatch):
    """Rows 1 and 2 share no attribute with rows 3 and 4; the packed order meets (3, 1) first."""
    present = np.array([[True, True], [True, False], [True, False], [False, True], [False, True], [True, True]])
    data = Dataset(np.ones((6, 2)), present)
    monkeypatch.setattr(treelets.kernels, "_BLOCK_ELEMENTS", budget)
    with pytest.raises(ValueError, match="^no shared observed attributes between rows 1 and 3$"):
        gram(MissingRbfKernel(gamma=1.0), data, range(6))


class TestCheckSpsd:
    def test_identity(self):
        report = check_spsd(np.eye(3))
        assert report.min_eigenvalue_lower_bound == 1.0
        assert report.diagonally_dominant

    def test_gershgorin_counterexample(self):
        report = check_spsd([[1.0, 2.0], [2.0, 1.0]])
        assert not report.diagonally_dominant
        assert report.min_eigenvalue_lower_bound == -1.0

    def test_row_sums_that_overflow_warn_nothing(self):
        """A finite matrix whose absolute row sums pass float max has bound -inf and is not dominant."""
        report = check_spsd([[1e308, 1e308], [1e308, 1e308]])
        assert report.min_eigenvalue_lower_bound == -math.inf
        assert not report.diagonally_dominant

    def test_rejects_a_non_square_or_empty_matrix(self):
        for bad in (np.ones((2, 3)), np.ones(4), np.zeros((0, 0))):
            with pytest.raises(ValueError, match="^expected a non-empty square matrix$"):
                check_spsd(bad)

    def test_bound_equals_row_by_row_loop(self, np_rng):
        """The bound against a loop that subtracts each diagonal entry's scalar abs, bit for bit."""
        for p in (1, 2, 9, 130):
            k = random_symmetric(np_rng, p, lo=-3.0, hi=3.0)
            diag = k.diagonal()
            off = [np.abs(k[i]).sum() - abs(diag[i]) for i in range(p)]
            assert check_spsd(k).min_eigenvalue_lower_bound == float((diag - np.array(off)).min())

    def test_bound_equals_dense_formula(self, np_rng):
        """Row sums one row at a time equal the dense matrix's sum(axis=1), bit for bit."""
        points = Dataset(np_rng.normal(size=(300, 3)))
        grams = [random_symmetric(np_rng, p, lo=-3.0, hi=3.0) for p in (1, 2, 9, 130, 300)]
        grams.append(gram(RbfKernel(sigma=0.5), points, range(300)).data)
        for k in grams:
            dense = np.abs(k)
            diag = k.diagonal()
            expected = float((diag - (dense.sum(axis=1) - np.abs(diag))).min())
            assert check_spsd(k).min_eigenvalue_lower_bound == expected

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
            k = gram(graph_kernel_for(g), g, range(n)).data
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
                k = gram(spec, data, range(n)).data
                s = psd_sqrt(k, tol=1e-8)  # raises if any eigenvalue < -1e-8
                err = np.abs(s @ s - k).max()
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
        k = gram(MissingRbfKernel(gamma=2.0), Dataset(values, present), range(4)).data
        assert np.linalg.eigvalsh(k).min() < -0.5
        with pytest.raises(ValueError, match="not PSD"):
            psd_sqrt(k, tol=1e-8)
        assert not check_spsd(k).diagonally_dominant

    def test_separated_rbf_gram_is_dominant(self, np_rng):
        # points far apart relative to sigma leave the diagonal in charge
        for _ in range(50):
            n = int(np_rng.integers(2, 10))
            pts = np_rng.uniform(0, 10, size=(n, 2))
            pts += np.arange(n)[:, None] * 25.0  # enforce separation
            k = gram(RbfKernel(sigma=1.0), Dataset(pts), range(n)).data
            report = check_spsd(k)
            assert report.diagonally_dominant
            assert report.min_eigenvalue_lower_bound >= -1e-10
