import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treelets.core
from conftest import random_spsd
from oracles import decompose_rescan, psd_sqrt, same_decomposition, select_pair
from treelets import (
    SymMatrix,
    apply_basis,
    apply_rotation,
    compress,
    decompose,
)

BLOCK4 = np.array(
    [
        [1.0, 0.9, 0.0, 0.0],
        [0.9, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.8],
        [0.0, 0.0, 0.8, 1.0],
    ]
)


def replay(a0: SymMatrix, decomp, k: int) -> SymMatrix:
    """Level-k matrix rebuilt by re-applying the recorded rotations."""
    a = a0.copy()
    for rec in decomp.records[:k]:
        lo, hi = rec.axes
        apply_rotation(a, lo, hi, rec.coeffs)
    return a


def oracle_merge_sets(dense, lam=0.0, stop_tol=1e-10):
    """Brute-force merge enumeration, built independently of the package path.

    Scores every active pair from a dense matrix, rotates with the atan2
    angle, and tracks which member sets merge.  Because the atan2 root can
    attach the rotated coordinates to indices the other way around, the
    comparison unit is the unordered pair of member sets per step.
    """
    a = np.array(dense, dtype=float)
    p = len(a)
    active = list(range(p))
    members = {i: frozenset([i]) for i in range(p)}
    merged = []
    while len(active) >= 2:
        best = None
        for x in range(len(active)):
            for y in range(x + 1, len(active)):
                i, j = active[x], active[y]
                prod = a[i, i] * a[j, j]
                corr = abs(a[i, j]) / math.sqrt(prod) if prod > 1e-300 else 0.0
                score = corr + lam * abs(a[i, j])
                if best is None or score > best[0]:
                    best = (score, i, j)
        score, i, j = best
        if score < stop_tol:
            break
        theta = 0.5 * math.atan2(2.0 * a[i, j], a[j, j] - a[i, i])
        c, s = math.cos(theta), math.sin(theta)
        rot = np.eye(p)
        rot[i, i] = rot[j, j] = c
        rot[i, j] = s
        rot[j, i] = -s
        a = rot.T @ a @ rot
        assert abs(a[i, j]) < 1e-9
        a[i, j] = a[j, i] = 0.0
        alpha, beta = (i, j) if a[i, i] <= a[j, j] else (j, i)
        merged.append(frozenset((members[alpha], members[beta])))
        members[beta] = members[alpha] | members[beta]
        del members[alpha]
        active.remove(alpha)
    return merged


def merge_sets_from_records(decomp):
    members = {i: frozenset([i]) for i in range(decomp.p)}
    merged = []
    for rec in decomp.records:
        merged.append(frozenset((members[rec.alpha], members[rec.beta])))
        members[rec.beta] = members[rec.alpha] | members[rec.beta]
        del members[rec.alpha]
    return merged


class TestSelectPair:
    def test_clear_winner(self):
        a = SymMatrix.from_dense([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert select_pair(a, [0, 1, 2]) == (0, 1, 0.9)

    def test_all_zero_ties_break_lexicographically(self):
        a = SymMatrix.from_dense(np.eye(3))
        assert select_pair(a, [0, 1, 2]) == (0, 1, 0.0)

    def test_regularization_term(self):
        a = SymMatrix.from_dense([[1.0, 0.5], [0.5, 1.0]])
        assert select_pair(a, [0, 1], lam=1.0) == (0, 1, 1.0)

    def test_restricted_active_set(self):
        a = SymMatrix.from_dense([[1.0, 0.9, 0.0], [0.9, 1.0, 0.3], [0.0, 0.3, 1.0]])
        assert select_pair(a, [1, 2]) == (1, 2, pytest.approx(0.3))

    def test_tiny_diagonal_uses_regularization_only(self):
        a = SymMatrix.from_dense([[0.0, 0.5], [0.5, 1.0]])
        alpha, beta, score = select_pair(a, [0, 1], lam=2.0)
        assert (alpha, beta) == (0, 1)
        assert score == 1.0  # correlation term suppressed, 2 * |0.5| remains

    def test_needs_two_active(self):
        a = SymMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError):
            select_pair(a, [1])


class TestDecompose:
    def test_block_example_merge_order(self):
        d = decompose(SymMatrix.from_dense(BLOCK4))
        pairs = [tuple(sorted((r.alpha, r.beta))) for r in d.records]
        scores = [r.score for r in d.records]
        assert pairs == [(0, 1), (2, 3)]
        assert scores == pytest.approx([0.9, 0.8])
        assert d.stop_level == 2  # survivors are orthogonal

    def test_block_example_with_zero_stop_tol_runs_to_completion(self):
        d = decompose(SymMatrix.from_dense(BLOCK4), stop_tol=0.0)
        assert d.stop_level == 3
        assert d.records[2].score == 0.0

    def test_identity_stops_immediately(self):
        d = decompose(SymMatrix.from_dense(np.eye(5)), stop_tol=1e-10)
        assert d.stop_level == 0
        assert d.records == ()

    def test_all_ones_2x2(self):
        d = decompose(SymMatrix.from_dense(np.ones((2, 2))))
        rec = d.records[0]
        assert rec.diag_alpha == pytest.approx(0.0, abs=1e-12)
        assert rec.diag_beta == pytest.approx(2.0, abs=1e-12)

    def test_negative_diagonal_rejected(self):
        with pytest.raises(ValueError, match="negative diagonal"):
            decompose(SymMatrix.from_dense([[-1.0, 0.0], [0.0, 1.0]]))

    def test_non_finite_entry_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                decompose(SymMatrix(2, np.array([1.0, bad, 1.0])))

    def test_matches_brute_force_oracle(self, np_rng):
        for _ in range(40):
            p = int(np_rng.integers(2, 13))
            a = random_spsd(np_rng, p)
            d = decompose(a)
            assert merge_sets_from_records(d) == oracle_merge_sets(a.to_dense())

    def test_cached_equals_rescan(self, np_rng):
        for _ in range(40):
            p = int(np_rng.integers(2, 25))
            a = random_spsd(np_rng, p)
            assert same_decomposition(decompose(a), decompose_rescan(a))

    def test_cached_equals_rescan_with_regularization(self, np_rng):
        for _ in range(15):
            p = int(np_rng.integers(2, 15))
            a = random_spsd(np_rng, p)
            assert same_decomposition(decompose(a, lam=0.5), decompose_rescan(a, lam=0.5))

    def test_single_element_matrix(self):
        d = decompose(SymMatrix.from_dense([[3.0]]))
        assert d.stop_level == 0 and d.records == ()
        assert d.scaling_set(0) == [0]

    def test_cached_equals_rescan_under_massive_ties(self, np_rng):
        """Integer-valued graph kernels tie thousands of pairs exactly, which
        is where cache update ordering could drift from the rescan."""
        from treelets import Graph, gram, graph_kernel_for

        for _ in range(10):
            n = int(np_rng.integers(10, 80))
            edges = set()
            for _ in range(2 * n):
                u, v = np_rng.choice(n, size=2, replace=False)
                edges.add((int(u), int(v)))
            g = Graph(n, edges)
            if g.max_degree == 0:
                continue
            a = gram(graph_kernel_for(g), g, range(n))
            assert same_decomposition(decompose(a), decompose_rescan(a))

    def test_step_that_makes_every_row_stale(self, monkeypatch):
        """A hub joined to every vertex, plus a clique: all edges tie, so every
        row's best partner is the hub (row 0) or, for the hub, vertex 1, and the
        first step, on (0, 1), leaves every remaining row stale.  A small chunk
        budget makes the initial fill and that refresh span many chunks."""
        from treelets import Graph, gram, graph_kernel_for

        p = 40
        edges = {(0, v) for v in range(1, p)} | {(u, v) for u in range(1, 16) for v in range(u + 1, 16)}
        g = Graph(p, edges)
        a = gram(graph_kernel_for(g), g, range(p))
        dense = a.to_dense()
        np.fill_diagonal(dense, -np.inf)
        assert set(dense.argmax(axis=1)) == {0, 1}  # equal diagonals: score order is |a_ij| order
        before = a.data.tobytes()
        monkeypatch.setattr(treelets.core, "_BLOCK_ELEMENTS", 3 * p)
        for lam in (0.0, 0.5):
            d = decompose(a, lam=lam)
            assert {d.records[0].alpha, d.records[0].beta} == {0, 1}
            assert same_decomposition(d, decompose_rescan(a, lam=lam))
        assert a.data.tobytes() == before

    def test_structure_invariants(self, np_rng):
        for p in (4, 8, 16):
            a = random_spsd(np_rng, p)
            d = decompose(a)
            trace0 = np.trace(a.to_dense())
            for k in range(d.stop_level + 1):
                assert len(d.scaling_set(k)) == p - k
            for rec in d.records:
                assert rec.diag_alpha <= rec.diag_beta
            for k in (1, d.stop_level):
                ak = replay(a, d, k)
                rec = d.records[k - 1]
                assert ak.get(rec.alpha, rec.beta) == 0.0
                assert np.trace(ak.to_dense()) == pytest.approx(trace0, rel=1e-8)

    def test_conjugation_consistency(self, np_rng):
        """Replayed rotations agree with the dense basis conjugation."""
        for p in (4, 8, 16, 32):
            a = random_spsd(np_rng, p)
            d = decompose(a)
            for k in range(d.stop_level + 1):
                b = d.basis_matrix(k)
                np.testing.assert_allclose(b @ b.T, np.eye(p), atol=1e-8)
                np.testing.assert_allclose(
                    replay(a, d, k).to_dense(), b @ a.to_dense() @ b.T, atol=1e-8
                )

    def test_final_diag_matches_replay(self, np_rng):
        a = random_spsd(np_rng, 9)
        d = decompose(a)
        assert np.array_equal(d.final_diag, replay(a, d, d.stop_level).diagonal())

    def test_merge_sequence_invariant_under_psd_sqrt_square(self, np_rng):
        for _ in range(20):
            p = int(np_rng.integers(3, 17))
            k = random_spsd(np_rng, p)
            s = psd_sqrt(k).to_dense()
            k2 = SymMatrix.from_dense(s @ s)
            assert [(r.alpha, r.beta) for r in decompose(k).records] == [
                (r.alpha, r.beta) for r in decompose(k2).records
            ]

    def test_input_left_untouched(self, np_rng):
        a = random_spsd(np_rng, 6)
        before = a.data.copy()
        decompose(a)
        assert np.array_equal(a.data, before)


@st.composite
def selection_case(draw):
    """A tie-heavy 0/1 graph Gram or a float G Gt, with lambda 0 or 0.5."""
    p = draw(st.integers(2, 14))
    lam = draw(st.sampled_from([0.0, 0.5]))
    if draw(st.booleans()):
        dense = np.zeros((p, p))
        pairs = p * (p - 1) // 2
        dense[np.triu_indices(p, 1)] = draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs))
        dense += dense.T
        dense[np.diag_indices(p)] = max(1.0, dense.sum(axis=1).max())
    else:
        width = draw(st.integers(1, p))
        entries = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
        g = np.array(draw(st.lists(entries, min_size=p * width, max_size=p * width))).reshape(p, width)
        dense = g @ g.T
    return SymMatrix.from_dense(np.tril(dense) + np.tril(dense, -1).T), lam


@settings(max_examples=200, deadline=None)
@given(selection_case(), st.sampled_from([treelets.core.DEFAULT_STOP_TOL, 0.0]))
def test_cached_records_equal_rescan_records(case, stop_tol):
    """stop_tol 0 also merges zero-score pairs, whose equal diagonals hit the tie rule."""
    a, lam = case
    assert same_decomposition(decompose(a, lam, stop_tol), decompose_rescan(a, lam, stop_tol))


@settings(max_examples=100, deadline=None)
@given(selection_case())
def test_cached_records_do_not_depend_on_row_chunking(case):
    a, lam = case
    default = decompose(a, lam=lam).records
    for budget in (1, 40, 1 << 40):  # one row per chunk, a few rows, every row at once
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(treelets.core, "_BLOCK_ELEMENTS", budget)
            assert decompose(a, lam=lam).records == default


class TestBasisOps:
    def test_level_zero_is_identity(self, np_rng):
        a = random_spsd(np_rng, 5)
        d = decompose(a)
        v = np_rng.normal(size=5)
        assert np.array_equal(apply_basis(d, 0, v), v)

    def test_norm_preserved(self, np_rng):
        a = random_spsd(np_rng, 10)
        d = decompose(a)
        for _ in range(20):
            v = np_rng.normal(size=10)
            w = apply_basis(d, d.stop_level, v)
            assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(v), rel=1e-10)

    def test_2x2_explicit(self):
        d = decompose(SymMatrix.from_dense([[2.0, 1.0], [1.0, 2.0]]))
        rec = d.records[0]
        c, s = rec.coeffs
        rot = np.array([[c, s], [-s, c]])
        v = np.array([1.0, 0.0])
        np.testing.assert_allclose(apply_basis(d, 1, v), rot.T @ v, atol=1e-15)
        assert sorted(np.abs(apply_basis(d, 1, v))) == pytest.approx([math.sqrt(0.5)] * 2)

    def test_matches_dense_basis(self, np_rng):
        a = random_spsd(np_rng, 8)
        d = decompose(a)
        v = np_rng.normal(size=8)
        for k in range(d.stop_level + 1):
            np.testing.assert_allclose(apply_basis(d, k, v), d.basis_matrix(k) @ v, atol=1e-12)

    def test_level_out_of_range(self, np_rng):
        a = random_spsd(np_rng, 4)
        d = decompose(a)
        with pytest.raises(ValueError):
            apply_basis(d, d.stop_level + 1, np.zeros(4))
        with pytest.raises(ValueError):
            apply_basis(d, 1, np.zeros(3))


class TestCompress:
    def test_zero_epsilon_is_apply_basis(self, np_rng):
        a = random_spsd(np_rng, 6)
        d = decompose(a)
        v = np_rng.normal(size=6)
        assert np.array_equal(compress(d, d.stop_level, v, 0.0), apply_basis(d, d.stop_level, v))

    def test_huge_epsilon_zeroes_all_detail(self, np_rng):
        a = random_spsd(np_rng, 6)
        d = decompose(a)
        v = np_rng.normal(size=6)
        k = d.stop_level
        w = compress(d, k, v, math.inf)
        scaling = set(d.scaling_set(k))
        for i in range(6):
            if i not in scaling:
                assert w[i] == 0.0
            else:
                assert w[i] == apply_basis(d, k, v)[i]

    def test_block_example_threshold(self, np_rng):
        d = decompose(SymMatrix.from_dense(BLOCK4))
        v = np_rng.normal(size=4)
        k = 2
        dense = d.basis_matrix(k) @ v
        scaling = set(d.scaling_set(k))
        got = compress(d, k, v, 0.5)
        for i in range(4):
            if i in scaling or abs(dense[i]) >= 0.5:
                assert got[i] == pytest.approx(dense[i], abs=1e-12)
            else:
                assert got[i] == 0.0

    def test_negative_epsilon_rejected(self, np_rng):
        d = decompose(random_spsd(np_rng, 4))
        with pytest.raises(ValueError):
            compress(d, 0, np.zeros(4), -1.0)
