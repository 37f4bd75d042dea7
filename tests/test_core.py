import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treelets.core
from conftest import lower_mirrored, random_spsd, working_copy
from oracles import apply_rotation, decompose_rescan, psd_sqrt, rotate_dense, same_decomposition, select_pair
from test_symmat import from_lower, same_bits
from treelets import (
    apply_basis,
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


def replay(a0: np.ndarray, decomp, k: int) -> np.ndarray:
    """Level-k matrix rebuilt by re-applying the recorded rotations to a dense copy."""
    d = a0.copy()
    for rec in decomp.records[:k]:
        rotate_dense(d, *rec.axes, rec.coeffs)
    return d


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
        a = [[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]]
        assert select_pair(a, [0, 1, 2]) == (0, 1, 0.9)

    def test_all_zero_ties_break_lexicographically(self):
        a = np.eye(3)
        assert select_pair(a, [0, 1, 2]) == (0, 1, 0.0)

    def test_regularization_term(self):
        a = [[1.0, 0.5], [0.5, 1.0]]
        assert select_pair(a, [0, 1], lam=1.0) == (0, 1, 1.0)

    def test_restricted_active_set(self):
        a = [[1.0, 0.9, 0.0], [0.9, 1.0, 0.3], [0.0, 0.3, 1.0]]
        assert select_pair(a, [1, 2]) == (1, 2, pytest.approx(0.3))

    def test_tiny_diagonal_uses_regularization_only(self):
        a = [[0.0, 0.5], [0.5, 1.0]]
        alpha, beta, score = select_pair(a, [0, 1], lam=2.0)
        assert (alpha, beta) == (0, 1)
        assert score == 1.0  # correlation term suppressed, 2 * |0.5| remains

    def test_needs_two_active(self):
        a = np.eye(3)
        with pytest.raises(ValueError):
            select_pair(a, [1])


class TestDecompose:
    def test_block_example_merge_order(self):
        d = decompose(BLOCK4)
        pairs = [tuple(sorted((r.alpha, r.beta))) for r in d.records]
        scores = [r.score for r in d.records]
        assert pairs == [(0, 1), (2, 3)]
        assert scores == pytest.approx([0.9, 0.8])
        assert d.stop_level == 2  # survivors are orthogonal

    def test_block_example_with_zero_stop_tol_runs_to_completion(self):
        d = decompose(BLOCK4, stop_tol=0.0)
        assert d.stop_level == 3
        assert d.records[2].score == 0.0

    def test_identity_stops_immediately(self):
        d = decompose(np.eye(5), stop_tol=1e-10)
        assert d.stop_level == 0
        assert d.records == ()

    def test_all_ones_2x2(self):
        d = decompose(np.ones((2, 2)))
        rec = d.records[0]
        assert rec.diag_alpha == pytest.approx(0.0, abs=1e-12)
        assert rec.diag_beta == pytest.approx(2.0, abs=1e-12)

    def test_negative_diagonal_rejected(self):
        with pytest.raises(ValueError, match="negative diagonal"):
            decompose([[-1.0, 0.0], [0.0, 1.0]])

    def test_non_finite_entry_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="non-finite"):  # the loop's own entry bound, past decompose's checks
                treelets.core._decompose(np.array([[1.0, bad], [bad, 1.0]]))

    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.0, treelets.core.MAX_LAM])
    def test_entries_past_the_overflow_bound_are_refused_up_front(self, np_rng, lam):
        """Entries up to sqrt(float max) / 2p run to the end with no overflow warned, at
        the largest lambda too; one ulp past it is refused before any step."""
        for p in (2, 3, 7, 16):
            bound = np.sqrt(np.finfo(float).max) / (2 * p)
            for _ in range(8):
                dense = np_rng.uniform(-1.0, 1.0, size=(p, p))
                dense += dense.T
                np.fill_diagonal(dense, np_rng.uniform(0.0, 2.0, size=p))
                dense = dense / np.abs(dense).max() * bound  # the largest entry is +-bound exactly
                d = decompose(dense, lam=lam, stop_tol=0.0)
                assert d.stop_level == p - 1 and np.isfinite(d.final_diag).all()
                i, j = np.unravel_index(np.abs(dense).argmax(), dense.shape)
                dense[i, j] = dense[j, i] = np.nextafter(dense[i, j], np.copysign(np.inf, dense[i, j]))
                with pytest.raises(ValueError, match=r"above sqrt\(float max\) / 2p = .*, where a rotation or a pair score could overflow"):
                    decompose(dense, lam=lam)

    def test_lam_and_stop_tol_that_corrupt_scores_are_refused(self):
        """An overflowing lambda scored pairs inf (with a RuntimeWarning), a NaN one NaN,
        and a NaN stop_tol acted as 0."""
        a = BLOCK4
        too_big = np.nextafter(treelets.core.MAX_LAM, np.inf)
        for lam in (math.nan, math.inf, 1e308, too_big, -1.0):
            with pytest.raises(ValueError, match=r"^lam must be in \[0, sqrt\(float max\) = 1.34078e\+154\], not "):
                decompose(a, lam=lam)
        for stop_tol in (math.nan, -1.0):
            with pytest.raises(ValueError, match="^stop_tol must be >= 0, not "):
                decompose(a, stop_tol=stop_tol)
        assert decompose(a, lam=treelets.core.MAX_LAM).stop_level == 2

    def test_nan_and_tiny_diagonal_products_score_no_correlation(self):
        vals = np.array([0.5, 0.5, 0.5, 0.5])
        for lam in (0.0, 2.0):
            prod = np.array([0.25, np.nan, 1e-301, 4.0])
            assert treelets.core._scores(vals, prod, lam).tolist() == [1.0 + lam * 0.5, lam * 0.5, lam * 0.5, 0.25 + lam * 0.5]

    def test_matches_brute_force_oracle(self, np_rng):
        for _ in range(40):
            p = int(np_rng.integers(2, 13))
            a = random_spsd(np_rng, p)
            d = decompose(a)
            assert merge_sets_from_records(d) == oracle_merge_sets(a)

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
        d = decompose([[3.0]])
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
            a = gram(graph_kernel_for(g), g, range(n)).data
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
        a = gram(graph_kernel_for(g), g, range(p)).data
        dense = a.copy()
        np.fill_diagonal(dense, -np.inf)
        assert set(dense.argmax(axis=1)) == {0, 1}  # equal diagonals: score order is |a_ij| order
        before = a.tobytes()
        monkeypatch.setattr(treelets.core, "_BLOCK_ELEMENTS", 3 * p)
        for lam in (0.0, 0.5):
            d = decompose(a, lam=lam)
            assert {d.records[0].alpha, d.records[0].beta} == {0, 1}
            assert same_decomposition(d, decompose_rescan(a, lam=lam))
        assert a.tobytes() == before

    def test_lazy_rows_reach_the_top_and_are_rescanned(self):
        """A star: every leaf's best partner is the hub, so the first step, on
        (0, 1), leaves all p - 2 other leaves stale, and they go lazy.  Later
        steps take them from the top after a rescan."""
        from treelets import Graph, gram, graph_kernel_for

        p = 20
        g = Graph(p, {(0, v) for v in range(1, p)})
        a = gram(graph_kernel_for(g), g, range(p)).data
        d = decompose(a)
        assert (d.records[0].alpha, d.records[0].beta) == (0, 1)
        assert d.rows_made_lazy >= p - 2 and d.lazy_rescans > 0
        assert same_decomposition(d, decompose_rescan(a))
        again = decompose(a)
        assert (again.rows_made_lazy, again.lazy_rescans) == (d.rows_made_lazy, d.lazy_rescans)

    def test_survivor_that_beats_a_lazy_bound_makes_the_row_exact(self):
        """Scores |a_ij| / sqrt(a_ii a_jj).  Step 1 takes (0, 1), 0.567; rows 2 and
        3, whose partners were 1 and 0, go lazy with bounds 0.267 and 0.5, above
        their scores 0.234 and 0.317 against the survivor 1.  Step 2 rescans row
        3 (partner 1, 0.317) and takes (1, 3); the survivor 3 scores 0.287
        against row 2, above its bound, so row 2 is exact again, and step 3 takes
        (2, 3) from it with no second rescan."""
        a = [[2, 3, 1, -3], [3, 14, -3, 6], [1, -3, 9, -3], [-3, 6, -3, 18]]
        d = decompose(a)
        assert [(r.alpha, r.beta) for r in d.records] == [(0, 1), (1, 3), (2, 3)]
        assert (d.rows_made_lazy, d.lazy_rescans) == (2, 1)
        assert same_decomposition(d, decompose_rescan(a))

    def test_survivor_that_ties_a_row_before_its_partner_becomes_its_partner(self):
        """A 7-vertex graph.  Step 4 rotates (3, 4), and the survivor 4 scores
        0.149 against row 2, equal to row 2's cached score against 5: 4 < 5 is
        row 2's first maximum now, so step 5 takes (2, 4), not (2, 5)."""
        from treelets import Graph, gram, graph_kernel_for

        g = Graph(7, {(0, 2), (0, 3), (0, 5), (0, 6), (1, 5), (1, 6), (2, 6), (3, 4), (4, 6)})
        a = gram(graph_kernel_for(g), g, range(7)).data
        d = decompose(a)
        assert [(r.alpha, r.beta) for r in d.records] == [(0, 2), (6, 2), (1, 5), (3, 4), (4, 2), (5, 2)]
        assert same_decomposition(d, decompose_rescan(a))

    def test_compaction_above_the_default_floor(self, np_rng):
        """Three 50-vertex ego communities: each hub joins all its members, which
        also share random edges.  The loop runs past half of p = 150, so with
        the default floor the active block is compacted at least once."""
        from treelets import Graph, gram, graph_kernel_for

        p = 150
        assert p > treelets.core._COMPACT_MIN
        edges = set()
        for hub in range(0, p, 50):
            members = range(hub + 1, hub + 50)
            edges |= {(hub, v) for v in members}
            for _ in range(150):
                u, v = np_rng.choice(members, size=2, replace=False)
                edges.add((int(u), int(v)))
        g = Graph(p, edges)
        a = gram(graph_kernel_for(g), g, range(p)).data
        for lam in (0.0, 0.5):
            d = decompose(a, lam=lam)
            assert d.stop_level >= p // 2 and d.compactions > 0
            assert same_decomposition(d, decompose_rescan(a, lam=lam))

    def test_initial_fill_across_block_boundaries(self, monkeypatch, np_rng):
        """16-cell row chunks in the first scan on p up to 31: they cross row
        boundaries, some chunks partial.  The first pair and its score are
        those of every pair's score computed at once, bit for bit, and the
        records the rescan's."""
        monkeypatch.setattr(treelets.core, "_BLOCK_ELEMENTS", 16)
        for p in (5, 17, 31):
            grams = [random_spsd(np_rng, p)]
            tied = np.triu(np_rng.integers(0, 2, (p, p)), 1).astype(float)
            tied += tied.T
            tied[np.diag_indices(p)] = max(1.0, tied.sum(axis=1).max())
            grams.append(tied)
            for a in grams:
                dense, diag = a, a.diagonal()
                for lam in (0.0, 0.5, 2.0):
                    vals, prod = np.abs(dense), np.outer(diag, diag)
                    want = np.where(prod > 1e-300, vals / np.sqrt(np.maximum(prod, 1e-300)), 0.0) + lam * vals
                    np.fill_diagonal(want, -np.inf)
                    d = decompose(a, lam=lam, stop_tol=0.0)
                    first = divmod(int(want.argmax()), p)  # first maximum in row-major order: (min, max)
                    assert sorted((d.records[0].alpha, d.records[0].beta)) == list(first)
                    assert np.float64(d.records[0].score).tobytes() == want.max().tobytes()
                    assert same_decomposition(decompose(a, lam=lam), decompose_rescan(a, lam=lam))

    def test_structure_invariants(self, np_rng):
        for p in (4, 8, 16):
            a = random_spsd(np_rng, p)
            d = decompose(a)
            trace0 = np.trace(a)
            for k in range(d.stop_level + 1):
                assert len(d.scaling_set(k)) == p - k
            for rec in d.records:
                assert rec.diag_alpha <= rec.diag_beta
            for k in (1, d.stop_level):
                ak = replay(a, d, k)
                rec = d.records[k - 1]
                assert ak[rec.alpha, rec.beta] == 0.0
                assert np.trace(ak) == pytest.approx(trace0, rel=1e-8)

    def test_conjugation_consistency(self, np_rng):
        """Replayed rotations agree with the dense basis conjugation."""
        for p in (4, 8, 16, 32):
            a = random_spsd(np_rng, p)
            d = decompose(a)
            for k in range(d.stop_level + 1):
                b = d.basis_matrix(k)
                np.testing.assert_allclose(b @ b.T, np.eye(p), atol=1e-8)
                np.testing.assert_allclose(
                    replay(a, d, k), b @ a @ b.T, atol=1e-8
                )

    def test_final_diag_matches_replay(self, np_rng):
        a = random_spsd(np_rng, 9)
        d = decompose(a)
        assert np.array_equal(d.final_diag, replay(a, d, d.stop_level).diagonal())

    def test_merge_sequence_invariant_under_psd_sqrt_square(self, np_rng):
        for _ in range(20):
            p = int(np_rng.integers(3, 17))
            k = random_spsd(np_rng, p)
            s = psd_sqrt(k)
            k2 = lower_mirrored(s @ s)
            assert [(r.alpha, r.beta) for r in decompose(k).records] == [
                (r.alpha, r.beta) for r in decompose(k2).records
            ]

    def test_input_left_untouched(self, np_rng):
        a = random_spsd(np_rng, 6)
        before = a.copy()
        decompose(a)
        assert np.array_equal(a, before)

    def test_argument_is_copied_once_to_a_c_ordered_array(self, np_rng):
        """The loop rotates its own C-contiguous float64 copy, whatever the argument's
        layout or dtype, and the argument keeps its bytes."""
        a = random_spsd(np_rng, 7)
        for arg in (a, np.asfortranarray(a), a[::-1, ::-1], np.rint(a * 10).astype(np.int64), a.tolist()):
            before = np.asarray(arg).tobytes()
            g = working_copy(arg)
            assert g.flags.c_contiguous and g.dtype == np.float64
            assert not np.shares_memory(g, arg) and np.asarray(arg).tobytes() == before
            assert np.array_equal(g, np.asarray(arg, dtype=float))
            assert same_decomposition(decompose(arg), decompose_rescan(g))


def graph_gram(draw, p: int) -> np.ndarray:
    """Dense Gram of a random 0/1 graph on p vertices, diagonal the largest degree (at least 1)."""
    dense = np.zeros((p, p))
    pairs = p * (p - 1) // 2
    dense[np.triu_indices(p, 1)] = draw(st.lists(st.booleans(), min_size=pairs, max_size=pairs))
    dense += dense.T
    dense[np.diag_indices(p)] = max(1.0, dense.sum(axis=1).max())
    return dense


@st.composite
def selection_case(draw, max_graph: int = 14, max_float: int = 14):
    """A tie-heavy 0/1 graph Gram on up to max_graph vertices or a float G Gt on up to
    max_float rows, with lambda 0, 0.5 or 2."""
    graph = draw(st.booleans())
    p = draw(st.integers(2, max_graph if graph else max_float))
    lam = draw(st.sampled_from([0.0, 0.5, 2.0]))
    if graph:
        dense = graph_gram(draw, p)
    else:
        width = draw(st.integers(1, p))
        entries = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
        g = np.array(draw(st.lists(entries, min_size=p * width, max_size=p * width))).reshape(p, width)
        dense = g @ g.T
    return np.tril(dense) + np.tril(dense, -1).T, lam


@settings(max_examples=200, deadline=None)
@given(selection_case(), st.sampled_from([treelets.core.DEFAULT_STOP_TOL, 0.0]))
def test_cached_records_equal_rescan_records(case, stop_tol):
    """stop_tol 0 also merges zero-score pairs, whose equal diagonals hit the tie rule.
    decompose leaves its argument's bytes as they were."""
    a, lam = case
    before = a.tobytes()
    assert same_decomposition(decompose(a, lam, stop_tol), decompose_rescan(a, lam, stop_tol))
    assert a.tobytes() == before


@settings(max_examples=100, deadline=None)
@given(selection_case())
def test_cached_records_do_not_depend_on_row_chunking(case):
    a, lam = case
    default = decompose(a, lam=lam).records
    for budget in (1, 40, 1 << 40):  # one row per chunk, a few rows, every row at once
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(treelets.core, "_BLOCK_ELEMENTS", budget)
            assert decompose(a, lam=lam).records == default


@st.composite
def graph_case(draw):
    """A tie-heavy 0/1 graph Gram on up to 40 vertices, with lambda 0, 0.5 or 2."""
    p = draw(st.integers(2, 40))
    return graph_gram(draw, p), draw(st.sampled_from([0.0, 0.5, 2.0]))


@settings(max_examples=150, deadline=None)
@given(graph_case(), st.sampled_from([treelets.core.DEFAULT_STOP_TOL, 0.0]))
def test_lazy_rows_give_the_rescan_records(case, stop_tol):
    """Every stale row goes lazy, and no row is rescanned more often than rows were made lazy."""
    a, lam = case
    d = decompose(a, lam, stop_tol)
    assert same_decomposition(d, decompose_rescan(a, lam, stop_tol))
    assert d.lazy_rescans <= d.rows_made_lazy


@settings(max_examples=150, deadline=None)
@given(selection_case(max_graph=40, max_float=24), st.sampled_from([treelets.core.DEFAULT_STOP_TOL, 0.0]))
def test_compacted_and_uncompacted_runs_give_the_rescan_records(case, stop_tol):
    """A floor of 1 compacts at every halving of the active count; 2**40 never compacts.
    Either way decompose compacts its own copy, and leaves its argument's bytes as they were."""
    a, lam = case
    before = a.tobytes()
    want = decompose_rescan(a, lam, stop_tol)
    runs = []
    for floor in (1, 1 << 40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(treelets.core, "_COMPACT_MIN", floor)
            d = decompose(a, lam, stop_tol)
        assert same_decomposition(d, want)
        assert a.tobytes() == before
        runs.append(d)
    every, never = runs
    # at a floor of 1 a compaction follows each step that leaves half the stored size active
    stored, halvings = len(a), 0
    for live in range(len(a) - 1, len(a) - 1 - every.stop_level, -1):
        if 2 * live <= stored:
            stored, halvings = live, halvings + 1
    assert (every.compactions, never.compactions) == (halvings, 0)
    assert (every.rows_made_lazy, every.lazy_rescans) == (never.rows_made_lazy, never.lazy_rescans)


@settings(max_examples=100, deadline=None)
@given(selection_case())
def test_decompose_rotates_as_apply_rotation_does(case):
    """Replaying the records through apply_rotation gives final_diag bit for bit,
    with a compaction at every halving and with the default floor."""
    a, lam = case
    replay = a.copy()
    for rec in decompose(a, lam).records:
        apply_rotation(replay, *rec.axes, rec.coeffs)
    for floor in (1, treelets.core._COMPACT_MIN):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(treelets.core, "_COMPACT_MIN", floor)
            d = decompose(a, lam)
        assert d.final_diag.tobytes() == replay.diagonal().tobytes()


@pytest.mark.parametrize("floor", [1, treelets.core._COMPACT_MIN])
def test_stale_cell_of_a_retired_column_is_never_read(floor):
    """Ten indices that all correlate 0.8, then a block of four: (0, 1) at
    0.45, row 2 with 0.3 to index 0, -0.2 to 1 and 0.15 to 3.  The ten merge
    first, in nine steps (at a floor of 1 the active block is compacted after
    step 7).  Step 10 rotates (0, 1) and retires 0 (diagonal 0.55) while only
    the survivor 1's row and column are rewritten, so row 2 keeps the stale,
    unrotated 0.3 in column 0, its largest |a| off its own cell; its cached
    partner was 0, so it goes lazy and is rescanned on top at step 11.  Read
    without the retired mask that cell would score 0.3 / sqrt(0.55) = 0.40
    and pair 2 with 0; the rescan takes (2, 3) at 0.15, step 12 takes (3, 1)
    and the loop stalls at 0 (a floor of 1 compacts again after step 11)."""
    dense = np.zeros((14, 14))
    dense[4:, 4:] = 0.8
    dense[:4, :4] = [[0.0, 0.45, 0.3, 0.0], [0.45, 0.0, -0.2, 0.0], [0.3, -0.2, 0.0, 0.15], [0.0, 0.0, 0.15, 0.0]]
    np.fill_diagonal(dense, 1.0)
    a = dense
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(treelets.core, "_COMPACT_MIN", floor)
        d = decompose(a)
    assert [(r.alpha, r.beta) for r in d.records[9:]] == [(0, 1), (2, 3), (3, 1)]
    assert all(r.alpha >= 4 and r.beta >= 4 for r in d.records[:9])
    assert (d.compactions, d.stop_score) == (2 if floor == 1 else 0, 0.0)
    assert d.lazy_rescans >= 1
    assert same_decomposition(d, decompose_rescan(a))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 13), st.data())
def test_decompose_copies_the_lower_triangle_bit_for_bit(p, data):
    """The loop's copy keeps the lower triangle bit for bit, signed zeros included,
    which an arithmetic mirror would turn to +0.0; each zero above it is given the other sign."""
    cells = st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-1e300, 1e300, allow_nan=False))
    mirrored = from_lower(p, data.draw(st.lists(cells, min_size=p * (p + 1) // 2, max_size=p * (p + 1) // 2)))
    i, j = np.indices((p, p))
    given = np.where((j > i) & (mirrored == 0.0), -mirrored, mirrored)
    assert same_bits(working_copy(given), mirrored)


@settings(max_examples=100, deadline=None)
@given(selection_case(), st.data())
def test_basis_is_orthogonal_and_apply_basis_is_its_product(case, data):
    a, lam = case
    d = decompose(a, lam=lam)
    k = data.draw(st.integers(0, d.stop_level))
    entries = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
    v = np.array(data.draw(st.lists(entries, min_size=len(a), max_size=len(a))))
    b = d.basis_matrix(k)
    np.testing.assert_allclose(b @ b.T, np.eye(len(a)), rtol=0, atol=1e-12)
    np.testing.assert_allclose(apply_basis(d, k, v), b @ v, rtol=0, atol=1e-12 * max(1.0, np.abs(v).max()))


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
        d = decompose([[2.0, 1.0], [1.0, 2.0]])
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
        d = decompose(BLOCK4)
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

    def test_nan_epsilon_rejected(self, np_rng):
        """A NaN compares false with every magnitude, so it used to drop nothing."""
        d = decompose(random_spsd(np_rng, 4))
        with pytest.raises(ValueError, match="^epsilon must be >= 0$"):
            compress(d, 0, np.zeros(4), math.nan)
