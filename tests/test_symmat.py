import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lower_mirrored, random_spsd, random_symmetric, working_copy
from oracles import apply_rotation, jacobi_eigh, psd_sqrt, rotate_dense
from treelets import decompose, jacobi_coeffs

SQRT1_2 = 1.0 / math.sqrt(2.0)


def dense_rotation(p, i, j, coeffs):
    J = np.eye(p)
    J[i, i] = J[j, j] = coeffs.c
    J[i, j] = coeffs.s
    J[j, i] = -coeffs.s
    return J


class TestSymMatrix:
    """Public decompose's checks and copy of its symmetric argument, and the rotation oracle's index checks."""

    def test_single_cell_per_pair(self):
        """decompose keeps one value per pair, the lower one, on both sides of the diagonal."""
        a = [[1.0, 2.0 + 1e-15, -0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        g = working_copy(a)
        assert g[0, 1] == g[1, 0] == 2.0
        assert g.tobytes() == g.T.copy().tobytes()  # the +0.0 at (2, 0) on both sides
        assert g.flags.c_contiguous
        assert decompose(a).records[0].score == 2.0  # |a_10| / 1, not the upper cell's 2 + 1e-15

    def test_round_trip_dense(self, np_rng):
        """A symmetric array reaches the rotation loop as a copy with its bits."""
        d = np_rng.normal(size=(6, 6))
        d = (d + d.T) / 2
        g = working_copy(d)
        assert np.array_equal(g, d) and not np.shares_memory(g, d)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            decompose([[1.0, 2.0], [3.0, 4.0]])

    def test_rejects_asymmetric_whose_skew_overflows(self):
        """1e308 - (-1e308) is inf, refused as a skew, not warned about."""
        with pytest.raises(ValueError, match="not symmetric"):
            decompose([[0.0, 1e308], [-1e308, 0.0]])

    def test_rejects_non_finite(self):
        # a NaN or inf skew compares false against any tolerance
        for bad in ([[1.0, math.inf], [5.0, 1.0]], [[1.0, math.nan], [0.0, 1.0]]):
            with pytest.raises(ValueError, match="non-finite"):
                decompose(bad)

    def test_index_range(self):
        """A rotation index outside [0, p) is refused, a negative one too, which numpy would wrap."""
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        for i, j in ((0, 2), (-1, 0), (1, -2)):
            with pytest.raises(IndexError):
                apply_rotation(a, i, j, jacobi_coeffs(2.0, 2.0, 1.0))
        assert np.array_equal(a, [[2.0, 1.0], [1.0, 2.0]])


class TestJacobiCoeffs:
    def test_equal_diagonal(self):
        # eigendecomposition of [[2,1],[1,2]] rotates by 45 degrees
        c, s = jacobi_coeffs(2.0, 2.0, 1.0)
        assert c == pytest.approx(SQRT1_2, abs=1e-12)
        assert s == pytest.approx(SQRT1_2, abs=1e-12)

    def test_zero_off_diagonal_is_identity(self):
        assert jacobi_coeffs(3.0, 7.0, 0.0) == (1.0, 0.0)

    def test_half_tangent_case(self):
        # eigenvalues of [[3,4],[4,-3]] are +-5
        c, s = jacobi_coeffs(3.0, -3.0, 4.0)
        assert abs(s / c) == pytest.approx(0.5, abs=1e-12)
        assert c == pytest.approx(2.0 / math.sqrt(5.0), abs=1e-12)
        assert abs(s) == pytest.approx(1.0 / math.sqrt(5.0), abs=1e-12)

    def test_unit_norm_for_random_inputs(self, np_rng):
        for _ in range(500):
            app, aqq, apq = np_rng.uniform(-100, 100, 3)
            c, s = jacobi_coeffs(app, aqq, apq)
            assert c > 0
            assert c * c + s * s == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite matrix entry"):
            jacobi_coeffs(math.nan, 1.0, 1.0)
        with pytest.raises(ValueError, match="non-finite matrix entry"):
            jacobi_coeffs(1.0, math.inf, 1.0)

    def test_numpy_scalars_overflow_as_floats_do(self):
        """|tau| past the float range: float arithmetic gives inf silently, a numpy scalar would warn."""
        want = jacobi_coeffs(0.0, 1e300, 1e-10)
        assert want == (1.0, 0.0)
        assert jacobi_coeffs(np.float64(0.0), np.float64(1e300), np.float64(1e-10)) == want


class TestApplyRotation:
    def test_2x2_eigendecomposition(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        apply_rotation(a, 0, 1, jacobi_coeffs(2.0, 2.0, 1.0))
        assert a[0, 1] == a[1, 0] == 0.0
        assert sorted(a.diagonal()) == pytest.approx([1.0, 3.0], abs=1e-12)

    def test_indefinite_2x2(self):
        a = np.array([[3.0, 4.0], [4.0, -3.0]])
        apply_rotation(a, 0, 1, jacobi_coeffs(3.0, -3.0, 4.0))
        assert a[0, 1] == a[1, 0] == 0.0
        assert sorted(a.diagonal()) == pytest.approx([-5.0, 5.0], abs=1e-12)

    def test_identity_rotation_is_noop(self):
        d = np.diag([1.0, 2.0, 3.0])
        a = d.copy()
        apply_rotation(a, 0, 2, jacobi_coeffs(1.0, 3.0, 0.0))
        assert np.array_equal(a, d)

    def test_same_index_rejected(self):
        a = np.zeros((3, 3))
        with pytest.raises(IndexError):
            apply_rotation(a, 1, 1, jacobi_coeffs(2.0, 2.0, 1.0))
        with pytest.raises(IndexError):
            apply_rotation(a, 0, 5, jacobi_coeffs(2.0, 2.0, 1.0))

    def test_thousand_random_rotations(self, np_rng):
        """Exact zero at the target, dense conjugation match, invariants kept."""
        for _ in range(1000):
            a = random_symmetric(np_rng, 8)
            dense = a.copy()
            i, j = sorted(np_rng.choice(8, size=2, replace=False))
            coeffs = jacobi_coeffs(float(a[i, i]), float(a[j, j]), float(a[i, j]))
            apply_rotation(a, int(i), int(j), coeffs)

            assert a[i, j] == a[j, i] == 0.0
            ref = dense_rotation(8, i, j, coeffs)
            expected = ref.T @ dense @ ref
            np.testing.assert_allclose(a, expected, rtol=0, atol=1e-12)
            assert np.trace(a) == pytest.approx(np.trace(dense), rel=1e-10)
            assert np.linalg.norm(a) == pytest.approx(
                np.linalg.norm(dense), rel=1e-10
            )

    def test_untouched_rows_are_bitwise_identical(self, np_rng):
        a = random_symmetric(np_rng, 6)
        before = a.copy()
        apply_rotation(a, 1, 4, jacobi_coeffs(float(a[1, 1]), float(a[4, 4]), float(a[1, 4])))
        keep = [0, 2, 3, 5]
        assert np.array_equal(a[np.ix_(keep, keep)], before[np.ix_(keep, keep)])


class TestPsdSqrt:
    def test_identity(self):
        s = psd_sqrt(np.eye(3))
        np.testing.assert_allclose(s, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        s = psd_sqrt(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(s, np.diag([2.0, 3.0]), atol=1e-12)

    def test_2x2_closed_form(self):
        # eigenvalues 3 and 1 -> sqrt entries (sqrt(3)+-1)/2
        s = psd_sqrt(np.array([[2.0, 1.0], [1.0, 2.0]]))
        hi = (math.sqrt(3.0) + 1.0) / 2.0
        lo = (math.sqrt(3.0) - 1.0) / 2.0
        np.testing.assert_allclose(s, [[hi, lo], [lo, hi]], atol=1e-12)

    def test_square_recovers_input(self, np_rng):
        for _ in range(20):
            p = int(np_rng.integers(2, 12))
            k = random_spsd(np_rng, p)
            s = psd_sqrt(k)
            err = np.abs(s @ s - k).max()
            assert err <= max(1e-10, 1e-8 * np.abs(k).max())

    def test_result_is_psd_and_symmetric(self, np_rng):
        k = random_spsd(np_rng, 6)
        s = psd_sqrt(k)
        w = np.linalg.eigvalsh(s)
        assert w.min() >= -1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not PSD"):
            psd_sqrt(np.array([[1.0, 2.0], [2.0, 1.0]]), tol=1e-10)

    def test_small_negative_eigenvalues_clamped(self):
        s = psd_sqrt(np.array([[1e-14, 0.0], [0.0, 1.0]]), tol=1e-10)
        assert s[0, 0] >= 0.0

    def test_adversarial_spectra(self, np_rng):
        """Rank deficiency, clustered eigenvalues, extreme scales, bad conditioning."""
        for trial in range(60):
            p = int(np_rng.integers(2, 17))
            kind = trial % 5
            if kind == 0:
                g = np_rng.normal(size=(p, int(np_rng.integers(1, p + 1))))
                k = g @ g.T
            elif kind == 1:
                q, _ = np.linalg.qr(np_rng.normal(size=(p, p)))
                w = np.repeat(np_rng.uniform(0.5, 2.0, size=p), 3)[:p]
                k = (q * w) @ q.T
                k = (k + k.T) / 2
            elif kind == 2:
                g = np_rng.normal(size=(p, p)) * 1e-8
                k = g @ g.T
            elif kind == 3:
                g = np_rng.normal(size=(p, p)) * 1e8
                k = g @ g.T
            else:
                q, _ = np.linalg.qr(np_rng.normal(size=(p, p)))
                w = 10.0 ** np_rng.uniform(-12, 0, size=p)
                k = (q * w) @ q.T
                k = (k + k.T) / 2
            km = lower_mirrored(k)
            scale = float(np.abs(k).max())
            s = psd_sqrt(km, tol=1e-8 * scale)
            err = np.abs(s @ s - km).max()
            assert err <= 1e-8 * scale


def test_jacobi_eigh_matches_numpy(np_rng):
    for _ in range(20):
        a = random_symmetric(np_rng, 7)
        w, v = jacobi_eigh(a)
        np.testing.assert_allclose(sorted(w), np.linalg.eigvalsh(a), atol=1e-9)
        np.testing.assert_allclose(v @ v.T, np.eye(7), atol=1e-10)
        np.testing.assert_allclose((v * w) @ v.T, a, atol=1e-9)


def same_bits(x, y):
    return x.shape == y.shape and x.tobytes() == y.tobytes()


def from_lower(p: int, cells) -> np.ndarray:
    """The p x p array whose cell (i, j) is cells[k], k the row-major position of (max, min) on or below the diagonal."""
    i, j = np.indices((p, p))
    hi, lo = np.maximum(i, j), np.minimum(i, j)
    return np.asarray(cells, dtype=float)[hi * (hi + 1) // 2 + lo]


@st.composite
def rotation_case(draw):
    """A symmetric matrix of mixed-scale entries, a plane i < j and its Jacobi rotation."""
    p = draw(st.integers(2, 12))
    entries = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    a = from_lower(p, draw(st.lists(entries, min_size=p * (p + 1) // 2, max_size=p * (p + 1) // 2)))
    i, j = sorted(draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True)))
    return a, i, j, jacobi_coeffs(float(a[i, i]), float(a[j, j]), float(a[i, j]))


@settings(max_examples=300, deadline=None)
@given(rotation_case())
def test_apply_rotation_equals_dense_oracle(case):
    """Every cell, the untouched ones and both mirrors of the rotated rows, bit for bit."""
    a, i, j, coeffs = case
    expected = rotate_dense(a.copy(), i, j, coeffs)
    apply_rotation(a, i, j, coeffs)
    assert same_bits(a, expected)
