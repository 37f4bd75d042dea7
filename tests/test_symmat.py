import math

import numpy as np
import pytest

from conftest import random_spsd, random_symmetric
from oracles import jacobi_eigh, psd_sqrt
from treelets import SymMatrix, apply_rotation, jacobi_coeffs

SQRT1_2 = 1.0 / math.sqrt(2.0)


def dense_rotation(p, i, j, coeffs):
    J = np.eye(p)
    J[i, i] = J[j, j] = coeffs.c
    J[i, j] = coeffs.s
    J[j, i] = -coeffs.s
    return J


class TestSymMatrix:
    def test_single_cell_per_pair(self):
        a = SymMatrix(3)
        a.set(0, 2, 5.0)
        assert a.get(2, 0) == 5.0
        a.set(2, 0, -1.0)
        assert a.get(0, 2) == -1.0

    def test_round_trip_dense(self, np_rng):
        d = np_rng.normal(size=(6, 6))
        d = (d + d.T) / 2
        assert np.array_equal(SymMatrix.from_dense(d).to_dense(), d)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SymMatrix.from_dense([[1.0, 2.0], [3.0, 4.0]])

    def test_index_range(self):
        a = SymMatrix(2)
        with pytest.raises(IndexError):
            a.get(0, 2)

    def test_row_gather_matches_dense(self, np_rng):
        d = np_rng.normal(size=(7, 7))
        d = (d + d.T) / 2
        a = SymMatrix.from_dense(d)
        js = np.array([0, 3, 6, 2])
        assert np.array_equal(a.row(4, js), d[4, js])


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


class TestApplyRotation:
    def test_2x2_eigendecomposition(self):
        a = SymMatrix.from_dense([[2.0, 1.0], [1.0, 2.0]])
        apply_rotation(a, 0, 1, jacobi_coeffs(2.0, 2.0, 1.0))
        assert a.get(0, 1) == 0.0
        assert sorted([a.get(0, 0), a.get(1, 1)]) == pytest.approx([1.0, 3.0], abs=1e-12)

    def test_indefinite_2x2(self):
        a = SymMatrix.from_dense([[3.0, 4.0], [4.0, -3.0]])
        apply_rotation(a, 0, 1, jacobi_coeffs(3.0, -3.0, 4.0))
        assert a.get(0, 1) == 0.0
        assert sorted([a.get(0, 0), a.get(1, 1)]) == pytest.approx([-5.0, 5.0], abs=1e-12)

    def test_identity_rotation_is_noop(self):
        d = np.diag([1.0, 2.0, 3.0])
        a = SymMatrix.from_dense(d)
        apply_rotation(a, 0, 2, jacobi_coeffs(1.0, 3.0, 0.0))
        assert np.array_equal(a.to_dense(), d)

    def test_same_index_rejected(self):
        a = SymMatrix(3)
        with pytest.raises(IndexError):
            apply_rotation(a, 1, 1, jacobi_coeffs(2.0, 2.0, 1.0))
        with pytest.raises(IndexError):
            apply_rotation(a, 0, 5, jacobi_coeffs(2.0, 2.0, 1.0))

    def test_thousand_random_rotations(self, np_rng):
        """Exact zero at the target, dense conjugation match, invariants kept."""
        for _ in range(1000):
            a = random_symmetric(np_rng, 8)
            dense = a.to_dense()
            i, j = sorted(np_rng.choice(8, size=2, replace=False))
            coeffs = jacobi_coeffs(a.get(i, i), a.get(j, j), a.get(i, j))
            apply_rotation(a, int(i), int(j), coeffs)

            assert a.get(i, j) == 0.0
            ref = dense_rotation(8, i, j, coeffs)
            expected = ref.T @ dense @ ref
            np.testing.assert_allclose(a.to_dense(), expected, rtol=0, atol=1e-12)
            assert np.trace(a.to_dense()) == pytest.approx(np.trace(dense), rel=1e-10)
            assert np.linalg.norm(a.to_dense()) == pytest.approx(
                np.linalg.norm(dense), rel=1e-10
            )

    def test_untouched_rows_are_bitwise_identical(self, np_rng):
        a = random_symmetric(np_rng, 6)
        before = a.to_dense()
        apply_rotation(a, 1, 4, jacobi_coeffs(a.get(1, 1), a.get(4, 4), a.get(1, 4)))
        after = a.to_dense()
        keep = [0, 2, 3, 5]
        assert np.array_equal(after[np.ix_(keep, keep)], before[np.ix_(keep, keep)])


class TestPsdSqrt:
    def test_identity(self):
        s = psd_sqrt(SymMatrix.from_dense(np.eye(3)))
        np.testing.assert_allclose(s.to_dense(), np.eye(3), atol=1e-12)

    def test_diagonal(self):
        s = psd_sqrt(SymMatrix.from_dense(np.diag([4.0, 9.0])))
        np.testing.assert_allclose(s.to_dense(), np.diag([2.0, 3.0]), atol=1e-12)

    def test_2x2_closed_form(self):
        # eigenvalues 3 and 1 -> sqrt entries (sqrt(3)+-1)/2
        s = psd_sqrt(SymMatrix.from_dense([[2.0, 1.0], [1.0, 2.0]]))
        hi = (math.sqrt(3.0) + 1.0) / 2.0
        lo = (math.sqrt(3.0) - 1.0) / 2.0
        np.testing.assert_allclose(s.to_dense(), [[hi, lo], [lo, hi]], atol=1e-12)

    def test_square_recovers_input(self, np_rng):
        for _ in range(20):
            p = int(np_rng.integers(2, 12))
            k = random_spsd(np_rng, p)
            s = psd_sqrt(k)
            err = np.abs(s.to_dense() @ s.to_dense() - k.to_dense()).max()
            assert err <= max(1e-10, 1e-8 * np.abs(k.to_dense()).max())

    def test_result_is_psd_and_symmetric(self, np_rng):
        k = random_spsd(np_rng, 6)
        s = psd_sqrt(k)
        w = np.linalg.eigvalsh(s.to_dense())
        assert w.min() >= -1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="not PSD"):
            psd_sqrt(SymMatrix.from_dense([[1.0, 2.0], [2.0, 1.0]]), tol=1e-10)

    def test_small_negative_eigenvalues_clamped(self):
        s = psd_sqrt(SymMatrix.from_dense([[1e-14, 0.0], [0.0, 1.0]]), tol=1e-10)
        assert s.get(0, 0) >= 0.0

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
            km = SymMatrix.from_dense(k)
            scale = float(np.abs(k).max())
            s = psd_sqrt(km, tol=1e-8 * scale)
            err = np.abs(s.to_dense() @ s.to_dense() - km.to_dense()).max()
            assert err <= 1e-8 * scale


def test_jacobi_eigh_matches_numpy(np_rng):
    for _ in range(20):
        a = random_symmetric(np_rng, 7)
        w, v = jacobi_eigh(a)
        np.testing.assert_allclose(sorted(w), np.linalg.eigvalsh(a.to_dense()), atol=1e-9)
        np.testing.assert_allclose(v @ v.T, np.eye(7), atol=1e-10)
        np.testing.assert_allclose((v * w) @ v.T, a.to_dense(), atol=1e-9)
