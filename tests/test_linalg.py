"""Eigensolver, Perron pair, and matrix-fact checks against numpy oracles."""

import math

import numpy as np
import pytest

from conftest import symmetric_nonneg_with_rho, symmetric_signed_with_rho

from ratsys import (
    EIG_TOL,
    DegenerateProjectionError,
    check_fact1,
    check_fact2,
    eig2,
    eig_symmetric,
    perron_pair,
    spectral_radius,
)
from ratsys.linalg import RHO_TOL, _power_iteration, radius_side


def closed_form_2x2(a):
    """Independent eigenvalue oracle: lambda = (tr +/- sqrt(tr^2 - 4 det)) / 2."""
    tr = a[0][0] + a[1][1]
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    root = math.sqrt(tr * tr - 4.0 * det)
    return 0.5 * (tr + root), 0.5 * (tr - root)


class TestEigSymmetric:
    def test_identity(self):
        dec = eig_symmetric(np.eye(2))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 1.0])
        assert dec.spectral_radius == 1.0

    def test_permutation(self):
        dec = eig_symmetric([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0])
        assert dec.spectral_radius == 1.0

    def test_rank_one_half(self):
        # closed form: lambda = (1 +/- sqrt(0 + 1)) / 2 = {1, 0}
        dec = eig_symmetric([[0.5, 0.5], [0.5, 0.5]])
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 0.0], atol=EIG_TOL)

    def test_matches_closed_form_2x2(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            b = rng.uniform(-2.0, 2.0, 3)
            a = [[b[0], b[1]], [b[1], b[2]]]
            lam1, lam2 = closed_form_2x2(a)
            dec = eig_symmetric(a)
            got = sorted(dec.eigenvalues)
            np.testing.assert_allclose(got, sorted([lam1, lam2]), atol=EIG_TOL)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 6, 8])
    def test_reconstruction_and_orthonormality(self, m):
        rng = np.random.default_rng(100 + m)
        for _ in range(25):
            b = rng.uniform(-1.0, 1.0, (m, m))
            a = 0.5 * (b + b.T)
            dec = eig_symmetric(a)
            w = dec.eigenvectors
            rebuilt = w.T @ np.diag(dec.eigenvalues) @ w
            assert np.abs(rebuilt - a).max() <= EIG_TOL
            gram = w @ w.T
            assert np.abs(gram - np.eye(m)).max() <= EIG_TOL
            # eigenvalues agree with LAPACK
            ref = np.linalg.eigvalsh(a)
            np.testing.assert_allclose(sorted(dec.eigenvalues), sorted(ref), atol=1e-10)

    @pytest.mark.parametrize("x", [0.0, 0.5, 3.0, -2.0])
    def test_one_by_one_is_exact(self, x):
        dec = eig_symmetric([[x]])
        assert dec.eigenvalues.view(np.uint64).tolist() == np.array([x]).view(np.uint64).tolist()
        assert dec.eigenvectors.tolist() == [[1.0]]
        assert dec.spectral_radius == abs(x)

    def test_ordering_descending_absolute_with_sign_ties(self):
        dec = eig_symmetric(np.diag([-2.0, 2.0, 0.5]))
        np.testing.assert_allclose(dec.eigenvalues, [2.0, -2.0, 0.5])

    def test_sign_orientation(self):
        dec = eig_symmetric(np.diag([3.0, 1.0]))
        for row in dec.eigenvectors:
            assert row[np.argmax(np.abs(row))] > 0

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eig_symmetric([[0.0, 1.0], [0.5, 0.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            eig_symmetric([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            eig_symmetric(np.ones((2, 3)))


class TestEig2:
    def test_matches_lapack_on_nonnegative_matrices(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            a = rng.uniform(0.0, 2.0, (2, 2)) * (rng.uniform(size=(2, 2)) < 0.8)
            dec = eig2(a)
            ref = np.sort(np.linalg.eigvals(a).real)[::-1]
            np.testing.assert_allclose(dec.eigenvalues, ref, rtol=0, atol=1e-14)
            np.testing.assert_allclose(np.linalg.norm(dec.eigenvectors, axis=1), 1.0,
                                       rtol=0, atol=1e-15)
            assert dec.residual(a) <= 1e-14 * max(1.0, dec.spectral_radius)
            assert dec.eigenvectors[0].min() >= 0.0  # Perron-Frobenius

    @pytest.mark.parametrize("a", [
        [[1.0, 1e-9], [1e-9, 1.0 - 1e-8]],
        [[1.0 + 1e-8, 1e-8], [1e-8, 1.0]],
        [[2.0, 1e-9], [1e-9, 1.0]],
    ])
    def test_near_double_eigenvalue_is_accurate(self, a):
        dec = eig2(a)
        ref = np.linalg.eigvalsh(a)[::-1]
        np.testing.assert_allclose(dec.eigenvalues, ref, rtol=0, atol=1e-15)
        assert dec.residual(np.array(a)) <= 1e-15

    def test_tiny_entries_do_not_underflow(self):
        dec = eig2([[1e-200, 1e-200], [1e-200, 1e-200]])
        assert dec.eigenvalues.tolist() == [2e-200, 0.0]
        np.testing.assert_allclose(np.abs(dec.eigenvectors), 0.5 ** 0.5)

    def test_symmetric_closed_form_is_exact(self):
        rng = np.random.default_rng(43)
        for c in rng.uniform(0.1, 3.0, 50):
            assert eig2([[0.0, c], [c, 0.0]]).eigenvalues.tolist() == [c, -c]
            dec = eig2([[c, c], [c, c]])
            assert dec.eigenvalues.tolist() == [2.0 * c, 0.0]
            assert dec.eigenvectors[0].tolist() == [1.0 / math.sqrt(2.0)] * 2

    def test_triangular_and_jordan_eigenvectors(self):
        dec = eig2([[1.0, 0.5], [0.0, 0.5]])
        assert dec.eigenvalues.tolist() == [1.0, 0.5]
        assert dec.eigenvectors[0].tolist() == [1.0, 0.0]
        dec = eig2([[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(dec.eigenvectors, [[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(eig2(np.eye(2)).eigenvectors, np.eye(2))
        np.testing.assert_array_equal(eig2(np.diag([0.5, 1.0])).eigenvectors,
                                      [[0.0, 1.0], [1.0, 0.0]])

    def test_rejects_complex_spectrum_and_wrong_shape(self):
        with pytest.raises(ValueError, match="complex"):
            eig2([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="complex"):
            eig2([[0.0, -1e-200], [1e-200, 0.0]])  # the product underflows to -0.0
        with pytest.raises(ValueError, match="2x2"):
            eig2(np.eye(3))


class TestSpectralRadius:
    def test_examples(self):
        # closed form (0.6 +/- sqrt(0.16)) / 2 = {0.5, 0.1}
        assert abs(spectral_radius([[0.3, 0.2], [0.2, 0.3]]) - 0.5) <= EIG_TOL
        # closed form (2 +/- 2) / 2 = {2, 0}
        assert abs(spectral_radius([[1.0, 1.0], [1.0, 1.0]]) - 2.0) <= EIG_TOL
        assert spectral_radius(np.zeros((2, 2))) == 0.0

    def test_scaling_covariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            b = rng.uniform(-1.0, 1.0, (m, m))
            a = 0.5 * (b + b.T)
            c = float(rng.uniform(0.0, 4.0))
            assert abs(spectral_radius(c * a) - c * spectral_radius(a)) <= 1e-9


class TestRadiusSide:
    def test_closed_band(self):
        assert radius_side(1.0) == 0
        assert radius_side(1.0 + RHO_TOL) == 0
        assert radius_side(1.0 - RHO_TOL) == 0
        assert radius_side(1.000000001) == 0  # the literal is fl(1 + 1e-9)
        assert radius_side(np.nextafter(1.0 + RHO_TOL, 2.0)) == 1
        assert radius_side(np.nextafter(1.0 - RHO_TOL, 0.0)) == -1

    def test_explicit_tolerance(self):
        assert radius_side(1.5, 0.5) == 0
        assert radius_side(0.4, 0.5) == -1
        assert radius_side(1.0, 0.0) == 0
        assert radius_side(np.nextafter(1.0, 2.0), 0.0) == 1


class TestPerronPair:
    def test_rank_one_half(self):
        r, w = perron_pair([[0.5, 0.5], [0.5, 0.5]])
        assert abs(r - 1.0) <= EIG_TOL
        np.testing.assert_allclose(w, [1.0 / math.sqrt(2)] * 2, atol=EIG_TOL)

    def test_shifted(self):
        # closed form (4 +/- sqrt(4)) / 2 = {3, 1}
        r, w = perron_pair([[2.0, 1.0], [1.0, 2.0]])
        assert abs(r - 3.0) <= EIG_TOL
        np.testing.assert_allclose(w, [1.0 / math.sqrt(2)] * 2, atol=EIG_TOL)

    def test_scaling(self):
        r, _ = perron_pair(0.5 * np.ones((2, 2)))
        assert abs(r - 1.0) <= EIG_TOL

    def test_rejects_nonpositive_entry(self):
        # a nonnegative 2x2 matrix has eig2's dominant pair; a larger one
        # needs strictly positive entries for power iteration
        with pytest.raises(ValueError, match="positive"):
            perron_pair([[1.0, 0.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])

    def test_nonnegative_2x2_is_the_closed_form_dominant_pair(self):
        for a in ([[1.0, 0.0], [1.0, 1.0]], [[0.5, 0.0], [0.7, 1.0]], [[0.0, 2.0], [0.5, 0.0]]):
            dec = eig2(a)
            r, w = perron_pair(a)
            assert r == dec.eigenvalues[0] == dec.spectral_radius
            np.testing.assert_array_equal(w, dec.eigenvectors[0])

    def test_residual_and_positivity(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            m = int(rng.integers(2, 6))
            a = rng.uniform(0.1, 1.0, (m, m))
            r, w = perron_pair(a)
            assert np.abs(a @ w - r * w).max() <= EIG_TOL
            assert w.min() > 0
            assert abs(np.linalg.norm(w) - 1.0) <= EIG_TOL
            assert abs(r - np.abs(np.linalg.eigvals(a)).max()) <= 1e-9


    def test_eigenvalue_near_minus_rho(self):
        # an eigenvalue near -rho stalls plain power iteration on A
        eps = 1e-4
        a = np.array([[eps, 1.0, 1.0], [1.0, eps, eps], [1.0, eps, eps]])
        a /= np.abs(np.linalg.eigvalsh(a)).max()
        assert _power_iteration(a, 0.0) is None
        r, w = perron_pair(a)
        assert np.abs(a @ w - r * w).max() <= 1e-14 * max(1.0, r)
        assert w.min() > 0
        assert abs(r - 1.0) <= 1e-14


class TestFact1:
    def test_eigenvector_preserves_norm(self):
        ok, equal = check_fact1([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0], 5)
        assert ok and equal

    def test_kernel_vector_contracts(self):
        ok, equal = check_fact1([[0.5, 0.5], [0.5, 0.5]], [1.0, -1.0], 1)
        assert ok and not equal

    def test_mixed_vector(self):
        # A (1, 0) = (0.5, 0.5) is a fixed point; ||A^3 v||^2 = 0.5 by direct powers
        a = np.array([[0.5, 0.5], [0.5, 0.5]])
        w = np.linalg.matrix_power(a, 3) @ np.array([1.0, 0.0])
        assert abs(float(w @ w) - 0.5) < 1e-15
        ok, equal = check_fact1(a, [1.0, 0.0], 3)
        assert ok and not equal

    def test_rejects_wrong_radius(self):
        with pytest.raises(ValueError, match="radius"):
            check_fact1(np.eye(2) * 0.5, [1.0, 0.0], 2)

    def test_contraction_for_radius_at_most_one(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            a = symmetric_nonneg_with_rho(rng, m, float(rng.uniform(0.1, 1.0)))
            v = rng.uniform(-2.0, 2.0, m)
            assert np.linalg.norm(a @ v) <= np.linalg.norm(v) + EIG_TOL

    def test_equality_iff_unit_span(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            a = symmetric_signed_with_rho(rng, m, 1.0)
            lams, vecs = np.linalg.eigh(a)
            big_l = int(rng.integers(1, 6))
            if rng.uniform() < 0.5:
                # build v inside the |lambda| = 1 eigenspace
                unit = np.abs(np.abs(lams) - 1.0) <= 1e-12
                v = vecs[:, unit] @ rng.uniform(0.5, 1.5, int(unit.sum()))
                expect_equal = True
            else:
                v = rng.uniform(0.5, 1.5, m)
                small = vecs[:, np.abs(lams) < 1.0 - 1e-6]
                expect_equal = np.linalg.norm(small.T @ v) <= EIG_TOL
            ok, equal = check_fact1(a, v, big_l)
            assert ok
            assert equal == expect_equal


class TestFact2:
    def test_all_ones_kernel(self):
        assert check_fact2([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0], 1e6, 64)

    def test_orthogonal_axis_vector(self):
        with pytest.raises(DegenerateProjectionError):
            check_fact2(np.diag([2.0, 0.5]), [0.0, 1.0], 1e6, 64)

    def test_eigenvector_growth(self):
        # v is the eigenvalue-3 eigenvector; 3^13 * sqrt(2) > 1e6
        assert check_fact2([[2.0, 1.0], [1.0, 2.0]], [1.0, 1.0], 1e6, 20)

    def test_rejects_contraction(self):
        with pytest.raises(ValueError, match="radius"):
            check_fact2(np.eye(2) * 0.5, [1.0, 1.0], 1e6, 10)

    def test_insufficient_budget_returns_false(self):
        assert not check_fact2([[2.0, 1.0], [1.0, 2.0]], [1.0, 1.0], 1e6, 3)
