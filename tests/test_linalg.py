"""Eigensolver, Perron pair, and matrix-fact checks against numpy oracles."""

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    DegenerateProjectionError,
    check_fact1,
    check_fact2,
    left_to_right_products,
    oracle_jacobi,
    oracle_perron_pair,
    oracle_power_iteration,
    oracle_residual,
    symmetric_nonneg_with_rho,
    symmetric_positive_with_rho,
    symmetric_signed_with_rho,
)

from ratsys import (
    EIG_TOL,
    EigenDecomposition,
    eig2,
    eig_symmetric,
    perron_pair,
)
from ratsys.linalg import (
    RHO_TOL,
    _decomposition,
    _jacobi,
    _power_iteration,
    contraction_rate,
    ordered_products,
    radius_side,
)


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

    def test_spectral_radius_is_read_from_the_eigenvalues(self):
        dec = EigenDecomposition(eigenvalues=np.array([0.5, -2.0, 1.5]), eigenvectors=np.eye(3))
        assert dec.spectral_radius == 2.0 and type(dec.spectral_radius) is float
        assert EigenDecomposition(np.zeros(0), np.zeros((0, 0))).spectral_radius == 0.0
        assert "spectral_radius" not in [f.name for f in dataclasses.fields(EigenDecomposition)]

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


def _assert_jacobi_matches_oracle(a):
    """``_jacobi`` gives the slice-form oracle's eigenvalues and vectors bit for bit."""
    for got, want in zip(_jacobi(a), oracle_jacobi(a)):
        assert got.shape == want.shape and got.flags.c_contiguous
        assert (got.view(np.uint64) == want.view(np.uint64)).all()


def _symmetric(b):
    """The exactly symmetric matrix with the upper triangle of ``b``."""
    return np.triu(b) + np.triu(b, 1).T


class TestJacobiOracle:
    """Rotating lists of Python floats repeats the numpy slice arithmetic bit for bit."""

    @pytest.mark.parametrize("m", range(3, 17))
    def test_random_symmetric(self, m):
        rng = np.random.default_rng(900 + m)
        for trial in range(12):
            b = rng.uniform(-1.0, 1.0, (m, m)) * 10.0 ** float(rng.integers(-3, 4))
            if trial % 3 == 0:
                b[rng.random((m, m)) < 0.4] = 0.0
            elif trial % 3 == 1:
                b = np.abs(b)
            _assert_jacobi_matches_oracle(_symmetric(b))

    @pytest.mark.parametrize("m", [3, 4, 7, 16])
    def test_special_matrices(self, m):
        rng = np.random.default_rng(m)
        v = rng.uniform(-1.0, 1.0, m)
        ones = np.ones((m, m))
        householder = np.eye(m) - 2.0 * np.outer(v, v) / (v @ v)  # eigenvalues -1, 1, ..., 1
        negative_zeros = np.where(np.eye(m) == 1.0, 2.0, -0.0)
        negative_zeros[0, 1] = negative_zeros[1, 0] = 0.5
        for a in (np.zeros((m, m)), np.full((m, m), -0.0), np.diag(rng.uniform(-2.0, 2.0, m)),
                  3.0 * np.eye(m), ones, ones + np.eye(m), -ones, _symmetric(householder),
                  negative_zeros, np.outer(v, v)):
            _assert_jacobi_matches_oracle(a)

    @pytest.mark.parametrize("m", [3, 5, 8, 12, 16])
    def test_unit_radius_positive_kernels(self, m):
        # built as the m = 16, k = 4 verify benchmark builds its kernel:
        # entries uniform in [0.1, 1], scaled by the Perron root to rho = 1
        rng = np.random.default_rng(40 + m)
        for _ in range(6):
            a = _symmetric(rng.uniform(0.1, 1.0, (m, m)))
            a = a / perron_pair(a)[0]
            _assert_jacobi_matches_oracle(a)
            want = _decomposition(*oracle_jacobi(a))
            got = eig_symmetric(a)
            assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
            assert got.eigenvectors.tobytes() == want.eigenvectors.tobytes()


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

    @pytest.mark.parametrize("a,want", [
        ([[0.0, 1e200], [1e-200, 0.0]], [1.0, -1.0]),  # a01 / a10 is beyond the float range
        ([[1.0, 1e160], [1e-170, 1.0]], [1.00001, 0.99999]),
    ])
    def test_off_diagonals_far_apart_keep_their_product(self, a, want):
        np.testing.assert_allclose(eig2(a).eigenvalues, want, rtol=1e-15, atol=0)

    def test_ordinary_off_diagonals_keep_the_quotient_form(self):
        # hi * sqrt(lo / hi) decides every kernel whose quotient is a normal float
        rng = np.random.default_rng(47)
        kernels = [rng.uniform(0.0, 2.0, (2, 2)) for _ in range(200)]
        kernels += [np.array([[0.5, 1e150], [1e-150, 0.25]]), np.array([[0.0, 1.0], [0.0, 1.0]])]
        for a in kernels:
            (a00, a01), (a10, a11) = a.tolist()
            lo, hi = sorted((a01, a10))
            h = math.hypot(0.5 * (a00 - a11), hi * math.sqrt(lo / hi))
            mid = 0.5 * (a00 + a11)
            assert eig2(a).eigenvalues.tolist() == [mid + h, mid - h]

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
        assert abs(eig_symmetric([[0.3, 0.2], [0.2, 0.3]]).spectral_radius - 0.5) <= EIG_TOL
        # closed form (2 +/- 2) / 2 = {2, 0}
        assert abs(eig_symmetric([[1.0, 1.0], [1.0, 1.0]]).spectral_radius - 2.0) <= EIG_TOL
        assert eig_symmetric(np.zeros((2, 2))).spectral_radius == 0.0

    def test_scaling_covariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = int(rng.integers(2, 5))
            b = rng.uniform(-1.0, 1.0, (m, m))
            a = 0.5 * (b + b.T)
            c = float(rng.uniform(0.0, 4.0))
            scaled, plain = eig_symmetric(c * a), eig_symmetric(a)
            assert abs(scaled.spectral_radius - c * plain.spectral_radius) <= 1e-9


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


def hexes(values):
    """The exact bits of each float, as text that shows them on a failure."""
    return [float(v).hex() for v in np.ravel(values)]


def near_bipartite(e):
    """[[e, 1, 1], [1, e, e], [1, e, e]] scaled to rho = 1: eigenvalues near +-1."""
    a = np.array([[e, 1.0, 1.0], [1.0, e, e], [1.0, e, e]])
    return a / np.abs(np.linalg.eigvalsh(a)).max()


class TestOrderedProducts:
    """Every sum of products in ratsys.linalg adds its terms by ascending
    index, each product and each addition rounded once, so no BLAS build
    or CPU changes a bit."""

    def test_terms_are_added_from_the_first(self):
        # each 2^-53 added to 1.0 alone is a tie that rounds back to 1.0; any
        # order that first adds the small terms together gives more
        assert ordered_products([[1.0] + [2.0**-53] * 20], [1.0] * 21) == [1.0]
        assert ordered_products([[2.0**-53] * 20 + [1.0]], [1.0] * 21) == [1.0 + 20 * 2.0**-53]

    def test_matches_the_left_to_right_reference(self):
        rng = np.random.default_rng(71)
        for m in (1, 2, 3, 8, 16, 33):
            rows = (rng.standard_normal((m, m)) * 10.0 ** rng.integers(-8, 8, (m, m))).tolist()
            x = (rng.standard_normal(m) * 10.0 ** rng.integers(-8, 8, m)).tolist()
            assert hexes(ordered_products(rows, x)) == hexes(left_to_right_products(rows, x))

    @pytest.mark.parametrize("a, shifted", [
        (symmetric_positive_with_rho(np.random.default_rng(73), 5, 1.0), False),
        (np.random.default_rng(74).uniform(0.1, 1.0, (4, 4)), False),
        (near_bipartite(1e-6), True),  # plain iteration stalls; the shifted one settles it
    ], ids=["positive-5", "nonsymmetric-4", "near-bipartite"])
    def test_perron_pair_matches_the_reference(self, a, shifted):
        assert (oracle_power_iteration(a, 0.0) is None) == shifted
        want_r, want_w = oracle_perron_pair(a)
        r, w = perron_pair(a)
        assert hexes([r]) == hexes([want_r])
        assert hexes(w) == hexes(want_w)

    @pytest.mark.parametrize("m", [2, 3, 6, 16])
    def test_residual_matches_the_reference(self, m):
        rng = np.random.default_rng(79 + m)
        a = symmetric_signed_with_rho(rng, m, 1.3)
        dec = eig_symmetric(a)
        assert hexes([dec.residual(a)]) == hexes([oracle_residual(dec, a)])


#: A positive symmetric kernel (eigenvalues 3 + sqrt 2, 3 - sqrt 2, -1) over 4,
#: so that its largest entry, 3/4, lies in [0.5, 1).
SCALE_PROBE = np.array([[1.0, 2.0, 1.0], [2.0, 1.0, 1.0], [1.0, 1.0, 3.0]]) / 4


class TestExtremeScales:
    """Jacobi and power iteration square entries; near the ends of the float
    range the solvers run on the kernel rescaled by a power of two."""

    @staticmethod
    def bits(x):
        return np.asarray(x, dtype=float).view(np.uint64)

    @pytest.mark.parametrize("c", [2.0**600, 2.0**-600])
    def test_eig_symmetric_scales_bit_for_bit(self, c):
        want, got = eig_symmetric(SCALE_PROBE), eig_symmetric(c * SCALE_PROBE)
        np.testing.assert_array_equal(self.bits(got.eigenvalues), self.bits(c * want.eigenvalues))
        np.testing.assert_array_equal(self.bits(got.eigenvectors), self.bits(want.eigenvectors))
        assert got.spectral_radius == c * want.spectral_radius

    @pytest.mark.parametrize("c", [2.0**600, 2.0**-600])
    def test_perron_pair_scales_bit_for_bit(self, c):
        (r, w), (rc, wc) = perron_pair(SCALE_PROBE), perron_pair(c * SCALE_PROBE)
        assert self.bits(rc) == self.bits(c * r)
        np.testing.assert_array_equal(self.bits(wc), self.bits(w))

    @pytest.mark.parametrize("c", [1e160, 1e200, 1e-200])
    def test_decimal_scales_keep_the_spectrum(self, c):
        dec = eig_symmetric(c * SCALE_PROBE)
        want = np.array([3.0 + math.sqrt(2.0), 3.0 - math.sqrt(2.0), -1.0]) * (c / 4)
        np.testing.assert_allclose(dec.eigenvalues, want, rtol=1e-14, atol=0)
        r, w = perron_pair(c * SCALE_PROBE)
        assert r == pytest.approx(want[0], rel=1e-14, abs=0)
        np.testing.assert_allclose(w, [0.5, 0.5, math.sqrt(0.5)], rtol=0, atol=1e-13)

    @pytest.mark.parametrize("c", [5e307, 2.0**1022])
    def test_radius_past_the_largest_float_is_inf(self, c):
        # every entry is finite, but 3 + sqrt 2 times c is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = eig_symmetric(c * (4 * SCALE_PROBE))
            r, w = perron_pair(c * (4 * SCALE_PROBE))
        assert dec.spectral_radius == r == math.inf
        want = np.array([3.0 - math.sqrt(2.0), -1.0]) * c
        np.testing.assert_allclose(dec.eigenvalues[1:], want, rtol=1e-14, atol=0)
        np.testing.assert_allclose(w, [0.5, 0.5, math.sqrt(0.5)], rtol=0, atol=1e-13)


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


SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _exactly_contracted(a, rate):
    """Each row sum of ``a`` at most ``rate`` in exact rational arithmetic."""
    return all(sum(Fraction(aic) for aic in row) <= Fraction(rate) for row in a.tolist())


class TestContractionRate:
    @pytest.mark.parametrize("c", [0.1, 0.45, 0.77, 0.99])
    def test_row_sum_of_a_scaled_swap(self, c):
        assert c < contraction_rate(c * SWAP) < c * (1.0 + 1e-14)

    def test_zero_kernel(self):
        # the row sums are 0; only the absolute slack is left
        assert contraction_rate(np.zeros((3, 3))) == 2.0**-1074

    @pytest.mark.parametrize("a", [
        SWAP,  # row sums exactly 1
        np.eye(3),
        np.array([[1.0, 1.0], [0.0, 1.0]]),  # a Jordan block
        np.array([[0.0, 3.0], [0.1, 0.0]]),  # rho ~ 0.55, but a row sum of 3
        np.array([[0.5, 1e308], [0.0, 0.5]]),
        np.array([[1e308, 1e308], [0.0, 0.0]]),  # the row sum overflows
        2.5 * SWAP,
    ])
    def test_none_without_row_sums_below_one(self, a):
        assert contraction_rate(a) is None

    def test_none_at_unit_radius(self):
        rng = np.random.default_rng(5)
        for m in (2, 3, 5, 16):
            assert contraction_rate(symmetric_positive_with_rho(rng, m, 1.0)) is None

    def test_rate_bounds_the_exact_row_sums(self):
        # the rate covers the rounding of the row sums, up to a rate just below 1
        rng = np.random.default_rng(9)
        for m in (1, 2, 3, 5, 8, 16):
            for top in (0.3, 0.9, 1.0 - 2.0**-40):
                a = rng.uniform(0.0, 1.0, (m, m))
                a = a * (top / a.sum(axis=1).max())
                rate = contraction_rate(a)
                assert rate is not None and top <= rate < 1.0
                assert _exactly_contracted(a, rate)
