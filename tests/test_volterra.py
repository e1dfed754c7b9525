import math
import tracemalloc

import numpy as np
import pytest

from fracvolt import TaylorSeries, from_shorthand
from fracvolt import norms
from fracvolt import volterra as vo
from fracvolt.cli import parse_symbol
from conftest import random_polynomial


def symbol_series(symbol, rng):
    """mono:<n> as the monomial, random:<n> as a random polynomial."""
    kind, _, degree = symbol.partition(":")
    return (TaylorSeries.monomial(int(degree)) if kind == "mono"
            else random_polynomial(rng, int(degree)))


class TestMatrix:
    def test_weighted_shift_entries(self, std1):
        # g = z on H^2: subdiagonal 2/(m+1)
        M = vo.volterra_matrix(std1, TaylorSeries.monomial(1), -1, 12).dense()
        for m in range(1, 12):
            np.testing.assert_allclose(M[m, m - 1], 2.0 / (m + 1), rtol=1e-12)
        assert np.count_nonzero(np.triu(M, 1)) == 0   # lower triangular

    def test_constant_symbol_is_diagonal(self, std1):
        c = 2.5
        M = vo.volterra_matrix(std1, TaylorSeries.from_coeffs([c]), -1,
                               8).dense()
        mus = std1.odd_moments(8)
        np.testing.assert_allclose(np.diag(M), c * mus / mus[0], rtol=1e-12)
        assert np.count_nonzero(M - np.diag(np.diag(M))) == 0

    def test_zero_symbol(self, std1):
        M = vo.volterra_matrix(std1, TaylorSeries.zero(), -1, 8)
        assert not np.any(M.entries)

    def test_image_of_constant_is_symbol(self, std1):
        # the first column, taken back from basis to Taylor coefficients
        g = TaylorSeries.monomial(1)
        V = vo.volterra_matrix(std1, g, -1, 8)
        c = norms.basis_norms(V.alpha, V.dimension)
        img = V.dense()[:, 0] * c[0] / c
        np.testing.assert_allclose(img, np.eye(8)[1], atol=1e-14)


class TestSpectra:
    def test_zero_matrix(self, std1):
        s = vo.singular_values(vo.volterra_matrix(std1, TaylorSeries.zero(), -1, 6))
        assert not np.any(s)

    def test_diagonal_matrix(self, std1):
        M = vo.volterra_matrix(std1, TaylorSeries.from_coeffs([2.0]), -1, 6)
        s = vo.singular_values(M)
        np.testing.assert_allclose(
            s, np.sort(np.abs(np.diag(M.dense())))[::-1], rtol=1e-13)

    def test_weighted_shift_column_norms(self, std1, std2):
        # orthogonal columns: singular values equal column norms exactly
        for w, alpha in ((std1, -1.0), (std1, 0.0), (std2, -1.0), (std2, 2.0)):
            M = vo.volterra_matrix(w, TaylorSeries.monomial(1), alpha, 24)
            s = vo.singular_values(M)
            cols = np.sort(np.linalg.norm(M.dense(), axis=0))[::-1]
            np.testing.assert_allclose(s, cols, atol=1e-12)

    def test_shift_n4_values(self, std1):
        s = vo.singular_values(vo.volterra_matrix(std1, TaylorSeries.monomial(1),
                                                  -1, 4))
        np.testing.assert_allclose(s, [1.0, 2.0 / 3.0, 0.5, 0.0],
                                   atol=1e-14)


    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("coeffs", [[0.0], [2.5], [0.0, 1.0],
                                        [0.3, -1.0 + 0.5j, 0.2j]])
    def test_tiny_truncations_match_dense(self, std1, N, coeffs):
        g = TaylorSeries.from_coeffs(coeffs[:N])
        M = vo.volterra_matrix(std1, g, -1, N)
        s = vo.singular_values(M)
        assert s.shape == (N,)
        np.testing.assert_allclose(
            s, np.linalg.svd(M.dense(), compute_uv=False), atol=1e-15)

    def test_empty_half_block(self, std1):
        # the N/2 block at N = 1 is 0 x 0
        M = vo.volterra_matrix(std1, TaylorSeries.monomial(0), -1, 1)
        empty = vo.OperatorMatrix(M.entries[:0], -1)
        assert vo.singular_values(empty).shape == (0,)
        assert vo.truncation_spectra(std1, TaylorSeries.monomial(0), -1,
                                     1)[1].shape == (0,)


class TestBand:
    """Band storage: leading blocks are smaller truncations, and memory
    grows with N (deg g + 1), never with N^2."""

    @pytest.mark.parametrize("label", ["std:1", "std:2", "exp:1:1"])
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 2.0])
    @pytest.mark.parametrize("symbol", ["mono:1", "mono:9", "random:12"])
    def test_leading_block_is_half_truncation(self, label, alpha, symbol, rng):
        w = from_shorthand(label)
        g = symbol_series(symbol, rng)
        N = 64
        small = vo.volterra_matrix(w, g, alpha, N // 2)
        big = vo.volterra_matrix(w, g, alpha, N).dense()
        assert np.array_equal(big[: N // 2, : N // 2], small.dense())
        # truncation_spectra's band slice is that same block
        half = vo.truncation_spectra(w, g, alpha, N)[1]
        assert np.array_equal(half, vo.singular_values(small))

    @pytest.mark.parametrize("symbol", ["mono:3", "log:64", "real:12"])
    def test_real_symbol_takes_real_band(self, std1, rng, symbol):
        # a real band goes to the real symmetric band solver; its Gram
        # eigenvalues are the complex path's to rounding (about eps sigma_max^2,
        # which moves a tiny sigma by up to sqrt(eps) sigma_max)
        g = parse_symbol(symbol) if symbol != "real:12" else \
            TaylorSeries.from_coeffs(rng.standard_normal(13))
        M = vo.volterra_matrix(std1, g, 0.0, 128)
        assert M.entries.dtype == np.float64
        as_complex = vo.OperatorMatrix(M.entries.astype(complex), M.alpha)
        s_real, s_complex = vo.singular_values(M), vo.singular_values(as_complex)
        np.testing.assert_allclose(s_real ** 2, s_complex ** 2, rtol=0,
                                   atol=1e-13 * s_complex[0] ** 2)
        twisted = vo.volterra_matrix(std1, g.scale(1j), 0.0, 128)
        assert twisted.entries.dtype == np.complex128

    def test_memory_is_linear_in_truncation(self, std1, rng):
        N = 4096
        g = random_polynomial(rng, 8)
        assert vo.volterra_matrix(std1, g, -1, N).entries.nbytes == 16 * N * 9
        tracemalloc.start()
        try:
            full, half = vo.truncation_spectra(std1, g, -1, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert full.shape == (N,) and half.shape == (N // 2,)
        # one N x N complex array would take 16 N^2 = 268 MB
        assert peak < N * N


class TestDenseOracle:
    """The banded Gram path against a dense SVD of the same matrix.

    Eigenvalues of M^H M carry an absolute error of order eps * s_max^2, so a
    singular value s is off by about eps * s_max^2 / s: tiny ones lose
    accuracy down to sqrt(eps) * s_max, the top of the spectrum keeps it.
    """

    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("label", ["std:1", "std:2", "exp:1:1"])
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 2.0])
    @pytest.mark.parametrize("symbol, N", [("mono:1", 300), ("mono:9", 160),
                                           ("random:1", 40), ("random:5", 97),
                                           ("random:16", 300)])
    def test_matches_dense_svd(self, label, alpha, symbol, N, rng):
        g = symbol_series(symbol, rng)
        M = vo.volterra_matrix(from_shorthand(label), g, alpha, N)
        band = vo.singular_values(M)
        dense = np.linalg.svd(M.dense(), compute_uv=False)
        top = dense[0]
        assert np.all(np.abs(band - dense) <= 8.0 * math.sqrt(self.EPS) * top)
        large = dense >= 1e-3 * top
        np.testing.assert_allclose(band[large], dense[large], rtol=1e-10)
        for p in (1.0, 2.0, 4.0):
            np.testing.assert_allclose(np.sum(band ** p) ** (1.0 / p),
                                       np.sum(dense ** p) ** (1.0 / p),
                                       rtol=1e-9)


class TestSchatten:
    def test_zero_spectrum(self):
        assert vo.schatten_norm(np.zeros(5), 2.0) == 0.0

    @pytest.mark.parametrize("label, symbol, N", [
        ("std:2", "random:12", 640), ("exp:1:1", "mono:9", 97),
        ("std:1", "random:5", 256)])
    def test_spectrum_is_a_contiguous_array(self, label, symbol, N, rng):
        # sigma is a decreasing C-contiguous float64 array, and its Schatten
        # norms equal the ones formed on np.maximum(sigma, 0), the copy the
        # spectrum wrapper once made, bit for bit: a sum over the reversed
        # (negative-stride) view rounds differently
        M = vo.volterra_matrix(from_shorthand(label), symbol_series(symbol, rng),
                               -1, N)
        sigma = vo.singular_values(M)
        assert isinstance(sigma, np.ndarray) and sigma.dtype == np.float64
        assert sigma.flags.c_contiguous and sigma.shape == (N,)
        assert np.all(np.diff(sigma) <= 0.0) and sigma[-1] >= 0.0
        old = np.maximum(sigma, 0.0)
        for p in (0.5, 1.0, 1.5, 2.0, 3.7):
            value = vo.schatten_norm(sigma, p)
            assert type(value) is float
            assert value == float(np.sum(old ** p) ** (1.0 / p))

    def test_shared_spectra_match_fresh_ones(self, std1, rng):
        g = random_polynomial(rng, 6)
        spectra = vo.truncation_spectra(std1, g, 0.0, 64)
        for p in (1.0, 2.5):
            shared = vo.schatten_with_monitor(std1, g, 0.0, p, 64, spectra)
            fresh = vo.schatten_with_monitor(std1, g, 0.0, p, 64)
            assert shared == fresh

    def test_s2_closed_form_series(self, std1):
        est = vo.schatten_with_monitor(std1, TaylorSeries.monomial(1), -1,
                                       2.0, 512)
        target = math.sqrt(4.0 * (math.pi ** 2 / 6.0 - 1.0))
        assert abs(est.value - target) / target < 0.01
        assert not est.diverged

    def test_p1_harmonic_divergence(self, std1):
        prof = vo.schatten_truncation_profile(std1, TaylorSeries.monomial(1),
                                              -1, 1.0, [64, 128, 256, 512])
        assert all(a < b for a, b in zip(prof, prof[1:]))
        assert prof[-1] / prof[-2] > vo.NO_PLATEAU_RATIO

    def test_p2_plateau(self, std1):
        prof = vo.schatten_truncation_profile(std1, TaylorSeries.monomial(1),
                                              -1, 2.0, [64, 128, 256, 512])
        assert prof[-1] / prof[-2] < vo.PLATEAU_RATIO

    def test_cutoff_consistency_with_tail_test(self, std1):
        # divergence regime matches the integrability verdict of tail^p/(1-r)^2
        assert norms.tail_weight_test(std1, 1.0) == "not-a-weight"
        est = vo.schatten_with_monitor(std1, TaylorSeries.monomial(1), -1,
                                       1.0, 256)
        assert est.diverged
        assert norms.tail_weight_test(std1, 2.0) == "weight"

    def test_schatten_monotone_in_p(self, std1, rng):
        g = random_polynomial(rng, 5)
        s = vo.singular_values(vo.volterra_matrix(std1, g, -1, 64))
        values = [vo.schatten_norm(s, p) for p in (0.5, 1.0, 2.0, 4.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_comparable_to_besov(self, std1, rng):
        # || V ||_{S_2} against || g ||_{B_2} across a small corpus
        ratios = []
        for g in [TaylorSeries.monomial(1), TaylorSeries.monomial(8),
                  random_polynomial(rng, 12)]:
            s = vo.schatten_with_monitor(std1, g, -1, 2.0, 256).value
            b = norms.besov_mu(g, std1, 2.0).value ** 0.5
            ratios.append(s / b)
        ratios = np.array(ratios)
        assert ratios.max() / ratios.min() < 1e3


def band_spectra(w, g, alpha, N):
    """The band path on any symbol: Gram eigenvalues of the N-truncation's
    band and of its leading N/2 block."""
    M = vo.volterra_matrix(w, g, alpha, N)
    h = N // 2
    half = vo.OperatorMatrix(np.tril(M.entries[:h, :h][::-1])[::-1], alpha)
    return vo.singular_values(M), vo.singular_values(half)


def all_columns_band(w, g, alpha, N):
    """The band written one column per coefficient, zero or not."""
    mus = w.odd_moments(N)
    c = norms.basis_norms(alpha, N)
    gh = g.coeffs
    if not np.any(gh.imag):
        gh = gh.real
    band = np.zeros((N, g.degree + 1), dtype=gh.dtype)
    for j in range(g.degree + 1):
        m = np.arange(j, N)
        band[: N - j, j] = mus[m] * gh[j] / mus[j] * c[m] / c[m - j]
    return band


class TestWeightedShift:
    """A monomial c z^k is a weighted shift, whose spectrum is the moduli
    of its one subdiagonal, decreasing, then k zeros.  The band path is its
    oracle: equal bit for bit on a real coefficient, where sqrt(fl(x^2)) =
    |x|, and within a few ulp of sigma_max on a complex one, whose Gram
    entry re^2 + im^2 rounds apart from hypot."""

    @pytest.mark.parametrize("label", ["std:1", "std:2", "exp:1:1",
                                       "expr:(1-r)^2"])
    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 2.0])
    @pytest.mark.parametrize("N", [1, 2, 3, 64, 768])
    def test_matches_band_path(self, label, alpha, N):
        w = from_shorthand(label)
        h = N // 2
        for k in sorted({0, 1, 5, 33, h - 1, h, N - 1} & set(range(N))):
            for c in (1.0, -1.0, 0.6 + 0.8j):
                g = TaylorSeries.monomial(k, c)
                full, half = vo.truncation_spectra(w, g, alpha, N)
                oracle = band_spectra(w, g, alpha, N)
                assert full.shape == (N,) and half.shape == (h,)
                assert np.count_nonzero(full[N - k:]) == 0
                if k >= h:
                    assert not np.any(half)
                if isinstance(c, float):
                    assert np.array_equal(full, oracle[0])
                    assert np.array_equal(half, oracle[1])
                else:
                    ulp = np.spacing(oracle[0][0])
                    assert np.all(np.abs(full - oracle[0]) <= 4 * ulp)
                    assert np.all(np.abs(half - oracle[1]) <= 4 * ulp)

    def test_zero_series(self, std1):
        for N in (1, 2, 9):
            full, half = vo.truncation_spectra(std1, TaylorSeries.zero(), 0.0, N)
            assert np.array_equal(full, np.zeros(N))
            assert np.array_equal(half, np.zeros(N // 2))

    def test_profile_matches_band_path(self, std1):
        g = TaylorSeries.monomial(3, -2.0)
        Ns = [8, 64, 256]
        expected = [vo.schatten_norm(band_spectra(std1, g, -1.0, N)[0], 1.5)
                    for N in Ns]
        assert vo.schatten_truncation_profile(std1, g, -1.0, 1.5, Ns) == expected

    def test_monomial_runs_no_band(self, std1, monkeypatch):
        def refused(*args):
            raise AssertionError("a weighted shift built a band")

        monkeypatch.setattr(vo, "volterra_matrix", refused)
        monkeypatch.setattr(vo, "singular_values", refused)
        g = TaylorSeries.monomial(4, 0.5j)
        vo.truncation_spectra(std1, g, 0.0, 64)
        vo.schatten_truncation_profile(std1, g, 0.0, 2.0, [16, 32])
        vo.schatten_with_monitor(std1, g, 0.0, 2.0, 32)

    def test_underflowed_moment_is_named(self):
        # mu_{2n+1} is 0.0 from n = 206 on exp:1:20
        w = from_shorthand("exp:1:20")
        with pytest.raises(vo.OperatorError, match="mu_601 of exp:1:20"):
            vo.truncation_spectra(w, TaylorSeries.monomial(300), -1.0, 512)
        # a full symbol names the first of its moments that underflowed
        with pytest.raises(vo.OperatorError, match="mu_413 of exp:1:20"):
            vo.volterra_matrix(w, TaylorSeries.from_coeffs([1.0] * 301),
                               -1.0, 512)


class TestSupportBand:
    """The band is built from the symbol's nonzero coefficients only; its
    zero columns stay zero, as when every column was written."""

    @pytest.mark.parametrize("label, alpha", [("std:1", -1.0), ("std:2", 0.0),
                                              ("exp:1:1", 2.0)])
    @pytest.mark.parametrize("symbol", ["z+z^5", "2+z^8", "log:64",
                                        "random:12"])
    def test_matches_all_columns(self, label, alpha, symbol, rng):
        w = from_shorthand(label)
        g = {"z+z^5": TaylorSeries.from_coeffs([0, 1, 0, 0, 0, 1]),
             "2+z^8": TaylorSeries.from_coeffs([2] + [0] * 7 + [1]),
             "log:64": parse_symbol("log:64"),
             "random:12": random_polynomial(rng, 12)}[symbol]
        M = vo.volterra_matrix(w, g, alpha, 128)
        expected = all_columns_band(w, g, alpha, 128)
        assert M.entries.dtype == expected.dtype
        assert np.array_equal(M.entries, expected)
