import json
import math

import numpy as np
import pytest

from fracvolt import (KernelSlice, StandardWeight, TaylorSeries, frac_R,
                      frac_derivative, frac_integral, frac_rep_identity_check)
from conftest import random_polynomial


class TestSeriesBasics:
    def test_trailing_zeros_stripped(self):
        f = TaylorSeries.from_coeffs([1.0, 2.0, 0.0, 0.0])
        assert f.degree == 1

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TaylorSeries.from_coeffs([1.0, np.inf])

    def test_evaluation_horner(self):
        f = TaylorSeries.from_coeffs([1, 2, 3])
        z = 0.5 + 0.25j
        np.testing.assert_allclose(f(z), 1 + 2 * z + 3 * z * z)

    def test_derivative(self):
        f = TaylorSeries.from_coeffs([5.0, 1.0, 2.0, 4.0])
        np.testing.assert_allclose(f.derivative().coeffs, [1.0, 4.0, 12.0])

    def test_json_roundtrip(self):
        f = TaylorSeries.from_coeffs([1 + 2j, -3.5])
        g = TaylorSeries.from_json(
            json.dumps([[c.real, c.imag] for c in f.coefficients]))
        np.testing.assert_allclose(g.coeffs, f.coeffs)


class TestFractionalOperators:
    def test_monomial_multiplier_beta1(self, std1):
        # mu_{2n+1} = 1/(2n+2), so the multiplier is 2n+2
        for n in (0, 1, 5, 30):
            d = frac_derivative(TaylorSeries.monomial(n), std1)
            np.testing.assert_allclose(d.coeffs[n], 2.0 * n + 2.0, rtol=1e-12)

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_multiplier_gamma_ratio(self, beta):
        # 2 Gamma(n+beta+1) / (Gamma(beta+1) Gamma(n+1))
        w = StandardWeight(beta)
        n = np.arange(129)
        mult = 1.0 / w.odd_moments(129)
        expect = 2.0 * np.exp(
            [math.lgamma(k + beta + 1) - math.lgamma(beta + 1) - math.lgamma(k + 1)
             for k in n])
        np.testing.assert_allclose(mult, expect, rtol=1e-12)

    def test_zero_maps_to_zero(self, std1):
        z = TaylorSeries.zero()
        assert frac_derivative(z, std1).coeffs[0] == 0

    def test_integral_examples(self, std1, std2):
        one = TaylorSeries.from_coeffs([1.0])
        np.testing.assert_allclose(frac_integral(one, std1).coeffs[0], 0.5)
        z = TaylorSeries.monomial(1)
        np.testing.assert_allclose(frac_integral(z, std2).coeffs[1], 1.0 / 6.0)

    def test_inverse_pair(self, std2, rng):
        f = random_polynomial(rng, 40)
        g = frac_integral(frac_derivative(f, std2), std2)
        np.testing.assert_allclose(g.coeffs, f.coeffs, rtol=1e-12)
        h = frac_derivative(frac_integral(f, std2), std2)
        np.testing.assert_allclose(h.coeffs, f.coeffs, rtol=1e-12)

    def test_linearity(self, std1, rng):
        f = random_polynomial(rng, 12)
        g = random_polynomial(rng, 9)
        lhs = frac_derivative(f + g.scale(2.0 - 1.0j), std1)
        rhs = frac_derivative(f, std1) + frac_derivative(g, std1).scale(2.0 - 1.0j)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-12)

    def test_R_identity_map(self, std2, rng):
        f = random_polynomial(rng, 8)
        np.testing.assert_allclose(frac_R(f, std2, std2).coeffs, f.coeffs,
                                   rtol=1e-14)

    def test_R_of_mu_plus_is_derivative(self, std1, std2, rng):
        # the derivative through the two-weight operator with numerator 1
        one = StandardWeight(1.0)
        for w in (std1, std2):
            f = random_polynomial(rng, 16)
            lhs = frac_R(f, one, w.mu_plus())
            rhs = frac_derivative(f, w)
            np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-9)

    def test_R_beta_ratio(self, std1, std2):
        f = TaylorSeries.monomial(4)
        out = frac_R(f, std1, std2)
        # (1/(2n+2)) / (1/((n+1)(n+2))) = (n+2)/2 at n = 4
        np.testing.assert_allclose(out.coeffs[4], 3.0, rtol=1e-12)

    def test_R_composition_law(self, std1, std2, rng):
        # multiplier telescoping: R(w1, w2) after R(w2, w3) is R(w1, w3)
        w3 = StandardWeight(0.5)
        f = random_polynomial(rng, 9)
        lhs = frac_R(frac_R(f, std2, w3), std1, std2)
        rhs = frac_R(f, std1, w3)
        np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-11)

    def test_commutation_with_nth_derivative(self, std2, rng):
        # D(z^n f^(n)) = z^n (D f)^(n)  coefficient-wise
        f = random_polynomial(rng, 14)
        for n in (1, 2, 3):
            Fn = f.derivative(n).shift(n)
            lhs = frac_derivative(Fn, std2)
            rhs = frac_derivative(f, std2).derivative(n).shift(n)
            np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=1e-11,
                                       atol=1e-13)


class TestKernel:
    def test_beta1_geometric_kernel(self, std1):
        # sum (n+1) t^n = 1/(1-t)^2
        k = KernelSlice(std1, 0.6, 256)
        np.testing.assert_allclose(k.series()(0.5), 1.0 / (1.0 - 0.3) ** 2,
                                   rtol=1e-10)
        assert abs(k.coefficients()[-1] * 0.5 ** k.truncation) < 1e-10

    def test_anchor_zero(self, std2):
        k = KernelSlice(std2, 0.0, 16)
        np.testing.assert_allclose(k.series()(0.7), 1.0 / (2.0 * std2.moment(1)),
                                   rtol=1e-13)

    def test_symmetry(self, std2):
        z, zeta = 0.3 + 0.4j, -0.2 + 0.5j
        a = KernelSlice(std2, z, 128).series()(zeta)
        b = KernelSlice(std2, zeta, 128).series()(z)
        np.testing.assert_allclose(a, np.conj(b), rtol=1e-12)

    def test_reproducing_by_quadrature(self, std1, std2, rng):
        # <p, B_z> over the disc, computed by honest polar quadrature
        from fracvolt.quad import _panel_grid
        _, nodes, weights = _panel_grid(24, 48, 32)
        rr, ww = nodes.ravel(), weights.ravel()
        m = 512
        theta = 2 * np.pi * np.arange(m) / m
        zeta = rr[:, None] * np.exp(1j * theta[None, :])
        for w in (std1, std2):
            p = random_polynomial(rng, 20)
            dens = w.density(rr)
            for z in (0.5, -0.3 + 0.4j, 0.1j):
                B = KernelSlice(w, z, 64).series()
                vals = p(zeta) * np.conj(B(zeta))
                ang = vals.mean(axis=1)
                got = np.sum(2.0 * ww * rr * dens * ang)
                np.testing.assert_allclose(got, p(z), rtol=1e-9, atol=1e-11)


class TestRepresentationIdentity:
    def test_square_monomial(self, std1):
        f = TaylorSeries.monomial(2)
        assert frac_rep_identity_check(f, std1, 1) < 1e-8

    def test_constant_is_exact_head(self, std1):
        f = TaylorSeries.from_coeffs([3.0])
        assert frac_rep_identity_check(f, std1, 1) < 1e-12

    def test_cubic_second_order(self, std2):
        f = TaylorSeries.monomial(3)
        assert frac_rep_identity_check(f, std2, 2) < 1e-8

    def test_random_polynomials(self, std1, std2, rng):
        for w in (std1, std2):
            for n in (1, 2):
                f = random_polynomial(rng, 16)
                assert frac_rep_identity_check(f, w, n) < 1e-8
