import math

import numpy as np
import pytest

from fracvolt import StandardWeight, TaylorSeries, frac_derivative, from_shorthand
from fracvolt import norms
from fracvolt.quad import _panel_grid, gauss_rule, radial_integrals
from conftest import random_polynomial


def besov_mu_series(g, w):
    """The p = 2 Besov integral by orthogonality, the dual route to
    ``besov_mu``: sum_n |c_n|^2 2 int_0^1 r^(2n+1) mu_hat^2/(1-r^2)^2 dr."""
    def H(r):
        with np.errstate(over="ignore", divide="ignore"):
            return np.asarray(w.tail(r), dtype=float) ** 2 / (1.0 - r * r) ** 2

    c = frac_derivative(g, w).coeffs
    vals, _, diverged = radial_integrals(H, 2 * np.arange(len(c)) + 1)
    assert not diverged
    return float(np.sum(np.abs(c) ** 2 * 2.0 * vals))


def bergman2_coeff(f, alpha):
    """||f||^2 in A^2_alpha by orthogonality."""
    return float(np.sum(np.abs(f.coeffs * norms.basis_norms(alpha, f.degree + 1)) ** 2))


def per_power_sums(w, qs):
    """Reference radial sums: int_0^1 r^q mu_hat^2/(1-r) dr on halved panels,
    one pass over the grid per power, with the grid built here."""
    edges, _, _ = _panel_grid(24, 48, 32)
    mids = 0.5 * (edges[:-1] + edges[1:])
    fine_edges = np.sort(np.concatenate([edges, mids]))
    x, gw = gauss_rule(32)
    lo, hi = fine_edges[:-1][:, None], fine_edges[1:][:, None]
    half = 0.5 * (hi - lo)
    nodes = (lo + half * (x[None, :] + 1.0)).ravel()
    weights = (half * gw[None, :]).ravel()
    H = np.asarray(w.tail(nodes), dtype=float) ** 2 / (1.0 - nodes)
    with np.errstate(under="ignore"):
        return np.array([float(np.sum(weights * H * nodes ** q))
                         for q in np.asarray(qs, dtype=float)])


class TestHardy:
    def test_coeff_examples(self):
        assert norms.hardy2_coeff(TaylorSeries.monomial(1)).value == 1.0
        assert norms.hardy2_coeff(TaylorSeries.from_coeffs([1, 1])).value == 2.0

    def test_parseval_against_circle_means(self, rng):
        # lim_r M_2(r, f)^2 equals the coefficient sum
        f = random_polynomial(rng, 64)
        ref = norms.hardy_p_reference(f, 2.0).value ** 2
        np.testing.assert_allclose(norms.hardy2_coeff(f).value, ref, rtol=1e-6)

    def test_reference_err_is_not_estimated(self):
        est = norms.hardy_p_reference(TaylorSeries.monomial(3), 3.0)
        assert math.isnan(est.err)

    def test_lp_monomial_closed_form(self, std1):
        # 16 * 2 int r^3 (1-r) dr = 1.6 for f = z
        est = norms.hardy2_lp(TaylorSeries.monomial(1), std1)
        np.testing.assert_allclose(est.value, 1.6, rtol=1e-12)
        assert est.err < 1e-10

    def test_lp_zero(self, std1):
        assert norms.hardy2_lp(TaylorSeries.zero(), std1).value == 0.0

    def test_lp_monomials_ratio(self, std1):
        # value / coefficient value = 2(2n+2)/(2n+3) for beta = 1
        for n in (0, 3, 10):
            est = norms.hardy2_lp(TaylorSeries.monomial(n), std1)
            np.testing.assert_allclose(est.value,
                                       2.0 * (2 * n + 2) / (2 * n + 3),
                                       rtol=1e-11)

    def test_monomial_witness_ratio(self, std1):
        ns = np.array([1, 7, 200])
        np.testing.assert_allclose(norms.h2_monomial_ratios(std1, ns),
                                   (2.0 * ns + 2) / (2.0 * ns + 3), rtol=1e-9)

    @pytest.mark.parametrize("label", ["std:1", "std:0.7", "exp:1:1",
                                       "expr:(1-r)^2.3*(1+r)"])
    def test_radial_engine_matches_per_power_sums(self, label, rng):
        w = from_shorthand(label)
        f = random_polynomial(rng, 12)
        c = frac_derivative(f, w).coeffs
        ref = per_power_sums(w, 2 * np.arange(len(c)) + 1)
        # the engine sums in log space, the loop plainly: equal to rounding
        np.testing.assert_allclose(norms.hardy2_lp(f, w).value,
                                   float(np.sum(np.abs(c) ** 2 * 2.0 * ref)),
                                   rtol=1e-13, atol=0.0)
        ns = np.arange(11)
        mus = np.array([w.moment(2 * int(n) + 1) for n in ns])
        np.testing.assert_allclose(norms.h2_monomial_ratios(w, ns),
                                   per_power_sums(w, 2 * ns + 1) / mus ** 2,
                                   rtol=1e-13, atol=0.0)


class TestTent:
    def test_zero(self, std1):
        assert norms.tent_norm_power(TaylorSeries.zero(), std1, 2.0).value == 0.0

    def test_monomial_matches_lp(self, std1):
        est = norms.tent_norm_power(TaylorSeries.monomial(1), std1, 2.0)
        np.testing.assert_allclose(est.value, 1.6, rtol=1e-12)

    @pytest.mark.parametrize("wname", ["std1", "std2", "exp"])
    def test_fubini_dual_path(self, wname, std1, std2, exp_weight, rng):
        w = {"std1": std1, "std2": std2, "exp": exp_weight}[wname]
        for _ in range(5):
            f = random_polynomial(rng, int(rng.integers(2, 40)))
            tent2 = norms.tent_norm_power(f, w, 2.0)
            lp = norms.hardy2_lp(f, w)
            assert abs(tent2.value - lp.value) <= \
                tent2.err + lp.err + 5e-3 * lp.value
            np.testing.assert_allclose(tent2.value, lp.value, rtol=1e-10)

    def test_homogeneity(self, std2, rng):
        f = random_polynomial(rng, 10)
        base = norms.tent_norm(f, std2, 2.0).value
        np.testing.assert_allclose(norms.tent_norm(f.scale(2.0), std2, 2.0).value,
                                   2.0 * base, rtol=1e-12)
        np.testing.assert_allclose(norms.tent_norm(f.scale(1j), std2, 2.0).value,
                                   base, rtol=1e-12)

    def test_p1_path(self, std1, rng):
        # p = 1 outer power; sanity monotonicity under scaling only
        f = random_polynomial(rng, 8)
        a = norms.tent_norm_power(f, std1, 1.0).value
        b = norms.tent_norm_power(f.scale(3.0), std1, 1.0).value
        np.testing.assert_allclose(b, 3.0 * a, rtol=1e-10)

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_xi_rule_err_is_finite(self, std1, rng, p):
        f = random_polynomial(rng, 12)
        est = norms.tent_norm_power(f, std1, p)
        assert np.isfinite(est.err) and est.err >= 0.0
        root = norms.tent_norm(f, std1, p)
        assert np.isfinite(root.err) and root.err >= 0.0

    def test_xi_rule_err_at_rounding_level_for_p2(self, std1, rng):
        # at p = 2 both xi grids integrate the trigonometric polynomial exactly
        est = norms.tent_norm_power(random_polynomial(rng, 12), std1, 2.0)
        assert est.err <= 1e-12 * est.value

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_against_masked_brute_force(self, std1, rng, p):
        # independent oracle: O(Nr * Ntheta * Nxi) masked polar quadrature
        # over every cone, then the outer power mean with |dxi| = dtheta/2
        from fracvolt.quad import _panel_grid
        from fracvolt.taylor import frac_derivative
        f = random_polynomial(rng, 6)
        P = frac_derivative(f, std1)
        _, nodes, weights = _panel_grid(12, 20, 32)
        rr, ww = nodes.ravel(), weights.ravel()
        m = 4096
        theta = 2 * np.pi * np.arange(m) / m
        z = rr[:, None] * np.exp(1j * theta[None, :])
        dens = np.abs(P(z)) ** 2 \
            * (std1.tail(rr)[:, None] / (1.0 - rr)[:, None]) ** 2
        base = (2.0 * ww * rr)[:, None] * dens / m
        xi = 2 * np.pi * np.arange(64) / 64.0
        inners = []
        for phi in xi:
            diff = np.abs((theta[None, :] - phi + np.pi) % (2 * np.pi) - np.pi)
            mask = diff < (1.0 - rr)[:, None]
            inners.append(np.sum(base * mask))
        brute = np.pi / 64.0 * np.sum(np.array(inners) ** (p / 2.0))
        fast = norms.tent_norm_power(f, std1, p).value
        np.testing.assert_allclose(fast, brute, rtol=2e-2)

    def test_equivalence_witness_spread(self, std1, std2, rng):
        # tent^p / reference^p bounded spread, no degree trend
        for w in (std1, std2):
            for p in (1.0, 2.0):
                ratios, degs = [], []
                for _ in range(20):
                    d = int(rng.integers(2, 50))
                    f = random_polynomial(rng, d)
                    t = norms.tent_norm_power(f, w, p).value
                    ref = norms.hardy_p_reference(f, p).value ** p
                    ratios.append(t / ref)
                    degs.append(d)
                ratios = np.array(ratios)
                assert ratios.max() / ratios.min() < 1e3
                slope = np.polyfit(np.log(degs), np.log(ratios), 1)[0]
                assert abs(slope) < 0.5

    def test_exponential_weight_monomial_growth(self, exp_weight):
        # the discrete witness ratio must explode when upper doubling fails
        ratios = norms.h2_monomial_ratios(exp_weight,
                                          [2 ** j for j in range(3, 11)])
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] / ratios[0] > 10.0


class TestBMOA:
    def test_zero(self, std1):
        assert norms.bmoa_mu_sup(TaylorSeries.zero(), std1).value == 0.0

    def test_monomial_sup_at_origin(self, std1):
        est = norms.bmoa_mu_sup(TaylorSeries.monomial(1), std1)
        np.testing.assert_allclose(est.value, 1.6, rtol=1e-10)
        assert est.anchor == 0j

    def test_log_branch_stable_under_refinement(self, std1):
        g = TaylorSeries.from_coeffs(
            np.concatenate([[0.0], 1.0 / np.arange(1.0, 257.0)]))
        coarse = norms.bmoa_mu_sup(g, std1, anchors=norms.default_anchors(depth=8))
        fine = norms.bmoa_mu_sup(g, std1, anchors=norms.default_anchors(
            depth=14, lattice_r=0.5))
        assert abs(fine.value - coarse.value) < 0.05 * coarse.value

    def test_kernel_dual_path_within_factor(self, std1, rng):
        symbols = [TaylorSeries.monomial(1), TaylorSeries.monomial(4),
                   random_polynomial(rng, 12)]
        for g in symbols:
            a = norms.bmoa_mu_sup(g, std1).value
            b = norms.bmoa_kernel_sup(g, std1).value
            assert b / a < 8.0 and a / b < 8.0

    def test_vanishing_profile_polynomial(self, std1, rng):
        g = random_polynomial(rng, 9)
        prof = norms.vanishing_profile(g, std1, depth=12)
        vals = [v for _, v in prof]
        assert vals[-1] < 1e-3 * max(vals)
        assert vals[-1] < vals[-2] < vals[-3]

    def test_vanishing_profile_zero(self, std1):
        prof = norms.vanishing_profile(TaylorSeries.zero(), std1, depth=6)
        assert all(v == 0 for _, v in prof)

    def test_bmoa_equivalence_fails_off_doubling(self, std1, std2, exp_weight):
        # fixed weight, monomial family: the ratio against the classical
        # seminorm stays in a band for doubling weights but grows without
        # bound for the exponential weight - the inequivalence witness
        degrees = [1, 2, 4, 8, 16, 32]
        for w in (std1, std2):
            ratios = [norms.bmoa_mu_sup(TaylorSeries.monomial(n), w).value
                      / norms.bmoa_classical(TaylorSeries.monomial(n)).value
                      for n in degrees]
            assert max(ratios) / min(ratios) < 1e2
        ratios = [norms.bmoa_mu_sup(TaylorSeries.monomial(n), exp_weight).value
                  / norms.bmoa_classical(TaylorSeries.monomial(n)).value
                  for n in degrees]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] / ratios[0] > 1e2

    def test_kernel_sup_zero(self, std1):
        assert norms.bmoa_kernel_sup(TaylorSeries.zero(), std1).value == 0.0

    def test_classical_bmoa_of_z(self):
        # sup over squares of int |1|^2 (1-|z|^2) dA / (1-|a|) = 1/2 at a = 0
        est = norms.bmoa_classical(TaylorSeries.monomial(1))
        np.testing.assert_allclose(est.value, 0.5, rtol=1e-10)

    def test_mu_vs_classical_comparable(self, std1, std2, rng):
        for w in (std1, std2):
            for _ in range(3):
                g = random_polynomial(rng, 16)
                a = norms.bmoa_mu_sup(g, w).value
                b = norms.bmoa_classical(g).value
                assert a / b < 30.0 and b / a < 30.0

    def test_homogeneity_squared(self, std1, rng):
        g = random_polynomial(rng, 6)
        base = norms.bmoa_mu_sup(g, std1).value
        np.testing.assert_allclose(norms.bmoa_mu_sup(g.scale(2.0), std1).value,
                                   4.0 * base, rtol=1e-12)
        np.testing.assert_allclose(norms.bmoa_mu_sup(g.scale(1j), std1).value,
                                   base, rtol=1e-12)


class TestBloch:
    def test_zero(self, std1):
        assert norms.bloch_mu(TaylorSeries.zero(), std1).value == 0.0

    def test_monomial_calculus_maximum(self, std1):
        # sup_r (1-r) * 4r = 1 at r = 1/2
        est = norms.bloch_mu(TaylorSeries.monomial(1), std1)
        np.testing.assert_allclose(est.value, 1.0, rtol=1e-5)
        np.testing.assert_allclose(abs(est.anchor), 0.5, atol=1e-3)

    def test_monomial_growth_comparison(self, std1):
        # sup_r (1-r)(2n+2) r^n stays bounded in n (Bloch growth)
        vals = [norms.bloch_mu(TaylorSeries.monomial(n), std1).value
                for n in (1, 4, 16, 64)]
        assert max(vals) / min(vals) < 3.0

    def test_homogeneity(self, std2, rng):
        g = random_polynomial(rng, 6)
        a = norms.bloch_mu(g, std2).value
        np.testing.assert_allclose(norms.bloch_mu(g.scale(2.0), std2).value,
                                   2.0 * a, rtol=1e-11)


class TestBesovBergman:
    def test_zero(self, std1):
        assert norms.besov_mu(TaylorSeries.zero(), std1, 2.0).value == 0.0

    def test_p2_closed_form(self, std1):
        # 32 int r^3/(1+r)^2 dr = 32 (3 log 2 - 2)
        est = norms.besov_mu(TaylorSeries.monomial(1), std1, 2.0)
        np.testing.assert_allclose(est.value, 32.0 * (3.0 * math.log(2.0) - 2.0),
                                   rtol=1e-9)

    def test_p2_series_dual_path(self, std1, std2, rng):
        for w in (std1, std2):
            g = random_polynomial(rng, 20)
            a = norms.besov_mu(g, w, 2.0).value
            b = besov_mu_series(g, w)
            np.testing.assert_allclose(a, b, rtol=1e-9)

    def test_p1_beta1_diverges(self, std1):
        est = norms.besov_mu(TaylorSeries.monomial(1), std1, 1.0)
        assert est.diverged and est.value == np.inf

    def test_tail_weight_verdicts(self, std1, exp_weight):
        assert norms.tail_weight_test(std1, 2.0) == "weight"
        assert norms.tail_weight_test(std1, 1.0) == "not-a-weight"
        assert norms.tail_weight_test(std1, 0.5) == "not-a-weight"
        assert norms.tail_weight_test(exp_weight, 0.5) == "weight"

    @pytest.mark.parametrize("beta, p", [(0.5345, 2.6122), (0.7, 2.0)])
    def test_slowly_decaying_weight_is_finite(self, beta, p, rng):
        # beta p > 1, so mu_hat^p/(1-r)^2 ~ (1-r)^(beta p - 2) is integrable
        w = StandardWeight(beta)
        assert norms.tail_weight_test(w, p) == "weight"
        est = norms.besov_mu(random_polynomial(rng, 8), w, p)
        assert not est.diverged and np.isfinite(est.value) and est.value > 0

    def test_besov_derivative_order(self):
        # least n with n p > 1 drives the classical norm: reflected in the
        # reported truncation metadata
        for p, n_p in ((2.0, 1), (1.01, 1), (1.0, 2), (0.5, 3)):
            est = norms.besov_classical(TaylorSeries.monomial(3), p)
            assert est.truncation["n_p"] == n_p

    def test_besov_classical_examples(self):
        z = TaylorSeries.monomial(1)
        np.testing.assert_allclose(norms.besov_classical(z, 2.0).value, 1.0,
                                   rtol=1e-10)
        one = TaylorSeries.from_coeffs([1.0])
        np.testing.assert_allclose(norms.besov_classical(one, 2.0).value, 1.0,
                                   rtol=1e-12)
        z2 = TaylorSeries.monomial(2)
        np.testing.assert_allclose(norms.besov_classical(z2, 1.0).value, 2.0,
                                   rtol=1e-10)

    def test_bergman_unit_mass(self):
        # rtol floor set by the truncated sliver above the grid top, which
        # carries (2^-52)^(alpha+1) of the measure for negative alpha
        one = TaylorSeries.from_coeffs([1.0])
        for alpha, p in ((0.0, 2.0), (1.5, 1.0), (-0.5, 2.0)):
            np.testing.assert_allclose(
                norms.bergman_norm(one, alpha, p).value, 1.0, rtol=1e-7)

    def test_bergman_z_squared_norm(self):
        z = TaylorSeries.monomial(1)
        np.testing.assert_allclose(norms.bergman_norm(z, 0.0, 2.0).value, 0.5,
                                   rtol=1e-10)

    def test_bergman_coefficient_oracle(self, rng):
        f = random_polynomial(rng, 12)
        for alpha in (0.0, 2.0):
            np.testing.assert_allclose(norms.bergman_norm(f, alpha, 2.0).value,
                                       bergman2_coeff(f, alpha),
                                       rtol=1e-9)

    def test_besov_mu_err_is_not_estimated(self, std1):
        assert math.isnan(norms.besov_mu(TaylorSeries.monomial(1), std1, 3.0).err)

    def test_besov_classical_err_is_not_estimated(self):
        assert math.isnan(norms.besov_classical(TaylorSeries.monomial(1), 3.0).err)

    def test_bergman_err_is_not_estimated(self):
        assert math.isnan(norms.bergman_norm(TaylorSeries.monomial(1), 0.0, 3.0).err)

    def test_norm_homogeneity_with_p_powers(self, std1, rng):
        g = random_polynomial(rng, 7)
        for p in (1.0, 2.0):
            a = norms.besov_classical(g, p).value
            b = norms.besov_classical(g.scale(2.0), p).value
            np.testing.assert_allclose(b, 2.0 ** p * a, rtol=1e-10)
