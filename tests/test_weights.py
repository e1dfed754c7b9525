import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate as si

from fracvolt import (ExponentialWeight, ExprWeight, StandardWeight,
                      TailExprWeight, WeightError, from_descriptor,
                      from_shorthand)
from fracvolt.weights import DERIVED_OPS, WEIGHT_CACHE_SIZE, RadialWeight


def std_moment_oracle(beta: float, x: float) -> float:
    """Brute-force moment of the standard weight, integrated in u = 1 - s.

    int_0^1 s^x beta (1-s^2)^(beta-1) ds
      = int_0^1 (1-u)^x beta u^(beta-1) (2-u)^(beta-1) du,
    on geometric u-panels down to 2^-400 with (1-u)^x = exp(x log1p(-u)),
    so the endpoint singularity and the s^x peak are both fully resolved.
    """
    from fracvolt.quad import gauss_rule
    gx, gw = gauss_rule(32)
    edges = np.concatenate([[0.0], 2.0 ** -np.arange(400.0, -1.0, -1.0)])
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    u = (lo[:, None] + half[:, None] * (gx[None, :] + 1.0)).ravel()
    w = (half[:, None] * gw[None, :]).ravel()
    vals = np.exp(x * np.log1p(-u)) * beta * u ** (beta - 1.0) * (2.0 - u) ** (beta - 1.0)
    return float(np.sum(w * vals))


class TestStandardFamily:
    def test_evaluate_examples(self, std1, std2):
        assert std1.density(0.5) == 1.0          # beta = 1 is Lebesgue measure
        assert std2.density(0.0) == 2.0          # 2 (1 - r^2) at r = 0
        np.testing.assert_allclose(std2.density(0.5), 1.5, rtol=1e-15)

    def test_moment_trivial(self, std1, std2):
        np.testing.assert_allclose(std1.moment(3), 0.25, rtol=1e-12)
        np.testing.assert_allclose(std1.moment(201), 1.0 / 202.0, rtol=1e-12)
        # beta = 2: mu_{2n+1} = 1/((n+1)(n+2))
        np.testing.assert_allclose(std2.moment(3), 1.0 / 6.0, rtol=1e-12)
        np.testing.assert_allclose(std2.moment(11), 1.0 / 42.0, rtol=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0])
    @pytest.mark.parametrize("x", [1.0, 2.0, 7.0, 41.0, 401.0])
    def test_moment_matches_quadrature_oracle(self, beta, x):
        w = StandardWeight(beta)
        np.testing.assert_allclose(w.moment(x), std_moment_oracle(beta, x),
                                   rtol=1e-11)

    @pytest.mark.parametrize("beta", [0.05, 0.5, 1.0, 2.0, 7.3, 40.0])
    def test_odd_moments_match_mpmath(self, beta):
        # mu_(2n+1) = (beta/2) B(n+1, beta) at 40 digits; a difference of
        # gammaln values loses up to 1.2e-11 here
        import mpmath as mp
        count = 4096
        with mp.workdps(40):
            b = mp.mpf(beta)
            ref = np.array([float(b / 2 * mp.beta(n + 1, b))
                            for n in range(count)])
        got = StandardWeight(beta).odd_moments(count)
        assert np.max(np.abs(got / ref - 1.0)) < 1e-13

    def test_tail_closed_forms(self, std1, std2):
        # beta = 1: integral of 1 over [r, 1) is 1 - r
        np.testing.assert_allclose(std1.tail(0.25), 0.75, rtol=1e-13)
        # beta = 2: int_r^1 2(1-s^2) ds = (2/3)(1-r)^2(2+r)
        r = np.array([0.0, 0.3, 0.9, 0.999])
        np.testing.assert_allclose(std2.tail(r), (2.0 / 3.0) * (1 - r) ** 2 * (2 + r),
                                   rtol=1e-12)

    @pytest.mark.parametrize("beta", [0.5, 2.5])
    def test_tail_against_quad(self, beta):
        w = StandardWeight(beta)
        for r in (0.1, 0.6, 0.99):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")   # quad grumbles at the endpoint
                oracle, _ = si.quad(lambda s: beta * (1 - s * s) ** (beta - 1.0),
                                    r, 1, epsabs=1e-15, epsrel=1e-13)
            np.testing.assert_allclose(w.tail(r), oracle, rtol=1e-10)

    def test_tail_positive_and_monotone(self, std2):
        r = 1.0 - 2.0 ** -np.arange(1.0, 40.0)
        t = std2.tail(r)
        assert np.all(t > 0)
        assert np.all(np.diff(t) < 0)

    def test_moments_strictly_decreasing(self, std1, exp_weight):
        for w in (std1, exp_weight):
            ms = [w.moment(x) for x in (0.5, 1.0, 2.0, 5.0, 17.0)]
            assert all(a > b for a, b in zip(ms, ms[1:]))

    def test_domain_errors(self, std1):
        with pytest.raises(WeightError):
            std1.density(1.0)
        with pytest.raises(WeightError):
            std1.tail(-0.1)
        with pytest.raises(WeightError):
            std1.moment(-1.0)


class TestExponentialFamily:
    def test_density_formula(self, exp_weight):
        # tail exp(-1/(1-r)) differentiates to exp(-1/(1-r))/(1-r)^2
        np.testing.assert_allclose(exp_weight.density(0.5),
                                   math.exp(-2.0) / 0.25, rtol=1e-14)

    def test_tail_exact(self, exp_weight):
        r = np.array([0.0, 0.5, 0.9])
        np.testing.assert_allclose(exp_weight.tail(r), np.exp(-1.0 / (1.0 - r)),
                                   rtol=1e-15)
        np.testing.assert_allclose(exp_weight.log_tail(1.0 - 2.0 ** -36),
                                   -2.0 ** 36)

    def test_tail_is_integral_of_density(self, exp_weight):
        oracle, _ = si.quad(lambda s: math.exp(-1 / (1 - s)) / (1 - s) ** 2,
                            0.3, 1.0)
        np.testing.assert_allclose(exp_weight.tail(0.3), oracle, rtol=1e-9)

    def test_log_moment_matches_plain(self, exp_weight):
        for x in (1.0, 8.0, 64.0):
            np.testing.assert_allclose(math.exp(exp_weight.log_moments([x])[0]),
                                       exp_weight.moment(x), rtol=1e-10)

    @pytest.mark.parametrize("gamma", [20.0, 40.0])
    def test_steep_moments_match_mpmath_in_u(self, gamma):
        # (1 - r)^(-gamma - 1) alone overflows near r = 1 for these gamma;
        # the mass sits at u = 1 - s near 1, and below u = 1/2 the density
        # is under exp(-2^20).  The oracle is formed in u, where
        # (1 - u)^x = exp(x log1p(-u)) loses nothing.
        import mpmath as mp
        w = ExponentialWeight(1.0, gamma)
        with mp.workdps(20):
            g = mp.mpf(gamma)
            for x, rtol in ((1, 1e-13), (3, 1e-13), (101, 1e-9)):
                ref = mp.quad(lambda u: mp.exp(x * mp.log1p(-u) + mp.log(g)
                                               - (g + 1) * mp.log(u) - u ** -g),
                              [0] + mp.linspace(0.5, 1, 129))
                np.testing.assert_allclose(w.moment(x), float(ref), rtol=rtol)

    def test_odd_moments_build_no_panel_function(self):
        w = ExponentialWeight(1.0, 1.0)
        w.odd_moments(20)
        assert w._pf is None


class TestExprWeights:
    def test_expr_matches_exponential(self, exp_weight):
        w = ExprWeight("exp(-1/(1-r))/(1-r)^2")
        r = np.array([0.1, 0.5, 0.8])
        np.testing.assert_allclose(w.density(r), exp_weight.density(r), rtol=1e-14)
        np.testing.assert_allclose(w.tail(0.5), exp_weight.tail(0.5), rtol=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(WeightError):
            ExprWeight("r-1/2")

    @pytest.mark.parametrize("formula", ["1/(1-r)", "2/(1-r)+r",
                                         "(1-r)^(-1.5)", "1/((1-r)*(1+r))"])
    def test_non_integrable_rejected(self, formula):
        # each dyadic panel toward r = 1 carries at least as much mass as
        # the one before: no finite total
        with pytest.raises(WeightError, match="integrable"):
            ExprWeight(formula)

    @pytest.mark.parametrize("formula", ["(1-r)^(-0.5)", "(1-r)^(-0.9)",
                                         "1", "(1-r)^1.5", "(1-r)^4*(2-r)"])
    def test_integrable_accepted(self, formula):
        w = ExprWeight(formula)
        assert 0.0 < w.moment(1.0) < math.inf

    def test_every_sweep_expr_weight_accepted(self):
        # the expr: weights the benchmark's sweep plans draw, over three seeds
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        seen = set()
        for seed in (1, 2, 3):
            plan = workloads.Plan("sweep", seed)
            argvs = plan.warmup + [a for k in range(plan.passes(25.0))
                                   for a in plan.timed_pass(k)]
            seen.update(a[a.index("--weight") + 1] for a in argvs
                        if "--weight" in a
                        and a[a.index("--weight") + 1].startswith("expr:"))
        assert len(seen) > 50
        for text in sorted(seen):
            assert from_shorthand(text).label() == text

    def test_tail_expr_density(self, slow_tail_weight):
        # density = 1/((1-r) (1 + log(1/(1-r)))^2), the exact -d/dr of the tail
        r = np.array([0.2, 0.7])
        expect = 1.0 / ((1 - r) * (1 + np.log(1 / (1 - r))) ** 2)
        np.testing.assert_allclose(slow_tail_weight.density(r), expect, rtol=1e-12)

    def test_tail_expr_requires_monotone(self):
        with pytest.raises(WeightError):
            TailExprWeight("r+1")        # increasing: not a tail

    def test_descriptor_roundtrip(self, std2):
        for w in (std2, ExponentialWeight(2.0, 0.5),
                  ExprWeight("1+r^2"), StandardWeight(0.5).mu_plus()):
            w2 = from_descriptor(w.descriptor())
            r = np.array([0.1, 0.5, 0.9])
            np.testing.assert_allclose(w2.density(r), w.density(r), rtol=1e-12)

    def test_shorthand(self):
        assert from_shorthand("std:2").label() == "std:2"
        assert from_shorthand("exp:1:1").label() == "exp:1:1"
        assert from_shorthand('{"kind":"standard","beta":2.0}').label() == "std:2"
        with pytest.raises(WeightError):
            from_shorthand("nope:1")


class TestDerivedWeights:
    def test_mu_plus_log(self, std1):
        # int_r^1 ds/s = log(1/r)
        mp = std1.mu_plus()
        r = np.array([0.05, 0.3, 0.7, 0.95])
        np.testing.assert_allclose(mp.density(r), np.log(1.0 / r), rtol=1e-12)

    def test_mu_plus_limit_at_one(self, std1):
        # log(1/r)/(1-r) -> 1
        mp = std1.mu_plus()
        r = 1.0 - 1e-6
        np.testing.assert_allclose(mp.density(np.array([r]))[0] / (1.0 - r),
                                   1.0, rtol=1e-5)

    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_mu_plus_tail_domination(self, beta):
        # tail of mu_plus <= tail * (1 - r) pointwise
        w = StandardWeight(beta)
        mp = w.mu_plus()
        r = np.arange(0.1, 0.95, 0.1)
        lhs = mp.tail(r)
        rhs = w.tail(r) * (1.0 - r)
        assert np.all(lhs <= rhs * (1.0 + 1e-10))

    def test_mu_plus_tail_lower_bound_for_doubling(self, std1, std2):
        # reverse inequality with a constant, valid for upper-doubling weights
        for w in (std1, std2):
            mp = w.mu_plus()
            r = np.arange(0.1, 0.95, 0.1)
            ratio = mp.tail(r) / (w.tail(r) * (1.0 - r))
            assert np.min(ratio) > 0.2

    def test_iterate_V_closed_forms(self, std1):
        r = np.array([0.0, 0.25, 0.5, 0.9])
        v1 = std1.iterate_V(1)
        np.testing.assert_allclose(v1.density(r), 1.0 - r ** 2, rtol=1e-12, atol=1e-14)
        v2 = std1.iterate_V(2)
        np.testing.assert_allclose(v2.density(r), (1.0 - r ** 2) ** 2 / 2.0,
                                   rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("beta,n", [(1.0, 1), (2.0, 1), (1.0, 2), (2.0, 2)])
    def test_V_moment_recursion(self, beta, n):
        # (V_n)_x = 2 (V_{n-1})_{x+2} / (x+1)
        base = StandardWeight(beta)
        prev = base.iterate_V(n - 1) if n > 1 else base
        cur = prev.iterate_V(1)
        for x in (1.0, 3.0, 5.0, 7.0):
            lhs = cur.moment(x)
            rhs = 2.0 * prev.moment(x + 2.0) / (x + 1.0)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-8)

    @pytest.mark.parametrize("beta,n", [(1.0, 1), (1.0, 2), (2.0, 1), (2.0, 2)])
    def test_star_moment_recursion(self, beta, n):
        # (star_n)_x = (star_{n-1})_{x+2} / (x+1)^2
        base = StandardWeight(beta)
        prev = base.iterate_star(n - 1) if n > 1 else base
        cur = prev.iterate_star(1)
        for x in (1.0, 3.0, 5.0, 7.0):
            np.testing.assert_allclose(cur.moment(x),
                                       prev.moment(x + 2.0) / (x + 1.0) ** 2,
                                       rtol=1e-8)

    def test_star_value_oracle(self, std1):
        # W1(1/2) = int_{1/2}^1 s log(2s) ds = log(2)/2 - 3/16
        w1 = std1.iterate_star(1)
        np.testing.assert_allclose(w1.density(np.array([0.5]))[0],
                                   math.log(2.0) / 2.0 - 3.0 / 16.0, rtol=1e-12)

    def test_panel_weights_take_radii_of_any_shape(self, std1):
        # tails and derived densities from suffix integrals keep r's shape
        r = np.linspace(0.05, 0.95, 12).reshape(3, 4)
        for w in (std1.iterate_star(1), std1.iterate_V(1), std1.mu_plus()):
            for method in (w.density, w.tail):
                got = method(r)
                assert got.shape == r.shape
                np.testing.assert_array_equal(got.ravel(), method(r.ravel()))

    def test_star_growth_band(self, std1):
        # W1(r)/(1-r)^2 bounded above and below on [1/2, 0.999]
        w1 = std1.iterate_star(1)
        r = np.linspace(0.5, 0.999, 40)
        band = w1.density(r) / (1.0 - r) ** 2
        assert band.max() / band.min() < 2.0
        assert 0.3 < band.min() and band.max() < 1.0

    def test_star_growth_band_second_iterate(self, std1):
        # W2(r)/(1-r)^4 stays in a fixed band as well
        w2 = std1.iterate_star(2)
        r = np.linspace(0.5, 0.999, 40)
        band = w2.density(r) / (1.0 - r) ** 4
        assert band.max() / band.min() < 4.0

    def test_star_rejects_zero(self, std1):
        with pytest.raises(WeightError):
            std1.iterate_star(1).density(0.0)

    def test_depth_cap(self, std1):
        with pytest.raises(WeightError):
            std1.iterate_V(5)

    @pytest.mark.parametrize("beta,n", [(1.0, 1), (1.0, 2), (2.0, 1), (2.0, 2)])
    def test_v_of_mu_plus_upper_bound(self, beta, n):
        # V_n of mu_plus is dominated by tail(r) (1-r)^n up to a constant
        w = StandardWeight(beta)
        vn = w.mu_plus().iterate_V(n)
        r = np.linspace(0.05, 0.98, 30)
        ratio = vn.density(r) / (w.tail(r) * (1.0 - r) ** n)
        assert ratio.max() < 4.0

    @pytest.mark.parametrize("beta,n", [(1.0, 1), (2.0, 1), (1.0, 2)])
    def test_v_of_mu_plus_tail_lower_bound(self, beta, n):
        # tail of V_n(mu_plus) dominates tail(r) (1-r)^(n+1) on [1/2, 1)
        w = StandardWeight(beta)
        vn = w.mu_plus().iterate_V(n)
        r = np.linspace(0.5, 0.999, 25)
        ratio = vn.tail(r) / (w.tail(r) * (1.0 - r) ** (n + 1))
        assert ratio.min() > 0.05

    def test_power_tail_weight(self, std1):
        # tail^2/(1-r)^2 = 1 for beta = 1
        pt = std1.derive("power_tail", 2.0)
        r = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(pt.density(r), 1.0, rtol=1e-12)

    def test_times_power(self, std1):
        tw = std1.derive("times_power", 2.0)
        r = np.array([0.25, 0.75])
        np.testing.assert_allclose(tw.density(r), (1.0 - r) ** 2, rtol=1e-13)


class TestDerivedOpTable:
    """One table builds, labels and parses every derived weight."""

    @pytest.mark.parametrize("op", sorted(DERIVED_OPS))
    def test_descriptor_roundtrip_keeps_label_and_density(self, op):
        param = {None: None, "depth": 2, "real": 1.5}[DERIVED_OPS[op][1]]
        w = StandardWeight(2.0).derive(op, param)
        w2 = from_descriptor(w.descriptor())
        assert w2.label() == w.label()
        r = np.array([0.1, 0.5, 0.9])
        np.testing.assert_array_equal(w2.density(r), w.density(r))

    def test_labels(self, std1):
        assert std1.mu_plus().label() == "std:1|mu_plus"
        assert std1.iterate_V(2).label() == "std:1|iterate_V|iterate_V"
        assert std1.iterate_star(0) is std1
        assert std1.derive("power_tail", 2).label() == "std:1|power_tail(2)"
        assert std1.derive("times_power", 0.75).label() == "std:1|times_power(0.75)"

    def test_descriptor_iterate_param_is_a_depth(self):
        w = from_descriptor({"kind": "derived", "op": "iterate_star",
                             "param": 3, "base": {"kind": "standard",
                                                  "beta": 1.0}})
        assert w.label() == "std:1" + "|iterate_star" * 3

    @pytest.mark.parametrize("descriptor", [
        {"kind": "standard"},
        {"kind": "standard", "beta": "2"},
        {"kind": "standard", "beta": True},
        {"kind": "exponential", "c": None},
        {"kind": "expr", "formula": 5},
        {"kind": "derived", "op": "power_tail", "base": {"kind": "standard",
                                                         "beta": 1.0}},
        {"kind": "derived", "op": "times_power", "param": [1],
         "base": {"kind": "standard", "beta": 1.0}},
        {"kind": "derived", "op": "nope", "base": {"kind": "standard",
                                                   "beta": 1.0}},
        {"kind": "derived", "op": ["mu_plus"], "base": {"kind": "standard",
                                                        "beta": 1.0}},
        {"kind": "derived", "op": "iterate_V", "param": 9,
         "base": {"kind": "standard", "beta": 1.0}},
        {"kind": "derived", "op": "iterate_V", "param": float("nan"),
         "base": {"kind": "standard", "beta": 1.0}},
        {"kind": "derived", "op": "iterate_V", "param": 2.5,
         "base": {"kind": "standard", "beta": 1.0}},
        {"kind": "derived", "op": "mu_plus"},
        [1],
        5,
    ])
    def test_malformed_descriptor_is_weight_error(self, descriptor):
        with pytest.raises(WeightError):
            from_descriptor(descriptor)


class TestCaches:
    def test_moment_cache_idempotent(self, std2):
        a = std2.moment(7.0)
        b = std2.moment(7.0)
        assert a == b

    def test_odd_moments_batch(self, std2):
        mus = std2.odd_moments(10)
        expect = [std2.moment(2 * n + 1) for n in range(10)]
        np.testing.assert_allclose(mus, expect, rtol=1e-12)

    def test_concurrent_reads_identical(self):
        # concurrent cache population may duplicate work but never changes
        # the values (pure evaluation, fixed summation order)
        from concurrent.futures import ThreadPoolExecutor
        xs = [1.0, 3.0, 5.0, 7.0, 9.0] * 4
        w1 = StandardWeight(0.5).mu_plus()
        with ThreadPoolExecutor(max_workers=4) as ex:
            got = list(ex.map(w1.moment, xs))
        w2 = StandardWeight(0.5).mu_plus()
        expect = [w2.moment(x) for x in xs]
        assert got == expect


class TestInterning:
    TEXTS = ["std:1", "exp:1:1", "expr:(1-r)^2", "tailexpr:(1-r)^3",
             '{"kind":"derived","op":"times_power","param":1.5,'
             '"base":{"kind":"standard","beta":2}}']

    @pytest.mark.parametrize("text", TEXTS)
    def test_same_text_same_weight(self, text):
        assert from_shorthand(text) is from_shorthand(text)

    @pytest.mark.parametrize("text", ["std:-1", "exp:1", "nope:1",
                                      "expr:(1-r)^(-2)", "std:x"])
    def test_invalid_text_raises_every_call(self, text):
        size = from_shorthand.cache_info().currsize
        for _ in range(3):
            with pytest.raises((WeightError, ValueError)):
                from_shorthand(text)
        assert from_shorthand.cache_info().currsize == size

    def test_cache_never_exceeds_its_bound(self):
        first = from_shorthand("std:1.5")
        for k in range(2 * WEIGHT_CACHE_SIZE):
            from_shorthand(f"std:{2 + k}")
            assert from_shorthand.cache_info().currsize <= WEIGHT_CACHE_SIZE
        assert from_shorthand("std:1.5") is not first

    def test_constructor_gives_a_fresh_weight(self):
        w = from_shorthand("std:1")
        assert StandardWeight(1.0) is not w
        assert StandardWeight(1.0)._odd_cache.size == 0

    @pytest.mark.parametrize("text", TEXTS)
    def test_cached_arrays_are_read_only(self, text):
        w = from_shorthand(text)
        mus = w.odd_moments(8)
        with pytest.raises(ValueError):
            mus[0] = 1.0
        with pytest.raises(ValueError):
            w.odd_moments(4)[:] = 0.0
        pf = w.panel_function()
        for a in (pf.values, pf.flat_values, pf.suffix):
            with pytest.raises(ValueError):
                a[0] = 0.0
        w.log_moments([1.0])
        if w._grid_log_density is not None:     # std: has closed forms
            with pytest.raises(ValueError):
                w._grid_log_density[0] = 0.0
        # the refused writes changed nothing the next caller reads
        fresh = from_descriptor(w.descriptor())
        np.testing.assert_array_equal(w.odd_moments(8), fresh.odd_moments(8))


# -- batched moments against the per-index loops they replaced -------------

def loop_log_moment(w, x, log_density):
    """log int_0^1 s^x mu(s) ds by one 1-D log-sum-exp over the finite terms,
    from log mu at the panel nodes."""
    pf = w.panel_function()
    expo = x * np.log(pf.flat_nodes) + log_density + np.log(pf.weights.ravel())
    expo = expo[np.isfinite(expo)]
    if len(expo) == 0:
        return -math.inf
    top = np.max(expo)
    return float(top + np.log(np.sum(np.exp(expo - top))))


def loop_moment(w, x):
    """One moment the unbatched way: log space for exponential weights,
    the plain panel sum otherwise."""
    pf = w.panel_function()
    if isinstance(w, ExponentialWeight):
        return math.exp(loop_log_moment(w, x, w._log_density(pf.flat_nodes)))
    vals = pf.flat_values * pf.weights.ravel()
    with np.errstate(under="ignore"):
        return float(np.sum(np.exp(x * np.log(pf.flat_nodes)) * vals))


def loop_log_of_moment(w, x):
    if isinstance(w, ExponentialWeight):
        return loop_log_moment(w, x, w._log_density(w.panel_function().flat_nodes))
    if isinstance(w, ExprWeight):
        with np.errstate(divide="ignore"):
            logv = np.log(w.panel_function().flat_values)
        return loop_log_moment(w, x, logv)
    m = loop_moment(w, x)
    return math.log(m) if m > 0 else -math.inf


# exp(-1/(1-r)) underflows to 0 on the last panels, so its log density has
# columns that the log-space batch drops; exp(-200 r) is massed near r = 0,
# where its high moments take their leading terms from the anchor rows alone
BATCH_WEIGHTS = {
    "exp:1:1": lambda: ExponentialWeight(1.0, 1.0),
    "exp:2:0.5": lambda: ExponentialWeight(2.0, 0.5),
    "expr:exp(-1/(1-r))": lambda: from_shorthand("expr:exp(-1/(1-r))"),
    "tailexpr:(1-r)^2*exp(-r)": lambda: from_shorthand("tailexpr:(1-r)^2*exp(-r)"),
    "exp:1:1|power_tail(2)": lambda: ExponentialWeight(1.0, 1.0).derive("power_tail", 2.0),
    "expr:exp(-200*r)": lambda: from_shorthand("expr:exp(-200*r)"),
}
BATCH_MAX = 4096

# The batch splits each index into an anchor and an offset, which the loop
# does not, so the two agree to rounding, not bit for bit.
LOOP_RTOL = 1e-13


def assert_near_loop(got, want):
    """Equal (NaN to NaN, for inf and 0 too) or within LOOP_RTOL relative."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    with np.errstate(invalid="ignore"):
        ok = (got == want) | (np.isnan(got) & np.isnan(want)) \
            | (np.abs(got - want) <= LOOP_RTOL * np.abs(want))
    assert np.all(ok), (got[~ok], want[~ok])


@pytest.fixture(scope="module")
def loop_odd_moments():
    """Per weight: [loop_moment(w, 2n + 1) for n < BATCH_MAX]."""
    out = {}
    for name, make in BATCH_WEIGHTS.items():
        w = make()
        out[name] = np.array([loop_moment(w, 2 * n + 1)
                              for n in range(BATCH_MAX)])
    return out


class TestBatchedMoments:
    @pytest.mark.parametrize("count", [1, 15, 16, 17, 700, BATCH_MAX])
    @pytest.mark.parametrize("name", list(BATCH_WEIGHTS))
    def test_odd_moments_equal_the_loop(self, loop_odd_moments, name, count):
        got = BATCH_WEIGHTS[name]().odd_moments(count)
        assert len(got) == count
        assert_near_loop(got, loop_odd_moments[name][:count])

    @pytest.mark.parametrize("name", list(BATCH_WEIGHTS))
    def test_cache_growth_equals_the_loop(self, loop_odd_moments, name):
        w = BATCH_WEIGHTS[name]()
        short = w.odd_moments(10).copy()
        long = w.odd_moments(700)
        assert_near_loop(short, loop_odd_moments[name][:10])
        assert_near_loop(long, loop_odd_moments[name][:700])
        assert np.array_equal(w.odd_moments(10), short)

    @pytest.mark.parametrize("name", list(BATCH_WEIGHTS))
    def test_scalar_moment_is_the_batch_entry(self, name):
        w = BATCH_WEIGHTS[name]()
        mus = BATCH_WEIGHTS[name]().odd_moments(40)
        for n in (0, 1, 15, 16, 17, 39):
            assert w.moment(2 * n + 1) == mus[n]

    @pytest.mark.parametrize("name", list(BATCH_WEIGHTS))
    def test_extreme_indices_match_the_loop(self, name):
        # `moments --x` passes any nonnegative float through, inf included
        w = BATCH_WEIGHTS[name]()
        for x in (0.0, 1e300, math.inf):
            assert_near_loop(w.moment(x), loop_moment(w, x))

    @pytest.mark.parametrize("name", list(BATCH_WEIGHTS))
    def test_log_moment_on_the_classify_ladder(self, name):
        from fracvolt.weight_class import DEFAULT_DEPTH
        w = BATCH_WEIGHTS[name]()
        xs = 2.0 ** np.arange(0.0, DEFAULT_DEPTH + 1.0)
        for x in np.concatenate([xs, 2.0 * xs]):
            assert_near_loop(w.log_moments([x])[0], loop_log_of_moment(w, x))

    @pytest.mark.parametrize("name", [*BATCH_WEIGHTS, "std:1.5"])
    def test_log_moments_batch_is_the_scalar_log_moment(self, name):
        # classify takes its moment ladder in one log_moments batch
        make = BATCH_WEIGHTS.get(name, lambda: from_shorthand(name))
        xs = 2.0 ** np.arange(0.0, 38.0)
        batch = make().log_moments(np.concatenate([xs, 2.0 * xs]))
        w = make()
        assert batch.tolist() == [w.log_moments([x])[0]
                                  for x in [*xs, *(2.0 * xs)]]

    @pytest.mark.parametrize("count", [8, 9, 24, 25])
    @pytest.mark.parametrize("name", list(BATCH_WEIGHTS))
    def test_counts_across_anchor_edges(self, loop_odd_moments, name, count):
        # 2n + 1 = 15, 17 and 47, 49 sit on either side of an anchor
        got = BATCH_WEIGHTS[name]().odd_moments(count)
        assert np.array_equal(got, BATCH_WEIGHTS[name]().odd_moments(64)[:count])
        assert_near_loop(got, loop_odd_moments[name][:count])

    @pytest.mark.parametrize("name", list(BATCH_WEIGHTS))
    def test_offsets_and_extremes_in_one_batch(self, name):
        # a fractional offset, an anchor of its own, and indices whose
        # anchor rows have no live column: each entry is its scalar call
        w = BATCH_WEIGHTS[name]()
        xs = [0.0, 2.5, 1e300, math.inf, 17.0, 2.5]
        batch = w._moments(np.array(xs))
        for x, got in zip(xs, batch):
            assert got == BATCH_WEIGHTS[name]().moment(x)
            assert_near_loop(got, loop_moment(w, x))

    def test_smallest_node_keeps_every_offset_power(self):
        # an anchor row's leading term survives any offset s^d only while
        # the smallest node to the largest offset stays far from underflow,
        # on the reference grid and on the radial engine's halved one
        from fracvolt.quad import ANCHOR_STEP, _halved_grid, radial_nodes
        for nodes in (radial_nodes()[0], _halved_grid()[0]):
            assert np.min(nodes) ** (ANCHOR_STEP - 1) >= 2.0 ** -960

    @pytest.mark.parametrize("name", list(BATCH_WEIGHTS))
    def test_the_kernel_is_the_only_route(self, name, monkeypatch):
        # a kernel that answers log 1 for every index: every moment of the
        # weight, and every radial integral, must be 1
        from fracvolt import quad, weights
        from fracvolt.quad import PanelFunction, radial_integrals
        calls = []

        def kernel(xs, log_density, halved=False):
            calls.append(halved)
            return np.zeros(len(xs))

        monkeypatch.setattr(quad, "log_moments", kernel)
        monkeypatch.setattr(weights, "log_moments", kernel)
        w = BATCH_WEIGHTS[name]()
        assert w.odd_moments(40).tolist() == [1.0] * 40
        assert w.moment(7.5) == 1.0
        assert w.log_moments([1.0, 64.0]).tolist() == [0.0] * 2
        assert len(calls) == 3
        vals, errs, diverged = radial_integrals(lambda r: 1.0 + r, [1, 3])
        assert vals.tolist() == [1.0] * 2 and errs.tolist() == [0.0] * 2
        assert not diverged and calls[3:] == [False, True]
        assert not hasattr(PanelFunction, "moments")
        assert type(w)._moments is RadialWeight._moments

    @pytest.mark.parametrize("name", ["exp:1:1", "expr:exp(-1/(1-r))"])
    def test_exponential_rows_per_anchor_not_per_index(self, name, monkeypatch):
        from fracvolt import quad
        w = BATCH_WEIGHTS[name]()
        w.panel_function()
        rows, entries = [], []

        class CountingNumpy:
            def __getattr__(self, attr):
                return getattr(np, attr)

            def exp(self, t, *args, **kwargs):
                rows.append(1 if np.ndim(t) == 1 else len(t))
                entries.append(np.size(t))
                return np.exp(t, *args, **kwargs)

        monkeypatch.setattr(quad, "np", CountingNumpy())
        count = 768
        w.odd_moments(count)
        # one row per anchor (x0 = 0, 16, ..., 1520) and one per odd offset
        assert sum(rows) == count // 8 + 8
        assert sum(entries) <= (count // 8 + 8) * len(quad.radial_nodes()[0])

    def test_batch_never_holds_a_count_by_nodes_array(self):
        import tracemalloc
        tracemalloc.start()
        try:
            ExponentialWeight(1.0, 1.0).odd_moments(4096)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 4096 x 2304 float64 array alone would be 75 MB
        assert peak < 8 * 2 ** 20
