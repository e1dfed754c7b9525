"""Acceptance gate: the headline end-to-end checks at fixed tolerances.

Each numbered criterion prints one PASS/FAIL line; run with
`pytest -s tests/test_acceptance.py` to see the table, or rely on the
pytest verdicts.
"""

import math
import time

import numpy as np

from fracvolt import (ExponentialWeight, KernelSlice, StandardWeight,
                      TailExprWeight, TaylorSeries, frac_rep_identity_check)
from fracvolt import norms
from fracvolt import volterra as vo
from fracvolt.weight_class import EVIDENCE_AGAINST, EVIDENCE_FOR, classify
from test_weights import std_moment_oracle


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status}  {detail}")
    assert ok, detail


def _symbol_corpus(seed=1234):
    rng = np.random.default_rng(seed)
    corpus = [(f"mono:{d}", TaylorSeries.monomial(d)) for d in (1, 2, 4, 8, 16, 32)]
    for d in (5, 10, 20, 28):
        c = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        c /= np.linalg.norm(c)
        corpus.append((f"random:{d}", TaylorSeries.from_coeffs(c)))
    return corpus


def test_criterion_1_moment_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    xs = np.arange(1.0, 402.0, 2.0)
    for beta in (0.5, 1.0, 2.0, 3.0):
        w = StandardWeight(beta)
        for x in xs:
            got = w.moment(x)
            oracle = std_moment_oracle(beta, x)
            worst = max(worst, abs(got - oracle) / oracle)
    elapsed = time.perf_counter() - t0
    _report(1, worst <= 1e-10 and elapsed < 5.0,
            f"moment vs quadrature oracle: rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_hardy_littlewood_multipliers():
    worst = 0.0
    for beta in (1.0, 2.0):
        w = StandardWeight(beta)
        mult = 1.0 / w.odd_moments(129)
        for n in range(129):
            expect = 2.0 * math.exp(math.lgamma(n + beta + 1.0)
                                    - math.lgamma(beta + 1.0)
                                    - math.lgamma(n + 1.0))
            worst = max(worst, abs(mult[n] - expect) / expect)
    _report(2, worst <= 1e-10, f"fractional multiplier rel err {worst:.2e}")


def test_criterion_3_representation_identity():
    rng = np.random.default_rng(77)
    worst = 0.0
    for beta in (1.0, 2.0):
        w = StandardWeight(beta)
        for n in (1, 2):
            for _ in range(20):
                deg = int(rng.integers(1, 17))
                c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
                f = TaylorSeries.from_coeffs(c / np.linalg.norm(c))
                worst = max(worst, frac_rep_identity_check(f, w, n))
    _report(3, worst <= 1e-8, f"representation residual {worst:.2e}")


def test_criterion_4_h2_equivalence_witness():
    t0 = time.perf_counter()
    w1 = StandardWeight(1.0)
    ns = np.arange(0, 201)
    ratios = norms.h2_monomial_ratios(w1, ns)
    expect = (2.0 * ns + 2.0) / (2.0 * ns + 3.0)
    worst = float(np.max(np.abs(ratios - expect) / expect))

    we = ExponentialWeight(1.0, 1.0)
    exp_ns = [2 ** j for j in range(3, 11)]
    exp_ratios = norms.h2_monomial_ratios(we, exp_ns)
    increasing = bool(np.all(np.diff(exp_ratios) > 0))
    growth = float(exp_ratios[-1] / exp_ratios[0])
    elapsed = time.perf_counter() - t0
    _report(4, worst <= 1e-8 and increasing and growth > 10.0 and elapsed < 30.0,
            f"witness ratio err {worst:.2e}; counterexample growth x{growth:.1f} "
            f"(increasing={increasing}), {elapsed:.2f}s")


def test_criterion_5_fubini_dual_path():
    rng = np.random.default_rng(55)
    weights = [StandardWeight(1.0), StandardWeight(2.0),
               ExponentialWeight(1.0, 1.0)]
    worst = 0.0
    for w in weights:
        for _ in range(20):
            deg = int(rng.integers(1, 41))
            c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            f = TaylorSeries.from_coeffs(c / np.linalg.norm(c))
            tent2 = norms.tent_norm_power(f, w, 2.0)
            lp = norms.hardy2_lp(f, w)
            rel = abs(tent2.value - lp.value) / lp.value
            budget = (tent2.err + lp.err) / lp.value + 5e-3
            assert rel <= budget
            worst = max(worst, rel)
    _report(5, worst <= 5e-3, f"tent^2 vs weighted disc integral: rel {worst:.2e}")


def test_criterion_6_reproducing_kernel():
    from fracvolt.quad import _panel_grid
    rng = np.random.default_rng(66)
    _, nodes, weights = _panel_grid(24, 48, 32)
    rr, ww = nodes.ravel(), weights.ravel()
    m = 512
    zeta = rr[:, None] * np.exp(2j * np.pi * np.arange(m)[None, :] / m)
    anchors = 0.7 * rng.uniform(0.1, 1.0, 10) * np.exp(2j * np.pi * rng.uniform(0, 1, 10))
    worst = 0.0
    for w in (StandardWeight(1.0), StandardWeight(2.0)):
        dens = w.density(rr)
        c = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        p = TaylorSeries.from_coeffs(c / np.linalg.norm(c))
        for z in anchors:
            B = KernelSlice(w, complex(z), 64).series()
            vals = p(zeta) * np.conj(B(zeta))
            got = np.sum(2.0 * ww * rr * dens * vals.mean(axis=1))
            worst = max(worst, abs(got - p(complex(z))))
    _report(6, worst <= 1e-8, f"kernel reproducing residual {worst:.2e}")


def test_criterion_7_weighted_shift_schatten():
    t0 = time.perf_counter()
    w1 = StandardWeight(1.0)
    z = TaylorSeries.monomial(1)
    est = vo.schatten_with_monitor(w1, z, -1.0, 2.0, 512)
    target = math.sqrt(4.0 * (math.pi ** 2 / 6.0 - 1.0))
    rel = abs(est.value - target) / target

    ladder = vo.schatten_truncation_profile(w1, z, -1.0, 1.0, [64, 128, 256, 512])
    increasing = all(a < b for a, b in zip(ladder, ladder[1:]))
    no_plateau = ladder[-1] / ladder[-2] > vo.NO_PLATEAU_RATIO
    flagged = vo.schatten_with_monitor(w1, z, -1.0, 1.0, 512).diverged
    elapsed = time.perf_counter() - t0
    _report(7, rel < 0.01 and increasing and no_plateau and flagged
            and elapsed < 60.0,
            f"S_2 rel {rel:.2e}; p=1 ladder ratio {ladder[-1]/ladder[-2]:.3f} "
            f"flagged={flagged}, {elapsed:.1f}s")


def test_criterion_8_besov_schatten_comparability():
    w1 = StandardWeight(1.0)
    ok = True
    details = []
    for alpha in (-1.0, 0.0):
        degs, ratios = [], []
        for _, g in _symbol_corpus():
            s = vo.schatten_with_monitor(w1, g, alpha, 2.0, 256).value
            b = norms.besov_mu(g, w1, 2.0).value ** 0.5
            degs.append(g.degree)
            ratios.append(s / b)
        ratios = np.array(ratios)
        spread = float(ratios.max() / ratios.min())
        slope = float(np.polyfit(np.log(degs), np.log(ratios), 1)[0])
        ok = ok and spread <= 1e3 and abs(slope) < 0.1
        details.append(f"alpha={alpha:g}: spread {spread:.2f} slope {slope:+.3f}")
    _report(8, ok, "; ".join(details))


def test_criterion_9_bmoa_dual_path_and_vanishing():
    w1 = StandardWeight(1.0)
    worst_factor = 0.0
    all_monotone = True
    for _, g in _symbol_corpus():
        a = norms.bmoa_mu_sup(g, w1).value
        b = norms.bmoa_kernel_sup(g, w1).value
        worst_factor = max(worst_factor, a / b, b / a)
        prof = norms.vanishing_profile(g, w1, depth=13)
        vals = [v for _, v in prof]
        all_monotone = all_monotone and all(
            vals[j] > vals[j + 1] for j in range(9, 12))
    _report(9, worst_factor <= 16.0 and all_monotone,
            f"kernel/square worst factor {worst_factor:.2f}; "
            f"vanishing monotone beyond depth 10: {all_monotone}")


def test_criterion_10_classifier_ground_truth():
    t0 = time.perf_counter()
    checks = []
    for beta in (0.5, 1.0, 2.0, 3.0):
        rep = classify(StandardWeight(beta), depth=36)
        checks.append(rep.verdicts["dhat"] == EVIDENCE_FOR
                      and rep.verdicts["dcheck"] == EVIDENCE_FOR)
    rep = classify(ExponentialWeight(1.0, 1.0), depth=36)
    checks.append(rep.verdicts["dhat"] == EVIDENCE_AGAINST)
    rep = classify(TailExprWeight("1/(1+log(1/(1-r)))"), depth=36)
    checks.append(rep.verdicts["dcheck"] == EVIDENCE_AGAINST)
    elapsed = time.perf_counter() - t0
    _report(10, all(checks) and elapsed < 10.0,
            f"verdicts {checks}, {elapsed:.2f}s")
