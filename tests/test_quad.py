import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from fracvolt.quad import (GRID_TOP, PanelFunction, _halved_grid,
                           log_moments, looks_divergent, panel_edges,
                           radial_diverges, radial_integrals, radial_nodes)


def integrate(f):
    """(value, err, diverged) of int_0^1 f(r) dr from the radial engine."""
    vals, errs, diverged = radial_integrals(f, [0.0])
    return vals[0], errs[0], diverged


@pytest.mark.parametrize("bad", [np.inf, np.nan])
@pytest.mark.parametrize("halved", [False, True])
def test_non_finite_integrand_on_either_grid_diverges(bad, halved):
    # the kernel drops non-finite columns, so the engine must flag them
    nodes = _halved_grid()[0] if halved else radial_nodes()[0]
    mark = nodes[len(nodes) // 3]

    def H(r):
        return np.where(r == mark, bad, 1.0 + r)

    vals, errs, diverged = radial_integrals(H, [1, 3])
    assert diverged
    assert vals.tolist() == [np.inf] * 2 and errs.tolist() == [np.inf] * 2
    assert not radial_integrals(lambda r: 1.0 + r, [1, 3])[2]


class TestIntegrateRadial:
    def test_linear(self):
        value, err, _ = integrate(lambda r: r)
        np.testing.assert_allclose(value, 0.5, rtol=1e-13)
        assert err <= 1e-12

    def test_log_singularity(self):
        # antiderivative: (1-r)(1 - log(1-r)) -> 1
        value, _, _ = integrate(lambda r: np.log(1.0 / (1.0 - r)))
        np.testing.assert_allclose(value, 1.0, rtol=1e-12)

    def test_inverse_sqrt_endpoint(self):
        # antiderivative 2 sqrt: exercises the refinement toward r = 1;
        # the sliver above GRID_TOP carries ~2^-26, hence the loose rtol
        value, _, diverged = integrate(lambda r: (1.0 - r) ** -0.5)
        np.testing.assert_allclose(value, 2.0, rtol=1e-6)
        assert not diverged

    def test_divergence_flagged(self):
        with np.errstate(divide="ignore"):
            value, _, diverged = integrate(lambda r: 1.0 / (1.0 - r))
        assert diverged
        assert value == np.inf

    def test_deterministic(self):
        f = lambda r: np.sqrt(r) * np.exp(-r)
        a = integrate(f)[0]
        b = integrate(f)[0]
        assert a == b  # bit-identical


class TestMonitor:
    def test_slow_convergent_decay_not_flagged(self):
        # (1-r)^-0.6038 is the Besov integrand of std:0.5345 at p = 2.6122:
        # dyadic panel sums shrink by 0.76 per level, but the last panel spans
        # four levels and, if compared, lifts the mean ratio above 0.98
        r, _ = radial_nodes()
        assert not radial_diverges((1.0 - r) ** -0.6038)

    def test_divergent_flagged(self):
        r, _ = radial_nodes()
        assert radial_diverges(1.0 / (1.0 - r))
        assert radial_diverges((1.0 - r) ** -1.5)

    def test_underflowed_last_panel_counts_as_decay(self):
        r, _ = radial_nodes()
        assert not radial_diverges(np.where(r < 1.0 - 2.0 ** -48,
                                            1.0 / (1.0 - r), 0.0))


def per_panel_loop(pf, r, kind):
    """Reference walk: one Legendre evaluation per panel, antiderivative
    rebuilt on every call."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r)
    idx = pf._panel_index(r)
    for p in np.unique(idx):
        sel = idx == p
        lo, hi = pf.edges[p], pf.edges[p + 1]
        half = 0.5 * (hi - lo)
        t = 2.0 * (r[sel] - lo) / (hi - lo) - 1.0
        if kind == "evaluate":
            out[sel] = npleg.legval(t, pf.coeffs[p])
            continue
        anti = npleg.legint(pf.coeffs[p])
        part = (npleg.legval(1.0, anti) - npleg.legval(t, anti)) * half
        out[sel] = part + pf.suffix[p + 1]
    return out


class TestPanelFunction:
    def test_walk_matches_per_panel_loop(self):
        rng = np.random.default_rng(7)
        with np.errstate(divide="ignore"):
            pf = PanelFunction.from_callable(
                lambda r: (1.0 - r) ** 1.3 * (1.0 + r) + np.log1p(r))
        grid, _ = radial_nodes()
        halved, _ = _halved_grid(24, 48, 32)
        edges = panel_edges()
        for r in (rng.random(3000), grid, halved, edges,
                  np.array([GRID_TOP, 1.0 - 2.0 ** -53])):
            np.testing.assert_array_equal(pf.evaluate(r),
                                          per_panel_loop(pf, r, "evaluate"))
            np.testing.assert_array_equal(pf.suffix_integral(r),
                                          per_panel_loop(pf, r, "suffix"))

    def test_walk_makes_one_legval_call(self, monkeypatch):
        pf = PanelFunction.from_callable(lambda r: np.exp(-r))
        grid, _ = radial_nodes()
        calls = []
        original = npleg.legval

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(npleg, "legval", counted)
        for r in (np.array([0.3]), grid[:64], grid):
            assert len(np.unique(pf._panel_index(r))) in (1, 2, 72)
            for method in (pf.evaluate, pf.suffix_integral):
                calls.clear()
                method(r)
                assert len(calls) == 1

    def test_suffix_matches_antiderivative(self):
        pf = PanelFunction.from_callable(lambda r: 3.0 * r * r)
        r = np.array([0.0, 0.1, 0.5, 0.99, 0.999999])
        np.testing.assert_allclose(pf.suffix_integral(r), GRID_TOP ** 3 - r ** 3,
                                   rtol=1e-12, atol=1e-14)

    def test_evaluate_reproduces_smooth_function(self):
        pf = PanelFunction.from_callable(np.cos)
        r = np.linspace(0.0, 0.9999, 777)
        np.testing.assert_allclose(pf.evaluate(r), np.cos(r), atol=1e-12)

    def test_moment(self):
        # moments of the panel values come from the one moment kernel
        pf = PanelFunction.from_callable(lambda r: np.ones_like(r))
        got = np.exp(log_moments([3.0, 201.0], np.log(pf.flat_values)))
        np.testing.assert_allclose(got[0], 0.25, rtol=1e-12)
        np.testing.assert_allclose(got[1], 1.0 / 202.0, rtol=1e-11)


def test_panel_edges_monotone():
    e = panel_edges()
    assert np.all(np.diff(e) > 0)
    assert e[0] == 0.0 and e[-1] == GRID_TOP


def test_angular_rule_trig_exactness():
    # the uniform angular rule annihilates e^(ik theta) for 0 < |k| < nodes
    m = 64
    theta = 2 * np.pi * np.arange(m) / m
    for k in (1, 5, 31, 63):
        s = np.sum(np.exp(1j * k * theta)) / m
        assert abs(s) < 1e-13
    assert abs(np.sum(np.exp(1j * m * theta)) / m - 1.0) < 1e-13  # aliases back


def test_looks_divergent():
    assert looks_divergent(2.0 ** -np.arange(20)) is False
    assert looks_divergent(np.ones(20)) is True
    assert looks_divergent(2.0 ** np.arange(20)) is True
