from fractions import Fraction

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


def per_panel_loop(pf, r):
    """Reference suffix integrals of a scalar panel function: one panel at
    a time, its Legendre antiderivative rebuilt from ``pf.values`` by a
    linear solve, and the whole panels above summed here."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r)
    edges = pf.edges
    idx = np.clip(np.searchsorted(edges, r, side="right") - 1, 0, len(edges) - 2)
    x, _ = npleg.leggauss(pf.values.shape[1])
    V = npleg.legvander(x, len(x) - 1)
    for p in np.unique(idx):
        sel = idx == p
        lo, hi = edges[p], edges[p + 1]
        t = 2.0 * (r[sel] - lo) / (hi - lo) - 1.0
        anti = npleg.legint(np.linalg.solve(V, pf.values[p]))
        part = (npleg.legval(1.0, anti) - npleg.legval(t, anti)) * 0.5 * (hi - lo)
        out[sel] = part + np.sum(pf.weights[p + 1:] * pf.values[p + 1:])
    return out


class TestPanelFunction:
    def test_walk_matches_per_panel_loop(self):
        # the engine forms the antiderivatives by one product with a cached
        # map and the oracle by a solve per panel, so they agree to
        # rounding, not bit for bit: relative, with an absolute floor at
        # the scale of the largest suffix integral
        rng = np.random.default_rng(7)
        with np.errstate(divide="ignore"):
            pf = PanelFunction.from_callable(
                lambda r: (1.0 - r) ** 1.3 * (1.0 + r) + np.log1p(r))
        grid, _ = radial_nodes()
        halved, _ = _halved_grid(24, 48, 32)
        edges = panel_edges()
        floor = 1e-14 * np.max(np.abs(per_panel_loop(pf, grid)))
        for r in (rng.random(3000), grid, halved, edges,
                  np.array([GRID_TOP, 1.0 - 2.0 ** -53])):
            np.testing.assert_allclose(pf.suffix_integral(r),
                                       per_panel_loop(pf, r), rtol=1e-14,
                                       atol=floor)

    def test_walk_makes_one_legval_call(self, monkeypatch):
        # one vectorised evaluation of the antiderivatives, whatever the
        # number of panels the points fall in
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
            calls.clear()
            pf.suffix_integral(r)
            assert len(calls) == 1

    def test_columns_share_one_basis_evaluation(self, monkeypatch):
        # several columns take one Legendre basis for all points, and no
        # recurrence per column
        nodes, _ = radial_nodes()
        pf = PanelFunction.from_values(np.stack([np.exp(-nodes), nodes], 1))
        calls = []
        for name in ("legval", "legvander"):
            original = getattr(npleg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(npleg, name, counted)
        for r in (np.array([0.3]), nodes[:64], nodes):
            calls.clear()
            assert pf.suffix_integral(r).shape == (len(r), 2)
            assert calls == ["legvander"]

    def test_radii_keep_their_shape(self):
        rng = np.random.default_rng(3)
        nodes, _ = radial_nodes()
        r = rng.random((4, 5))
        for values in (np.exp(-nodes), np.stack([nodes, 1j * nodes], 1)):
            pf = PanelFunction.from_values(values)
            got = pf.suffix_integral(r)
            assert got.shape == r.shape + values.shape[1:]
            np.testing.assert_array_equal(
                got, pf.suffix_integral(r.ravel()).reshape(got.shape))
            assert pf.suffix_integral(0.3).shape == values.shape[1:]

    def test_nothing_is_left_above_the_grid_top(self):
        # 1 - 2^-53 is a radius above GRID_TOP; the last panel's polynomial
        # must not be extrapolated there (it gave a negative tail)
        nodes, _ = radial_nodes()
        r = np.array([GRID_TOP, 1.0 - 2.0 ** -53])
        for values in (np.ones_like(nodes), np.sqrt(1.0 - nodes),
                       np.stack([nodes, 1j * nodes], 1)):
            got = PanelFunction.from_values(values).suffix_integral(r)
            assert np.all(got == 0.0)

    def test_suffix_matches_antiderivative(self):
        pf = PanelFunction.from_callable(lambda r: 3.0 * r * r)
        r = np.array([0.0, 0.1, 0.5, 0.99, 0.999999])
        np.testing.assert_allclose(pf.suffix_integral(r), GRID_TOP ** 3 - r ** 3,
                                   rtol=1e-12, atol=1e-14)

    def test_complex_columns_match_scalar_functions(self):
        rng = np.random.default_rng(11)
        nodes, _ = radial_nodes()
        K = 9
        freq = rng.normal(size=K) + 1j * rng.normal(size=K)
        values = np.exp(np.outer(nodes, freq)) * (1.0 - nodes)[:, None]
        pf = PanelFunction.from_values(values)
        assert pf.suffix.shape == (73, K)
        r = np.concatenate([rng.random(500), panel_edges(), [GRID_TOP]])
        got = pf.suffix_integral(r)
        assert got.shape == (len(r), K) and got.dtype == complex
        for k in range(K):
            for part in (np.real, np.imag):
                want = PanelFunction.from_values(part(values[:, k])).suffix_integral(r)
                np.testing.assert_allclose(part(got[:, k]), want, rtol=0,
                                           atol=1e-14 * np.max(np.abs(want)))

    def test_power_columns_integrate_exactly(self):
        # a panel's 32 nodes interpolate r^j, j <= 31, exactly; the truths
        # are exact rationals of the float radii
        rng = np.random.default_rng(5)
        nodes, _ = radial_nodes()
        J = 32
        pf = PanelFunction.from_values(np.stack([nodes ** j for j in range(J)], 1))
        t = np.concatenate([rng.random(100), panel_edges(), [GRID_TOP]])
        top = Fraction(GRID_TOP)
        truth = np.array([[float((top ** (j + 1) - Fraction(x) ** (j + 1)) / (j + 1))
                           for j in range(J)] for x in t.tolist()])
        np.testing.assert_allclose(pf.suffix_integral(t), truth, rtol=1e-14,
                                   atol=1e-15)

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
