"""Disc p-means from the ring samples against the sampled full grid.

The oracle is the p-mean the ring samples and the period reduction
replaced: |P| sampled by an inverse FFT on all m angles of every radial
node, whatever the support of P.  The fast path samples P by a real
product with an angle table on each ring's true period instead, and on
half of it for real series, so every case agrees to rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvolt import TaylorSeries, from_shorthand, norms
from fracvolt.cli import parse_symbol
from fracvolt.quad import radial_nodes

PS = (0.5, 1.0, 2.0, 3.7)
WEIGHT = from_shorthand("exp:1:1")    # mu_hat^p/(1-r)^2 integrable at every p
DENSITIES = {
    "besov_mu": lambda g, p: norms.besov_mu(g, WEIGHT, p),
    "besov_classical": lambda g, p: norms.besov_classical(g, p),
    "bergman": lambda g, p: norms.bergman_norm(g, 0.5, p),
}
FULL_SUPPORT = ("random:8:1", "random:24:3", "log:64")


def _poly(terms):
    c = np.zeros(max(terms) + 1, dtype=complex)
    for n, cn in terms.items():
        c[n] = cn
    return TaylorSeries.from_coeffs(c)


SPARSE = {
    "mono:0": TaylorSeries.monomial(0),
    "mono:1": TaylorSeries.monomial(1),
    "mono:8": TaylorSeries.monomial(8),
    "mono:32": TaylorSeries.monomial(32),
    "z+z^5": _poly({1: 1.0, 5: 1.0}),
    "2+z^8": _poly({0: 2.0, 8: 1.0}),
    "z^3+z^7+z^11": _poly({3: 1.0, 7: 0.5 - 1j, 11: 0.25}),
    "zero": TaylorSeries.zero(),
    "z^5+z^305": _poly({5: 1.0, 305: 0.3j}),     # m = 1224, g = 12
}


def oracle_disc_p_integral(coeffs, p, density, m):
    """The full-grid p-mean: all m angles on every radial node."""
    nodes, weights = radial_nodes()
    mean_p = np.empty(len(nodes))
    for sl in norms._row_blocks(len(nodes), m):
        samples = norms._sample_circle(coeffs, nodes[sl], m)
        mean_p[sl] = np.mean(samples ** p, axis=1)
    with np.errstate(over="ignore", divide="ignore", under="ignore"):
        dens = density(nodes)
    return float(np.sum(2.0 * weights * nodes * dens * mean_p))


def fast_and_oracle(monkeypatch, call):
    """(fast, oracle) for every disc p-mean the call makes."""
    pairs = []
    fast = norms._disc_p_integral

    def spy(*args):
        value = fast(*args)
        pairs.append((value, oracle_disc_p_integral(*args)))
        return value

    monkeypatch.setattr(norms, "_disc_p_integral", spy)
    call()
    monkeypatch.undo()
    assert pairs, "the call made no disc p-mean"
    return pairs


@pytest.mark.parametrize("density", sorted(DENSITIES))
@pytest.mark.parametrize("symbol", FULL_SUPPORT)
def test_full_support_matches_full_grid(monkeypatch, symbol, density):
    g = parse_symbol(symbol)
    for p in PS:
        for value, oracle in fast_and_oracle(
                monkeypatch, lambda: DENSITIES[density](g, p)):
            assert value == pytest.approx(oracle, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("density", sorted(DENSITIES))
@pytest.mark.parametrize("symbol", sorted(SPARSE))
def test_sparse_support_matches_full_grid(monkeypatch, symbol, density):
    g = SPARSE[symbol]
    for p in PS:
        for value, oracle in fast_and_oracle(
                monkeypatch, lambda: DENSITIES[density](g, p)):
            assert value == pytest.approx(oracle, rel=1e-13, abs=0.0)


@settings(max_examples=25)
@given(v=st.integers(0, 12), stride=st.integers(2, 40),
       terms=st.lists(st.tuples(st.integers(0, 6),
                                st.floats(-1, 1), st.floats(-1, 1)),
                      min_size=1, max_size=4),
       m=st.sampled_from([64, 96, 1024, 1224]),
       p=st.sampled_from(PS))
def test_stride_supports_match_full_grid(v, stride, terms, m, p):
    c = np.zeros(v + 6 * stride + 1, dtype=complex)
    for k, re, im in terms:
        c[v + stride * k] += complex(re, im)
    density = lambda r: (1.0 - r ** 2) ** 0.5
    value = norms._disc_p_integral(c, p, density, m)
    oracle = oracle_disc_p_integral(c, p, density, m)
    assert value == pytest.approx(oracle, rel=1e-13, abs=0.0)


def count_samples(monkeypatch):
    """Per call of the per-block ring sampler: (rows, angles) sampled."""
    counts = []
    original = norms._ring_samples

    def counted(powers, table):
        counts.append((len(powers), table.shape[1] // 2))
        return original(powers, table)

    monkeypatch.setattr(norms, "_ring_samples", counted)
    return counts


def test_monomial_samples_one_point_per_ring(monkeypatch):
    counts = count_samples(monkeypatch)
    norms.besov_mu(TaylorSeries.monomial(16), from_shorthand("std:1"), 3.0)
    assert len(radial_nodes()[0]) == 2304
    assert 0 < sum(rows * angles for rows, angles in counts) <= 2304


DENSITY = lambda r: (1.0 - r ** 2) ** 0.5
RING_PS = (0.5, 1.0, 3.7)


def _random_coeffs(degree, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return scale * (rng.standard_normal(degree + 1)
                    + 1j * rng.standard_normal(degree + 1))


@pytest.mark.parametrize("p", RING_PS)
@pytest.mark.parametrize("m", (64, 1024))
@pytest.mark.parametrize("scale", (1e-203, 1e200))
def test_extreme_coefficients_match_full_grid(scale, m, p):
    # |c|^2 under- or overflows here; the scaled transform must not
    for c in (np.array([0, 0, 1.23j]) * scale,
              _random_coeffs(12, 5, scale)):
        value = norms._disc_p_integral(c, p, DENSITY, m)
        with np.errstate(over="ignore"):
            oracle = oracle_disc_p_integral(c, p, DENSITY, m)
        if p <= 1.0:    # |P|^p stays in range
            assert 0.0 < oracle < np.inf
        if oracle in (0.0, np.inf):
            assert value == oracle
        else:
            assert value == pytest.approx(oracle, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("p", (0.3, 2.6, 3.7))    # k p is not exact
def test_binary_scaling_comes_back_exactly(p):
    # c and 2^k c share their scaled coefficients, so the p-means differ
    # only by the scale-back, which must not round k p (about 1e-14 here)
    c = _random_coeffs(12, 6)
    base = norms._disc_p_integral(c, p, DENSITY, 64)
    for k in (17, 40, 101):
        value = norms._disc_p_integral(np.ldexp(c.view(float), k).view(complex),
                                       p, DENSITY, 64)
        assert value / base == pytest.approx(np.power(np.ldexp(1.0, k), p),
                                             rel=1e-15, abs=0.0)


@pytest.mark.parametrize("p", RING_PS)
@pytest.mark.parametrize("m", (16, 64))
def test_aliased_full_support_matches_full_grid(m, p):
    # g = 1 and 2 deg >= m: lags beyond m/2 fold back onto the m angles
    for degree in (m // 2, m - 1, 3 * m + 5):
        c = _random_coeffs(degree, degree)
        value = norms._disc_p_integral(c, p, DENSITY, m)
        oracle = oracle_disc_p_integral(c, p, DENSITY, m)
        assert value == pytest.approx(oracle, rel=1e-13, abs=0.0)


HALF_CIRCLE = {
    # (coefficients, m, reduced m)
    "real-random:24": (_random_coeffs(24, 7).real, 1024, 1024),
    "imaginary-random:24": (1j * _random_coeffs(24, 8).real, 1024, 1024),
    "real-odd-m": (_random_coeffs(24, 9).real, 63, 63),
    "real-z^5+z^305": (_poly({5: 1.0, 305: -0.3}).coeffs, 1224, 102),
    "real-z^5+z^309-odd-reduced-m": (_poly({5: 1.0, 309: 0.3}).coeffs, 1224, 153),
    "imaginary-z^5+z^309": (_poly({5: 2j, 309: -0.7j}).coeffs, 1224, 153),
    "real-degree-3m+5": (_random_coeffs(3 * 64 + 5, 10).real, 64, 64),
    "imaginary-degree-m": (1j * _random_coeffs(16, 11).real, 16, 16),
    "real-degree-3m+5-odd-m": (_random_coeffs(3 * 21 + 5, 12).real, 21, 21),
}


@pytest.mark.parametrize("p", RING_PS)
@pytest.mark.parametrize("case", sorted(HALF_CIRCLE))
def test_real_series_take_half_the_circle(monkeypatch, case, p):
    # |P(r e^(-i theta))| = |P(r e^(i theta))|: angles 0..m//2 only
    c, m, reduced = HALF_CIRCLE[case]
    counts = count_samples(monkeypatch)
    value = norms._disc_p_integral(c, p, DENSITY, m)
    assert {angles for _, angles in counts} == {reduced // 2 + 1}
    assert sum(rows for rows, _ in counts) == len(radial_nodes()[0])
    oracle = oracle_disc_p_integral(c, p, DENSITY, m)
    assert value == pytest.approx(oracle, rel=1e-13, abs=0.0)


def test_complex_series_take_the_whole_circle(monkeypatch):
    counts = count_samples(monkeypatch)
    norms._disc_p_integral(_random_coeffs(24, 7), 2.6, DENSITY, 1024)
    assert {angles for _, angles in counts} == {1024}


@pytest.mark.parametrize("c", (_random_coeffs(40, 3), _random_coeffs(40, 4).real),
                         ids=("complex", "real"))
def test_row_blocks_do_not_change_p_means(monkeypatch, c):
    # BLAS may round a row differently in another block shape: 1e-15, not ==
    whole = norms._disc_p_integral(c, 2.6, DENSITY, 1024)
    monkeypatch.setattr(norms, "BLOCK_ELEMENTS", 1)
    one_row = norms._disc_p_integral(c, 2.6, DENSITY, 1024)
    assert one_row == pytest.approx(whole, rel=1e-15, abs=0.0)


def test_p_mean_makes_no_complex_ifft(monkeypatch):
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    for name in ("ifft", "irfft"):
        monkeypatch.setattr(np.fft, name, refuse(f"np.fft.{name}"))
    monkeypatch.setattr(norms, "angular_autocorr", refuse("angular_autocorr"))
    for symbol in ("random:16:2", "log:64"):    # the whole and the half circle
        g = parse_symbol(symbol)
        for call in DENSITIES.values():
            assert np.isfinite(call(g, 2.6).value)
