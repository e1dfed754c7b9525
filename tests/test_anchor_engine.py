"""The radius-grouped anchor engine against per-anchor oracles.

The oracles below are the per-anchor loops the engine replaced, kept here
with their own complex angular autocorrelation, so they share nothing with
the engine but the quadrature grid: one ``square_mass`` per anchor with its
own partial panel, and one kernel FFT sweep per anchor.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvolt import TaylorSeries, frac_derivative, from_shorthand, norms
from fracvolt.cli import parse_symbol
from fracvolt.quad import (PANEL_ORDER, PanelFunction, gauss_rule, panel_edges,
                           radial_nodes)
from conftest import bmoa_kernel_values

WEIGHTS = ("std:1", "std:2", "exp:1:1")
SYMBOLS = ("mono:1", "mono:8", "random:8:1", "random:32:1", "log:64")
RTOL = 1e-12


def oracle_autocorr(coeffs, radii):
    c = np.asarray(coeffs, dtype=complex)
    d = len(c) - 1
    with np.errstate(under="ignore"):
        P = radii[:, None] ** np.arange(2 * d + 1)
        A = np.empty((len(radii), d + 1), dtype=complex)
        for k in range(d + 1):
            wk = c[k:] * np.conj(c[: d + 1 - k])
            A[:, k] = P[:, k + 2 * np.arange(d + 1 - k)] @ wk
    return A


class OracleSquares:
    """nu(S(a)) one anchor at a time, for |P|^2 H(|z|) dA."""

    def __init__(self, P, H):
        self.coeffs, self.H, self.d = P.coeffs, H, P.degree
        self.edges = panel_edges()
        nodes, weights = radial_nodes()
        base = (weights * nodes * H(nodes))[:, None] \
            * oracle_autocorr(self.coeffs, nodes)
        per_panel = base.reshape(-1, PANEL_ORDER, self.d + 1).sum(axis=1)
        self.suffix = np.vstack([np.cumsum(per_panel[::-1], axis=0)[::-1],
                                 np.zeros((1, self.d + 1))])

    def _suffix_from(self, t):
        e = min(int(np.searchsorted(self.edges, t, side="right")),
                len(self.edges) - 1)
        full = self.suffix[e]
        hi = self.edges[e]
        if hi <= t:
            return full.copy()
        x, gw = gauss_rule(16)
        half = 0.5 * (hi - t)
        rr = t + half * (x + 1.0)
        return full + (half * gw * rr * self.H(rr)) @ oracle_autocorr(self.coeffs, rr)

    def square_mass(self, a):
        t = abs(a)
        if t == 0:
            return float(2.0 * self.suffix[0][0].real)
        Q = self._suffix_from(t)
        h = (1.0 - t) / 2.0
        k = np.arange(1, self.d + 1)
        win = np.concatenate([[2.0 * h], 2.0 * np.sin(k * h) / k])
        phase = np.exp(1j * np.arange(self.d + 1) * np.angle(a))
        total = win[0] * Q[0].real + 2.0 * np.sum(win[1:] * (Q[1:] * phase[1:]).real)
        return float(total / np.pi)


def oracle_sup(values, anchors):
    """Strict ``>`` scan: the first maximum in input order."""
    best, best_a = -np.inf, 0j
    for v, a in zip(values, anchors):
        if v > best:
            best, best_a = v, complex(a)
    return best, best_a


def oracle_kernel_values(symbols, w, anchors):
    """Kernel integral per anchor (rows) for each symbol (columns); the
    kernel coefficients of one anchor serve every symbol."""
    nodes, weights = radial_nodes(*norms.KERNEL_LEVELS)
    base = weights * nodes * norms._lp_factor(w)(nodes)
    Ps = [frac_derivative(g, w) for g in symbols]
    As = [oracle_autocorr(P.coeffs, nodes) for P in Ps]
    d = max(P.degree for P in Ps)
    active = base > 1e-18 * np.sum(base)
    out = np.zeros((len(anchors), len(symbols)))
    for i, a in enumerate(anchors):
        t = abs(a)
        phase = np.exp(1j * np.arange(d + 1) * np.angle(a))
        tr = t * nodes
        m_lo = max(256, 2 ** math.ceil(math.log2(2 * d + 4)))
        m_per_ring = np.clip(64.0 / (1.0 - tr), m_lo, 16384)
        m_per_ring = (2 ** np.ceil(np.log2(m_per_ring))).astype(int)
        for m in np.unique(m_per_ring[active]):
            sel = active & (m_per_ring == m)
            psi = 2.0 * np.pi * np.arange(m) / m
            c = tr[sel][:, None]
            K = ((1.0 - c * np.cos(psi)) ** 2
                 + (c * np.sin(psi)) ** 2) ** -1.5
            khat = np.fft.rfft(K, axis=1)[:, :d + 1] / m
            for j, (P, A) in enumerate(zip(Ps, As)):
                e = P.degree + 1
                ang = khat[:, 0].real * A[sel, 0].real + 2.0 * np.sum(
                    np.real(A[sel, 1:] * phase[1:e]) * khat[:, 1:e].real, axis=1)
                out[i, j] += float(np.sum(base[sel] * ang))
        out[i] *= (1.0 - t) ** 2.0 * 2.0
    return out


def hand_anchors():
    """The origin twice, four anchors of radius exactly 3/4 among rotations
    whose radii are 3/4 only up to rounding, and radii that recur later."""
    angles = np.array([0.5, 2.0, -1.0, 3.0])
    return np.concatenate([
        [0.0, 0.5, 0.5j, 0.0, 0.75, -0.75j],
        0.75 * np.exp(1j * angles),
        [0.75j, -0.5, 0.3 - 0.4j, 0.5 * np.exp(2.5j)],
        (1.0 - 2.0 ** -6) * np.exp(1j * angles),
        [-0.75],
    ]).astype(complex)


ANCHOR_SETS = {
    "default": lambda: norms.default_anchors(),
    "depth8": lambda: norms.default_anchors(depth=8),
    "kernel": lambda: norms._kernel_anchor_set(),
    "hand": hand_anchors,
}


def assert_masses_match(new, old):
    # the engine sums in another order: relative agreement, and absolute
    # agreement against the largest mass where the masses are tiny
    np.testing.assert_allclose(new, old, rtol=RTOL,
                               atol=RTOL * np.max(np.abs(old)))


@pytest.mark.parametrize("weight", WEIGHTS)
@pytest.mark.parametrize("symbol", SYMBOLS)
def test_square_masses_and_sup_match_oracle(weight, symbol):
    w, g = from_shorthand(weight), parse_symbol(symbol)
    P = frac_derivative(g, w)
    H = norms._lp_factor(w)
    machine = norms.SquareMachine(P, H)
    oracle = OracleSquares(P, H)
    for name, make in ANCHOR_SETS.items():
        anchors = make()
        new = machine.square_mass(anchors)
        old = np.array([oracle.square_mass(a) for a in anchors])
        assert_masses_match(new, old)
        est = norms.bmoa_mu_sup(g, w, anchors=anchors)
        best, best_a = oracle_sup(old / (1.0 - np.abs(anchors)), anchors)
        np.testing.assert_allclose(est.value, best, rtol=RTOL, err_msg=name)
        assert est.anchor == best_a, name


@pytest.mark.parametrize("symbol", SYMBOLS)
def test_classical_sup_matches_oracle(symbol):
    g = parse_symbol(symbol)
    oracle = OracleSquares(g.derivative(), lambda r: 1.0 - r * r)
    for name, make in ANCHOR_SETS.items():
        anchors = make()
        old = np.array([oracle.square_mass(a) for a in anchors])
        est = norms.bmoa_classical(g, anchors=anchors)
        best, best_a = oracle_sup(old / (1.0 - np.abs(anchors)), anchors)
        np.testing.assert_allclose(est.value, best, rtol=RTOL, err_msg=name)
        assert est.anchor == best_a, name


@pytest.mark.parametrize("weight", WEIGHTS)
@pytest.mark.parametrize("symbol", ("mono:1", "random:8:1", "log:64"))
def test_vanishing_profile_matches_oracle(weight, symbol):
    w, g = from_shorthand(weight), parse_symbol(symbol)
    oracle = OracleSquares(frac_derivative(g, w), norms._lp_factor(w))
    prof = norms.vanishing_profile(g, w, depth=13)
    a = [t for t, _ in prof]
    assert a == [1.0 - 2.0 ** -j for j in range(1, 14)]
    old = [oracle.square_mass(t) / (1.0 - t) for t in a]
    assert_masses_match([v for _, v in prof], old)


def test_monomial_ties_pick_first_anchor():
    # |D(z^8)|^2 is radial: anchors of one exact radius have the same mass
    # bit for bit.  Without the origin the ratio peaks on the ring of
    # radius 1/4, so the sup must report that ring's first anchor in input
    # order, for every rotation of the input.
    w, g = from_shorthand("std:1"), parse_symbol("mono:8")
    machine = norms.SquareMachine(frac_derivative(g, w), norms._lp_factor(w))
    masses = machine.square_mass(hand_anchors())
    ring = np.abs(hand_anchors()) == 0.75
    assert ring.sum() >= 4 and np.ptp(masses[ring]) == 0.0
    anchors = np.array([0.5, 0.25j, 0.75, -0.25, 0.25, -0.25j, 0.5j])
    for i in range(len(anchors)):
        rotated = np.roll(anchors, -i)
        est = norms.bmoa_mu_sup(g, w, anchors=rotated)
        first = rotated[np.abs(rotated) == 0.25][0]
        assert est.anchor == first
        vals = machine.square_mass(rotated) / (1.0 - np.abs(rotated))
        assert est.anchor == oracle_sup(vals, rotated)[1]


def test_square_mass_scalar_and_array_agree():
    w, g = from_shorthand("std:2"), parse_symbol("random:8:3")
    machine = norms.SquareMachine(frac_derivative(g, w), norms._lp_factor(w))
    anchors = hand_anchors()
    batch = machine.square_mass(anchors)
    single = [machine.square_mass(a) for a in anchors]
    assert all(isinstance(x, float) for x in single)
    assert_masses_match(batch, single)
    assert machine.square_mass(anchors[:18].reshape(3, 6)).shape == (3, 6)
    assert machine.square_mass(np.array([], dtype=complex)).shape == (0,)
    assert machine.square_mass(0.0) == batch[0]


def test_bmoa_sup_makes_one_autocorr_call(monkeypatch):
    calls = []
    original = norms.angular_autocorr

    def counted(coeffs, radii, *lags):
        calls.append(len(radii))
        return original(coeffs, radii, *lags)

    monkeypatch.setattr(norms, "angular_autocorr", counted)
    g, w = parse_symbol("random:16:5"), from_shorthand("std:1")
    norms.bmoa_mu_sup(g, w)
    # the machine build on the reference nodes; every radius of an anchor
    # is a suffix integral of those values
    assert calls == [len(radial_nodes()[0])]
    calls.clear()
    norms.bmoa_classical(g)
    assert calls == [len(radial_nodes()[0])]


@pytest.mark.parametrize("weight", WEIGHTS)
def test_kernel_values_match_oracle(weight):
    w = from_shorthand(weight)
    symbols = [parse_symbol(s) for s in SYMBOLS]
    anchors = norms._kernel_anchor_set()
    old = oracle_kernel_values(symbols, w, anchors)
    for j, g in enumerate(symbols):
        new = bmoa_kernel_values(g, w, anchors)
        assert_masses_match(new, old[:, j])
        est = norms.bmoa_kernel_sup(g, w)
        best, best_a = oracle_sup(old[:, j], anchors)
        np.testing.assert_allclose(est.value, best, rtol=RTOL)
        assert est.anchor == best_a, SYMBOLS[j]


def test_kernel_values_hand_anchors():
    w, g = from_shorthand("std:1"), parse_symbol("random:8:1")
    anchors = hand_anchors()
    old = oracle_kernel_values([g], w, anchors)[:, 0]
    new = bmoa_kernel_values(g, w, anchors)
    assert_masses_match(new, old)
    assert new[0] == new[3]
    est = norms.bmoa_kernel_sup(g, w, anchors=anchors)
    assert est.anchor == oracle_sup(old, anchors)[1]


def test_bloch_blocks_do_not_change_values(monkeypatch):
    # a ring's circle samples do not depend on the other rings of its block
    w, g = from_shorthand("std:1"), parse_symbol("random:8:2")
    whole = norms.bloch_mu(g, w)
    monkeypatch.setattr(norms, "BLOCK_ELEMENTS", 1)
    one_row = norms.bloch_mu(g, w)
    assert (one_row.value, one_row.anchor) == (whole.value, whole.anchor)


def test_block_scratch_stays_small():
    # the Bloch circle samples and the p-mean's ring samples run in row
    # blocks of BLOCK_ELEMENTS, and the kernel sup takes its coefficients
    # in closed form: well under 16 MB of arrays at once (the unblocked
    # loops peaked at about 110 MB and 60 MB)
    w = from_shorthand("std:1")
    for run in (lambda: norms.bmoa_kernel_sup(parse_symbol("random:24:1"), w),
                lambda: norms.bloch_mu(parse_symbol("random:32:1"), w),
                lambda: norms.besov_mu(parse_symbol("random:255:1"), w, 2.6)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


def test_suprema_err_is_not_estimated(std1):
    g = TaylorSeries.monomial(2)
    for est in (norms.bmoa_mu_sup(g, std1), norms.bmoa_classical(g),
                norms.bmoa_kernel_sup(g, std1), norms.bloch_mu(g, std1)):
        assert math.isnan(est.err), est


def test_first_max_keeps_the_strict_scan_rules():
    anchors = np.array([0.1, 0.2, 0.3, 0.4])
    nan, inf = math.nan, math.inf
    for vals in ([nan, 1.0, 1.0, 0.5], [2.0, nan, 2.0, 3.0], [nan] * 4,
                 [-inf, -inf, nan, -inf], [0.0, -1.0, 0.0, nan]):
        assert norms._first_max(np.array(vals), anchors) == oracle_sup(vals, anchors)
    assert norms._first_max(np.array([]), anchors[:0]) == (-inf, 0j)


# ---------------------------------------------------------------------------
# bound-pruned suprema against the unpruned scans
# ---------------------------------------------------------------------------

PRUNE_WEIGHTS = ("std:1", "std:2", "exp:1:1", "exp:2:0.5")


def pruning_symbols():
    """Named symbols: monomials (rotated ones tie on every ring), random
    polynomials of degree 1 to 32, the log branch and the zero series."""
    out = {s: parse_symbol(s) for s in (
        "mono:0", "mono:1", "random:1:1", "random:4:1", "random:12:1",
        "random:24:1", "random:32:1", "log:64")}
    out["rotated mono:2"] = TaylorSeries.monomial(2, -1j)
    out["rotated mono:5"] = TaylorSeries.monomial(5, np.exp(0.7j))
    out["zero"] = TaylorSeries.zero()
    return out


def oracle_bloch(g, w, n_ang=2048):
    """The full-grid scan: every radial node sampled, blocks in node order,
    strict ``>`` between blocks."""
    P = frac_derivative(g, w)
    nodes, _ = radial_nodes()
    tails = np.asarray(w.tail(nodes), dtype=float)
    best, best_z = -np.inf, 0j
    for sl in norms._row_blocks(len(nodes), n_ang):
        vals = norms._sample_circle(P.coeffs, nodes[sl], n_ang)
        vals *= tails[sl][:, None]
        j = int(np.argmax(vals))
        if vals.ravel()[j] > best:
            best = float(vals.ravel()[j])
            ri, ai = divmod(j, n_ang)
            best_z = nodes[sl][ri] * np.exp(2j * np.pi * ai / n_ang)
    return best, complex(best_z)


def oracle_kernel_sup(g, w, anchors):
    """Every anchor's kernel value, then the first maximum."""
    return norms._first_max(bmoa_kernel_values(g, w, anchors),
                            anchors)


def assert_bloch_exact(g, w, name=""):
    est = norms.bloch_mu(g, w)
    assert (est.value, est.anchor) == oracle_bloch(g, w), name


def assert_kernel_exact(g, w, anchors, name=""):
    est = norms.bmoa_kernel_sup(g, w, anchors=anchors)
    assert (est.value, est.anchor) == oracle_kernel_sup(g, w, anchors), name


@pytest.mark.parametrize("weight", PRUNE_WEIGHTS)
def test_pruned_bloch_is_exact(weight):
    w = from_shorthand(weight)
    for name, g in pruning_symbols().items():
        assert_bloch_exact(g, w, name)


@pytest.mark.parametrize("weight", PRUNE_WEIGHTS)
def test_pruned_kernel_sup_is_exact(weight):
    # the default anchors; the origin twice, exact and rounded copies of
    # one radius and recurring radii
    w = from_shorthand(weight)
    for name, g in pruning_symbols().items():
        assert_kernel_exact(g, w, norms._kernel_anchor_set(), name)
        assert_kernel_exact(g, w, hand_anchors(), name)


def test_pruned_suprema_pick_first_tied_anchor():
    # rotated monomials tie on every ring: for every rotation of the input
    # the first anchor of the best ring wins, as in the unpruned scans
    w, g = from_shorthand("exp:2:0.5"), TaylorSeries.monomial(3, np.exp(2.0j))
    anchors = np.array([0.5, 0.25j, 0.75, -0.25, 0.25, -0.25j, 0.5j, 0.0])
    for i in range(len(anchors)):
        rotated = np.roll(anchors, -i)
        assert_kernel_exact(g, w, rotated)


@given(coeffs=st.lists(st.complex_numbers(max_magnitude=1.0,
                                          allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=11),
       weight=st.sampled_from(PRUNE_WEIGHTS))
@settings(max_examples=8)
def test_pruned_suprema_property(coeffs, weight):
    g, w = TaylorSeries.from_coeffs(coeffs), from_shorthand(weight)
    assert_bloch_exact(g, w)
    assert_kernel_exact(g, w, norms._kernel_anchor_set())


def test_bloch_samples_few_rows(monkeypatch):
    rows = []
    original = norms._sample_circle

    def counted(coeffs, radii, m):
        rows.append(len(radii))
        return original(coeffs, radii, m)

    monkeypatch.setattr(norms, "_sample_circle", counted)
    norms.bloch_mu(parse_symbol("random:32:1"), from_shorthand("std:1"))
    assert len(radial_nodes()[0]) == 2304
    assert sum(rows) <= 400


def test_kernel_sup_runs_few_ring_sweeps(monkeypatch):
    radii = []
    original = norms._KernelRings.coefficients

    def counted(self, t):
        radii.extend(np.atleast_1d(t))
        return original(self, t)

    monkeypatch.setattr(norms._KernelRings, "coefficients", counted)
    norms.bmoa_kernel_sup(parse_symbol("random:8:1"), from_shorthand("exp:1:1"))
    assert len(np.unique(np.abs(norms._kernel_anchor_set()))) == 18
    assert len(radii) <= 4


# ---------------------------------------------------------------------------
# live lags and the default anchors' phase table
# ---------------------------------------------------------------------------

class AllLagsMachine:
    """The square machine with a column for every lag 0..deg, live or not."""

    def __init__(self, P, H):
        nodes, _ = radial_nodes()
        self.k = np.arange(P.degree + 1)
        A = norms.angular_autocorr(P.coeffs, nodes)
        A *= (nodes * H(nodes))[:, None]
        self.lags = PanelFunction.from_values(A)

    def square_mass(self, anchors):
        t, inverse = np.unique(np.abs(anchors), return_inverse=True)
        G = norms._window_weights((1.0 - t) / 2.0, self.k) \
            * self.lags.suffix_integral(t)
        out = norms._phase_sum(G[inverse], np.angle(anchors)) / np.pi
        out[anchors == 0] = 2.0 * self.lags.suffix[0][0].real
        return out


SPARSE = {"mono:1": TaylorSeries.monomial(1), "mono:32": TaylorSeries.monomial(32),
          "z^2 + z^7": TaylorSeries.from_coeffs([0, 0, 1, 0, 0, 0, 0, 0.5j]),
          "lacunary": TaylorSeries.from_coeffs(
              np.bincount(2 ** np.arange(6), weights=2.0 ** (-np.arange(6) / 2))),
          "zero": TaylorSeries.zero(), "log:64": parse_symbol("log:64")}


@pytest.mark.parametrize("weight", ("std:1", "exp:1:1"))
@pytest.mark.parametrize("name", list(SPARSE))
def test_live_lags_match_every_lag(weight, name):
    w = from_shorthand(weight)
    P = frac_derivative(SPARSE[name], w)
    machine = norms.SquareMachine(P, norms._lp_factor(w))
    support = np.flatnonzero(P.coeffs)
    live = {int(n - m) for n in support for m in support if n >= m} | {0}
    assert machine.k.tolist() == sorted(live)
    assert machine.lags.suffix.shape[1] == len(live)
    anchors = np.concatenate([norms.default_anchors(), hand_anchors()])
    old = AllLagsMachine(P, norms._lp_factor(w)).square_mass(anchors)
    new = machine.square_mass(anchors)
    np.testing.assert_allclose(new, old, rtol=1e-14, atol=1e-14 * np.max(np.abs(old)))


def test_monomial_machine_has_one_lag():
    w = from_shorthand("std:1")
    for n in (0, 1, 8, 32):
        machine = norms.SquareMachine(frac_derivative(TaylorSeries.monomial(n), w),
                                      norms._lp_factor(w))
        assert machine.k.tolist() == [0] and machine.lags.suffix.shape[1] == 1


@pytest.mark.parametrize("symbol,classical", [
    ("random:8:1", False), ("random:32:1", False), ("log:64", True)])
def test_full_support_keeps_every_lag(symbol, classical):
    # log:64 has no constant term, so the lag 64 of its fractional
    # derivative is dead (see SPARSE); its derivative has full support
    w, g = from_shorthand("std:1"), parse_symbol(symbol)
    P = g.derivative() if classical else frac_derivative(g, w)
    machine = norms.SquareMachine(P, norms._lp_factor(w))
    assert machine.k.tolist() == list(range(P.degree + 1))
    old = AllLagsMachine(P, norms._lp_factor(w)).square_mass(norms.default_anchors())
    assert np.array_equal(machine.square_mass(norms.default_anchors()), old)


def test_default_phase_table_is_built_once(monkeypatch):
    monkeypatch.setattr(norms, "_DEFAULT_PHASES", None)
    angles = np.angle(norms.default_anchors())
    wide = norms._default_phases(40)
    assert np.array_equal(wide, np.exp(1j * np.outer(angles, np.arange(1, 41))))
    narrow = norms._default_phases(12)
    assert np.shares_memory(wide, narrow) and narrow.shape == (len(angles), 12)
    assert not narrow.flags.writeable
    wider = norms._default_phases(64)
    assert not np.shares_memory(wide, wider)
    assert np.array_equal(wider[:, :40], wide)


@pytest.mark.parametrize("symbol", ("mono:4", "random:12:2", "random:32:1", "log:64"))
def test_square_sups_with_and_without_the_table_agree(symbol):
    # the table's entries are those the phase sum forms for explicit anchors
    w, g = from_shorthand("exp:1:1"), parse_symbol(symbol)
    anchors = norms.default_anchors()
    for sup in (lambda a: norms.bmoa_mu_sup(g, w, anchors=a),
                lambda a: norms.bmoa_classical(g, anchors=a)):
        table, explicit = sup(None), sup(anchors)
        assert (table.value, table.anchor) == (explicit.value, explicit.anchor)
