"""The closed-form lambda = 2 kernel coefficients of the BMOA kernel
supremum: khat_k(q) = (1/2pi) int cos(k psi) |1 - q e^(i psi)|^-3 d psi.

Oracles: mpmath quadrature at 30 digits, and a ring FFT of the sampled
kernel (:func:`ring_fft_khat`).
"""

import math

import mpmath as mp
import numpy as np
import pytest

from fracvolt import norms
from fracvolt.cli import parse_symbol
from fracvolt.weights import from_shorthand
from conftest import bmoa_kernel_values

QS = (0.0, 1e-8, 0.3, 0.9 - 1e-9, 0.9 + 1e-9, 0.99, 1.0 - 2.0 ** -8,
      1.0 - 2.0 ** -14)
KS = (0, 1, 2, 7, 32)


def mp_khat(q, k):
    """(1/pi) int_0^pi cos(k psi) (1 - 2q cos psi + q^2)^(-3/2) d psi at
    30 digits, on pieces that shrink geometrically toward the peak at 0."""
    with mp.workdps(30):
        q = mp.mpf(q)
        f = lambda psi: mp.cos(k * psi) / (1 - 2 * q * mp.cos(psi) + q * q) ** 1.5
        h = max(1 - q, mp.mpf(2) ** -20)
        cuts = [0] + [h * 4 ** j for j in range(12) if h * 4 ** j < 1] + [1]
        cuts += [1 + (mp.pi - 1) * j / 8 for j in range(1, 9)]
        return float(mp.quad(f, cuts, maxdegree=10) / mp.pi)


@pytest.mark.parametrize("q", QS)
def test_khat_matches_mpmath(q):
    khat = norms._laplace_khat(np.array([q]), 32)[0]
    ref0 = mp_khat(q, 0)
    for k in KS:
        assert abs(khat[k] - mp_khat(q, k)) <= 1e-12 * ref0, k


@pytest.mark.parametrize("q", (0.974 - 1e-9, 0.974 + 1e-9, 0.99))
def test_khat_matches_mpmath_at_degree_128(q):
    # above degree 32 the forward recurrence starts later (0.9^(32/128)
    # = 0.974 at degree 128); a fixed 0.9 switch lost 1e-9 of khat_0 here
    khat = norms._laplace_khat(np.array([q]), 128)[0]
    ref0 = mp_khat(q, 0)
    for k in (0, 1, 64, 128):
        assert abs(khat[k] - mp_khat(q, k)) <= 1e-10 * ref0, k


def test_degree_zero_and_the_origin_are_exact():
    assert norms._laplace_khat(np.array([0.0, 0.5]), 0).shape == (2, 1)
    np.testing.assert_array_equal(norms._laplace_khat(np.zeros(3), 4),
                                  np.tile([1.0, 0, 0, 0, 0], (3, 1)))


def test_agm_matches_mpmath():
    q = np.array([0.0, 0.3, 0.9, 0.99, 1.0 - 2.0 ** -14, 1.0 - 2.0 ** -40])
    K, E = norms._elliptic_ke(q)
    with mp.workdps(30):
        for i, qi in enumerate(q):
            m = mp.mpf(qi) ** 2
            assert abs(K[i] / float(mp.ellipk(m)) - 1.0) < 4e-15
            assert abs(E[i] / float(mp.ellipe(m)) - 1.0) < 4e-15


def ring_fft_khat(q, d):
    """khat_k(q) for k = 0..d per ring (rows) from the FFT of the kernel
    sampled on 64 / (1 - q) angles per ring, a power of two between
    max(256, 2d + 4) and 16384, in blocks of at most 2^17 samples."""
    khat = np.empty((len(q), d + 1))
    m_lo = max(256, 2 ** math.ceil(math.log2(2 * d + 4)))
    m_per_ring = np.clip(64.0 / (1.0 - q), m_lo, 16384)
    m_per_ring = (2 ** np.ceil(np.log2(m_per_ring))).astype(int)
    for m in np.unique(m_per_ring):
        sel = np.flatnonzero(m_per_ring == m)
        psi = 2.0 * np.pi * np.arange(m) / m
        for i in range(0, len(sel), max(1, 2 ** 17 // m)):
            rows = sel[i:i + max(1, 2 ** 17 // m)]
            c = q[rows][:, None]
            K = ((1.0 - c * np.cos(psi)) ** 2 + (c * np.sin(psi)) ** 2) ** -1.5
            khat[rows] = np.fft.rfft(K, axis=1)[:, :d + 1].real / m
    return khat


@pytest.mark.parametrize("weight", ("std:1", "std:2", "exp:1:1"))
def test_khat_matches_fft_on_every_default_ring(weight):
    # the forward recurrence just above the 0.9 switch loses most: about
    # 1.8e-12 of khat_0 at k = 32 (the FFT agrees with mpmath there)
    rings = norms._KernelRings(parse_symbol("random:32:1"),
                               from_shorthand(weight))
    for t in np.unique(np.abs(norms._kernel_anchor_set())):
        q = t * rings.nodes
        closed = norms._laplace_khat(q, rings.degree)
        fft = ring_fft_khat(q, rings.degree)
        assert np.all(np.abs(closed - fft) <= 1e-11 * fft[:, :1]), t


def test_lambda_2_runs_no_ring_fft(monkeypatch):
    calls = []
    rfft = np.fft.rfft

    def counted(*args, **kwargs):
        calls.append(1)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counted)
    w, g = from_shorthand("std:1"), parse_symbol("random:24:1")
    norms.bmoa_kernel_sup(g, w)
    bmoa_kernel_values(g, w, norms._kernel_anchor_set())
    assert calls == []


def test_fft_path_refuses_anchors_beyond_its_resolution():
    # a ring FFT capped at 16384 samples misses the kernel peak for
    # |a| > 1 - 2^-8 (at 1 - 2^-14 it was 6.6% off); the closed form serves
    # every anchor up to the boundary
    w, g = from_shorthand("std:1"), parse_symbol("random:8:1")
    near = np.array([1.0 - 2.0 ** -j for j in (10, 12, 14)])
    vals = bmoa_kernel_values(g, w, near)
    assert np.all(np.isfinite(vals)) and np.all(vals > 0)


# ---------------------------------------------------------------------------
# the batched recurrence against the fixed-start routine it replaced
# ---------------------------------------------------------------------------

def oracle_elliptic_ke(q):
    """The AGM run until every row of the batch has converged."""
    a = np.ones_like(q)
    b = np.sqrt((1.0 - q) * (1.0 + q))
    c, scale = q, 0.5
    s = scale * c * c
    for _ in range(64):
        if not np.any(c > 2.0 ** -53 * a):
            break
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        scale *= 2.0
        s += scale * c * c
    K = np.pi / (2.0 * a)
    return K, K * (1.0 - s)


def oracle_khat(q, d):
    """khat with a batch-wide AGM and every backward row started at
    n = d + ceil(20 / -ln switch)."""
    s = 1.5
    K, E = oracle_elliptic_ke(q)
    w = (1.0 - q) * (1.0 + q)
    out = np.empty((len(q), d + 1))
    out[:, 0] = (2.0 / np.pi) * (2.0 * E - w * K) / w ** 2
    if d == 0:
        return out
    switch = 0.9 ** min(1.0, 32.0 / d)
    up = q > switch
    if np.any(up):
        qu, x = q[up], q[up] + 1.0 / q[up]
        b = out[up]
        b[:, 1] = (2.0 / np.pi) * ((1.0 + qu * qu) * E[up] - w[up] * K[up]) \
            / (qu * w[up] ** 2)
        for k in range(1, d):
            b[:, k + 1] = (k * x * b[:, k] - (k + s - 1.0) * b[:, k - 1]) \
                / (k - s + 1.0)
        out[up] = b
    down = ~up
    if np.any(down):
        qd = q[down]
        qq = 1.0 + qd * qd
        r = np.zeros(len(qd))
        ratios = np.empty((len(qd), d + 1))
        ratios[:, 0] = out[down, 0]
        for k in range(d + math.ceil(20.0 / -math.log(switch)), 0, -1):
            r = (k + s - 1.0) * qd / (k * qq - (k - s + 1.0) * qd * r)
            if k <= d:
                ratios[:, k] = r
        out[down] = np.cumprod(ratios, axis=1)
    return out


@pytest.mark.parametrize("d", (0, 1, 4, 24, 32, 64, 128))
def test_khat_matches_fixed_start_routine(d):
    q = np.concatenate([np.linspace(0.0, 0.999, 4001), QS])
    new, old = norms._laplace_khat(q, d), oracle_khat(q, d)
    assert np.all(np.abs(new - old) <= 1e-14 * old[:, :1])


def special_qs():
    switch = 0.9 ** (32.0 / 64)
    return np.array([0.0, 0.0, 1e-300, 1e-8, 0.5, 0.9 - 1e-9, 0.9 + 1e-9,
                     switch - 1e-9, switch + 1e-9, 0.99, 1.0 - 2.0 ** -14])


@pytest.mark.parametrize("d", (0, 1, 24, 64))
def test_khat_rows_do_not_depend_on_their_batch(d):
    rng = np.random.default_rng(7)
    q = np.concatenate([special_qs(), rng.uniform(0.0, 1.0 - 2.0 ** -14, 300)])
    alone = np.vstack([norms._laplace_khat(q[i:i + 1], d) for i in range(len(q))])
    batch = norms._laplace_khat(q, d)
    assert np.array_equal(batch, alone)
    perm = rng.permutation(len(q))
    assert np.array_equal(norms._laplace_khat(q[perm], d), alone[perm])
    twice = norms._laplace_khat(np.concatenate([q, q[::-1]]), d)
    assert np.array_equal(twice, np.vstack([alone, alone[::-1]]))
    ordered = np.sort(q)[::-1]
    assert np.array_equal(norms._laplace_khat(ordered, d),
                          alone[np.argsort(-q, kind="stable")])


def test_elliptic_rows_do_not_depend_on_their_batch():
    q = special_qs()
    K, E = norms._elliptic_ke(q)
    for i, qi in enumerate(q):
        Ki, Ei = norms._elliptic_ke(np.array([qi]))
        assert (K[i], E[i]) == (Ki[0], Ei[0])


def test_agm_rows_stop_on_their_own(monkeypatch):
    # each AGM step takes the square root over the rows still running: q = 0
    # never runs, and q = 1/2 stops before q = 1 - 2^-40
    sizes = []
    sqrt = np.sqrt

    def counted(x, *args, **kwargs):
        sizes.append(np.size(x))
        return sqrt(x, *args, **kwargs)

    monkeypatch.setattr(np, "sqrt", counted)
    norms._elliptic_ke(np.array([0.0, 0.5, 1.0 - 2.0 ** -40]))
    assert sizes[:2] == [3, 2] and sizes[-1] == 1
    assert sizes[1:] == sorted(sizes[1:], reverse=True)


def test_backward_rows_start_at_their_own_height(monkeypatch):
    # each backward step divides once over the rows still running: a row
    # of q = 0 takes no step, q = 1/2 takes d + ceil(20 / ln 2) = d + 29,
    # and q = 0.9 the full d + 190
    sizes = []
    divide = np.divide

    def counted(*args, **kwargs):
        if len(args) == 3:      # the recurrence's divide into its output row
            sizes.append(np.size(args[2]))
        return divide(*args, **kwargs)

    monkeypatch.setattr(np, "divide", counted)
    d = 4
    norms._laplace_khat(np.zeros(5), d)
    assert sizes == []
    norms._laplace_khat(np.array([0.5, 0.0, 0.0]), d)
    assert sizes == [1] * (d + 29)
    sizes.clear()
    norms._laplace_khat(np.array([0.9, 0.5, 0.0]), d)
    assert sizes == [1] * (190 - 29) + [2] * (d + 29)
    monkeypatch.setattr(np, "divide", divide)
    np.testing.assert_array_equal(norms._laplace_khat(np.array([0.0]), d),
                                  [[1.0, 0.0, 0.0, 0.0, 0.0]])


def test_kernel_sup_takes_one_khat_call_per_wave(monkeypatch):
    calls = []
    original = norms._laplace_khat

    def counted(q, d):
        calls.append(len(q))
        return original(q, d)

    monkeypatch.setattr(norms, "_laplace_khat", counted)
    w, g = from_shorthand("std:1"), parse_symbol("random:24:1")
    rings = norms._KernelRings(g, w)
    radii = len(np.unique(np.abs(norms._kernel_anchor_set())))
    monkeypatch.setattr(norms, "KHAT_ELEMENTS", 2 ** 40)
    whole = norms.bmoa_kernel_sup(g, w)
    # wave 1: the radius of largest bound; wave 2: every radius left
    assert calls == [len(rings.nodes), (radii - 1) * len(rings.nodes)]
    calls.clear()
    monkeypatch.setattr(norms, "KHAT_ELEMENTS", 1)
    one = norms.bmoa_kernel_sup(g, w)
    assert calls == [len(rings.nodes)] * radii
    assert (one.value, one.anchor) == (whole.value, whole.anchor)


def test_kernel_coefficients_do_not_depend_on_their_batch():
    w, g = from_shorthand("exp:1:1"), parse_symbol("random:12:3")
    rings = norms._KernelRings(g, w)
    ts = np.unique(np.abs(norms._kernel_anchor_set()))[::-1]
    batch = rings.coefficients(ts)
    assert batch.shape == (len(ts), g.degree + 1)
    for j, t in enumerate(ts):
        assert np.array_equal(rings.coefficients(t), batch[j])
    assert np.array_equal(rings.coefficients(ts[::2]), batch[::2])
