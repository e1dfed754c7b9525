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
    norms.bmoa_kernel_values(g, w, norms._kernel_anchor_set())
    assert calls == []


def test_fft_path_refuses_anchors_beyond_its_resolution():
    # a ring FFT capped at 16384 samples misses the kernel peak for
    # |a| > 1 - 2^-8 (at 1 - 2^-14 it was 6.6% off); the closed form serves
    # every anchor up to the boundary
    w, g = from_shorthand("std:1"), parse_symbol("random:8:1")
    near = np.array([1.0 - 2.0 ** -j for j in (10, 12, 14)])
    vals = norms.bmoa_kernel_values(g, w, near)
    assert np.all(np.isfinite(vals)) and np.all(vals > 0)
