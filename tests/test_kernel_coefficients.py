"""The closed-form lambda = 2 kernel coefficients of the BMOA kernel
supremum: khat_k(q) = (1/2pi) int cos(k psi) |1 - q e^(i psi)|^-3 d psi.

Oracles: mpmath quadrature at 30 digits, and the ring FFTs that serve
every other lambda.
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


@pytest.mark.parametrize("weight", ("std:1", "std:2", "exp:1:1"))
def test_khat_matches_fft_on_every_default_ring(weight):
    # the forward recurrence just above the 0.9 switch loses most: about
    # 1.8e-12 of khat_0 at k = 32 (the FFT agrees with mpmath there)
    rings = norms._KernelRings(parse_symbol("random:32:1"),
                               from_shorthand(weight), norms.KERNEL_SPEC)
    for t in np.unique(np.abs(norms._kernel_anchor_set())):
        q = t * rings.nodes
        closed = norms._laplace_khat(q, rings.degree)
        fft = rings.fft_khat(q, 2.0)
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
    norms.bmoa_kernel_values(g, w, 2.0, norms._kernel_anchor_set())
    assert calls == []
    norms.bmoa_kernel_sup(g, w, 1.5)
    assert calls


def test_fft_path_refuses_anchors_beyond_its_resolution():
    # the ring grids stop at 16384 samples, so for |a| > 1 - 2^-8 they
    # miss the kernel peak (at 1 - 2^-14 the FFT value was 6.6% off)
    w, g = from_shorthand("std:1"), parse_symbol("random:8:1")
    far = np.array([0.5, (1.0 - 2.0 ** -10) * 1j])
    with pytest.raises(ValueError):
        norms.bmoa_kernel_values(g, w, 1.5, far)
    with pytest.raises(ValueError):
        norms.bmoa_kernel_sup(g, w, 1.5, anchors=far)
    assert math.isfinite(norms.bmoa_kernel_sup(g, w, 1.5).value)
    near = np.array([1.0 - 2.0 ** -j for j in (10, 12, 14)])
    vals = norms.bmoa_kernel_values(g, w, 2.0, near)
    assert np.all(np.isfinite(vals)) and np.all(vals > 0)
