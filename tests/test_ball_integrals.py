"""The vectorised ball integrals against the per-anchor loops they replaced.

``ball_integrals`` integrates over every hyperbolic ball in one pass;
``bloch_mu_lattice``, ``carleson_ratio_sup`` (alpha > -1) and
``lattice_schatten_sum`` are built on it.  The oracle here is the earlier
form: one ``disc_quadrature`` rule per anchor, written out below with its
own node formula, and a Python loop over the anchors.
"""

import math

import numpy as np
import pytest

from fracvolt import TaylorSeries, frac_derivative, norms
from fracvolt import volterra as vo
from fracvolt.geometry import (ball_integrals, build_lattice, disc_quadrature,
                               hyperbolic_disc_params)
from fracvolt.quad import gauss_rule
from conftest import random_polynomial

RTOL = 1e-12


def loop_disc_quadrature(a, r, n_rad=24, n_ang=48):
    """One ball's polar product rule, formed as before the vectorisation."""
    center, radius = hyperbolic_disc_params(complex(a), r)
    x, w = gauss_rule(n_rad)
    t = 0.5 * (x + 1.0)
    tw = 0.5 * w
    theta = 2.0 * np.pi * np.arange(n_ang) / n_ang
    pts = center + radius * t[:, None] * np.exp(1j * theta)[None, :]
    wts = 2.0 * radius ** 2 * (tw * t)[:, None] * np.ones(n_ang)[None, :] / n_ang
    return pts.ravel(), wts.ravel()


def loop_ball_integrals(F, anchors, r, n_rad=24, n_ang=48):
    out = []
    for a in anchors:
        pts, wts = loop_disc_quadrature(a, r, n_rad, n_ang)
        out.append(float(np.sum(wts * F(pts))))
    return np.array(out)


def tail_density(P, w, p, radial):
    def F(z):
        rr = np.abs(z)
        return (np.abs(P(z)) ** p * np.asarray(w.tail(rr), dtype=float) ** p
                * radial(rr))
    return F


@pytest.fixture(scope="module")
def anchors():
    return norms.default_anchors(depth=8)


def test_single_ball_rule_matches_loop_rule():
    for a in (0.0, 0.3 - 0.6j, 0.97j):
        pts, wts = disc_quadrature(a, 0.4)
        ref_pts, ref_wts = loop_disc_quadrature(a, 0.4)
        np.testing.assert_allclose(pts, ref_pts, rtol=RTOL, atol=1e-15)
        np.testing.assert_allclose(wts, ref_wts, rtol=RTOL)


@pytest.mark.parametrize("n_rad,n_ang", [(24, 48), (6, 12)])
def test_ball_integrals_match_loop(anchors, n_rad, n_ang):
    def F(z):
        return np.abs(z) ** 2 + np.real(z) + 2.0
    got = ball_integrals(F, anchors, 0.5, n_rad, n_ang)
    ref = loop_ball_integrals(F, anchors, 0.5, n_rad, n_ang)
    assert got.shape == (len(anchors),)
    np.testing.assert_allclose(got, ref, rtol=RTOL)


def test_ball_integrals_of_no_anchors_is_empty():
    assert ball_integrals(np.abs, np.array([], dtype=complex), 0.5).shape == (0,)


@pytest.mark.parametrize("p,alpha", [(2.0, 0.0), (3.0, 1.5)])
def test_bloch_mu_lattice_matches_loop(std1, rng, anchors, p, alpha):
    g = random_polynomial(rng, 8)
    P = frac_derivative(g, std1)
    F = tail_density(P, std1, p, lambda rr: (1.0 - rr) ** alpha)
    ref = loop_ball_integrals(F, anchors, 0.5) \
        / (1.0 - np.abs(anchors)) ** (alpha + 2.0)
    est = norms.bloch_mu_lattice(g, std1, p, alpha)
    i = int(np.argmax(ref))
    np.testing.assert_allclose(est.value, ref[i], rtol=RTOL)
    assert est.anchor == anchors[i]
    assert math.isnan(est.err)


def test_carleson_ratio_sup_matches_loop(std2, rng):
    g = random_polynomial(rng, 6)
    alpha = 0.5
    anchors = norms.default_anchors(depth=10)
    P = frac_derivative(g, std2)
    F = tail_density(P, std2, 2.0,
                     lambda rr: (alpha + 1.0) * (1.0 - rr ** 2) ** alpha)
    ref = loop_ball_integrals(F, anchors, 0.5) \
        / (1.0 - np.abs(anchors)) ** (2.0 + alpha)
    est = norms.carleson_ratio_sup(g, std2, alpha)
    i = int(np.argmax(ref))
    np.testing.assert_allclose(est.value, ref[i], rtol=RTOL)
    assert est.anchor == anchors[i]


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_lattice_schatten_sum_matches_loop(std1, p):
    g = TaylorSeries.from_coeffs([0.5, 1.0, -0.25j])
    lat = build_lattice(0.5, seed=0, max_radius=0.99, verify=False)
    P = frac_derivative(g, std1)
    per = loop_ball_integrals(tail_density(P, std1, 2.0, lambda rr: 1.0),
                              lat.points, lat.separation)
    ref = float(np.sum((per / (1.0 - np.abs(lat.points) ** 2) ** 2)
                       ** (p / 2.0)))
    est = vo.lattice_schatten_sum(std1, g, p, lat)
    np.testing.assert_allclose(est.value, ref, rtol=RTOL)
