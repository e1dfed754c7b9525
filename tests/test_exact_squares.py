"""Carleson-square masses and BMOA suprema of monomials against exact
rational truths (``exact_std``).

For g = z^n the density |D(g)|^2 = r^(2n) / mu_(2n+1)^2 is radial, so a
square's mass is its window 1 - |a| times a radial integral, and for std:1
and std:2 that integral is a polynomial one.  The radii cover the origin,
panel edges 1 - 2^-j, radii inside a panel and every radius of the default
anchor set.
"""

from fractions import Fraction
from math import pi

import numpy as np
import pytest

from fracvolt import from_shorthand, frac_derivative, norms
from fracvolt.cli import parse_symbol

import exact_std as ex

RTOL = 1e-13
RADII = sorted({0.0, *(1.0 - 2.0 ** -j for j in (2, 5, 9)), 3 / 8, 11 / 16,
                1.0 - 3 * 2.0 ** -7,
                *np.unique(np.abs(norms.default_anchors())).tolist()})


def test_exact_std_matches_closed_forms():
    # std:1 is Lebesgue measure with mu_hat = 1 - r, H = 1 - r; std:2 has
    # mu_hat = (2/3)(1-r)^2(2+r), so H = (4/9)(1-r)^3(2+r)^2
    assert ex.lp_factor(1) == [1, -1]
    r = Fraction(3, 7)
    assert ex.poly_eval(ex.lp_factor(2), r) == \
        Fraction(4, 9) * (1 - r) ** 3 * (2 + r) ** 2
    for k in (1, 2, 3):
        for n in (0, 1, 5):
            moment = ex.suffix(ex.poly_mul(ex.monomial(2 * n + 1),
                                           ex.std_density(k)), 0)
            assert moment == ex.odd_moment(k, n)
    # int_(1/2)^1 (r - r^3) dr = 9/64, times the window 1/2
    assert ex.square_mass(ex.classical_radial(1), 0.5) == 9 / 128 / pi


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [1, 3])
def test_bmoa_square_masses_are_exact(k, n):
    w, g = from_shorthand(f"std:{k}"), parse_symbol(f"mono:{n}")
    machine = norms.SquareMachine(frac_derivative(g, w), norms._lp_factor(w))
    radial = ex.bmoa_radial(k, n)
    truth = np.array([ex.square_mass(radial, t) for t in RADII])
    # the mass of a monomial is rotation invariant, and |-t| = |it| = t
    for turn in (1.0, -1.0, 1j):
        np.testing.assert_allclose(machine.square_mass(turn * np.array(RADII)),
                                   truth, rtol=RTOL)
    ratios = truth / (1.0 - np.array(RADII))
    anchors = norms.default_anchors()
    best = max(ratios[RADII.index(t)] for t in np.abs(anchors).tolist())
    np.testing.assert_allclose(norms.bmoa_mu_sup(g, w).value, best, rtol=RTOL)


@pytest.mark.parametrize("n", [1, 3])
def test_classical_square_masses_are_exact(n):
    g = parse_symbol(f"mono:{n}")
    machine = norms.SquareMachine(g.derivative(), lambda r: 1.0 - r * r)
    radial = ex.classical_radial(n)
    truth = np.array([ex.square_mass(radial, t) for t in RADII])
    np.testing.assert_allclose(machine.square_mass(np.array(RADII)), truth,
                               rtol=RTOL)
    ratios = truth / (1.0 - np.array(RADII))
    best = max(ratios[RADII.index(t)]
               for t in np.abs(norms.default_anchors()).tolist())
    np.testing.assert_allclose(norms.bmoa_classical(g).value, best, rtol=RTOL)
