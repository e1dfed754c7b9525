"""Exact rational truths for the standard weights std:k, k a whole number.

For std:k the density k (1 - s^2)^(k-1) is a polynomial, so the tail
mu_hat(r) = int_r^1 mu, the radial factor H = mu_hat^2 / (1 - r) of the
BMOA Carleson measure and every radial integral int_t^1 r^q H(r) dr are
polynomials or rationals.  Every float radius is a dyadic rational, so the
truths here are ``fractions.Fraction`` values, with no precision to choose;
a Carleson square off the origin adds one factor 1/pi.

Polynomials are coefficient lists, lowest degree first, of Fractions.
Nothing here calls the package.
"""

from fractions import Fraction
from math import comb, factorial, pi


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_eval(a, x):
    x = Fraction(x)
    out = Fraction(0)
    for c in reversed(a):
        out = out * x + c
    return out


def antiderivative(a):
    """The antiderivative of ``a`` that vanishes at 0."""
    return [Fraction(0)] + [c / (i + 1) for i, c in enumerate(a)]


def suffix(a, t):
    """int_t^1 a(r) dr."""
    big = antiderivative(a)
    return poly_eval(big, 1) - poly_eval(big, t)


def monomial(n, scale=1):
    return [Fraction(0)] * n + [Fraction(scale)]


def std_density(k):
    """k (1 - s^2)^(k-1)."""
    out = [Fraction(0)] * (2 * k - 1)
    for j in range(k):
        out[2 * j] = Fraction(k * comb(k - 1, j) * (-1) ** j)
    return out


def std_tail(k):
    """mu_hat(r) = int_r^1 k (1 - s^2)^(k-1) ds."""
    big = antiderivative(std_density(k))
    return [poly_eval(big, 1) - big[0]] + [-c for c in big[1:]]


def divide_one_minus_r(a):
    """a(r) / (1 - r), which must leave no remainder."""
    # a = (1 - r) q: q_0 = a_0 and q_i = a_i + q_(i-1)
    q, carry = [], Fraction(0)
    for c in a[:-1]:
        carry += c
        q.append(carry)
    if carry + a[-1] != 0:
        raise ValueError("polynomial has no factor 1 - r")
    return q


def lp_factor(k):
    """H(r) = mu_hat(r)^2 / (1 - r) of std:k."""
    tail = std_tail(k)
    return divide_one_minus_r(poly_mul(tail, tail))


def odd_moment(k, n):
    """mu_(2n+1) of std:k: (k/2) n! (k-1)! / (n+k)!."""
    return Fraction(k * factorial(n) * factorial(k - 1), 2 * factorial(n + k))


def square_mass(radial, t):
    """nu(S(a)) for |a| = t of the radial measure |P|^2 H dA whose
    r |P|^2 H is the polynomial ``radial``: the whole disc 2 int_0^1 at
    t = 0, else (1 - t)/pi int_t^1, the window of half-width (1 - t)/2."""
    t = Fraction(t)
    if t == 0:
        return float(2 * suffix(radial, 0))
    return float((1 - t) * suffix(radial, t)) / pi


def bmoa_radial(k, n):
    """r |D(z^n)|^2 H(r) for std:k: r^(2n+1) H(r) / mu_(2n+1)^2."""
    return poly_mul(monomial(2 * n + 1, 1 / odd_moment(k, n) ** 2), lp_factor(k))


def classical_radial(n):
    """r |(z^n)'|^2 (1 - r^2) = n^2 r^(2n-1) (1 - r^2)."""
    return poly_mul(monomial(2 * n - 1, n * n), [1, 0, -1])
