"""Finite Taylor series and the weight-induced fractional calculus.

A series is a finite complex coefficient vector; index n holds the
coefficient of z^n.  The fractional derivative divides coefficient n by the
odd moment mu_{2n+1} of the driving weight, the fractional integral
multiplies by it, and the two-weight operator scales by the ratio of odd
moments of its numerator and denominator weights.  All operators act
coefficient-wise, so everything here is exact linear algebra on the cached
moment tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence, Union

import numpy as np

from .weights import RadialWeight, StandardWeight

Complexish = Union[complex, float]


@dataclass(frozen=True)
class TaylorSeries:
    """Immutable finite Taylor coefficient vector."""

    coefficients: tuple

    @classmethod
    def from_coeffs(cls, coeffs: Sequence[Complexish]) -> "TaylorSeries":
        arr = np.asarray(coeffs, dtype=complex)
        if arr.ndim != 1 or len(arr) == 0:
            raise ValueError("coefficients must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        # strip trailing zeros, keep at least the constant term
        n = len(arr)
        while n > 1 and arr[n - 1] == 0:
            n -= 1
        return cls(tuple(arr[:n]))

    @classmethod
    def monomial(cls, n: int, c: Complexish = 1.0) -> "TaylorSeries":
        if n < 0:
            raise ValueError("monomial degree must be nonnegative")
        coeffs = [0.0] * n + [c]
        return cls.from_coeffs(coeffs)

    @classmethod
    def zero(cls) -> "TaylorSeries":
        return cls((0j,))

    @property
    def coeffs(self) -> np.ndarray:
        return np.asarray(self.coefficients, dtype=complex)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @cached_property
    def support(self) -> tuple:
        """The indices of the nonzero coefficients, increasing."""
        return tuple(np.flatnonzero(self.coeffs).tolist())

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for c in self.coefficients[::-1]:
            out = out * z + c
        return out if out.ndim else complex(out)

    def __add__(self, other: "TaylorSeries") -> "TaylorSeries":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        out[: len(b)] += b
        return TaylorSeries.from_coeffs(out)

    def __sub__(self, other: "TaylorSeries") -> "TaylorSeries":
        return self + other.scale(-1.0)

    def scale(self, c: Complexish) -> "TaylorSeries":
        return TaylorSeries.from_coeffs(self.coeffs * c)

    def derivative(self, order: int = 1) -> "TaylorSeries":
        c = self.coeffs
        for _ in range(order):
            if len(c) == 1:
                c = np.zeros(1, dtype=complex)
                break
            c = c[1:] * np.arange(1, len(c))
        return TaylorSeries.from_coeffs(c)

    def shift(self, n: int) -> "TaylorSeries":
        """Multiply by z^n."""
        return TaylorSeries.from_coeffs(
            np.concatenate([np.zeros(n, dtype=complex), self.coeffs]))

    @classmethod
    def from_json(cls, text: str) -> "TaylorSeries":
        import json
        try:
            return cls.from_coeffs([complex(re, im) for re, im in json.loads(text)])
        except TypeError as e:
            raise ValueError(f"a series is a JSON list of [re, im] pairs: {e}") from e


def frac_derivative(f: TaylorSeries, w: RadialWeight) -> TaylorSeries:
    """Coefficient n -> f_n / mu_{2n+1}.  A moment that underflowed to 0
    (steep exp: weights) gives a non-finite coefficient, which
    :meth:`TaylorSeries.from_coeffs` refuses with no numpy warning first."""
    mus = w.odd_moments(f.degree + 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        coeffs = f.coeffs / mus
    return TaylorSeries.from_coeffs(coeffs)


def frac_integral(f: TaylorSeries, w: RadialWeight) -> TaylorSeries:
    """Coefficient n -> mu_{2n+1} f_n; exact inverse of frac_derivative."""
    mus = w.odd_moments(f.degree + 1)
    return TaylorSeries.from_coeffs(f.coeffs * mus)


def frac_R(f: TaylorSeries, w_num: RadialWeight, w_den: RadialWeight) -> TaylorSeries:
    """Coefficient n -> (num_{2n+1} / den_{2n+1}) f_n; a non-finite one is
    refused as by :func:`frac_derivative`."""
    num = w_num.odd_moments(f.degree + 1)
    den = w_den.odd_moments(f.degree + 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        coeffs = f.coeffs * num / den
    return TaylorSeries.from_coeffs(coeffs)


@dataclass(frozen=True)
class KernelSlice:
    """Reproducing kernel of A^2_w anchored at z, truncated to N terms."""

    weight: RadialWeight
    z: complex
    truncation: int

    def coefficients(self) -> np.ndarray:
        mus = self.weight.odd_moments(self.truncation + 1)
        n = np.arange(self.truncation + 1)
        return np.conj(self.z) ** n / (2.0 * mus)

    def series(self) -> TaylorSeries:
        return TaylorSeries.from_coeffs(self.coefficients())


@lru_cache(maxsize=None)
def _star_iterate(n: int) -> RadialWeight:
    return StandardWeight(1.0).iterate_star(n)


# keyed by the weight object itself, which the cache keeps alive
@lru_cache(maxsize=16)
def _v_iterate_of_mu_plus(w: RadialWeight, n: int) -> RadialWeight:
    return w.mu_plus().iterate_V(n)


def frac_rep_identity_check(f: TaylorSeries, w: RadialWeight, n: int,
                            z_grid=None) -> float:
    """Residual of the n-th order representation of the fractional derivative.

    Left side: D(f) through the coefficient multipliers 1/mu_{2j+1}.
    Right side: the head sum_{j<n} f_j / mu_{2j+1} z^j plus
    4^n z^n R^{W_n, V_n}(f^(n)) built from the star-iterates of the constant
    weight and the V-iterates of mu_plus, whose moments come from nested
    quadrature -- an independent computational path.  A large residual
    signals a normalisation bug in the moment bookkeeping.
    """
    if n not in (1, 2):
        raise ValueError("representation identity implemented for n in {1, 2}")
    lhs = frac_derivative(f, w)

    w_star = _star_iterate(n)
    v_iter = _v_iterate_of_mu_plus(w, n)

    fn = f.derivative(n)
    rn = frac_R(fn, w_star, v_iter)
    head = TaylorSeries.from_coeffs(
        f.coeffs[:n] / w.odd_moments(min(n, f.degree + 1)))
    rhs = head + rn.shift(n).scale(4.0 ** n)

    if z_grid is None:
        radii = np.array([0.0, 0.2, 0.4, 0.6, 0.8])
        angles = np.exp(1j * np.linspace(0.0, 2 * np.pi, 8, endpoint=False))
        z_grid = (radii[:, None] * angles[None, :]).ravel()
    diff = lhs(z_grid) - rhs(z_grid)
    return float(np.max(np.abs(diff)))
