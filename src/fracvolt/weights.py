"""Radial weights on [0, 1): families, tails, moments and derived weights.

A radial weight is a nonnegative integrable density mu on [0, 1) with
positive tail  mu_hat(r) = int_r^1 mu(s) ds.  Everything downstream is
driven by the moments  mu_x = int_0^1 s^x mu(s) ds.

Families
--------
* ``StandardWeight(beta)``  --  mu(s) = beta (1 - s^2)^(beta - 1).  Moments
  and tails have Beta-function closed forms, validated once against
  quadrature in the test suite.
* ``ExponentialWeight(c, gamma)``  --  defined through its tail
  mu_hat(r) = exp(-c / (1 - r)^gamma); the density is the exact derivative.
  Tail ratios and moments are available in log space, since the plain values
  underflow long before the diagnostic grids bottom out.
* ``ExprWeight(formula)`` / ``TailExprWeight(formula)``  --  densities (or
  tails) given by a parsed formula in ``r``; tail formulas are differentiated
  symbolically to recover the density.
* ``DerivedWeight``  --  mu_plus, the iterated weights V_{.,n} and the
  log-kernel star iterates, the Schatten cut-off weight tail^p / (1-r)^2,
  and multiplication by (1 - r)^eta.

Every weight's quadrature data lives on the one reference grid of
:mod:`fracvolt.quad`; no weight carries a rule of its own.  Derived weights
are materialised as their values at that grid's nodes
(:class:`fracvolt.quad.PanelFunction`), so nested integrals reduce to suffix
integrals of per-panel Legendre interpolants of smooth data; log-type
endpoint singularities are split off analytically before interpolation.

Weights are immutable after construction except for internal caches, which
are idempotent (duplicate computation yields identical values), so concurrent
readers are safe.  The arrays a weight hands out from those caches (its odd
moments, its grid log density, its panel function's values and suffix sums)
are read-only, so a caller's in-place write raises instead of changing what
the next caller reads.

Weights are interned per process by their shorthand text:
:func:`from_shorthand` returns one shared weight per text from an LRU of
WEIGHT_CACHE_SIZE entries, so requests that name the same weight share its
moment table, panel function and log density.  Sharing is safe because the
caches are idempotent and the arrays read-only: a request's output does not
depend on which requests ran before it.  Constructing a class (e.g.
``StandardWeight(1.0)``) always gives a fresh weight with empty caches.
"""

from __future__ import annotations

import functools
import json
import math
from typing import Optional

import numpy as np

from .expr import Expression, ExprError
from .quad import PanelFunction, log_moments, radial_diverges, radial_nodes

MAX_ITERATE_DEPTH = 4

# Weights kept by from_shorthand.  A weight with its caches filled holds
# 28-47 KB; the fixed weights of a workload are a handful, and drawn
# weights (one per request) only churn the least recently used entries.
WEIGHT_CACHE_SIZE = 16

_PROBE = np.concatenate([np.linspace(0.0, 0.98, 50),
                         1.0 - 2.0 ** -np.arange(6, 41, 2.0)])


class WeightError(Exception):
    """Invalid weight definition or evaluation outside the domain."""


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, with writes through it (and through views of it) refused."""
    a.flags.writeable = False
    return a


def _check_domain(r):
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0) or np.any(r >= 1.0):
        raise WeightError("radius outside [0, 1)")
    return r


def _on_radii(method):
    """Check the radii, run ``method`` on them as a 1-D array, and give a
    float back for a scalar radius."""
    @functools.wraps(method)
    def on_radii(self, r):
        r = _check_domain(r)
        out = method(self, np.atleast_1d(r))
        return out if np.ndim(r) else float(out[0])
    return on_radii


class RadialWeight:
    """Base class: density/tail/moment evaluation with idempotent caches."""

    kind = "abstract"

    def __init__(self):
        self._pf: Optional[PanelFunction] = None
        # log mu at the reference nodes: the moment kernel's input
        self._grid_log_density: Optional[np.ndarray] = None
        self._moment_cache: dict = {}
        self._odd_cache = np.empty(0)

    # -- density ---------------------------------------------------------
    def _density(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @_on_radii
    def density(self, r):
        """mu(r); raises on r outside [0,1) or on invalid values."""
        vals = np.asarray(self._density(r), dtype=float)
        if np.any(np.isnan(vals)) or np.any(vals < 0.0):
            raise WeightError(f"weight {self.label()} produced invalid density")
        return vals

    def panel_function(self) -> PanelFunction:
        if self._pf is None:
            pf = PanelFunction.from_callable(self._density)
            _read_only(pf.values)
            _read_only(pf.suffix)
            self._pf = pf
        return self._pf

    # -- tail ------------------------------------------------------------
    @_on_radii
    def tail(self, r):
        """mu_hat(r) = int_r^1 mu(s) ds."""
        return self.panel_function().suffix_integral(r)

    @_on_radii
    def log_tail(self, r):
        with np.errstate(divide="ignore"):
            return np.log(np.asarray(self.tail(r), dtype=float))

    # -- moments ---------------------------------------------------------
    def log_moments(self, xs) -> np.ndarray:
        """log mu_x for each x in ``xs``; the one moment hook.  The moment
        kernel :func:`fracvolt.quad.log_moments` on log mu at the reference
        nodes, taken from the panel values once per weight; where those are
        zero or negative (a clipped or rounded density) the column drops."""
        if self._grid_log_density is None:
            with np.errstate(divide="ignore", invalid="ignore"):
                self._grid_log_density = _read_only(np.log(
                    self.panel_function().flat_values))
        return log_moments(xs, self._grid_log_density)

    def _moments(self, xs: np.ndarray) -> np.ndarray:
        """mu_x = exp(log mu_x) for each x in ``xs``."""
        return np.array([math.exp(v) for v in self.log_moments(xs).tolist()])

    def moment(self, x) -> float:
        x = float(x)
        if not x >= 0:
            raise WeightError(f"moment index must be nonnegative, not {x!r}")
        if x not in self._moment_cache:
            self._moment_cache[x] = float(self._moments(np.array([x]))[0])
        return self._moment_cache[x]

    def odd_moments(self, count: int) -> np.ndarray:
        """[mu_1, mu_3, ..., mu_{2(count-1)+1}], computed in one batch by the
        ``log_moments`` hook; a longer request computes only the new indices.
        For exp, expr, tailexpr and derived weights each value depends on
        its own index alone, so it is bit-identical to ``moment(2n + 1)``;
        std: overrides this (see there)."""
        done = self._odd_cache
        if len(done) < count:
            new = self._moments(2.0 * np.arange(len(done), count) + 1.0)
            done = self._odd_cache = _read_only(np.concatenate([done, new]))
        return done[:count]

    # -- derived weights --------------------------------------------------
    def derive(self, op: str, param=None) -> "RadialWeight":
        """The weight made from this one by ``op``, a key of DERIVED_OPS.

        An iterate op is applied ``param`` times (a whole number, default
        once, at most MAX_ITERATE_DEPTH); a real op needs ``param``;
        mu_plus ignores it.
        """
        if op not in DERIVED_OPS:
            raise WeightError(f"unknown derived op {op!r}")
        takes = DERIVED_OPS[op][1]
        if takes == "depth":
            n = 1 if param is None else param
            if not 0 <= n <= MAX_ITERATE_DEPTH or n != int(n):
                raise WeightError(f"iterate depth {n} unsupported "
                                  f"(max {MAX_ITERATE_DEPTH})")
            w: RadialWeight = self
            for _ in range(int(n)):
                w = DerivedWeight(w, op)
            return w
        if takes == "real" and param is None:
            raise WeightError(f"derived op {op!r} needs a param")
        return DerivedWeight(self, op, None if takes is None else float(param))

    def mu_plus(self) -> "DerivedWeight":
        return self.derive("mu_plus")

    def iterate_V(self, n: int) -> "RadialWeight":
        return self.derive("iterate_V", n)

    def iterate_star(self, n: int) -> "RadialWeight":
        return self.derive("iterate_star", n)

    # -- misc --------------------------------------------------------------
    def label(self) -> str:
        return self.kind

    def descriptor(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.label()}>"


class StandardWeight(RadialWeight):
    """mu(s) = beta (1 - s^2)^(beta - 1), beta > 0.

    Closed forms (single source of truth for the oracles):
      mu_x      = (beta / 2) B((x + 1)/2, beta)
      mu_hat(r) = (beta / 2) B(1/2, beta) * (1 - I_{r^2}(1/2, beta))
    where I is the regularised incomplete Beta function.  In particular
    beta = 1 is Lebesgue measure on [0, 1) with mu_hat(r) = 1 - r.
    """

    kind = "standard"

    def __init__(self, beta: float):
        if not (math.isfinite(beta) and beta > 0):
            raise WeightError("standard weight needs a finite beta > 0")
        super().__init__()
        self.beta = float(beta)

    # scipy.special is imported by the calls that need it: it is the
    # largest part of the package's import time
    @functools.cached_property
    def _log_total(self):
        from scipy.special import betaln
        return math.log(self.beta / 2.0) + betaln(0.5, self.beta)

    def _density(self, r):
        b = self.beta
        with np.errstate(divide="ignore"):
            return b * (1.0 - r * r) ** (b - 1.0)

    def _tail_frac(self, r: np.ndarray) -> np.ndarray:
        # I_w(beta, 1/2) at w = (1-r)(1+r), with 1-r formed first so the
        # deep-grid tail keeps full relative precision
        from scipy.special import betainc
        u = 1.0 - r
        return betainc(self.beta, 0.5, u * (2.0 - u))

    @_on_radii
    def tail(self, r):
        return math.exp(self._log_total) * self._tail_frac(r)

    @_on_radii
    def log_tail(self, r):
        with np.errstate(divide="ignore"):
            return self._log_total + np.log(self._tail_frac(r))

    def log_moments(self, xs) -> np.ndarray:
        from scipy.special import betaln
        x = np.asarray(xs, dtype=float)
        return math.log(self.beta / 2.0) + betaln((x + 1.0) / 2.0, self.beta)

    def odd_moments(self, count: int) -> np.ndarray:
        """mu_1 = 1/2 and mu_(2n+1) = mu_(2n-1) n / (n + beta), by one
        cumulative product: within 1e-13 relative of mpmath for n < 4096
        on the tested beta, where exp of a difference of gammaln values is
        up to 1.2e-11 off.  So these are not ``moment(2n + 1)``, whose
        betaln form is up to 5.7e-12 away from them."""
        if len(self._odd_cache) < count:
            n = np.arange(1.0, count)
            ratios = np.concatenate(([0.5], n / (n + self.beta)))
            self._odd_cache = _read_only(np.cumprod(ratios))
        return self._odd_cache[:count]

    def label(self):
        return f"std:{self.beta:g}"

    def descriptor(self):
        return {"kind": "standard", "beta": self.beta}


class ExponentialWeight(RadialWeight):
    """Tail-defined family mu_hat(r) = exp(-c / (1 - r)^gamma).

    The density is the exact derivative
        mu(r) = c gamma (1 - r)^(-gamma - 1) exp(-c / (1 - r)^gamma),
    and log-space tails/moments stay usable far beyond double underflow.
    These weights are the stock counterexamples: they fail the upper
    doubling condition while satisfying the lower one strongly.
    """

    kind = "exponential"

    def __init__(self, c: float = 1.0, gamma: float = 1.0):
        if not (math.isfinite(c) and math.isfinite(gamma) and c > 0 and gamma > 0):
            raise WeightError("exponential weight needs finite c, gamma > 0")
        super().__init__()
        self.c = float(c)
        self.gamma = float(gamma)
        self._grid_log_density = _read_only(
            self._log_density(radial_nodes()[0]))

    def _density(self, r):
        # (1 - r)^(-gamma - 1) alone overflows near r = 1 for gamma > ~18.7
        with np.errstate(under="ignore"):
            return np.exp(self._log_density(r))

    def _log_density(self, r):
        u = 1.0 - np.asarray(r, dtype=float)
        with np.errstate(over="ignore"):
            return (math.log(self.c * self.gamma)
                    - (self.gamma + 1.0) * np.log(u) - self.c * u ** -self.gamma)

    @_on_radii
    def tail(self, r):
        with np.errstate(under="ignore", over="ignore"):
            return np.exp(-self.c * (1.0 - r) ** -self.gamma)

    @_on_radii
    def log_tail(self, r):
        with np.errstate(over="ignore"):
            return -self.c * (1.0 - r) ** -self.gamma

    def label(self):
        return f"exp:{self.c:g}:{self.gamma:g}"

    def descriptor(self):
        return {"kind": "exponential", "c": self.c, "gamma": self.gamma}


class ExprWeight(RadialWeight):
    """Weight with density given by a formula in r."""

    kind = "expr"

    def __init__(self, formula: str):
        super().__init__()
        try:
            self.expr = Expression(formula)
        except ExprError as e:
            raise WeightError(f"bad weight formula: {e}") from e
        self.formula = formula
        vals = np.asarray(self.expr(_PROBE), dtype=float)
        if np.any(np.isnan(vals)) or np.any(vals < 0.0):
            raise WeightError("formula is negative or invalid on the probe grid")
        if radial_diverges(self.panel_function().flat_values):
            raise WeightError("formula is not integrable up to r = 1")

    def _density(self, r):
        with np.errstate(under="ignore"):
            return np.asarray(self.expr(r), dtype=float)

    def label(self):
        return f"expr:{self.formula}"

    def descriptor(self):
        return {"kind": "expr", "formula": self.formula}


class TailExprWeight(RadialWeight):
    """Weight specified by its tail formula; density = -d/dr tail."""

    kind = "tail_expr"

    def __init__(self, formula: str):
        super().__init__()
        try:
            self.tail_expr = Expression(formula)
            self.density_expr = Expression(
                f"-({formula})'", tree=("neg", self.tail_expr.derivative().tree))
        except ExprError as e:
            raise WeightError(f"bad tail formula: {e}") from e
        self.formula = formula
        tvals = np.asarray(self.tail_expr(_PROBE), dtype=float)
        if np.any(~np.isfinite(tvals)) or np.any(tvals <= 0.0):
            raise WeightError("tail formula must be positive and finite")
        if np.any(np.diff(tvals[np.argsort(_PROBE)]) > 1e-12):
            raise WeightError("tail formula must be non-increasing")
        dvals = np.asarray(self.density_expr(_PROBE), dtype=float)
        if np.any(np.isnan(dvals)) or np.any(dvals < -1e-12):
            raise WeightError("derived density is negative on the probe grid")

    def _density(self, r):
        with np.errstate(under="ignore"):
            return np.maximum(np.asarray(self.density_expr(r), dtype=float), 0.0)

    @_on_radii
    def tail(self, r):
        return np.asarray(self.tail_expr(r), dtype=float)

    def label(self):
        return f"tailexpr:{self.formula}"

    def descriptor(self):
        return {"kind": "tail_expr", "formula": self.formula}


class DerivedWeight(RadialWeight):
    """Weight obtained from a base weight by one structural operation.

    The new density is represented through suffix integrals of smooth
    auxiliary panel functions; log-type singularities at r = 0 (mu_plus and
    the star iterates) are split off in closed form so the expansions only
    ever see smooth data.  Build one with :meth:`RadialWeight.derive`.
    """

    kind = "derived"

    def __init__(self, base: RadialWeight, op: str, param: float = None):
        super().__init__()
        self.base = base
        self.op = op
        self.param = param
        self._density_fn = DERIVED_OPS[op][0](base, param)

    def _density(self, r):
        return self._density_fn(np.asarray(r, dtype=float))

    def label(self):
        if self.param is not None:
            return f"{self.base.label()}|{self.op}({self.param:g})"
        return f"{self.base.label()}|{self.op}"

    def descriptor(self):
        d = {"kind": "derived", "op": self.op, "base": self.base.descriptor()}
        if self.param is not None:
            d["param"] = self.param
        return d


# Density builders of the derived weights: (base, param) -> density on
# arrays of radii.

def _mu_plus(base, _):
    # mu_plus(r) = int_r^1 mu(s)/s ds
    #            = int_r^1 (mu(s) - mu0)/s ds + mu0 log(1/r),  mu0 = mu(0)
    mu0 = float(base.density(np.array([0.0]))[0])
    if not np.isfinite(mu0):
        mu0 = 0.0
    aux = PanelFunction.from_callable(lambda s: (base.density(s) - mu0) / s)

    def dens(r):
        out = aux.suffix_integral(r)
        with np.errstate(divide="ignore"):
            return out + np.where(r > 0, -np.log(np.maximum(r, 1e-300)), 0.0) * mu0
    return dens


def _iterate_V(base, _):
    # V(r) = 2 int_r^1 s prev(s) ds
    prev = base.panel_function()
    aux = PanelFunction.from_values(prev.flat_nodes * prev.flat_values)
    return lambda r: 2.0 * aux.suffix_integral(r)


def _iterate_star(base, _):
    # star(r) = int_r^1 s prev(s) log(s/r) ds
    #         = int_r^1 s prev log s ds - log r * int_r^1 s prev ds
    prev = base.panel_function()
    s = prev.flat_nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        slog = np.where(s > 0, s * np.log(s), 0.0)
    aux = PanelFunction.from_values(
        np.stack([slog, s], 1) * prev.flat_values[:, None])

    def dens(r):
        if np.any(r <= 0.0):
            raise WeightError("star iterate undefined at r = 0")
        both = aux.suffix_integral(r)
        return both[..., 0] - np.log(r) * both[..., 1]
    return dens


def _power_tail(base, p):
    # the Schatten cut-off weight mu_hat(r)^p / (1 - r)^2
    def dens(r):
        with np.errstate(over="ignore", under="ignore"):
            return np.asarray(base.tail(r), dtype=float) ** p / (1.0 - r) ** 2
    return dens


def _times_power(base, eta):
    # the weight mu(r) (1 - r)^eta
    return lambda r: np.asarray(base.density(r), dtype=float) * (1.0 - r) ** eta


# op -> (density builder, what its param is: None, an iterate "depth" or a
# "real" exponent).  The one table behind derive, labels and descriptors.
DERIVED_OPS = {
    "mu_plus": (_mu_plus, None),
    "iterate_V": (_iterate_V, "depth"),
    "iterate_star": (_iterate_star, "depth"),
    "power_tail": (_power_tail, "real"),
    "times_power": (_times_power, "real"),
}


def _field(d: dict, key: str, kind=float, default=None):
    """Descriptor field ``key`` checked to be a ``kind`` (float: any JSON
    number); WeightError when it is missing or of another type."""
    v = d.get(key, default)
    ok = isinstance(v, (int, float)) and not isinstance(v, bool) \
        if kind is float else isinstance(v, kind)
    if not ok:
        raise WeightError(f"weight descriptor needs {key!r} as a "
                          f"{kind.__name__}, not {v!r}")
    return kind(v)


def from_descriptor(d: dict) -> RadialWeight:
    """Build a weight from its JSON descriptor; WeightError when malformed."""
    kind = d.get("kind") if isinstance(d, dict) else None
    if kind == "standard":
        return StandardWeight(_field(d, "beta"))
    if kind == "exponential":
        return ExponentialWeight(_field(d, "c", default=1.0),
                                 _field(d, "gamma", default=1.0))
    if kind in ("expr", "tail_expr"):
        cls = ExprWeight if kind == "expr" else TailExprWeight
        return cls(_field(d, "formula", str))
    if kind == "derived":
        base = from_descriptor(d.get("base"))
        param = None if d.get("param") is None else _field(d, "param")
        return base.derive(_field(d, "op", str), param)
    raise WeightError(f"unknown weight kind {kind!r}")


@functools.lru_cache(maxsize=WEIGHT_CACHE_SIZE)
def from_shorthand(text: str) -> RadialWeight:
    """Parse 'std:<beta>', 'exp:<c>:<gamma>', 'expr:<f>', 'tailexpr:<f>' or
    JSON.  The same text gives the same weight object while it stays among
    the WEIGHT_CACHE_SIZE most recently used; an invalid text raises on
    every call."""
    text = text.strip()
    if text.startswith("{"):
        return from_descriptor(json.loads(text))
    if text.startswith("std:"):
        return StandardWeight(float(text[4:]))
    if text.startswith("exp:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise WeightError("exponential shorthand is exp:<c>:<gamma>")
        return ExponentialWeight(float(parts[1]), float(parts[2]))
    if text.startswith("expr:"):
        return ExprWeight(text[5:])
    if text.startswith("tailexpr:"):
        return TailExprWeight(text[9:])
    raise WeightError(f"cannot parse weight shorthand {text!r}")
