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

Derived weights are materialised as per-panel Legendre expansions
(:class:`fracvolt.quad.PanelFunction`), so nested integrals reduce to suffix
integrals of smooth data; log-type endpoint singularities are split off
analytically before expansion.

Weights are immutable after construction except for internal caches, which
are idempotent (duplicate computation yields identical values), so concurrent
readers are safe.
"""

from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np
from scipy import special as sps

from .expr import Expression, ExprError
from .quad import DEFAULT_SPEC, PanelFunction, QuadratureSpec

# all diagnostic grids stop here: doubles cannot resolve 1 - r below 2^-40
MAX_GRID_RADIUS = 1.0 - 2.0 ** -40
MAX_ITERATE_DEPTH = 4

_PROBE = np.concatenate([np.linspace(0.0, 0.98, 50),
                         1.0 - 2.0 ** -np.arange(6, 41, 2.0)])


class WeightError(Exception):
    """Invalid weight definition or evaluation outside the domain."""


def _check_domain(r):
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0) or np.any(r >= 1.0):
        raise WeightError("radius outside [0, 1)")
    return r


class RadialWeight:
    """Base class: density/tail/moment evaluation with idempotent caches."""

    kind = "abstract"

    def __init__(self, spec: QuadratureSpec = DEFAULT_SPEC):
        self.spec = spec
        self._pf: Optional[PanelFunction] = None
        self._moment_cache: dict = {}
        self._odd_cache: Optional[np.ndarray] = None

    # -- density ---------------------------------------------------------
    def _density(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def density(self, r):
        """mu(r); raises on r outside [0,1) or on invalid values."""
        r = _check_domain(r)
        vals = np.asarray(self._density(np.atleast_1d(r)), dtype=float)
        if np.any(np.isnan(vals)) or np.any(vals < 0.0):
            raise WeightError(f"weight {self.label()} produced invalid density")
        return vals if np.ndim(r) else float(vals[0])

    def panel_function(self) -> PanelFunction:
        if self._pf is None:
            self._pf = PanelFunction.from_callable(self._density, self.spec)
        return self._pf

    # -- tail ------------------------------------------------------------
    def tail(self, r):
        """mu_hat(r) = int_r^1 mu(s) ds."""
        r = _check_domain(r)
        vals = self.panel_function().suffix_integral(np.atleast_1d(r))
        return vals if np.ndim(r) else float(vals[0])

    def log_tail(self, r):
        t = np.atleast_1d(np.asarray(self.tail(r), dtype=float))
        with np.errstate(divide="ignore"):
            out = np.log(t)
        return out if np.ndim(r) else float(out[0])

    # -- moments ---------------------------------------------------------
    def _moment(self, x: float) -> float:
        return self.panel_function().moment(x)

    def moment(self, x) -> float:
        x = float(x)
        if x < 0:
            raise WeightError("moment index must be nonnegative")
        if x not in self._moment_cache:
            self._moment_cache[x] = self._moment(x)
        return self._moment_cache[x]

    def log_moment(self, x: float) -> float:
        m = self.moment(x)
        return math.log(m) if m > 0 else -math.inf

    def odd_moments(self, count: int) -> np.ndarray:
        """[mu_1, mu_3, ..., mu_{2(count-1)+1}] computed in one batch."""
        if self._odd_cache is None or len(self._odd_cache) < count:
            self._odd_cache = np.array(
                [self.moment(2 * n + 1) for n in range(count)])
        return self._odd_cache[:count]

    # -- derived weights --------------------------------------------------
    def mu_plus(self) -> "DerivedWeight":
        return DerivedWeight(self, "mu_plus")

    def iterate_V(self, n: int) -> "RadialWeight":
        if n < 0 or n > MAX_ITERATE_DEPTH:
            raise WeightError(f"iterate depth {n} unsupported (max {MAX_ITERATE_DEPTH})")
        w: RadialWeight = self
        for _ in range(n):
            w = DerivedWeight(w, "iterate_V")
        return w

    def iterate_star(self, n: int) -> "RadialWeight":
        if n < 0 or n > MAX_ITERATE_DEPTH:
            raise WeightError(f"iterate depth {n} unsupported (max {MAX_ITERATE_DEPTH})")
        w: RadialWeight = self
        for _ in range(n):
            w = DerivedWeight(w, "iterate_star")
        return w

    def power_tail(self, p: float) -> "DerivedWeight":
        return DerivedWeight(self, "power_tail", p)

    def times_power(self, eta: float) -> "DerivedWeight":
        """Weight r -> mu(r) (1 - r)^eta."""
        return DerivedWeight(self, "times_power", eta)

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

    def __init__(self, beta: float, spec: QuadratureSpec = DEFAULT_SPEC):
        if not (math.isfinite(beta) and beta > 0):
            raise WeightError("standard weight needs a finite beta > 0")
        super().__init__(spec)
        self.beta = float(beta)
        self._log_total = (math.log(beta / 2.0)
                           + sps.betaln(0.5, beta))

    def _density(self, r):
        b = self.beta
        with np.errstate(divide="ignore"):
            return b * (1.0 - r * r) ** (b - 1.0)

    def _tail_frac(self, r: np.ndarray) -> np.ndarray:
        # I_w(beta, 1/2) at w = (1-r)(1+r), with 1-r formed first so the
        # deep-grid tail keeps full relative precision
        u = 1.0 - r
        return sps.betainc(self.beta, 0.5, u * (2.0 - u))

    def tail(self, r):
        r = _check_domain(r)
        rr = np.atleast_1d(r)
        vals = math.exp(self._log_total) * self._tail_frac(rr)
        return vals if np.ndim(r) else float(vals[0])

    def log_tail(self, r):
        r = _check_domain(r)
        rr = np.atleast_1d(r)
        with np.errstate(divide="ignore"):
            out = self._log_total + np.log(self._tail_frac(rr))
        return out if np.ndim(r) else float(out[0])

    def _moment(self, x: float) -> float:
        return math.exp(self.log_moment(x))

    def log_moment(self, x: float) -> float:
        return math.log(self.beta / 2.0) + sps.betaln((x + 1.0) / 2.0, self.beta)

    def odd_moments(self, count: int) -> np.ndarray:
        if self._odd_cache is None or len(self._odd_cache) < count:
            n = np.arange(count)
            b = self.beta
            logs = (math.log(b / 2.0) + sps.gammaln(n + 1.0)
                    + math.lgamma(b) - sps.gammaln(n + 1.0 + b))
            self._odd_cache = np.exp(logs)
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

    def __init__(self, c: float = 1.0, gamma: float = 1.0,
                 spec: QuadratureSpec = DEFAULT_SPEC):
        if not (math.isfinite(c) and math.isfinite(gamma) and c > 0 and gamma > 0):
            raise WeightError("exponential weight needs finite c, gamma > 0")
        super().__init__(spec)
        self.c = float(c)
        self.gamma = float(gamma)

    def _density(self, r):
        u = 1.0 - r
        with np.errstate(under="ignore"):
            return self.c * self.gamma * u ** (-self.gamma - 1.0) \
                * np.exp(-self.c * u ** -self.gamma)

    def _log_density(self, r):
        u = 1.0 - np.asarray(r, dtype=float)
        return (math.log(self.c * self.gamma)
                - (self.gamma + 1.0) * np.log(u) - self.c * u ** -self.gamma)

    def tail(self, r):
        r = _check_domain(r)
        rr = np.atleast_1d(r)
        with np.errstate(under="ignore"):
            vals = np.exp(-self.c * (1.0 - rr) ** -self.gamma)
        return vals if np.ndim(r) else float(vals[0])

    def log_tail(self, r):
        r = _check_domain(r)
        rr = np.atleast_1d(r)
        out = -self.c * (1.0 - rr) ** -self.gamma
        return out if np.ndim(r) else float(out[0])

    def log_moment(self, x: float) -> float:
        pf = self.panel_function()
        s = pf.flat_nodes
        expo = x * np.log(s) + self._log_density(s) + np.log(pf.flat_weights)
        top = np.max(expo)
        return float(top + np.log(np.sum(np.exp(expo - top))))

    def _moment(self, x: float) -> float:
        return math.exp(self.log_moment(x))

    def label(self):
        return f"exp:{self.c:g}:{self.gamma:g}"

    def descriptor(self):
        return {"kind": "exponential", "c": self.c, "gamma": self.gamma}


class ExprWeight(RadialWeight):
    """Weight with density given by a formula in r."""

    kind = "expr"

    def __init__(self, formula: str, spec: QuadratureSpec = DEFAULT_SPEC):
        super().__init__(spec)
        try:
            self.expr = Expression(formula)
        except ExprError as e:
            raise WeightError(f"bad weight formula: {e}") from e
        self.formula = formula
        vals = np.asarray(self.expr(_PROBE), dtype=float)
        if np.any(np.isnan(vals)) or np.any(vals < 0.0):
            raise WeightError("formula is negative or invalid on the probe grid")

    def _density(self, r):
        with np.errstate(under="ignore"):
            return np.asarray(self.expr(r), dtype=float)

    def log_moment(self, x: float) -> float:
        pf = self.panel_function()
        s = pf.flat_nodes
        with np.errstate(divide="ignore"):
            logv = np.log(pf.flat_values)
        expo = x * np.log(s) + logv + np.log(pf.flat_weights)
        expo = expo[np.isfinite(expo)]
        if len(expo) == 0:
            return -math.inf
        top = np.max(expo)
        return float(top + np.log(np.sum(np.exp(expo - top))))

    def label(self):
        return f"expr:{self.formula}"

    def descriptor(self):
        return {"kind": "expr", "formula": self.formula}


class TailExprWeight(RadialWeight):
    """Weight specified by its tail formula; density = -d/dr tail."""

    kind = "tail_expr"

    def __init__(self, formula: str, spec: QuadratureSpec = DEFAULT_SPEC):
        super().__init__(spec)
        try:
            self.tail_expr = Expression(formula)
            self.density_expr = Expression(
                f"-({formula})'", ast=("neg", self.tail_expr.derivative().ast))
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

    def tail(self, r):
        r = _check_domain(r)
        vals = np.asarray(self.tail_expr(np.atleast_1d(r)), dtype=float)
        return vals if np.ndim(r) else float(vals[0])

    def label(self):
        return f"tailexpr:{self.formula}"

    def descriptor(self):
        return {"kind": "tail_expr", "formula": self.formula}


class DerivedWeight(RadialWeight):
    """Weight obtained from a base weight by one structural operation.

    The new density is represented through suffix integrals of smooth
    auxiliary panel functions; log-type singularities at r = 0 (mu_plus and
    the star iterates) are split off in closed form so the expansions only
    ever see smooth data.
    """

    kind = "derived"

    def __init__(self, base: RadialWeight, op: str, param: float = None):
        super().__init__(base.spec)
        self.base = base
        self.op = op
        self.param = param
        self._setup()

    def _setup(self):
        base = self.base
        if self.op == "mu_plus":
            # mu_plus(r) = int_r^1 mu(s)/s ds
            #            = int_r^1 (mu(s) - mu0)/s ds + mu0 log(1/r),  mu0 = mu(0)
            mu0 = float(base.density(np.array([0.0]))[0])
            if not np.isfinite(mu0):
                mu0 = 0.0
            self._mu0 = mu0

            def smooth_part(s):
                return (base.density(s) - mu0) / s

            self._aux = PanelFunction.from_callable(smooth_part, self.spec)

            def dens(r):
                r = np.asarray(r, dtype=float)
                out = self._aux.suffix_integral(r)
                pos = r > 0
                with np.errstate(divide="ignore"):
                    out = out + np.where(pos, -np.log(np.maximum(r, 1e-300)), 0.0) * mu0
                return out

            self._density_fn = dens
        elif self.op == "iterate_V":
            # V(r) = 2 int_r^1 s prev(s) ds
            prev = base.panel_function()
            aux = PanelFunction.from_values(
                prev.flat_nodes * prev.flat_values, self.spec)
            self._density_fn = lambda r: 2.0 * aux.suffix_integral(r)
        elif self.op == "iterate_star":
            # star(r) = int_r^1 s prev(s) log(s/r) ds
            #         = int_r^1 s prev log s ds - log r * int_r^1 s prev ds
            prev = base.panel_function()
            s = prev.flat_nodes
            with np.errstate(divide="ignore", invalid="ignore"):
                slog = np.where(s > 0, s * np.log(s), 0.0)
            aux_log = PanelFunction.from_values(slog * prev.flat_values, self.spec)
            aux_lin = PanelFunction.from_values(s * prev.flat_values, self.spec)

            def dens(r):
                r = np.asarray(r, dtype=float)
                if np.any(r <= 0.0):
                    raise WeightError("star iterate undefined at r = 0")
                return aux_log.suffix_integral(r) - np.log(r) * aux_lin.suffix_integral(r)

            self._density_fn = dens
        elif self.op == "power_tail":
            p = float(self.param)

            def dens(r):
                r = np.asarray(r, dtype=float)
                with np.errstate(over="ignore", under="ignore"):
                    return np.asarray(self.base.tail(r), dtype=float) ** p \
                        / (1.0 - r) ** 2
            self._density_fn = dens
        elif self.op == "times_power":
            eta = float(self.param)
            self._density_fn = lambda r: np.asarray(
                self.base.density(r), dtype=float) * (1.0 - np.asarray(r)) ** eta
        else:
            raise WeightError(f"unknown derived operation {self.op!r}")

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


def from_descriptor(d: dict) -> RadialWeight:
    """Build a weight from its JSON descriptor."""
    kind = d.get("kind")
    if kind == "standard":
        return StandardWeight(d["beta"])
    if kind == "exponential":
        return ExponentialWeight(d.get("c", 1.0), d.get("gamma", 1.0))
    if kind == "expr":
        return ExprWeight(d["formula"])
    if kind == "tail_expr":
        return TailExprWeight(d["formula"])
    if kind == "derived":
        base = from_descriptor(d["base"])
        op = d["op"]
        if op == "mu_plus":
            return base.mu_plus()
        if op == "iterate_V":
            return base.iterate_V(int(d.get("param", 1)))
        if op == "iterate_star":
            return base.iterate_star(int(d.get("param", 1)))
        if op == "power_tail":
            return base.power_tail(float(d["param"]))
        if op == "times_power":
            return base.times_power(float(d["param"]))
        raise WeightError(f"unknown derived op {op!r}")
    raise WeightError(f"unknown weight kind {kind!r}")


def from_shorthand(text: str) -> RadialWeight:
    """Parse 'std:<beta>', 'exp:<c>:<gamma>', 'expr:<f>', 'tailexpr:<f>' or JSON."""
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
