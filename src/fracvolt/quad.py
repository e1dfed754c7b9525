"""Deterministic radial quadrature on the unit interval, and its angular rule.

The radial rule is Gauss-Legendre on geometrically refined panels.  Panels
accumulate toward both endpoints (edges at 2^-j on the left and 1 - 2^-j on
the right) so that integrable endpoint singularities of the form
(1 - r)^(-theta), theta < 1, and log kernels are resolved.  The angular rule
is the uniform trapezoid, which integrates e^{ik\theta} exactly whenever the
node count exceeds |k|.

There is one reference grid: LEFT_LEVELS and RIGHT_LEVELS dyadic levels
with PANEL_ORDER nodes per panel (2304 nodes), and at least
DEFAULT_ANGULAR_NODES angles.  The other radial grids are the reference
grid with every panel halved, on which the radial engine takes its values,
and the kernel integral's reduced one, selected by its level counts in
:func:`radial_nodes`.

A :class:`PanelFunction` holds functions sampled at the reference nodes,
one integrand per trailing index of its values, real or complex.  Its
suffix integrals int_r^1 are the one engine of weight tails, derived
weights and Carleson-square masses.

One kernel, :func:`log_moments`, sums every power integral
int_0^1 s^x f(s) ds: weight moments and the radial engine's
int_0^1 r^q H(r) dr alike.  It works in log space from log f at the nodes,
and splits each index as x = x0 + d, the anchor x0 a multiple of 16: one
row of exponentials per anchor and one row s^d per offset d < 16.

Area measure convention: dA = dx dy / pi, so the disc has unit area and for a
radial integrand F,  int_D F dA = 2 * int_0^1 F(r) r dr.

Every reduction (``np.sum``'s pairwise summation or a matrix product) runs
in a fixed order, so results are bit-identical from run to run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import legendre as npleg

LEFT_LEVELS = 24
RIGHT_LEVELS = 48
PANEL_ORDER = 32
DEFAULT_ANGULAR_NODES = 1024

# Panel contributions of a convergent integral must decay geometrically;
# ratios above this across the trailing panels flag divergence.
DIVERGENCE_RATIO = 0.98
TRAILING_PANELS = 6


class QuadratureError(Exception):
    """Raised when a quadrature rule cannot deliver a requested tolerance."""


@dataclass
class NormEstimate:
    """A nonnegative scalar with its truncation and error bookkeeping."""

    value: float
    err: float
    tag: str = ""
    truncation: dict = field(default_factory=dict)
    diverged: bool = False
    anchor: Optional[complex] = None


@lru_cache(maxsize=None)
def gauss_rule(order: int):
    x, w = npleg.leggauss(order)
    return x, w


# Upper end of every radial grid.  Integrals over [0, 1) are truncated at
# this point, and floating point cannot place nodes beyond it without them
# rounding onto 1.  For integrands that decay at least like a power of
# 1 - r, or blow up no faster than (1-r)^(-1/2), the lost sliver is below
# 2^-26 in mass.  For slowly varying tails it is not small, and nothing
# flags it: with mu_hat(r) = 1/(1 + log(1/(1-r))) the mass of
# mu_hat^2/(1-r) above this point is 1/(1 + 52 log 2), about 0.027.
GRID_TOP = 1.0 - 2.0 ** -52


@lru_cache(maxsize=None)
def panel_edges(left_levels: int = LEFT_LEVELS, right_levels: int = RIGHT_LEVELS):
    """Edges 0 < 2^-L < ... < 1/2 < ... < 1 - 2^-R < GRID_TOP."""
    left = [0.0] + [2.0 ** (-j) for j in range(left_levels, 0, -1)]
    right = [1.0 - 2.0 ** (-j) for j in range(2, right_levels + 1)] + [GRID_TOP]
    edges = np.array(left + right)
    if not np.all(np.diff(edges) > 0):
        raise QuadratureError("panel edges are not strictly increasing")
    return edges


def _rule_on(edges: np.ndarray, order: int):
    """Per-panel Gauss node/weight matrices for the panels between ``edges``."""
    x, w = gauss_rule(order)
    lo = edges[:-1][:, None]
    hi = edges[1:][:, None]
    half = 0.5 * (hi - lo)
    return lo + half * (x[None, :] + 1.0), half * w[None, :]


@lru_cache(maxsize=None)
def _panel_grid(left_levels: int = LEFT_LEVELS,
                right_levels: int = RIGHT_LEVELS, order: int = PANEL_ORDER):
    """Per-panel node/weight matrices for the reference edge set."""
    edges = panel_edges(left_levels, right_levels)
    nodes, weights = _rule_on(edges, order)
    return edges, nodes, weights


@lru_cache(maxsize=None)
def _halved_grid(left_levels: int = LEFT_LEVELS,
                 right_levels: int = RIGHT_LEVELS, order: int = PANEL_ORDER):
    """Flattened (nodes, weights) of the reference grid with every panel halved."""
    edges = panel_edges(left_levels, right_levels)
    mids = 0.5 * (edges[:-1] + edges[1:])
    nodes, weights = _rule_on(np.sort(np.concatenate([edges, mids])), order)
    return nodes.ravel(), weights.ravel()


def radial_nodes(left_levels: int = LEFT_LEVELS,
                 right_levels: int = RIGHT_LEVELS):
    """Flattened (nodes, weights) for int_0^1 f(r) dr on the reference grid,
    or on the grid of other level counts (the kernel integral's)."""
    _, nodes, weights = _panel_grid(left_levels, right_levels)
    return nodes.ravel(), weights.ravel()


# Anchor spacing of the moment kernel; the smallest node of the reference
# grid to the power ANCHOR_STEP - 1 is about 2^-502, and of the halved grid
# about 2^-517, far above the least double.
ANCHOR_STEP = 16

# exp(t) rounds to exactly 0.0 for every t below this (2^-1075, half the
# least subnormal, is exp(-745.13)).
EXP_UNDERFLOW = -746.0


@lru_cache(maxsize=None)
def _log_grid(halved: bool = False):
    """(log nodes, log weights) of the flattened reference grid, or of the
    grid with every panel halved."""
    nodes, weights = _halved_grid() if halved else radial_nodes()
    return np.log(nodes), np.log(weights)


@lru_cache(maxsize=None)
def _antiderivative_map(order: int) -> np.ndarray:
    """(order + 1) x order: a panel's values at the Gauss nodes to the
    Legendre coefficients of its interpolant's antiderivative in the local
    variable (``legint`` of the inverse Legendre-Vandermonde matrix)."""
    x, _ = gauss_rule(order)
    return npleg.legint(np.linalg.inv(npleg.legvander(x, order - 1)))


def looks_divergent(panel_contribs: np.ndarray) -> bool:
    """Heuristic: trailing panel contributions fail to decay geometrically."""
    c = np.abs(np.asarray(panel_contribs, dtype=float))
    c = c[np.isfinite(c)]
    if len(c) < TRAILING_PANELS + 1:
        return False
    tail = c[-(TRAILING_PANELS + 1):]
    if np.any(~np.isfinite(tail)):
        return True
    denom = tail[:-1]
    ok = denom > 0
    if not np.any(ok):
        return False
    ratios = tail[1:][ok] / denom[ok]
    return bool(np.mean(ratios) > DIVERGENCE_RATIO)


class PanelFunction:
    """Functions on [0, 1) sampled at the Gauss nodes of every panel of the
    reference grid, one per trailing index of ``values``, real or complex.

    Suffix integrals int_r^1 are the whole panels above r, summed once at
    build, plus the part of r's own panel, from the Legendre antiderivative
    of the panel's interpolant.  Antiderivatives are formed per call, for
    the panels that hold a requested r only, by one real product with
    :func:`_antiderivative_map`.  Moments of the values are
    :func:`log_moments` of their log.
    """

    def __init__(self, values: np.ndarray):
        self.edges, self.nodes, self.weights = _panel_grid()
        self.values = values        # (panels, order, *trailing)
        # real columns: one per trailing index, two (Re, Im) if complex
        self._columns = values.reshape(*values.shape[:2], -1).view(float)
        panel_integrals = (self.weights[:, None, :] @ self._columns)[:, 0]
        # suffix[p] = integral over panels p..end; suffix[P] = 0
        suffix = np.concatenate([np.cumsum(panel_integrals[::-1], axis=0)[::-1],
                                 np.zeros((1, self._columns.shape[2]))])
        self.suffix = suffix.view(values.dtype).reshape(-1, *values.shape[2:])

    @classmethod
    def from_callable(cls, f: Callable[[np.ndarray], np.ndarray]) -> "PanelFunction":
        nodes = _panel_grid()[1]
        values = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
        if not np.all(np.isfinite(values)):
            raise QuadratureError("non-finite values on the quadrature grid")
        return cls(values)

    @classmethod
    def from_values(cls, values_flat: np.ndarray) -> "PanelFunction":
        """From values at the flattened nodes (first axis), real or complex,
        with any trailing axes."""
        values = np.asarray(values_flat)
        values = np.ascontiguousarray(values, np.result_type(values, float))
        return cls(values.reshape(_panel_grid()[1].shape + values.shape[1:]))

    @property
    def flat_nodes(self):
        return self.nodes.ravel()

    @property
    def flat_values(self):
        return self.values.reshape(-1, *self.values.shape[2:])

    def _panel_index(self, r: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(self.edges, r, side="right") - 1
        return np.clip(idx, 0, len(self.edges) - 2)

    def suffix_integral(self, r) -> np.ndarray:
        """Vectorised int_r^1 f(s) ds: r's axes, then the trailing axes.

        The antiderivatives of the panels holding an r come from one real
        product and are evaluated at every r in one vectorised call, each
        point with its own panel's coefficients; P_n(1) = 1 gives their
        values at the upper panel ends.  One real column (a weight tail) is
        evaluated by Clenshaw's recurrence (``legval``, ``tensor=False``);
        several share one Legendre basis per point (``legvander``), whose
        recurrence runs on the points alone rather than on every column.
        Each is the faster of the two where it is used.
        """
        shape = np.shape(r)
        r = np.asarray(r, dtype=float).ravel()
        idx = self._panel_index(r)
        lo, hi = self.edges[idx], self.edges[idx + 1]
        t = 2.0 * (r - lo) / (hi - lo) - 1.0
        panels, at = np.unique(idx, return_inverse=True)
        M = _antiderivative_map(self.nodes.shape[1])
        anti = np.tensordot(M, self._columns[panels], axes=(1, 1))
        coef = anti[:, at]
        F = npleg.legval(t[:, None], coef, tensor=False) if coef.shape[2] == 1 \
            else np.einsum("nj,jnc->nc", npleg.legvander(t, len(M) - 1), coef)
        part = (np.sum(anti, axis=0)[at] - F) * (0.5 * (hi - lo))[:, None]
        part[r >= self.edges[-1]] = 0.0     # nothing is left above the grid
        part = part.view(self.values.dtype).reshape(-1, *self.suffix.shape[1:])
        return (part + self.suffix[idx + 1]).reshape(shape + self.suffix.shape[1:])


def log_moments(xs, log_density: np.ndarray, halved: bool = False) -> np.ndarray:
    """log int_0^1 s^x f(s) ds for each x in ``xs``, by log-sum-exp from
    ``log_density`` = log f at the nodes of the reference grid, or of the
    halved grid.  Every power integral of the package is summed here.

    Each x splits as x0 + d, the anchor x0 a multiple of ANCHOR_STEP.  An
    anchor's exponent row (x0 log s + log f) + log w is shifted by its own
    maximum ``top``; the value is top + log of one ``np.sum`` of
    exp(row - top) s^d over the row's live columns, from the first to the
    last whose shifted exponent is not below EXP_UNDERFLOW.  So each value
    depends on x alone, not on the batch.

    Columns where log f is not finite (f <= 0 included) are dropped; x log s
    and log w are finite for every finite x.  A row with no finite maximum
    (an infinite or NaN x, or no finite log f) gives -inf.
    """
    ln, lw = _log_grid(halved)
    keep = np.isfinite(log_density)
    ld = log_density
    if not keep.all():
        ln, ld, lw = ln[keep], ld[keep], lw[keep]
    xs = np.asarray(xs, dtype=float)
    x0 = ANCHOR_STEP * np.floor(xs / ANCHOR_STEP)
    out = np.full(len(xs), -np.inf)
    with np.errstate(invalid="ignore", under="ignore"):
        offsets, groups = {}, {}
        d_at = np.array([offsets.setdefault(d, len(offsets))
                         for d in (xs - x0).tolist()], dtype=int)
        powers = np.exp(np.array(list(offsets))[:, None] * ln)
        for i, anchor in enumerate(x0.tolist()):
            groups.setdefault(anchor, []).append(i)
        for anchor, at in groups.items():
            t = anchor * ln
            t += ld
            t += lw
            top = np.max(t, initial=-np.inf)
            if not np.isfinite(top):
                continue
            t -= top            # no NaN: every term and top are finite
            live = t >= EXP_UNDERFLOW
            cols = slice(live.argmax(), len(t) - live[::-1].argmax())
            rows = powers[d_at[at], cols]
            rows *= np.exp(t[cols])
            out[at] = top + np.log(np.sum(rows, axis=1))
    return out


def radial_diverges(values: np.ndarray) -> bool:
    """Panel-sum monitor: does int_0^1 H(r) dr diverge, given H on the grid?

    Only whole dyadic panels are compared: the last panel [1 - 2^-R, GRID_TOP]
    spans several dyadic levels, so its sum is not one more term of the
    geometric sequence.  A zero last panel (a tail that underflowed) counts
    as decay.
    """
    _, _, weights = _panel_grid()
    sums = np.sum(weights * np.reshape(values, weights.shape), axis=1)
    return bool(sums[-1] != 0.0 and looks_divergent(sums[:-1]))


def radial_integrals(H: Callable[[np.ndarray], np.ndarray], powers):
    """(values, errs, diverged): int_0^1 r^q H(r) dr for each q in ``powers``,
    for H >= 0, by :func:`log_moments` of log H.

    Values come from halved panels, the error indicator from the difference
    against the unhalved pass, and divergence from :func:`radial_diverges` or
    an H that is not finite on either grid.  A divergent integral comes back
    as +inf with the flag set rather than raised, because several of the
    quantities downstream hinge on divergence as a first-class outcome.
    """
    h = H(radial_nodes()[0])
    hf = H(_halved_grid()[0])
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(hf))) \
            or radial_diverges(h):
        return np.full(len(powers), np.inf), np.full(len(powers), np.inf), True
    with np.errstate(divide="ignore", invalid="ignore"):
        coarse = np.exp(log_moments(powers, np.log(h)))
        fine = np.exp(log_moments(powers, np.log(hf), halved=True))
    return fine, np.abs(fine - coarse), False


def angular_nodes_for_degree(max_trig_degree: int) -> int:
    """Node count with trigonometric exactness for degrees < node count."""
    return max(DEFAULT_ANGULAR_NODES, 4 * (max_trig_degree + 1))
