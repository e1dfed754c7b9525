"""Norms, seminorms and Carleson quantities compared by the equivalences.

Every quantity here is driven by the fractional derivative P = D(f) of the
input series, whose squared modulus on a circle of radius r is the
trigonometric polynomial

    |P(r e^(i theta))|^2 = A_0(r) + 2 Re sum_{k>=1} A_k(r) e^(ik theta),
    A_k(r) = sum_m c_{m+k} conj(c_m) r^(2m+k).

Angular integrals over full circles, cones |arg z - arg xi| < 1 - |z| and
Carleson squares therefore collapse to closed windowed sums of the A_k, so
the only quadrature error left is radial.  Radial integrals run on the
geometric Gauss-Legendre panels of :mod:`fracvolt.quad`; suprema over disc
anchors are maxima over an explicit anchor set (lattice plus radial rays)
and report their argmax anchor.

Tail convention: mu_hat(r) = int_r^1 mu(s) ds throughout, and dA is the
normalised area measure.  The outer boundary integral of the tent norm uses
|dxi| = d(theta)/2, which makes the p = 2 tent norm square equal to the
weighted disc integral exactly (Fubini), with no hidden constant.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy import special as sps

from .geometry import build_lattice, disc_quadrature
from .quad import (DEFAULT_SPEC, NormEstimate, QuadratureSpec,
                   angular_nodes_for_degree, gauss_rule, panel_edges,
                   radial_diverges, radial_integrals, radial_nodes)
from .taylor import TaylorSeries, frac_derivative
from .weights import RadialWeight

# reduced radial grid for 2-D kernel quadrature: measures with polynomial
# densities carry no mass beyond 1 - 2^-20
KERNEL_SPEC = QuadratureSpec(left_levels=12, right_levels=20)


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

def _power_matrix(radii: np.ndarray, jmax: int) -> np.ndarray:
    """P[i, j] = radii_i^j for j = 0..jmax (cumulative products)."""
    out = np.empty((len(radii), jmax + 1))
    out[:, 0] = 1.0
    for j in range(1, jmax + 1):
        np.multiply(out[:, j - 1], radii, out=out[:, j])
    return out


def angular_autocorr(coeffs: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """A[i, k] = sum_m c_{m+k} conj(c_m) radii_i^(2m+k), k = 0..deg."""
    c = np.asarray(coeffs, dtype=complex)
    d = len(c) - 1
    with np.errstate(under="ignore"):
        P = _power_matrix(radii, 2 * d)
        A = np.empty((len(radii), d + 1), dtype=complex)
        for k in range(d + 1):
            wk = c[k:] * np.conj(c[: d + 1 - k])
            A[:, k] = P[:, k + 2 * np.arange(d + 1 - k)] @ wk
    return A


def _sample_circle(coeffs: np.ndarray, radii: np.ndarray, m: int) -> np.ndarray:
    """|P(r e^(i theta))| sampled on m uniform angles, per radius (chunked)."""
    c = np.asarray(coeffs, dtype=complex)
    spectrum = np.zeros((len(radii), m), dtype=complex)
    with np.errstate(under="ignore"):
        P = _power_matrix(radii, len(c) - 1)
    for n, cn in enumerate(c):
        spectrum[:, n % m] += cn * P[:, n]
    return np.abs(np.fft.ifft(spectrum, axis=1) * m)


def _disc_p_integral(coeffs: np.ndarray, p: float, density, m: int,
                     spec: QuadratureSpec) -> float:
    """int_D |P|^p density(|z|) dA: per-radius p-means of |P| on m angles."""
    nodes, weights = radial_nodes(spec)
    mean_p = np.empty(len(nodes))
    for i in range(0, len(nodes), 512):
        sl = slice(i, min(i + 512, len(nodes)))
        samples = _sample_circle(coeffs, nodes[sl], m)
        mean_p[sl] = np.mean(samples ** p, axis=1)
    with np.errstate(over="ignore", divide="ignore", under="ignore"):
        dens = density(nodes)
    return float(np.sum(2.0 * weights * nodes * dens * mean_p))


def _lp_factor(w: RadialWeight):
    """H(r) = mu_hat(r)^2 / (1 - r): the radial factor of the H^2
    Littlewood-Paley form and of the BMOA Carleson measure."""
    def H(r):
        with np.errstate(over="ignore", divide="ignore"):
            return np.asarray(w.tail(r), dtype=float) ** 2 / (1.0 - r)
    return H


def _window_weights(h: float, kmax: int) -> np.ndarray:
    """int over |theta - phi| <= h of e^(ik(theta - phi)): 2h, 2 sin(kh)/k."""
    k = np.arange(1, kmax + 1)
    out = np.empty(kmax + 1)
    out[0] = 2.0 * h
    out[1:] = 2.0 * np.sin(k * h) / k
    return out


class SquareMachine:
    """Carleson-square integrals of |P|^2 against a radial factor.

    ``P`` is the already-differentiated series whose square modulus is the
    density; precomputing the angular autocorrelation matrix and per-panel
    suffix sums makes nu(S(a)) for any anchor cost one partial panel.
    """

    def __init__(self, P: TaylorSeries, radial_factor,
                 spec: QuadratureSpec = DEFAULT_SPEC):
        self.P = P
        self.radial_factor = radial_factor
        self.edges = panel_edges(spec.left_levels, spec.right_levels)
        self.nodes, self.weights = radial_nodes(spec)
        self.H = radial_factor(self.nodes)
        self.A = angular_autocorr(self.P.coeffs, self.nodes)
        self.degree = self.P.degree
        base = (self.weights * self.nodes * self.H)[:, None] * self.A
        per_panel = base.reshape(-1, spec.order, self.degree + 1).sum(axis=1)
        self.panel_suffix = np.vstack([
            np.cumsum(per_panel[::-1], axis=0)[::-1],
            np.zeros((1, self.degree + 1))])
        self.spec = spec

    def _suffix_from(self, t: float) -> np.ndarray:
        """Q_k = int_t^1 r H(r) A_k(r) dr for all k."""
        e = int(np.searchsorted(self.edges, t, side="right"))
        e = min(e, len(self.edges) - 1)
        full = self.panel_suffix[e - 1 + 1] if e >= 1 else self.panel_suffix[0]
        # partial piece [t, edges[e]] with a fresh small rule
        hi = self.edges[e]
        if hi <= t:
            return full.copy()
        x, gw = gauss_rule(16)
        half = 0.5 * (hi - t)
        rr = t + half * (x + 1.0)
        ww = half * gw
        Af = angular_autocorr(self.P.coeffs, rr)
        Hf = self.radial_factor(rr)
        partial = (ww * rr * Hf) @ Af
        return full + partial

    def square_mass(self, a: complex) -> float:
        """nu(S(a)) for the measure |D(f)|^2 H(|z|) dA."""
        t = abs(a)
        if t == 0:
            Q0 = self.panel_suffix[0][0]
            return float((1.0 / np.pi) * 2.0 * np.pi * Q0.real)
        Q = self._suffix_from(t)
        h = (1.0 - t) / 2.0
        win = _window_weights(h, self.degree)
        phase = np.exp(1j * np.arange(self.degree + 1) * np.angle(a))
        total = win[0] * Q[0].real + 2.0 * np.sum(
            win[1:] * (Q[1:] * phase[1:]).real)
        return float(total / np.pi)

    def disc_mass(self) -> float:
        return self.square_mass(0.0)


@lru_cache(maxsize=8)
def _cached_lattice_points(r: float, seed: int, max_radius: float):
    return build_lattice(r, seed=seed, max_radius=max_radius,
                         verify=False).points


def default_anchors(depth: int = 12, lattice_r: float = 0.7, seed: int = 0,
                    max_radius: float = 1.0 - 2.0 ** -6,
                    include_lattice: bool = True) -> np.ndarray:
    """Anchor set for disc suprema: origin, radial rays, and a lattice.

    The lattice covers the bulk; the rays carry the anchors toward the
    boundary, where square masses of polynomial measures decay anyway.
    """
    rays = 1.0 - 2.0 ** -np.arange(1.0, depth + 1)
    anchors = [np.array([0.0 + 0.0j]), rays.astype(complex)]
    if include_lattice:
        anchors.append(_cached_lattice_points(lattice_r, seed, max_radius))
    return np.concatenate(anchors)


# ---------------------------------------------------------------------------
# Hardy-type quantities
# ---------------------------------------------------------------------------

def hardy2_coeff(f: TaylorSeries) -> NormEstimate:
    """H^2 norm squared by Parseval: sum |f_n|^2."""
    val = float(np.sum(np.abs(f.coeffs) ** 2))
    return NormEstimate(val, 0.0, tag="hardy2-coeff",
                        truncation={"series": f.degree})


def hardy2_lp(f: TaylorSeries, w: RadialWeight,
              spec: QuadratureSpec = DEFAULT_SPEC) -> NormEstimate:
    """int_D |D(f)|^2 mu_hat^2 / (1 - |z|) dA via the radial series.

    Orthogonality collapses the angular integral:
    sum_n |f_n / mu_{2n+1}|^2 * 2 int_0^1 r^(2n+1) mu_hat(r)^2/(1-r) dr.
    """
    c = frac_derivative(f, w).coeffs
    qs = 2 * np.arange(len(c)) + 1
    vals, errs, diverged = radial_integrals(_lp_factor(w), qs, spec)
    if diverged:
        return NormEstimate(np.inf, np.inf, tag="hardy2-lp", diverged=True,
                            truncation={"series": f.degree})
    sq = np.abs(c) ** 2
    value = float(np.sum(sq * 2.0 * vals))
    err = float(np.sum(sq * 2.0 * errs))
    return NormEstimate(value, err, tag="hardy2-lp",
                        truncation={"series": f.degree})


def h2_monomial_ratios(w: RadialWeight, ns,
                       spec: QuadratureSpec = DEFAULT_SPEC) -> np.ndarray:
    """int_0^1 mu_hat^2/(1-r) r^(2n+1) dr / mu_{2n+1}^2 (the discrete witness),
    batched over the monomial degrees ``ns``."""
    ns = np.asarray(ns, dtype=int)
    vals, _, diverged = radial_integrals(_lp_factor(w), 2 * ns + 1, spec)
    if diverged:
        return np.full(len(ns), np.inf)
    mus = np.array([w.moment(2 * int(n) + 1) for n in ns])
    return vals / mus ** 2


def tent_norm_power(f: TaylorSeries, w: RadialWeight, p: float,
                    n_xi: int = 512,
                    spec: QuadratureSpec = DEFAULT_SPEC) -> NormEstimate:
    """The p-th power of the tent norm of f through D(f).

    inner(xi) = int_{cone(xi)} |D(f)|^2 (mu_hat/(1-|z|))^2 dA,
    outer     = (1/2) int_0^{2pi} inner(xi)^(p/2) d(arg xi).

    Per ring, the cone cuts the window |theta - arg xi| < 1 - r whose
    integral against |D(f)|^2 is evaluated in closed form from the A_k
    (exact trigonometric windowing); the outer integral is a uniform
    trapezoid, alias-free since the xi-grid exceeds the angular degree.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    P = frac_derivative(f, w)
    nodes, weights = radial_nodes(spec)

    def H(r):
        with np.errstate(over="ignore", divide="ignore"):
            return (np.asarray(w.tail(r), dtype=float) / (1.0 - r)) ** 2

    # integrability of the cone-integrated density mu_hat^2/(1-r)
    if radial_diverges(_lp_factor(w)(nodes), spec):
        return NormEstimate(np.inf, np.inf, tag="tent-power", diverged=True,
                            truncation={"series": f.degree, "p": p})

    A = angular_autocorr(P.coeffs, nodes)
    d = P.degree
    hs = 1.0 - nodes
    k = np.arange(1, d + 1)
    win = np.empty((len(nodes), d + 1))
    win[:, 0] = 2.0 * hs
    win[:, 1:] = 2.0 * np.sin(np.outer(hs, k)) / k
    base = (weights * nodes * H(nodes))[:, None]
    B = np.sum(base * win * A, axis=0) / np.pi

    m = int(max(n_xi, 2 ** math.ceil(math.log2(max(2, 2 * d + 2)))))
    phi = 2.0 * np.pi * np.arange(m) / m
    inner = B[0].real + 2.0 * np.real(
        np.exp(1j * np.outer(phi, np.arange(1, d + 1))) @ B[1:])
    inner = np.maximum(inner, 0.0)
    value = float(np.pi / m * np.sum(inner ** (p / 2.0)))
    return NormEstimate(value, 0.0, tag="tent-power",
                        truncation={"series": f.degree, "xi": m, "p": p})


def tent_norm(f: TaylorSeries, w: RadialWeight, p: float,
              n_xi: int = 512,
              spec: QuadratureSpec = DEFAULT_SPEC) -> NormEstimate:
    est = tent_norm_power(f, w, p, n_xi, spec)
    est.tag = "tent"
    if not est.diverged:
        est.value = est.value ** (1.0 / p)
    return est


def hardy_p_reference(f: TaylorSeries, p: float, m: int = None) -> NormEstimate:
    """M_p(r, f) at r = 1 - 2^-30: the reference H^p norm for polynomials."""
    r0 = 1.0 - 2.0 ** -30
    d = f.degree
    m = m or max(1024, 4 * (d + 1))
    samples = _sample_circle(f.coeffs, np.array([r0]), m)[0]
    value = float(np.mean(samples ** p) ** (1.0 / p))
    return NormEstimate(value, 0.0, tag="hardy-p-reference",
                        truncation={"series": d, "angular": m})


# ---------------------------------------------------------------------------
# BMOA-type quantities
# ---------------------------------------------------------------------------

def _square_sup(machine: SquareMachine, anchors, tag: str,
                degree: int) -> NormEstimate:
    best, best_a = -np.inf, 0j
    for a in anchors:
        val = machine.square_mass(a) / (1.0 - abs(a))
        if val > best:
            best, best_a = val, complex(a)
    return NormEstimate(float(best), 0.0, tag=tag,
                        truncation={"series": degree, "anchors": len(anchors)},
                        anchor=best_a)


def bmoa_mu_sup(g: TaylorSeries, w: RadialWeight,
                anchors: Optional[Sequence[complex]] = None,
                spec: QuadratureSpec = DEFAULT_SPEC) -> NormEstimate:
    """sup_a nu_g(S(a)) / (1 - |a|),  d nu_g = |D(g)|^2 mu_hat^2/(1-|z|) dA."""
    machine = SquareMachine(frac_derivative(g, w), _lp_factor(w), spec)
    if anchors is None:
        anchors = default_anchors()
    return _square_sup(machine, anchors, "bmoa-mu", g.degree)


def bmoa_classical(g: TaylorSeries,
                   anchors: Optional[Sequence[complex]] = None,
                   spec: QuadratureSpec = DEFAULT_SPEC) -> NormEstimate:
    """Classical BMOA seminorm squared:
    sup_a int_{S(a)} |g'|^2 (1-|z|^2) dA / (1-|a|)."""
    machine = SquareMachine(g.derivative(), lambda r: 1.0 - r * r, spec)
    if anchors is None:
        anchors = default_anchors()
    return _square_sup(machine, anchors, "bmoa-classical", g.degree)


def vanishing_profile(g: TaylorSeries, w: RadialWeight, depth: int = 12,
                      spec: QuadratureSpec = DEFAULT_SPEC):
    """(|a|, nu_g(S(a))/(1-|a|)) along a = 1 - 2^-j; j = 1..depth."""
    machine = SquareMachine(frac_derivative(g, w), _lp_factor(w), spec)
    profile = []
    for j in range(1, depth + 1):
        a = 1.0 - 2.0 ** -j
        profile.append((a, machine.square_mass(a) / (1.0 - a)))
    return profile


def _kernel_anchor_set(depth: int = 8) -> np.ndarray:
    anchors = [0.0 + 0.0j]
    for j in range(1, depth + 1):
        t = 1.0 - 2.0 ** -j
        n_ang = 12 if j <= 4 else 4
        anchors.extend(t * np.exp(2j * np.pi * (np.arange(n_ang) + 0.5 * j) / n_ang))
    return np.array(anchors)


def bmoa_kernel_sup(g: TaylorSeries, w: RadialWeight, lam: float = 2.0,
                    anchors: Optional[Sequence[complex]] = None,
                    spec: QuadratureSpec = KERNEL_SPEC) -> NormEstimate:
    """sup_a int_D (1-|a|)^lam / |1 - conj(a) z|^(lam+1) d nu_g(z).

    Per ring the angular integral is sum_k A_k(r) e^(ik arg a) khat_k(|a| r),
    where khat are the kernel's angular Fourier coefficients, sampled on a
    per-ring grid that refines as |a| r -> 1 so the kernel peak (angular
    width ~ 1 - |a| r) stays resolved.
    """
    P = frac_derivative(g, w)
    nodes, weights = radial_nodes(spec)
    H = _lp_factor(w)(nodes)
    base = weights * nodes * H
    A = angular_autocorr(P.coeffs, nodes)
    d = P.degree
    if anchors is None:
        anchors = _kernel_anchor_set()
    scale = np.sum(base)
    active = base > 1e-18 * scale

    best, best_a = -np.inf, 0j
    for a in anchors:
        t = abs(a)
        phase = np.exp(1j * np.arange(d + 1) * np.angle(a)) if t > 0 \
            else np.ones(d + 1, dtype=complex)
        tr = t * nodes
        m_lo = max(256, 2 ** math.ceil(math.log2(2 * d + 4)))
        m_per_ring = np.clip(64.0 / (1.0 - tr), m_lo, 16384)
        m_per_ring = (2 ** np.ceil(np.log2(m_per_ring))).astype(int)
        val = 0.0
        for m in np.unique(m_per_ring[active]):
            sel = active & (m_per_ring == m)
            psi = 2.0 * np.pi * np.arange(m) / m
            # |1 - (t r) e^(i psi)|^2 = (1 - t r cos psi)^2 + (t r sin psi)^2
            c = tr[sel][:, None]
            K = ((1.0 - c * np.cos(psi)) ** 2
                 + (c * np.sin(psi)) ** 2) ** (-(lam + 1.0) / 2.0)
            khat = np.fft.rfft(K, axis=1)[:, :d + 1] / m
            ang = khat[:, 0].real * A[sel, 0].real + 2.0 * np.sum(
                np.real(A[sel, 1:] * phase[1:]) * khat[:, 1:].real, axis=1)
            val += float(np.sum(base[sel] * ang))
        val *= (1.0 - t) ** lam * 2.0
        if val > best:
            best, best_a = val, complex(a)
    return NormEstimate(float(best), 0.0, tag="bmoa-kernel",
                        truncation={"series": g.degree, "lambda": lam,
                                    "anchors": len(anchors)},
                        anchor=best_a)


# ---------------------------------------------------------------------------
# Bloch-type quantities
# ---------------------------------------------------------------------------

def bloch_mu(g: TaylorSeries, w: RadialWeight, n_ang: int = 2048,
             spec: QuadratureSpec = DEFAULT_SPEC) -> NormEstimate:
    """sup_z mu_hat(|z|) |D(g)(z)| over the radial-by-angular grid."""
    P = frac_derivative(g, w)
    nodes, _ = radial_nodes(spec)
    tails = np.asarray(w.tail(nodes), dtype=float)
    best, best_z = -np.inf, 0j
    for i in range(0, len(nodes), 512):
        sl = slice(i, min(i + 512, len(nodes)))
        samples = _sample_circle(P.coeffs, nodes[sl], n_ang)
        vals = tails[sl][:, None] * samples
        j = int(np.argmax(vals))
        if vals.ravel()[j] > best:
            best = float(vals.ravel()[j])
            ri, ai = divmod(j, n_ang)
            best_z = nodes[sl][ri] * np.exp(2j * np.pi * ai / n_ang)
    return NormEstimate(best, 0.0, tag="bloch-mu",
                        truncation={"series": g.degree, "angular": n_ang},
                        anchor=complex(best_z))


def bloch_mu_lattice(g: TaylorSeries, w: RadialWeight, p: float, alpha: float,
                     anchors: Optional[Sequence[complex]] = None,
                     r: float = 0.5) -> NormEstimate:
    """sup over anchors of the beta-ball average matching the Bloch seminorm:

    int_{D(a,r)} |D(g)|^p mu_hat^p (1-|z|)^alpha dA / (1-|a|)^(alpha+2).
    """
    P = frac_derivative(g, w)
    if anchors is None:
        anchors = default_anchors(depth=8)
    best, best_a = -np.inf, 0j
    for a in anchors:
        pts, wts = disc_quadrature(complex(a), r)
        rr = np.abs(pts)
        vals = np.abs(P(pts)) ** p * np.asarray(w.tail(rr), dtype=float) ** p \
            * (1.0 - rr) ** alpha
        num = float(np.sum(wts * vals))
        val = num / (1.0 - abs(a)) ** (alpha + 2.0)
        if val > best:
            best, best_a = val, complex(a)
    return NormEstimate(float(best), 0.0, tag="bloch-mu-lattice",
                        truncation={"series": g.degree, "p": p, "alpha": alpha},
                        anchor=best_a)


# ---------------------------------------------------------------------------
# Besov / Bergman quantities
# ---------------------------------------------------------------------------

def tail_weight_test(w: RadialWeight, p: float,
                     spec: QuadratureSpec = DEFAULT_SPEC) -> str:
    """'weight' if mu_hat(r)^p / (1-r)^2 is integrable, else 'not-a-weight'.

    Decided by geometric decay of the trailing panel integrals; zero tails
    (underflow of a rapidly decaying weight) count as decay.
    """
    nodes, _ = radial_nodes(spec)
    with np.errstate(over="ignore", divide="ignore", under="ignore"):
        H = np.asarray(w.tail(nodes), dtype=float) ** p / (1.0 - nodes) ** 2
    return "not-a-weight" if radial_diverges(H, spec) else "weight"


def besov_mu(g: TaylorSeries, w: RadialWeight, p: float,
             spec: QuadratureSpec = DEFAULT_SPEC) -> NormEstimate:
    """||g||^p in the fractional-derivative Besov space:
    int_D |D(g)|^p mu_hat^p / (1-|z|^2)^2 dA."""
    if tail_weight_test(w, p, spec) == "not-a-weight":
        return NormEstimate(np.inf, np.inf, tag="besov-mu", diverged=True,
                            truncation={"series": g.degree, "p": p})
    P = frac_derivative(g, w)
    m = angular_nodes_for_degree(g.degree, spec)
    value = _disc_p_integral(
        P.coeffs, p,
        lambda r: np.asarray(w.tail(r), dtype=float) ** p / (1.0 - r ** 2) ** 2,
        m, spec)
    return NormEstimate(value, 0.0, tag="besov-mu",
                        truncation={"series": g.degree, "p": p, "angular": m})


def besov_mu_series(g: TaylorSeries, w: RadialWeight,
                    spec: QuadratureSpec = DEFAULT_SPEC) -> NormEstimate:
    """p = 2 closed path by orthogonality (dual route to besov_mu)."""
    c = frac_derivative(g, w).coeffs

    def H(r):
        with np.errstate(over="ignore", divide="ignore"):
            return np.asarray(w.tail(r), dtype=float) ** 2 / (1.0 - r * r) ** 2

    qs = 2 * np.arange(len(c)) + 1
    vals, errs, diverged = radial_integrals(H, qs, spec)
    if diverged:
        return NormEstimate(np.inf, np.inf, tag="besov-mu-series", diverged=True)
    value = float(np.sum(np.abs(c) ** 2 * 2.0 * vals))
    err = float(np.sum(np.abs(c) ** 2 * 2.0 * errs))
    return NormEstimate(value, err, tag="besov-mu-series",
                        truncation={"series": g.degree, "p": 2})


def besov_classical(g: TaylorSeries, p: float,
                    spec: QuadratureSpec = DEFAULT_SPEC) -> NormEstimate:
    """||g||^p in B_p: derivative order n_p = least n with n p > 1."""
    n_p = 1
    while n_p * p <= 1.0:
        n_p += 1
    head = 0.0
    gk = g
    for _ in range(n_p):
        head += abs(gk(0.0)) ** p
        gk = gk.derivative()
    # gk is now the n_p-th derivative
    m = angular_nodes_for_degree(g.degree, spec)
    expo = n_p * p - 2.0
    value = head + _disc_p_integral(gk.coeffs, p,
                                    lambda r: (1.0 - r ** 2) ** expo, m, spec)
    return NormEstimate(value, 0.0, tag="besov-classical",
                        truncation={"series": g.degree, "p": p, "n_p": n_p})


def bergman_norm(f: TaylorSeries, alpha: float, p: float,
                 spec: QuadratureSpec = DEFAULT_SPEC) -> NormEstimate:
    """||f||^p in A^p_alpha with dA_alpha = (alpha+1)(1-|z|^2)^alpha dA."""
    if alpha <= -1:
        raise ValueError("bergman_norm needs alpha > -1")
    m = angular_nodes_for_degree(f.degree, spec)
    value = _disc_p_integral(
        f.coeffs, p, lambda r: (alpha + 1.0) * (1.0 - r ** 2) ** alpha, m, spec)
    return NormEstimate(value, 0.0, tag="bergman",
                        truncation={"series": f.degree, "p": p, "alpha": alpha})


def bergman2_coeff(f: TaylorSeries, alpha: float) -> float:
    """||f||^2 in A^2_alpha by orthogonality: the Gamma-ratio norming."""
    n = np.arange(f.degree + 1)
    log_c2 = (math.lgamma(alpha + 2.0) + sps.gammaln(n + 1.0)
              - sps.gammaln(n + alpha + 2.0))
    return float(np.sum(np.abs(f.coeffs) ** 2 * np.exp(log_c2)))


# ---------------------------------------------------------------------------
# Carleson measure suprema
# ---------------------------------------------------------------------------

def carleson_ratio_sup(g: TaylorSeries, w: RadialWeight, alpha: float,
                       anchors: Optional[Sequence[complex]] = None,
                       r: float = 0.5,
                       spec: QuadratureSpec = DEFAULT_SPEC) -> NormEstimate:
    """Carleson supremum of d nu_g = |D(g)|^2 mu_hat^2 dA_alpha.

    alpha = -1: classical squares, sup nu(S(a))/(1-|a|) with
    dA_{-1} = dA/(1-|z|); alpha > -1: hyperbolic discs,
    sup nu(D(a,r))/(1-|a|)^(2+alpha).
    """
    if alpha == -1:
        est = bmoa_mu_sup(g, w, anchors, spec)
        est.tag = "carleson-sup"
        return est
    P = frac_derivative(g, w)
    if anchors is None:
        anchors = default_anchors(depth=10)
    best, best_a = -np.inf, 0j
    for a in anchors:
        pts, wts = disc_quadrature(complex(a), r)
        rr = np.abs(pts)
        vals = np.abs(P(pts)) ** 2 * np.asarray(w.tail(rr), dtype=float) ** 2 \
            * (alpha + 1.0) * (1.0 - rr ** 2) ** alpha
        val = float(np.sum(wts * vals)) / (1.0 - abs(a)) ** (2.0 + alpha)
        if val > best:
            best, best_a = val, complex(a)
    return NormEstimate(float(best), 0.0, tag="carleson-sup",
                        truncation={"series": g.degree, "alpha": alpha, "r": r},
                        anchor=best_a)
