"""Norms, seminorms and Carleson quantities compared by the equivalences.

Every quantity here is driven by the fractional derivative P = D(f) of the
input series, whose squared modulus on a circle of radius r is the
trigonometric polynomial

    |P(r e^(i theta))|^2 = A_0(r) + 2 Re sum_{k>=1} A_k(r) e^(ik theta),
    A_k(r) = sum_m c_{m+k} conj(c_m) r^(2m+k).

Angular integrals over full circles, cones |arg z - arg xi| < 1 - |z| and
Carleson squares therefore collapse to closed windowed sums of the A_k, so
the only quadrature error left is radial.  The Besov and Bergman p-means
sample P itself on each ring's m angles (half of them for a real series)
by one real matrix product per block of rings, and average (|P|^2)^(p/2).
Radial integrals run on the geometric Gauss-Legendre panels of
:mod:`fracvolt.quad`; a Carleson square's are suffix integrals of one
panel function with a column per lag A_k.  Suprema over disc anchors are
maxima over an explicit anchor set (lattice plus radial rays) and report
their argmax anchor.

Every rule is fixed: the reference grid of :mod:`fracvolt.quad`,
TENT_XI_NODES boundary points for the tent norm, BLOCH_ANGLES angles per
ring for the Bloch supremum, and for the BMOA kernel test the exponent
lambda = 2 on the reduced KERNEL_LEVELS grid.

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

from .geometry import build_lattice
from .quad import (NormEstimate, PanelFunction, angular_nodes_for_degree,
                   radial_diverges, radial_integrals, radial_nodes)
from .taylor import TaylorSeries, frac_derivative
from .weights import RadialWeight, _power_tail

# (left, right) levels of the reduced radial grid of the kernel integral:
# measures with polynomial densities carry no mass beyond 1 - 2^-20
KERNEL_LEVELS = (12, 20)

# Boundary points xi of the tent norm's outer integral (more when the
# angular degree needs them), and angles per ring of the Bloch supremum.
TENT_XI_NODES = 512
BLOCH_ANGLES = 2048

# Elements (rows x columns) per block of the radius-by-angle loops: the
# ring samples of the p-means (Re P and Im P, two columns per angle) and
# the circle samples of bloch_mu.  A real array of a block (the p-means'
# Re P and Im P) takes 1 MB, a complex one (bloch_mu's samples) 2 MB.
# With blocks of 8 MB or more the allocator handed the scratch back to the
# system after each call and every Besov p-mean page-faulted about 6 MB
# back in; blocks this size are reused from the heap, and the extra loop
# passes cost no measurable time.
BLOCK_ELEMENTS = 2 ** 17

# Relative slack on the upper bounds that let bloch_mu and bmoa_kernel_sup
# skip radii: a radius is skipped only when its bound times 1 + BOUND_SLACK
# is below a value already found.  Both sides are sums of a few thousand
# terms, so their rounding stays many orders below this.
BOUND_SLACK = 1e-9


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

def check_exponent(p: float) -> None:
    """ValueError unless 0 < p < inf; NaN fails too."""
    if not 0.0 < p < math.inf:
        raise ValueError(f"p must be positive and finite, got {p!r}")


def _row_blocks(n_rows: int, row_len: int):
    """Slices of at most max(1, BLOCK_ELEMENTS // row_len) rows."""
    step = max(1, BLOCK_ELEMENTS // row_len)
    for i in range(0, n_rows, step):
        yield slice(i, min(i + step, n_rows))


def _power_matrix(radii: np.ndarray, jmax: int) -> np.ndarray:
    """P[i, j] = radii_i^j for j = 0..jmax (cumulative products)."""
    out = np.empty((len(radii), jmax + 1))
    out[:, 0] = 1.0
    for j in range(1, jmax + 1):
        np.multiply(out[:, j - 1], radii, out=out[:, j])
    return out


def angular_autocorr(coeffs: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """A[i, k] = sum_m c_{m+k} conj(c_m) radii_i^(2m+k), k = 0..deg.

    One real product of the power matrix against the real and imaginary
    parts of the lag products, column k holding c_{m+k} conj(c_m) in row
    k + 2m (the pair n = m + k >= m lands in row n + m, column n - m).
    """
    c = np.asarray(coeffs, dtype=complex)
    d = len(c) - 1
    n, m = np.tril_indices(d + 1)
    W = np.zeros((2 * d + 1, d + 1), dtype=complex)
    W[n + m, n - m] = c[n] * np.conj(c[m])
    with np.errstate(under="ignore"):
        R = _power_matrix(radii, 2 * d) @ np.hstack([W.real, W.imag])
    return R[:, : d + 1] + 1j * R[:, d + 1:]


def _sample_circle(coeffs: np.ndarray, radii: np.ndarray, m: int) -> np.ndarray:
    """|P(r e^(i theta))| sampled on m uniform angles, per radius.

    Only the coefficients (folded onto m frequencies) are stored; the
    inverse FFT pads them to m, so the samples are the only m-wide array.
    Only :func:`bloch_mu` samples this way, for its anchor: on
    ``norm --name bloch --weight std:1 --symbol mono:1`` the maximum is
    an exact tie over the angles, the FFT's rounding picks
    0.2109+0.4530j, and the matrix-product samples of
    :func:`_ring_samples` would pick 0.4254+0.2621j, which the
    benchmark's reference outputs refuse.
    """
    c = np.asarray(coeffs, dtype=complex)
    spectrum = np.zeros((len(radii), min(len(c), m)), dtype=complex)
    with np.errstate(under="ignore"):
        P = _power_matrix(radii, len(c) - 1)
    for n, cn in enumerate(c):
        spectrum[:, n % m] += cn * P[:, n]
    samples = np.fft.ifft(spectrum, n=m, axis=1)
    samples *= m
    return np.abs(samples)


def _circle_table(c: np.ndarray, m: int):
    """(T, weights): T holds Re and Im of c_n e^(i n theta_t) side by side
    (columns 2t and 2t + 1 of row n) on the angles theta_t = 2 pi t / m
    that a ring's mean needs, and the weights of those angles in the
    m-angle mean.

    The phase of row n at angle t is root (n t) mod m, so a degree >= m
    aliases onto the m angles as sampling P does.  When the coefficients
    are real or purely imaginary, |P(r e^(-i theta))| = |P(r e^(i theta))|,
    so only t = 0..m//2 are taken, with weights (1, 2, ..., 2, 1)/m (the
    last 2/m for odd m); otherwise all m angles, each with weight 1/m.
    """
    half = not np.any(c.imag) or not np.any(c.real)
    cols = m // 2 + 1 if half else m
    phase = np.outer(np.arange(len(c)), np.arange(cols))
    phase %= m
    table = np.exp(2j * np.pi / m * np.arange(m))[phase]
    table *= c[:, None]
    weights = np.full(cols, 1.0 / m)
    if half:
        weights[1:(m + 1) // 2] = 2.0 / m
    return table.view(float), weights


def _ring_samples(powers: np.ndarray, table: np.ndarray) -> np.ndarray:
    """|P|^2 at the table's angles, one row per row of the power matrix
    [r^0 ... r^deg]: Re P and Im P by one real product, then Re^2 + Im^2."""
    parts = powers @ table
    np.square(parts, out=parts)
    return parts[:, 0::2] + parts[:, 1::2]


def _ring_p_means(coeffs: np.ndarray, p: float, radii: np.ndarray, m: int):
    """(means, scale): the m-angle means of |P|^p on each radius, divided
    by scale = (2^e)^p.

    Each ring is sampled over its true angular period only.  If every
    exponent in P's support is v mod g, then P(z) = z^v Q(z^g), so
    |P(r e^(i theta))| = r^v |Q(r^g e^(i g theta))| has period 2 pi / g.
    With g = gcd(m, every support exponent minus v), the m uniform angles
    repeat the values at the first m/g of them g times over, and
    theta_j -> g theta_j maps those m/g angles onto the uniform
    (m/g)-point grid.  So the m-angle mean of |P|^p equals the (m/g)-angle
    mean of (r^v |Q|)^p exactly; only rounding differs.  A single term
    needs one sample per ring, as does the zero series (g = m).  When
    g = 1, P itself is sampled on all m angles.

    The samples of a block of rows are one real product of its power
    matrix against :func:`_circle_table` (:func:`_ring_samples`), so no
    lag, fold or inverse FFT is formed; for real (or purely imaginary)
    coefficients only half the circle is.  |P|^2 is then scaled by
    r^(2v).  The coefficients are first scaled by 2^-e, with e the binary
    exponent of max |c_n|, so that squaring neither underflows nor
    overflows; the caller scales back by (2^e)^p (exp2(e p) would round
    e p first, 2.4e-15 relative at e p = 36).
    Rounding: Re P and Im P are sums of terms of size up to S = sum |c_n|
    r^n, so each carries an absolute error of about eps S, and |P|^2 =
    Re^2 + Im^2 is never negative.  Near a zero of P that is a large
    relative error in |P|^p, but the samples it affects carry a negligible
    share of the mean.
    """
    c = np.array(coeffs, dtype=complex)
    support = np.flatnonzero(c)
    v = int(support[0]) if len(support) else 0
    g = math.gcd(m, *(int(n) - v for n in support))
    e = int(np.frexp(np.max(np.abs(c)))[1]) if len(support) else 0
    c = np.ldexp(c.view(float), -e).view(complex)
    rows, shift = radii, None
    if g > 1:
        c, m = c[v::g], m // g
        with np.errstate(under="ignore"):
            rows, shift = radii ** g, radii ** (2 * v)
    table, angle_weights = _circle_table(c, m)
    with np.errstate(under="ignore"):
        powers = _power_matrix(rows, len(c) - 1)
    mean_p = np.empty(len(radii))
    for sl in _row_blocks(len(radii), table.shape[1]):
        sq = _ring_samples(powers[sl], table)
        if shift is not None:
            sq *= shift[sl, None]
        mean_p[sl] = sq ** (p / 2.0) @ angle_weights
    with np.errstate(over="ignore"):
        return mean_p, np.power(np.ldexp(1.0, e), p)


def _disc_p_integral(coeffs: np.ndarray, p: float, density, m: int) -> float:
    """int_D |P|^p density(|z|) dA: per-radius means of |P|^p on m angles
    (:func:`_ring_p_means`) against the radial rule."""
    nodes, weights = radial_nodes()
    mean_p, scale = _ring_p_means(coeffs, p, nodes, m)
    with np.errstate(over="ignore", divide="ignore", under="ignore"):
        dens = density(nodes)
        return float(np.sum(2.0 * weights * nodes * dens * mean_p) * scale)


def _lp_factor(w: RadialWeight):
    """H(r) = mu_hat(r)^2 / (1 - r): the radial factor of the H^2
    Littlewood-Paley form and of the BMOA Carleson measure."""
    def H(r):
        with np.errstate(over="ignore", divide="ignore"):
            return np.asarray(w.tail(r), dtype=float) ** 2 / (1.0 - r)
    return H


def _window_weights(h: np.ndarray, kmax: int) -> np.ndarray:
    """Row i: int over |theta - phi| <= h_i of e^(ik(theta - phi)), that is
    2 h_i and 2 sin(k h_i)/k for k = 1..kmax."""
    k = np.arange(1, kmax + 1)
    out = np.empty((len(h), kmax + 1))
    out[:, 0] = 2.0 * h
    out[:, 1:] = 2.0 * np.sin(np.outer(h, k)) / k
    return out


def _phase_sum(G: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """G_0 + 2 Re sum_{k>=1} G_k e^(ik phi) per angle (row i of G belongs
    to angles[i]): a trigonometric polynomial with real G_0."""
    k = np.arange(1, G.shape[1])
    phase = np.exp(1j * np.outer(angles, k))
    return G[:, 0].real + 2.0 * np.sum((G[:, 1:] * phase).real, axis=1)


def _first_max(values: np.ndarray, anchors: np.ndarray):
    """(largest value, its anchor): the first in input order on ties, NaN
    values passed over, and (-inf, 0j) when no value exceeds -inf."""
    values = np.where(np.isnan(values), -np.inf, values)
    if len(values) == 0 or values.max() == -np.inf:
        return -np.inf, 0j
    i = int(np.argmax(values))
    return float(values[i]), complex(anchors[i])


class SquareMachine:
    """Carleson-square integrals of |P|^2 against a radial factor H.

    ``P`` is the already-differentiated series whose square modulus is the
    density.  nu(S(a)) is a window sum over the lags k of the radial
    integrals int_|a|^1 r H(r) A_k(r) dr, and those of every lag are the
    suffix integrals of one :class:`~fracvolt.quad.PanelFunction` with a
    column per lag, so an anchor's radial part is one suffix integral.

    Only the phase e^(ik arg a) depends on more than t = |a|, so a batch
    of anchors is grouped by its exact radii: one suffix integral and one
    set of windows per distinct radius, and each anchor then costs one
    phase sum.
    """

    def __init__(self, P: TaylorSeries, radial_factor):
        nodes, _ = radial_nodes()
        self.degree = P.degree
        A = angular_autocorr(P.coeffs, nodes)
        A *= (nodes * radial_factor(nodes))[:, None]
        self.lags = PanelFunction.from_values(A)

    def square_mass(self, a):
        """nu(S(a)) for the measure |D(f)|^2 H(|z|) dA; ``a`` is one anchor
        (a float is returned) or an array of them."""
        anchors = np.asarray(a, dtype=complex)
        flat = anchors.ravel()
        t, inverse = np.unique(np.abs(flat), return_inverse=True)
        G = _window_weights((1.0 - t) / 2.0, self.degree) \
            * self.lags.suffix_integral(t)
        out = _phase_sum(G[inverse], np.angle(flat)) / np.pi
        # S(0) is the whole disc, not a window of half-width 1/2
        out[flat == 0] = 2.0 * self.lags.suffix[0][0].real
        return float(out[0]) if anchors.ndim == 0 else out.reshape(anchors.shape)


@lru_cache(maxsize=8)
def _cached_lattice_points(r: float, seed: int, max_radius: float):
    return build_lattice(r, seed=seed, max_radius=max_radius)


def default_anchors(depth: int = 12, lattice_r: float = 0.7, seed: int = 0,
                    max_radius: float = 1.0 - 2.0 ** -6) -> np.ndarray:
    """Anchor set for disc suprema: origin, radial rays, and a lattice.

    The lattice covers the bulk; the rays carry the anchors toward the
    boundary, where square masses of polynomial measures decay anyway.
    """
    rays = 1.0 - 2.0 ** -np.arange(1.0, depth + 1)
    return np.concatenate([np.array([0.0 + 0.0j]), rays.astype(complex),
                           _cached_lattice_points(lattice_r, seed, max_radius)])


# ---------------------------------------------------------------------------
# Hardy-type quantities
# ---------------------------------------------------------------------------

def hardy2_coeff(f: TaylorSeries) -> NormEstimate:
    """H^2 norm squared by Parseval: sum |f_n|^2."""
    val = float(np.sum(np.abs(f.coeffs) ** 2))
    return NormEstimate(val, 0.0, tag="hardy2-coeff",
                        truncation={"series": f.degree})


def hardy2_lp(f: TaylorSeries, w: RadialWeight) -> NormEstimate:
    """int_D |D(f)|^2 mu_hat^2 / (1 - |z|) dA via the radial series.

    Orthogonality collapses the angular integral:
    sum_n |f_n / mu_{2n+1}|^2 * 2 int_0^1 r^(2n+1) mu_hat(r)^2/(1-r) dr.
    """
    c = frac_derivative(f, w).coeffs
    vals, errs, diverged = radial_integrals(_lp_factor(w),
                                            2 * np.arange(len(c)) + 1)
    if diverged:
        return NormEstimate(np.inf, np.inf, tag="hardy2-lp", diverged=True,
                            truncation={"series": f.degree})
    sq = np.abs(c) ** 2
    return NormEstimate(float(np.sum(sq * 2.0 * vals)),
                        float(np.sum(sq * 2.0 * errs)), tag="hardy2-lp",
                        truncation={"series": f.degree})


def h2_monomial_ratios(w: RadialWeight, ns) -> np.ndarray:
    """int_0^1 mu_hat^2/(1-r) r^(2n+1) dr / mu_{2n+1}^2 (the discrete witness),
    batched over the monomial degrees ``ns``."""
    ns = np.asarray(ns, dtype=int)
    vals, _, diverged = radial_integrals(_lp_factor(w), 2 * ns + 1)
    if diverged:
        return np.full(len(ns), np.inf)
    mus = np.array([w.moment(2 * int(n) + 1) for n in ns])
    return vals / mus ** 2


def tent_norm_power(f: TaylorSeries, w: RadialWeight, p: float) -> NormEstimate:
    """The p-th power of the tent norm of f through D(f).

    inner(xi) = int_{cone(xi)} |D(f)|^2 (mu_hat/(1-|z|))^2 dA,
    outer     = (1/2) int_0^{2pi} inner(xi)^(p/2) d(arg xi).

    Per ring, the cone cuts the window |theta - arg xi| < 1 - r whose
    integral against |D(f)|^2 is evaluated in closed form from the A_k
    (exact trigonometric windowing); the outer integral is a uniform
    trapezoid on TENT_XI_NODES points, or more when the angular degree
    needs them, so the xi-grid always exceeds the degree and does not alias.
    ``err``, the gap to the trapezoid on every other xi node, covers the
    outer xi rule only, not the radial rule (exact on both grids at p = 2).
    """
    check_exponent(p)
    P = frac_derivative(f, w)
    nodes, weights = radial_nodes()

    def H(r):
        with np.errstate(over="ignore", divide="ignore"):
            return (np.asarray(w.tail(r), dtype=float) / (1.0 - r)) ** 2

    # integrability of the cone-integrated density mu_hat^2/(1-r)
    if radial_diverges(_lp_factor(w)(nodes)):
        return NormEstimate(np.inf, np.inf, tag="tent-power", diverged=True,
                            truncation={"series": f.degree, "p": p})

    A = angular_autocorr(P.coeffs, nodes)
    d = P.degree
    win = _window_weights(1.0 - nodes, d)
    base = (weights * nodes * H(nodes))[:, None]
    B = np.sum(base * win * A, axis=0) / np.pi

    m = int(max(TENT_XI_NODES, 2 ** math.ceil(math.log2(max(2, 2 * d + 2)))))
    phi = 2.0 * np.pi * np.arange(m) / m
    inner = _phase_sum(np.broadcast_to(B, (m, d + 1)), phi)
    powered = np.maximum(inner, 0.0) ** (p / 2.0)
    value = float(np.pi / m * np.sum(powered))
    err = abs(value - float(2.0 * np.pi / m * np.sum(powered[::2])))
    return NormEstimate(value, err, tag="tent-power",
                        truncation={"series": f.degree, "xi": m, "p": p})


def tent_norm(f: TaylorSeries, w: RadialWeight, p: float) -> NormEstimate:
    est = tent_norm_power(f, w, p)
    est.tag = "tent"
    if not est.diverged:
        # the xi-rule gap on the root scale, on either side of the value
        lo, hi = max(est.value - est.err, 0.0), est.value + est.err
        est.value = est.value ** (1.0 / p)
        est.err = hi ** (1.0 / p) - lo ** (1.0 / p)
    return est


def hardy_p_reference(f: TaylorSeries, p: float) -> NormEstimate:
    """M_p(r, f) at r = 1 - 2^-30: the reference H^p norm for polynomials."""
    r0 = 1.0 - 2.0 ** -30
    d = f.degree
    m = angular_nodes_for_degree(d)
    mean_p, scale = _ring_p_means(f.coeffs, p, np.array([r0]), m)
    value = float((mean_p[0] * scale) ** (1.0 / p))
    # err: not estimated (the circle mean at one radius near 1)
    return NormEstimate(value, math.nan, tag="hardy-p-reference",
                        truncation={"series": d, "angular": m})


# ---------------------------------------------------------------------------
# BMOA-type quantities
# ---------------------------------------------------------------------------

def _square_sup(machine: SquareMachine, anchors, tag: str,
                degree: int) -> NormEstimate:
    anchors = np.asarray(default_anchors() if anchors is None else anchors,
                         dtype=complex)
    best, best_a = _first_max(
        machine.square_mass(anchors) / (1.0 - np.abs(anchors)), anchors)
    return NormEstimate(best, math.nan, tag=tag,
                        truncation={"series": degree, "anchors": len(anchors)},
                        anchor=best_a)


def bmoa_mu_sup(g: TaylorSeries, w: RadialWeight,
                anchors: Optional[Sequence[complex]] = None) -> NormEstimate:
    """sup_a nu_g(S(a)) / (1 - |a|),  d nu_g = |D(g)|^2 mu_hat^2/(1-|z|) dA."""
    machine = SquareMachine(frac_derivative(g, w), _lp_factor(w))
    return _square_sup(machine, anchors, "bmoa-mu", g.degree)


def bmoa_classical(g: TaylorSeries,
                   anchors: Optional[Sequence[complex]] = None) -> NormEstimate:
    """Classical BMOA seminorm squared:
    sup_a int_{S(a)} |g'|^2 (1-|z|^2) dA / (1-|a|)."""
    machine = SquareMachine(g.derivative(), lambda r: 1.0 - r * r)
    return _square_sup(machine, anchors, "bmoa-classical", g.degree)


def vanishing_profile(g: TaylorSeries, w: RadialWeight, depth: int = 12):
    """(|a|, nu_g(S(a))/(1-|a|)) along a = 1 - 2^-j; j = 1..depth."""
    machine = SquareMachine(frac_derivative(g, w), _lp_factor(w))
    a = 1.0 - 2.0 ** -np.arange(1.0, depth + 1)
    return list(zip(a.tolist(), (machine.square_mass(a) / (1.0 - a)).tolist()))


def _kernel_anchor_set(depth: int = 8) -> np.ndarray:
    anchors = [0.0 + 0.0j]
    for j in range(1, depth + 1):
        t = 1.0 - 2.0 ** -j
        count = 12 if j <= 4 else 4
        anchors.extend(t * np.exp(2j * np.pi * (np.arange(count) + 0.5 * j) / count))
    return np.array(anchors)


def _elliptic_ke(q: np.ndarray):
    """Complete elliptic integrals K(q) and E(q) of modulus q (0 <= q < 1)
    by the arithmetic-geometric mean: K = pi / (2 AGM(1, sqrt(1 - q^2))),
    E = K (1 - sum_n 2^(n-1) c_n^2) with c_0 = q, c_(n+1) = (a_n - b_n)/2."""
    a = np.ones_like(q)
    b = np.sqrt((1.0 - q) * (1.0 + q))
    c, scale = q, 0.5
    s = scale * c * c
    for _ in range(64):
        if not np.any(c > 2.0 ** -53 * a):
            break
        c = 0.5 * (a - b)
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        scale *= 2.0
        s += scale * c * c
    K = np.pi / (2.0 * a)
    return K, K * (1.0 - s)


def _laplace_khat(q: np.ndarray, d: int) -> np.ndarray:
    """khat_k(q) = (1/2pi) int cos(k psi) |1 - q e^(i psi)|^-3 d psi for
    k = 0..d, per q = |a| r (rows): the lambda = 2 kernel coefficients,
    half the Laplace coefficients b_(3/2)^(k)(q) of celestial mechanics.

    khat_0 = (2/pi) [2E - (1-q^2) K] / (1-q^2)^2 from the AGM
    (:func:`_elliptic_ke`).  The higher k satisfy the three-term
    recurrence (s = 3/2)

        (k - s + 1) khat_(k+1) = k (q + 1/q) khat_k - (k + s - 1) khat_(k-1),

    whose solution khat_k ~ q^k is minimal, so it runs two ways:

    * q > switch: forward from khat_0 and
      khat_1 = (2/pi) [(1+q^2) E - (1-q^2) K] / (q (1-q^2)^2), the
      s-raising of the s = 1/2 pair (2/pi) K and (2/pi) (K - E) / q;
    * q <= switch: Miller's backward ratios
      r_k = (k+s-1) q / (k (1+q^2) - (k-s+1) q r_(k+1)), started from
      r = 0 at n = d + ceil(20 / -ln switch) (190 steps above d at the
      0.9 switch, so switch^(2(n-d)) < e^-40), and
      khat_k = khat_0 r_1 ... r_k.  This form has no 1/q, so q = 0 is
      exact (khat = 1, 0, 0, ...).

    The switch is 0.9 up to degree 32 and 0.9^(32/d) above: the forward
    recurrence amplifies rounding like q^-k, which this keeps below
    0.9^-32 (at a fixed 0.9, degree 128 lost 1e-9 and degree 512 every
    digit).  A switch below 0.9 loses digits on the forward side (1.7e-11
    at 0.8, 1.3e-8 at 0.7).
    """
    q = np.asarray(q, dtype=float)
    s = 1.5
    K, E = _elliptic_ke(q)
    w = (1.0 - q) * (1.0 + q)
    out = np.empty((len(q), d + 1))
    out[:, 0] = (2.0 / np.pi) * (2.0 * E - w * K) / w ** 2
    if d == 0:
        return out
    switch = 0.9 ** min(1.0, 32.0 / d)
    up = q > switch
    if np.any(up):
        qu, x = q[up], q[up] + 1.0 / q[up]
        b = out[up]
        b[:, 1] = (2.0 / np.pi) * ((1.0 + qu * qu) * E[up] - w[up] * K[up]) \
            / (qu * w[up] ** 2)
        for k in range(1, d):
            b[:, k + 1] = (k * x * b[:, k] - (k + s - 1.0) * b[:, k - 1]) \
                / (k - s + 1.0)
        out[up] = b
    down = ~up
    if np.any(down):
        qd = q[down]
        qq = 1.0 + qd * qd
        r = np.zeros(len(qd))
        ratios = np.empty((len(qd), d + 1))
        ratios[:, 0] = out[down, 0]
        for k in range(d + math.ceil(20.0 / -math.log(switch)), 0, -1):
            r = (k + s - 1.0) * qd / (k * qq - (k - s + 1.0) * qd * r)
            if k <= d:
                ratios[:, k] = r
        out[down] = np.cumprod(ratios, axis=1)
    return out


class _KernelRings:
    """The radial rings of the kernel integral for one symbol.

    Per ring the angular integral is sum_k A_k(r) e^(ik arg a) khat_k(|a| r),
    where khat are the angular Fourier coefficients of the lambda = 2
    kernel, in closed form (:func:`_laplace_khat`), O(deg) work per ring.
    The khat depend on the anchor only through t = |a|, so one radius
    costs one evaluation of the khat of every ring (:meth:`coefficients`),
    and each anchor of that radius one phase sum.
    """

    def __init__(self, g: TaylorSeries, w: RadialWeight):
        P = frac_derivative(g, w)
        nodes, weights = radial_nodes(*KERNEL_LEVELS)
        base = weights * nodes * _lp_factor(w)(nodes)
        active = base > 1e-18 * np.sum(base)
        self.nodes, self.base = nodes[active], base[active]
        self.A = angular_autocorr(P.coeffs, self.nodes)
        self.degree = P.degree

    def coefficients(self, t: float) -> np.ndarray:
        """u_k(t) = (1-t)^2 2 sum_rings base khat_k(t r) A_k(r)."""
        khat = _laplace_khat(t * self.nodes, self.degree)
        u = np.sum((self.base[:, None] * khat) * self.A, axis=0)
        u *= (1.0 - t) ** 2.0 * 2.0
        return u

    def bounds(self, ts: np.ndarray) -> np.ndarray:
        """Per radius t, an upper bound of the kernel integral at every
        anchor of modulus t:

            (1-t)^2 2 sum_rings base A_0(r) (1 - t r)^-3.

        |1 - conj(a) z| >= 1 - t r bounds the kernel on the ring, and the
        ring term sum_k khat_k A_k e^(ik arg a) is exactly the discrete
        mean of the (symmetrised) kernel times |P|^2 over the ring grid,
        which is at most max K times the mean of |P|^2, that is A_0.
        """
        with np.errstate(divide="ignore", over="ignore"):
            peak = (1.0 - np.outer(ts, self.nodes)) ** -3.0
        return (1.0 - ts) ** 2.0 * 2.0 * (peak @ (self.base * self.A[:, 0].real))


def bmoa_kernel_sup(g: TaylorSeries, w: RadialWeight,
                    anchors: Optional[Sequence[complex]] = None) -> NormEstimate:
    """sup_a int_D (1-|a|)^2 / |1 - conj(a) z|^3 d nu_g(z) over the anchors
    (default ``_kernel_anchor_set()``): the kernel test at lambda = 2.

    Branch and bound over the distinct radii t = |a|: the bound
    (1-t)^2 2 sum_rings base A_0(r) (1 - t r)^-3 of
    :meth:`_KernelRings.bounds` is formed for every t first, the radii run
    in decreasing order of it, and a radius whose bound times
    1 + BOUND_SLACK is below the best value found so far gets no kernel
    coefficients: none of its anchors can reach the maximum.  The value
    and the first-maximum anchor are those of the unpruned sweep (the
    coefficients of every radius, then one phase sum over all anchors),
    bit for bit.
    """
    anchors = np.asarray(_kernel_anchor_set() if anchors is None else anchors,
                         dtype=complex)
    rings = _KernelRings(g, w)
    ts, inverse = np.unique(np.abs(anchors), return_inverse=True)
    angles = np.angle(anchors)
    bound = rings.bounds(ts)
    U = np.zeros((len(ts), rings.degree + 1), dtype=complex)
    done = np.zeros(len(ts), dtype=bool)
    best = -np.inf
    for j in np.argsort(-bound, kind="stable"):
        if bound[j] * (1.0 + BOUND_SLACK) < best:
            continue
        U[j] = rings.coefficients(ts[j])
        done[j] = True
        mine = inverse == j
        vals = _phase_sum(U[inverse[mine]], angles[mine])
        best = max(best, np.max(vals, initial=-np.inf, where=~np.isnan(vals)))
    # one phase sum over all anchors, as in the unpruned sweep, so the
    # values of the radii that ran match it bit for bit
    values = _phase_sum(U[inverse], angles)
    values[~done[inverse]] = -np.inf
    best, best_a = _first_max(values, anchors)
    return NormEstimate(best, math.nan, tag="bmoa-kernel",
                        truncation={"series": g.degree, "lambda": 2.0,
                                    "anchors": len(anchors)},
                        anchor=best_a)


# ---------------------------------------------------------------------------
# Bloch-type quantities
# ---------------------------------------------------------------------------

def bloch_mu(g: TaylorSeries, w: RadialWeight) -> NormEstimate:
    """sup_z mu_hat(|z|) |D(g)(z)| over the radial nodes by BLOCH_ANGLES
    angles.

    Branch and bound over the radial nodes: |D(g)(r e^(i theta))| is at
    most sum_n |c_n| r^n, so B(r) = mu_hat(r) sum_n |c_n| r^n bounds a
    whole ring.  The ring of largest B is sampled first for a lower bound
    L, and only the rings with B (1 + BOUND_SLACK) >= L (or B NaN) are
    sampled, in node order, by the strict ``>`` block scan.  A ring's
    samples do not depend on the other rings of its block, so the value
    and its first-maximum anchor are those of the full grid, bit for bit.
    """
    P = frac_derivative(g, w)
    m = BLOCH_ANGLES
    nodes, _ = radial_nodes()
    tails = np.asarray(w.tail(nodes), dtype=float)
    with np.errstate(under="ignore"):
        bound = tails * (_power_matrix(nodes, P.degree) @ np.abs(P.coeffs))
    top = int(np.argmax(np.where(np.isnan(bound), -np.inf, bound)))
    lower = np.max(_sample_circle(P.coeffs, nodes[top:top + 1], m)
                   * tails[top])
    keep = np.flatnonzero(~(bound * (1.0 + BOUND_SLACK) < lower))
    best, best_z = -np.inf, 0j
    for sl in _row_blocks(len(keep), m):
        rows = keep[sl]
        vals = _sample_circle(P.coeffs, nodes[rows], m)
        vals *= tails[rows][:, None]
        j = int(np.argmax(vals))
        if vals.ravel()[j] > best:
            best = float(vals.ravel()[j])
            ri, ai = divmod(j, m)
            best_z = nodes[rows[ri]] * np.exp(2j * np.pi * ai / m)
    return NormEstimate(best, math.nan, tag="bloch-mu",
                        truncation={"series": g.degree, "angular": m},
                        anchor=complex(best_z))


# ---------------------------------------------------------------------------
# Besov / Bergman quantities
# ---------------------------------------------------------------------------

def tail_weight_test(w: RadialWeight, p: float) -> str:
    """'weight' if mu_hat(r)^p / (1-r)^2 is integrable, else 'not-a-weight'.

    Decided by geometric decay of the trailing panel integrals; zero tails
    (underflow of a rapidly decaying weight) count as decay.
    """
    H = _power_tail(w, p)(radial_nodes()[0])
    return "not-a-weight" if radial_diverges(H) else "weight"


def besov_mu(g: TaylorSeries, w: RadialWeight, p: float) -> NormEstimate:
    """||g||^p in the fractional-derivative Besov space:
    int_D |D(g)|^p mu_hat^p / (1-|z|^2)^2 dA."""
    check_exponent(p)
    if tail_weight_test(w, p) == "not-a-weight":
        return NormEstimate(np.inf, np.inf, tag="besov-mu", diverged=True,
                            truncation={"series": g.degree, "p": p})
    P = frac_derivative(g, w)
    m = angular_nodes_for_degree(g.degree)
    value = _disc_p_integral(
        P.coeffs, p,
        lambda r: np.asarray(w.tail(r), dtype=float) ** p / (1.0 - r ** 2) ** 2,
        m)
    return NormEstimate(value, math.nan, tag="besov-mu",
                        truncation={"series": g.degree, "p": p, "angular": m})


def besov_classical(g: TaylorSeries, p: float) -> NormEstimate:
    """||g||^p in B_p: derivative order n_p = least n with n p > 1."""
    check_exponent(p)
    n_p = 1
    while n_p * p <= 1.0:
        n_p += 1
    head = 0.0
    gk = g
    for _ in range(n_p):
        head += abs(gk(0.0)) ** p
        gk = gk.derivative()
    # gk is now the n_p-th derivative
    m = angular_nodes_for_degree(g.degree)
    expo = n_p * p - 2.0
    value = head + _disc_p_integral(gk.coeffs, p,
                                    lambda r: (1.0 - r ** 2) ** expo, m)
    return NormEstimate(value, math.nan, tag="besov-classical",
                        truncation={"series": g.degree, "p": p, "n_p": n_p})


def bergman_norm(f: TaylorSeries, alpha: float, p: float) -> NormEstimate:
    """||f||^p in A^p_alpha with dA_alpha = (alpha+1)(1-|z|^2)^alpha dA."""
    check_exponent(p)
    if not -1 < alpha < math.inf:
        raise ValueError("bergman_norm needs a finite alpha > -1")
    m = angular_nodes_for_degree(f.degree)
    value = _disc_p_integral(
        f.coeffs, p, lambda r: (alpha + 1.0) * (1.0 - r ** 2) ** alpha, m)
    return NormEstimate(value, math.nan, tag="bergman",
                        truncation={"series": f.degree, "p": p, "alpha": alpha})


def basis_norms(alpha: float, count: int) -> np.ndarray:
    """c_n = ||z^n|| in A^2_alpha, n < count: the Gamma-ratio norming
    c_n^2 = Gamma(alpha + 2) n! / Gamma(n + alpha + 2); ones for alpha = -1
    (H^2)."""
    if alpha == -1:
        return np.ones(count)
    from scipy.special import gammaln
    n = np.arange(count)
    log_c2 = (math.lgamma(alpha + 2.0) + gammaln(n + 1.0)
              - gammaln(n + alpha + 2.0))
    return np.exp(0.5 * log_c2)

