"""Banded truncations of the Volterra-type operator and Schatten quantities.

The operator maps f to the fractional integral of f times the fractional
derivative of the symbol g.  On the monomial basis of A^2_alpha (alpha >= -1,
with alpha = -1 denoting H^2) it is lower triangular and banded:

    M[m, k] = mu_{2m+1} g_{m-k} / mu_{2(m-k)+1} * c_m / c_k,   0 <= m-k <= deg g,

where c_n = ||z^n|| in the ambient space (c_n = 1 on H^2, the Gamma-ratio
norming on A^2_alpha).  The comparison operator is the Toeplitz matrix of
the measure |D(g)|^2 mu_hat^2 dA_alpha, whose entries collapse to finitely
many radial integrals because |D(g)|^2 is a trigonometric polynomial; the
exact angular reduction is mandatory here, no 2-D quadrature is involved.

Every truncation is stored as its band, entries[k, j] = M[k + j, k] (zero
where k + j >= N), in O(N deg g) memory; a Toeplitz matrix keeps its lower
band.  `OperatorMatrix.dense` expands a band for the library and the tests.

Radial measure convention for alpha = -1: dA_{-1} = dA / (1 - |z|), matching
the H^2 Littlewood-Paley density mu_hat^2/(1-|z|) used by the space norms.

Singular values come from the banded Gram matrix M^H M, Hermitian with
bandwidth deg g, whose diagonals are formed from those of M and passed to
the banded Hermitian eigensolver (Golub & Van Loan, Matrix Computations,
section 8.4); sigma is the square root of its eigenvalues clamped at 0.
Squaring costs accuracy only at the bottom of the spectrum: eigenvalues
are off by about eps * sigma_max^2, so a singular value sigma is off by
about eps * sigma_max^2 / sigma, which is rounding level at the top of the
spectrum and at most about sqrt(eps) * sigma_max (absolute) for tiny sigma.
The tests keep a dense SVD as the independent oracle.

Every Schatten number is reported at its truncation with an N/2-vs-N
convergence stamp; non-decaying truncation growth is the first-class
signal for the cut-off regime where only g = 0 is admissible.  A request
for several exponents shares the two spectra (`truncation_spectra`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import Lattice, ball_integrals
from .norms import _lp_factor, basis_norms
from .quad import NormEstimate, radial_integrals
from .taylor import TaylorSeries, cauchy_product, frac_derivative, frac_integral
from .weights import RadialWeight

DEFAULT_TRUNCATION = 256
# thresholds for the truncation-growth monitor
NO_PLATEAU_RATIO = 1.01
PLATEAU_RATIO = 1.002


class OperatorError(Exception):
    pass


@dataclass
class OperatorMatrix:
    entries: np.ndarray
    alpha: float
    kind: str = "volterra"

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def __post_init__(self):
        if not np.all(np.isfinite(self.entries)):
            raise OperatorError("matrix entries must be finite")

    def dense(self) -> np.ndarray:
        """The full N x N matrix; a Toeplitz band gets its conjugate mirror."""
        A = np.zeros((self.dimension, self.dimension), dtype=complex)
        k, j = np.nonzero(self.entries)
        if self.kind == "toeplitz":
            A[k, k + j] = np.conj(self.entries[k, j])
        A[k + j, k] = self.entries[k, j]      # after the mirror: the diagonal
        return A


@dataclass
class SingularSpectrum:
    values: np.ndarray
    truncation: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if np.any(v < -1e-12):
            raise OperatorError("singular values must be nonnegative")
        if np.any(np.diff(v) > 1e-12):
            raise OperatorError("singular values must be non-increasing")
        self.values = np.maximum(v, 0.0)


def volterra_matrix(w: RadialWeight, g: TaylorSeries, alpha: float,
                    N: int = DEFAULT_TRUNCATION) -> OperatorMatrix:
    """N x N truncation of the operator with symbol g on A^2_alpha (band)."""
    if alpha < -1:
        raise OperatorError("alpha must be >= -1")
    if g.degree >= N:
        raise OperatorError("symbol degree must stay below the truncation")
    mus = w.odd_moments(N)
    c = basis_norms(alpha, N)
    gh = g.coeffs
    band = np.zeros((N, g.degree + 1), dtype=complex)
    for j in range(g.degree + 1):       # a zero coefficient writes zeros
        m = np.arange(j, N)
        band[: N - j, j] = mus[m] * gh[j] / mus[j] * c[m] / c[m - j]
    return OperatorMatrix(band, alpha)


def apply_matrix(M: OperatorMatrix, f: TaylorSeries) -> TaylorSeries:
    """Image of f under the truncated matrix, back in Taylor coefficients."""
    N = M.dimension
    if f.degree >= N:
        raise OperatorError("input degree exceeds the truncation")
    c = basis_norms(M.alpha, N)
    v = np.zeros(N, dtype=complex)
    v[: f.degree + 1] = f.coeffs * c[: f.degree + 1]
    out = M.dense() @ v
    return TaylorSeries.from_coeffs(out / c)


def apply_compositional(w: RadialWeight, g: TaylorSeries, f: TaylorSeries,
                        N: int) -> TaylorSeries:
    """I(f * D(g)) truncated: the defining composition, the dual path."""
    prod = cauchy_product(f, frac_derivative(g, w), truncation=N - 1)
    return frac_integral(prod, w)


def toeplitz_matrix(w: RadialWeight, g: TaylorSeries, alpha: float,
                    N: int = DEFAULT_TRUNCATION) -> OperatorMatrix:
    """Toeplitz operator of d mu_g = |D(g)|^2 mu_hat^2 dA_alpha on A^2_alpha.

    <T e_k, e_m> = int e_k conj(e_m) d mu_g; the angular integral picks the
    (m - k)-th Fourier mode of |D(g)|^2, so entries are Hermitian, banded
    with bandwidth deg g, and reduce to the radial integrals
    I[j] = int_0^1 r^(2j+1) mu_hat(r)^2 rho_alpha(r) dr.
    """
    if alpha < -1:
        raise OperatorError("alpha must be >= -1")
    c = basis_norms(alpha, N)
    dg = frac_derivative(g, w).coeffs
    d = len(dg) - 1
    if alpha == -1:
        H = _lp_factor(w)
    else:
        def H(r):
            return (np.asarray(w.tail(r), dtype=float) ** 2
                    * (alpha + 1.0) * (1.0 - r ** 2) ** alpha)
    I, _, diverged = radial_integrals(H, 2 * np.arange(N + d + 1) + 1)
    if diverged:
        raise OperatorError("the Toeplitz measure is not finite")
    band = np.zeros((N, min(d, N - 1) + 1), dtype=complex)
    for off in range(band.shape[1]):
        wl = dg[off:] * np.conj(dg[: d + 1 - off])          # l = 0..d-off
        m = np.arange(off, N)
        acc = np.zeros(len(m), dtype=complex)
        for l, coef in enumerate(wl):
            # radial power k + j + m + l + 1 with k = m - off, j = l + off
            acc += coef * I[m + l]
        band[: N - off, off] = 2.0 * acc / (c[m] * c[m - off])
    return OperatorMatrix(band, alpha, kind="toeplitz")


def singular_values(M: OperatorMatrix) -> SingularSpectrum:
    """Singular values of a lower-triangular band, from the eigenvalues of
    its banded Gram matrix.  A Toeplitz band, whose matrix also has the
    mirrored upper band, raises OperatorError."""
    if M.kind != "volterra":
        raise OperatorError("singular values need a lower-triangular band")
    N = M.dimension
    # D[j] is the j-th subdiagonal; C order keeps the Gram sums' rounding
    D = np.ascontiguousarray(M.entries.T)
    nonzero = np.flatnonzero(D.any(axis=1))
    if len(nonzero) == 0:
        return SingularSpectrum(np.zeros(N), N)
    # only subdiagonals lo..hi meet in M^H M, so its bandwidth is hi - lo
    # (a monomial symbol gives a diagonal Gram matrix)
    B = D[nonzero[0]: nonzero[-1] + 1]
    u = len(B) - 1
    # lower band storage: gram[s, i] = (M^H M)[i + s, i]
    gram = np.zeros((u + 1, N), dtype=complex)
    for s in range(u + 1):
        gram[s, : N - s] = np.sum(B[s:, : N - s] * np.conj(B[: u + 1 - s, s:]),
                                  axis=0)
    # imported here: scipy.linalg adds about 65 ms and 5 MB to every command
    # that loads this module, and only spectra need it
    from scipy.linalg import eigvals_banded
    ev = eigvals_banded(gram, lower=True, overwrite_a_band=True,
                        check_finite=False)
    vals = np.sort(np.sqrt(np.maximum(ev, 0.0)))[::-1]
    return SingularSpectrum(vals, N)


def schatten_norm(spectrum: SingularSpectrum, p: float) -> NormEstimate:
    """(sum lambda^p)^(1/p) at the spectrum's truncation."""
    if p <= 0:
        raise ValueError("p must be positive")
    value = float(np.sum(spectrum.values ** p) ** (1.0 / p))
    # no error is estimated at a single truncation
    return NormEstimate(value, math.nan, tag="schatten",
                        truncation={"N": spectrum.truncation, "p": p})


def truncation_spectra(w: RadialWeight, g: TaylorSeries, alpha: float,
                       N: int = DEFAULT_TRUNCATION) -> tuple:
    """Spectra of the N x N truncation and of its leading N/2 block."""
    big = volterra_matrix(w, g, alpha, N)
    h = N // 2
    # keep k + j < h: the lower triangle of the row-reversed band
    half = OperatorMatrix(np.tril(big.entries[:h, :h][::-1])[::-1], alpha)
    return singular_values(big), singular_values(half)


def schatten_with_monitor(w: RadialWeight, g: TaylorSeries, alpha: float,
                          p: float, N: int = DEFAULT_TRUNCATION,
                          spectra: Optional[tuple] = None) -> NormEstimate:
    """Schatten norm at truncation N with the N/2-vs-N convergence stamp.

    The ``diverged`` flag is raised when the norm still grows by more than
    the no-plateau ratio between N/2 and N, the signature of the cut-off
    regime where the full operator lies in no Schatten class.  ``spectra``
    is the pair `truncation_spectra(w, g, alpha, N)` when the caller already
    holds it, so that several exponents share two spectra.
    """
    full, half = spectra if spectra is not None else \
        truncation_spectra(w, g, alpha, N)
    val_full = schatten_norm(full, p).value
    val_half = schatten_norm(half, p).value
    ratio = val_full / val_half if val_half > 0 else 1.0
    return NormEstimate(val_full, abs(val_full - val_half), tag="schatten",
                        truncation={"N": N, "p": p, "alpha": alpha,
                                    "half_ratio": ratio},
                        diverged=bool(ratio > NO_PLATEAU_RATIO))


def schatten_truncation_profile(w: RadialWeight, g: TaylorSeries, alpha: float,
                                p: float, Ns: Sequence[int]) -> list:
    """Schatten norms along a truncation ladder (divergence witness)."""
    out = []
    for N in Ns:
        M = volterra_matrix(w, g, alpha, int(N))
        out.append(schatten_norm(singular_values(M), p).value)
    return out


def lattice_schatten_sum(w: RadialWeight, g: TaylorSeries, p: float,
                         lattice: Lattice, n_rad: int = 24,
                         n_ang: int = 48) -> NormEstimate:
    """Discretised Besov-type sum over the lattice balls:

    sum_j ( (1/(1-|z_j|^2)^2) int_{D(z_j, r)} |D(g)|^2 mu_hat^2 dA )^(p/2).
    """
    P = frac_derivative(g, w)
    r = lattice.separation
    per = ball_integrals(lambda z: np.abs(P(z)) ** 2 * np.asarray(
        w.tail(np.abs(z)), dtype=float) ** 2, lattice.points, r, n_rad, n_ang)
    scale = (1.0 - np.abs(lattice.points) ** 2) ** 2
    total = float(np.sum((per / scale) ** (p / 2.0)))
    # err: not estimated (one lattice, one ball rule)
    return NormEstimate(total, math.nan, tag="lattice-schatten",
                        truncation={"lattice": len(lattice.points),
                                    "r": r, "p": p,
                                    "max_radius": lattice.max_radius})


def rayleigh_comparability(w: RadialWeight, g: TaylorSeries, alpha: float,
                           corpus: Sequence[TaylorSeries],
                           N: int = DEFAULT_TRUNCATION) -> dict:
    """<T f, f> / ||V f||^2 across a corpus; the two-sided bound witness."""
    V = volterra_matrix(w, g, alpha, N).dense()
    T = toeplitz_matrix(w, g, alpha, N).dense()
    c = basis_norms(alpha, N)
    ratios = []
    for f in corpus:
        if f.degree >= N:
            raise OperatorError("corpus degree exceeds truncation")
        # coordinates in the orthonormal basis z^n / c_n
        v = np.zeros(N, dtype=complex)
        v[: f.degree + 1] = f.coeffs * c[: f.degree + 1]
        img_norm = float(np.sum(np.abs(V @ v) ** 2))
        if img_norm != 0:
            ratios.append(float(np.real(np.conj(v) @ (T @ v))) / img_norm)
    ratios = np.array(ratios)
    spread = float(np.max(ratios) / np.min(ratios)) if len(ratios) else np.nan
    return {"ratios": ratios, "max_over_min": spread}
