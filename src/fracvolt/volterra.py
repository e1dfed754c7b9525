"""Banded truncations of the Volterra-type operator and Schatten quantities.

The operator maps f to the fractional integral of f times the fractional
derivative of the symbol g.  On the monomial basis of A^2_alpha (alpha >= -1,
with alpha = -1 denoting H^2) it is lower triangular and banded:

    M[m, k] = mu_{2m+1} g_{m-k} / mu_{2(m-k)+1} * c_m / c_k,   0 <= m-k <= deg g,

where c_n = ||z^n|| in the ambient space (c_n = 1 on H^2, the Gamma-ratio
norming on A^2_alpha).

Every truncation is stored as its band, entries[k, j] = M[k + j, k] (zero
where k + j >= N), in O(N deg g) memory: real when every coefficient of g
is, so that its Gram matrix goes to the real symmetric band solver.
`OperatorMatrix.dense` expands a band for the tests.

Singular values come from the banded Gram matrix M^H M, Hermitian with
bandwidth deg g, whose diagonals are formed from those of M and passed to
the banded Hermitian eigensolver (Golub & Van Loan, Matrix Computations,
section 8.4); sigma is the square root of its eigenvalues clamped at 0.
Squaring costs accuracy only at the bottom of the spectrum: eigenvalues
are off by about eps * sigma_max^2, so a singular value sigma is off by
about eps * sigma_max^2 / sigma, which is rounding level at the top of the
spectrum and at most about sqrt(eps) * sigma_max (absolute) for tiny sigma.
The tests keep a dense SVD as the independent oracle.  A band holds the
columns of g's support (its nonzero coefficients) only; the others stay 0.

A monomial g = c z^k is a weighted shift, z^m -> x_{m+k} z^{m+k} with
x_m = mu_{2m+1} c / mu_{2k+1} * c_m / c_{m-k}, so its spectrum is |x_m|,
m = k..N-1, in decreasing order, then k zeros, and the N/2 block's is the
same from m < N/2: no Gram matrix, no eigensolve.  The x_m are the band's
own entries, so on a real c the spectrum is the band path's bit for bit,
as sqrt(fl(x^2)) = |x| in binary64 whenever x^2 neither overflows nor
underflows (|x| between about 1e-154 and 1e154).  On a complex c the band
path squares re^2 + im^2 where this takes hypot(re, im), so a value may
move in the last bit (0.4285714285714286 -> 0.42857142857142866 at
`volterra --symbol 'json:[[0,0],[0,0],[0.6,0.8]]' --trunc 8`).  An odd
moment of the support that underflowed to 0.0 is refused by name.

A spectrum is the decreasing float array of singular values, and a Schatten
norm a float.  `schatten_with_monitor` reports one at its truncation with
an N/2-vs-N convergence stamp; non-decaying truncation growth is the
first-class signal for the cut-off regime where only g = 0 is admissible.
A request for several exponents shares the two spectra
(`truncation_spectra`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .norms import basis_norms, check_exponent
from .quad import NormEstimate
from .taylor import TaylorSeries
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

    @property
    def dimension(self) -> int:
        return self.entries.shape[0]

    def __post_init__(self):
        if not np.all(np.isfinite(self.entries)):
            raise OperatorError("matrix entries must be finite")

    def dense(self) -> np.ndarray:
        """The full N x N lower-triangular matrix."""
        A = np.zeros((self.dimension, self.dimension), dtype=complex)
        k, j = np.nonzero(self.entries)
        A[k + j, k] = self.entries[k, j]
        return A


def _operator_data(w: RadialWeight, g: TaylorSeries, alpha: float,
                   N: int) -> tuple:
    """The odd moments, basis norms and coefficients (real when every one
    is) of the N x N truncation, after the checks every spectrum shares."""
    if not -1 <= alpha < math.inf:
        raise OperatorError("alpha must be finite and >= -1")
    if g.degree >= N:
        raise OperatorError(f"symbol degree {g.degree} must stay below the "
                            f"truncation {N}")
    mus = w.odd_moments(N)
    for j in g.support:
        if mus[j] == 0.0:
            raise OperatorError(f"the odd moment mu_{2 * j + 1} of {w.label()} "
                                f"underflows to 0.0, and the entries divide by it")
    gh = g.coeffs
    if not np.any(gh.imag):
        gh = gh.real
    return mus, basis_norms(alpha, N), gh


def _column(mus: np.ndarray, c: np.ndarray, gh: np.ndarray,
            j: int) -> np.ndarray:
    """Entries M[m, m - j], m = j..N-1, of the subdiagonal of g_j; an
    overflow is left to the finiteness check."""
    N = len(mus)
    with np.errstate(over="ignore", invalid="ignore"):
        return mus[j:] * gh[j] / mus[j] * c[j:] / c[: N - j]


def volterra_matrix(w: RadialWeight, g: TaylorSeries, alpha: float,
                    N: int = DEFAULT_TRUNCATION) -> OperatorMatrix:
    """N x N truncation of the operator with symbol g on A^2_alpha (band)."""
    mus, c, gh = _operator_data(w, g, alpha, N)
    band = np.zeros((N, g.degree + 1), dtype=gh.dtype)
    for j in g.support:                 # a zero coefficient's column stays 0
        band[: N - j, j] = _column(mus, c, gh, j)
    return OperatorMatrix(band, alpha)


def singular_values(M: OperatorMatrix) -> np.ndarray:
    """Singular values of a lower-triangular band, in decreasing order, from
    the eigenvalues of its banded Gram matrix."""
    N = M.dimension
    # D[j] is the j-th subdiagonal; C order keeps the Gram sums' rounding
    D = np.ascontiguousarray(M.entries.T)
    nonzero = np.flatnonzero(D.any(axis=1))
    if len(nonzero) == 0:
        return np.zeros(N)
    # only subdiagonals lo..hi meet in M^H M, so its bandwidth is hi - lo
    # (a monomial symbol gives a diagonal Gram matrix)
    B = D[nonzero[0]: nonzero[-1] + 1]
    u = len(B) - 1
    # lower band storage: gram[s, i] = (M^H M)[i + s, i]
    gram = np.zeros((u + 1, N), dtype=B.dtype)
    for s in range(u + 1):
        gram[s, : N - s] = np.sum(B[s:, : N - s] * np.conj(B[: u + 1 - s, s:]),
                                  axis=0)
    # imported here, as only spectra need it: 0.16-0.26 s alone (2 cores),
    # as a cold volterra at alpha = -1 pays, 0.04-0.06 s after scipy.special
    from scipy.linalg import eigvals_banded
    ev = eigvals_banded(gram, lower=True, overwrite_a_band=True,
                        check_finite=False)
    # a C-contiguous copy: sums over the reversed view round differently
    return np.sort(np.sqrt(np.maximum(ev, 0.0)))[::-1].copy()


def schatten_norm(sigma: np.ndarray, p: float) -> float:
    """(sum sigma^p)^(1/p) of the singular values ``sigma``."""
    check_exponent(p)
    return float(np.sum(sigma ** p) ** (1.0 / p))


def truncation_spectra(w: RadialWeight, g: TaylorSeries, alpha: float,
                       N: int = DEFAULT_TRUNCATION) -> tuple:
    """Spectra of the N x N truncation and of its leading N/2 block.  A
    monomial c z^k is a weighted shift: its spectrum is the moduli of its
    one subdiagonal, decreasing, then k zeros.  Any other symbol takes the
    Gram eigenvalues of its band."""
    h = N // 2
    if len(g.support) != 1:
        big = volterra_matrix(w, g, alpha, N)
        # keep k + j < h: the lower triangle of the row-reversed band
        half = OperatorMatrix(np.tril(big.entries[:h, :h][::-1])[::-1], alpha)
        return singular_values(big), singular_values(half)
    (k,) = g.support
    x = np.abs(_column(*_operator_data(w, g, alpha, N), k))
    if not np.all(np.isfinite(x)):
        raise OperatorError("matrix entries must be finite")
    # the N/2 block holds the rows m < h, the first h - k entries of x
    return tuple(np.concatenate([np.sort(x[: max(n - k, 0)])[::-1],
                                 np.zeros(min(k, n))]) for n in (N, h))


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
    val_full = schatten_norm(full, p)
    val_half = schatten_norm(half, p)
    ratio = val_full / val_half if val_half > 0 else 1.0
    return NormEstimate(val_full, abs(val_full - val_half),
                        truncation={"N": N, "p": p, "alpha": alpha,
                                    "half_ratio": ratio},
                        diverged=bool(ratio > NO_PLATEAU_RATIO))


def schatten_truncation_profile(w: RadialWeight, g: TaylorSeries, alpha: float,
                                p: float, Ns: Sequence[int]) -> list:
    """Schatten norms along a truncation ladder (divergence witness)."""
    return [schatten_norm(truncation_spectra(w, g, alpha, int(N))[0], p)
            for N in Ns]
