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
The tests keep a dense SVD as the independent oracle.

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


def volterra_matrix(w: RadialWeight, g: TaylorSeries, alpha: float,
                    N: int = DEFAULT_TRUNCATION) -> OperatorMatrix:
    """N x N truncation of the operator with symbol g on A^2_alpha (band)."""
    if not -1 <= alpha < math.inf:
        raise OperatorError("alpha must be finite and >= -1")
    if g.degree >= N:
        raise OperatorError(f"symbol degree {g.degree} must stay below the "
                            f"truncation {N}")
    mus = w.odd_moments(N)
    c = basis_norms(alpha, N)
    gh = g.coeffs
    if not np.any(gh.imag):
        gh = gh.real
    band = np.zeros((N, g.degree + 1), dtype=gh.dtype)
    for j in range(g.degree + 1):       # a zero coefficient writes zeros
        m = np.arange(j, N)
        band[: N - j, j] = mus[m] * gh[j] / mus[j] * c[m] / c[m - j]
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
    return [schatten_norm(singular_values(volterra_matrix(w, g, alpha, int(N))), p)
            for N in Ns]
