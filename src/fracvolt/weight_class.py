"""Grid diagnostics for the upper/lower doubling classes of radial weights.

A weight is upper doubling when its tail at r is dominated by the tail at
the midpoint (1+r)/2 uniformly, equivalently when the moment sequence
satisfies mu_x <= C mu_{2x}; it is lower doubling when the tail drops by a
definite factor between r and 1 - (1-r)/K for some K > 1.  A finite grid
cannot decide an asymptotic property, so every verdict is labelled
"evidence-for" / "evidence-against", produced by plateau and trend
heuristics over dyadic grids, with the thresholds kept as module constants.

All ratios are formed in log space: the interesting counterexamples have
tails like exp(-1/(1-r)) whose plain values underflow long before the
diagnostic depth of 36 dyadic levels is reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .weights import RadialWeight

DEFAULT_DEPTH = 36
DEFAULT_K_GRID = (2.0, 4.0, 8.0, 16.0, 64.0)

# plateau: last-quarter max within 5% of the profile median
PLATEAU_FACTOR = 1.05
# lower-doubling evidence needs the deep ratio clearly above 1
DCHECK_MIN_RATIO = 1.01
# and not steadily collapsing toward 1 (log drop mid-quarter -> last quarter)
DCHECK_DECLINE_LOG = -0.15

EVIDENCE_FOR = "evidence-for"
EVIDENCE_AGAINST = "evidence-against"


@dataclass
class WeightClassReport:
    """The report, its fields in the order of its JSON keys."""
    label: str
    depth: int
    dhat_sup: float
    beta_estimate: float
    verdicts: dict
    dhat_tail_profile: list          # (r, log ratio tail(r)/tail((1+r)/2))
    moment_profile: list             # (x, log ratio mu_x / mu_{2x})
    dcheck_profiles: dict            # K -> list of (r, log ratio)
    dcheck_K_evidence: dict          # K -> bool
    notes: list = field(default_factory=list)


def _dyadic_radii(depth: int) -> np.ndarray:
    return 1.0 - 2.0 ** -np.arange(0.0, depth + 1.0)


def _log_ratio(lt: np.ndarray, lt_deeper: np.ndarray) -> np.ndarray:
    """log(tail / deeper tail) from the log tails.  Where both underflow the
    ratio is at least 1 (the tail is non-increasing) and too large for a
    double, so it reads +inf, not -inf - (-inf) = nan."""
    with np.errstate(invalid="ignore"):
        return np.where((lt == -np.inf) & (lt_deeper == -np.inf), np.inf,
                        lt - lt_deeper)


def _plateaus(log_ratios: np.ndarray) -> bool:
    """Last-quarter max within PLATEAU_FACTOR of the median, in log space."""
    lr = np.asarray(log_ratios, dtype=float)
    if np.any(~np.isfinite(lr)):
        return False                 # overflow or undefined ratios: no plateau
    q = max(1, len(lr) // 4)
    return bool(np.max(lr[-q:]) <= np.log(PLATEAU_FACTOR) + np.median(lr))


def classify_dhat(w: RadialWeight, depth: int = DEFAULT_DEPTH):
    """Upper-doubling evidence: tail midpoint ratios and moment ratios.

    Both profiles must plateau.  Returns the report fragment as a dict that
    classify() merges into the full report.
    """
    if depth > 40:
        raise ValueError("depth is capped at 40 (double precision resolution)")
    r = _dyadic_radii(depth)
    lt = np.asarray(w.log_tail(r), dtype=float)
    tail_logratio = _log_ratio(lt[:-1], lt[1:])  # (1 + r_j)/2 = r_{j+1}
    xs = 2.0 ** np.arange(0.0, depth + 1.0)
    lm, lm2 = np.split(w.log_moments(np.concatenate([xs, 2.0 * xs])), 2)
    moment_logratio = lm - lm2

    plateau = _plateaus(tail_logratio) and _plateaus(moment_logratio)
    with np.errstate(over="ignore"):
        sup = float(np.max(np.exp(tail_logratio)))
    return {
        "dhat_tail_profile": list(zip(r[:-1], tail_logratio)),
        "moment_profile": list(zip(xs, moment_logratio)),
        "dhat_sup": sup,
        "dhat_verdict": EVIDENCE_FOR if plateau else EVIDENCE_AGAINST,
    }


def classify_dcheck(w: RadialWeight, K_grid: Sequence[float] = DEFAULT_K_GRID,
                    depth: int = DEFAULT_DEPTH):
    """Lower-doubling evidence: for some K the deep tail-drop ratio must stay
    above DCHECK_MIN_RATIO without collapsing toward 1."""
    if any(K <= 1.0 for K in K_grid):
        raise ValueError("every K must exceed 1")
    r = _dyadic_radii(depth)
    lt = np.asarray(w.log_tail(r), dtype=float)
    profiles = {}
    evidence = {}
    for K in K_grid:
        rK = 1.0 - (1.0 - r) / K
        ltK = np.asarray(w.log_tail(rK), dtype=float)
        logratio = _log_ratio(lt, ltK)           # >= 0: tail is non-increasing
        profiles[K] = list(zip(r, logratio))
        q = max(1, (depth + 1) // 4)
        last = logratio[-q:]
        mid = logratio[2 * q: 3 * q]
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            deep_enough = bool(np.min(np.exp(last)) >= DCHECK_MIN_RATIO)
            # no trend without a mid quarter (depth 1), and a nan one when
            # both windows overflow: neither counts as declining
            declining = len(mid) > 0 and bool(
                np.mean(np.log(np.expm1(last)))
                - np.mean(np.log(np.expm1(mid))) <= DCHECK_DECLINE_LOG)
        evidence[K] = deep_enough and not declining
    verdict = EVIDENCE_FOR if any(evidence.values()) else EVIDENCE_AGAINST

    # beta estimate: slope of log tail against log(1-r) on the deep half
    j0 = depth // 2
    x = np.log(1.0 - r[j0:])
    y = lt[j0:]
    ok = np.isfinite(y)
    beta = float(np.polyfit(x[ok], y[ok], 1)[0]) if np.sum(ok) >= 2 else np.nan
    return {
        "dcheck_profiles": profiles,
        "dcheck_K_evidence": evidence,
        "dcheck_verdict": verdict,
        "beta_estimate": beta,
    }


def classify(w: RadialWeight, depth: int = DEFAULT_DEPTH,
             K_grid: Sequence[float] = DEFAULT_K_GRID) -> WeightClassReport:
    """Full report: upper and lower doubling evidence plus estimates."""
    if depth < 1:
        raise ValueError("--depth must be at least 1")
    up = classify_dhat(w, depth)
    low = classify_dcheck(w, K_grid, depth)
    verdicts = {"dhat": up.pop("dhat_verdict"),
                "dcheck": low.pop("dcheck_verdict")}
    verdicts["doubling"] = EVIDENCE_FOR if all(
        v == EVIDENCE_FOR for v in verdicts.values()) else EVIDENCE_AGAINST
    report = WeightClassReport(label=w.label(), depth=depth,
                               verdicts=verdicts, **up, **low)
    report.notes.append(
        "verdicts are grid evidence, not proofs; a finite grid cannot decide "
        "an asymptotic class")
    return report
