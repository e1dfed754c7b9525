"""Command-line driver assembling the modules into named experiments.

Usage:
    fracvolt <moments|classify|frac|norm|volterra|equivalence> [options]

Weights are given as shorthand (std:<beta>, exp:<c>:<gamma>, expr:<formula>,
tailexpr:<formula>) or as a JSON descriptor.  Symbols (analytic functions)
are given as mono:<n>, random:<deg>:<seed>, log:<N> (the truncated
log(1/(1-z)) branch) or json:[[re,im],...].

Output is a fixed-schema CSV (experiment, weight, symbol, param, lhs, rhs,
ratio, trunc, err, anchor) or its JSON mirror.  Runs are reproducible:
identical arguments and seed produce byte-identical output.  Exit codes:
0 success, 2 divergence detected (informative), 3 invariant violation.

An equivalence table is (rows, trend_exits) in EQUIVALENCES: rows(w, args)
yields (symbol, param, trend degree, lhs, rhs, ratio cell, diverged).  A
corpus ratio cell is lhs/rhs, empty if a side is infinite or the rhs is 0;
h2-lp prints its LP form's own ratio, inf where it diverges.  The summary row
spans the finite ratios.  A diverged row exits 2, as does a summary slope
above TREND_SLOPE_LIMIT if trend_exits (schatten's verdict is its monitor).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from typing import Iterable, List, Optional

import numpy as np

from . import norms, volterra, weight_class
from .quad import QuadratureError, _halved_grid, log_moments, panel_edges
from .taylor import TaylorSeries, frac_R, frac_derivative, frac_integral
from .volterra import OperatorError
from .weights import (ExponentialWeight, StandardWeight, WeightError,
                      from_shorthand)

CSV_COLUMNS = ("experiment", "weight", "symbol", "param", "lhs", "rhs",
               "ratio", "trunc", "err", "anchor")

EXIT_OK = 0
EXIT_DIVERGENCE = 2
EXIT_INVARIANT = 3

# Largest least-squares slope of log ratio against log degree that an
# equivalence summary accepts: a doubling weight plateaus (slope -> 0),
# and sustained growth is the equivalence-failure witness (exit 2).
TREND_SLOPE_LIMIT = 0.3


class Row(dict):
    """One output record: fields in CSV_COLUMNS order, trailing ones empty
    when omitted."""

    def __init__(self, *fields):
        fields += ("",) * (len(CSV_COLUMNS) - len(fields))
        super().__init__(zip(CSV_COLUMNS, fields))


def _fmt(x) -> str:
    if isinstance(x, np.generic):
        x = x.item()
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, complex):
        return f"{x.real!r}{x.imag:+}j" if x.imag else repr(x.real)
    return str(x)


def rows_to_csv(rows: Iterable[Row]) -> str:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(",".join(_fmt(row[c]).replace(",", ";") for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_json(rows: Iterable[Row]) -> str:
    return json.dumps([{c: _fmt(r[c]) for c in CSV_COLUMNS} for r in rows],
                      indent=1) + "\n"


def emit(rows: List[Row], args, text: Optional[str] = None) -> None:
    """Write ``rows`` in --format, or a ready ``text``, to --out or stdout."""
    if text is None:
        text = rows_to_json(rows) if args.format == "json" else rows_to_csv(rows)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def parse_symbol(text: str) -> TaylorSeries:
    if text.startswith("mono:"):
        return TaylorSeries.monomial(int(text[5:]))
    if text.startswith("random:"):
        _, deg, seed = text.split(":")
        rng = np.random.default_rng(int(seed))
        c = rng.standard_normal(int(deg) + 1) + 1j * rng.standard_normal(int(deg) + 1)
        c /= np.linalg.norm(c)
        return TaylorSeries.from_coeffs(c)
    if text.startswith("log:"):
        n = int(text[4:])
        if n < 0:
            raise ValueError("log:<N> needs N >= 0")
        return TaylorSeries.from_coeffs(
            np.concatenate([[0.0], 1.0 / np.arange(1.0, n + 1.0)]))
    if text.startswith("json:"):
        return TaylorSeries.from_json(text[5:])
    raise ValueError(f"cannot parse symbol {text!r}")


def default_corpus(size: int, seed: int) -> list:
    """(name, series) pairs: dyadic monomials, seeded random polys, log branch."""
    out = []
    deg = 1
    while deg <= 32 and len(out) < size - 1:
        out.append((f"mono:{deg}", TaylorSeries.monomial(deg)))
        deg *= 2
    rng = np.random.default_rng(seed)
    i = 0
    while len(out) < size - 1:
        d = int(rng.integers(3, 33))
        c = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        c /= np.linalg.norm(c)
        out.append((f"random:{d}:{seed}:{i}", TaylorSeries.from_coeffs(c)))
        i += 1
    out.append(("log:64", parse_symbol("log:64")))
    return out


def _trend_slope(degrees, ratios) -> float:
    """Least-squares slope of log ratio against log degree."""
    x = np.log(np.maximum(np.asarray(degrees, dtype=float), 1.0))
    y = np.log(np.asarray(ratios, dtype=float))
    ok = np.isfinite(y)
    if np.sum(ok) < 2 or np.ptp(x[ok]) == 0:
        return 0.0
    return float(np.polyfit(x[ok], y[ok], 1)[0])


# Each table entry takes (symbol g, weight w, parsed args).  The functions
# are looked up in their modules at call time, so patching a module
# attribute reaches the command.
NORMS = {
    "hardy2-coeff": lambda g, w, a: norms.hardy2_coeff(g),
    "hardy2-lp": lambda g, w, a: norms.hardy2_lp(g, w),
    "tent": lambda g, w, a: norms.tent_norm(g, w, a.p),
    "bmoa": lambda g, w, a: norms.bmoa_mu_sup(g, w),
    "bmoa-kernel": lambda g, w, a: norms.bmoa_kernel_sup(g, w),
    "bmoa-classical": lambda g, w, a: norms.bmoa_classical(g),
    "bloch": lambda g, w, a: norms.bloch_mu(g, w),
    "besov": lambda g, w, a: norms.besov_mu(g, w, a.p),
    "besov-classical": lambda g, w, a: norms.besov_classical(g, a.p),
    "bergman": lambda g, w, a: norms.bergman_norm(g, a.alpha, a.p),
}


def _corpus(sides):
    """Rows over the default corpus; sides(g, w, args) -> (lhs estimate, rhs)."""
    def rows(w, a):
        if a.corpus < 1:
            raise ValueError("--corpus must be at least 1")
        for label, g in default_corpus(a.corpus, a.seed):
            try:
                est, rhs = sides(g, w, a)
            except OperatorError as e:
                raise OperatorError(f"{label}: {e}") from e
            lhs = est.value
            ratio = lhs / rhs if rhs and np.isfinite(lhs) and np.isfinite(rhs) else ""
            yield label, g.degree, g.degree, lhs, rhs, ratio, est.diverged
    return rows


def _h2_lp(w, a):
    """Monomial ladder n <= --trunc: |z^n|^2 in the LP form against mu_{2n+1}^2."""
    if a.trunc < 0:
        raise ValueError("--trunc must be nonnegative")
    ns = list(range(0, a.trunc + 1, max(1, a.trunc // 100)))
    ratios = norms.h2_monomial_ratios(w, ns).tolist()
    for n, ratio, mu in zip(ns, ratios, w.odd_moments(ns[-1] + 1)[ns].tolist()):
        yield (f"mono:{n}", n, n + 1, ratio * mu * mu, mu * mu, ratio,
               not math.isfinite(ratio))


EQUIVALENCES = {
    "h2-lp": (_h2_lp, True),
    "tent-hp": (_corpus(lambda g, w, a: (
        norms.tent_norm_power(g, w, a.p),
        norms.hardy_p_reference(g, a.p).value ** a.p)), True),
    "bmoa": (_corpus(lambda g, w, a: (norms.bmoa_mu_sup(g, w),
                                      norms.bmoa_classical(g).value)), True),
    "besov": (_corpus(lambda g, w, a: (
        norms.besov_mu(g, w, a.p), norms.besov_classical(g, a.p).value)), True),
    "schatten": (_corpus(lambda g, w, a: (
        volterra.schatten_with_monitor(w, g, a.alpha, a.p, a.trunc),
        norms.besov_mu(g, w, a.p).value ** (1.0 / a.p))), False),
}


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_moments(args) -> int:
    w = from_shorthand(args.weight)
    xs = [float(t) for t in args.x.split(",")]
    panels = len(panel_edges()) - 1
    # the cross-check is the moment kernel on the panel values; expr,
    # tailexpr and derived weights take their moments from those values
    # too, so it compares a value with itself: err not estimated.  exp
    # moments sum the exact log density, which log(panel values) rounds
    # back to, so exp is checked on the halved grid (quad.radial_integrals)
    independent = isinstance(w, (StandardWeight, ExponentialWeight))
    lhss = [w.moment(x) for x in xs]      # refuses a negative or NaN x
    if isinstance(w, ExponentialWeight):
        logs = log_moments(xs, w._log_density(_halved_grid()[0]), halved=True)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = log_moments(xs, np.log(w.panel_function().flat_values))
    rhss = [math.exp(v) for v in logs.tolist()]
    emit([Row("moments", w.label(), "", x, lhs, rhs, lhs / rhs if rhs else "",
              panels, abs(lhs - rhs) if independent else math.nan)
          for x, lhs, rhs in zip(xs, lhss, rhss)], args)
    return EXIT_OK


def cmd_classify(args) -> int:
    w = from_shorthand(args.weight)
    report = weight_class.classify(w, depth=args.depth)
    if args.format == "json":
        emit([], args, json.dumps(dataclasses.asdict(report), indent=1) + "\n")
        return EXIT_OK
    rows = [Row("classify-verdict", w.label(),
                f"dhat={report.verdicts['dhat']};dcheck={report.verdicts['dcheck']}",
                "summary", report.dhat_sup, report.beta_estimate, "",
                args.depth)]
    profiles = [("dhat", "", report.dhat_tail_profile),
                ("moments", "", report.moment_profile)]
    profiles += [("dcheck", f"K={K:g}", prof)
                 for K, prof in report.dcheck_profiles.items()]
    rows += [Row(f"classify-{kind}", w.label(), symbol, x,
                 np.exp(min(lr, 700.0)), "", "", args.depth)
             for kind, symbol, prof in profiles for x, lr in prof]
    emit(rows, args)
    return EXIT_OK


def cmd_frac(args) -> int:
    w = from_shorthand(args.weight)
    f = parse_symbol(args.symbol)
    if args.op == "R":
        if not args.weight2:
            raise ValueError("op R needs --weight2")
        out = frac_R(f, w, from_shorthand(args.weight2))
    else:
        out = (frac_derivative if args.op == "D" else frac_integral)(f, w)
    rows = []
    for n, (cin, cout) in enumerate(zip(f.coeffs, out.coeffs)):
        mult = cout / cin if cin != 0 else ""
        rows.append(Row(f"frac-{args.op}", w.label(), args.symbol, n,
                        complex(cin), complex(cout), mult, f.degree))
    emit(rows, args)
    return EXIT_OK


def cmd_norm(args) -> int:
    w = from_shorthand(args.weight)
    g = parse_symbol(args.symbol)
    est = NORMS[args.name](g, w, args)
    anchor = est.anchor if est.anchor is not None else ""
    rows = [Row(f"norm-{args.name}", w.label(), args.symbol, args.p,
                est.value, "", "", json.dumps(est.truncation).replace(",", ";"),
                est.err, anchor)]
    emit(rows, args)
    return EXIT_DIVERGENCE if est.diverged else EXIT_OK


def cmd_volterra(args) -> int:
    if args.spectrum_head < 0:
        raise ValueError("--spectrum-head must be nonnegative")
    w = from_shorthand(args.weight)
    g = parse_symbol(args.symbol)
    spectra = volterra.truncation_spectra(w, g, args.alpha, args.trunc)
    rows = []
    for i, sigma in enumerate(spectra[0][: args.spectrum_head]):
        rows.append(Row("volterra-spectrum", w.label(), args.symbol, i, sigma,
                        "", "", args.trunc))
    code = EXIT_OK
    for p in [float(t) for t in args.p_list.split(",")]:
        est = volterra.schatten_with_monitor(w, g, args.alpha, p, args.trunc,
                                             spectra)
        rows.append(Row("volterra-schatten", w.label(), args.symbol, p,
                        est.value, "", est.truncation["half_ratio"],
                        args.trunc, est.err))
        if est.diverged:
            code = EXIT_DIVERGENCE
    emit(rows, args)
    return code


def cmd_equivalence(args) -> int:
    w = from_shorthand(args.weight)
    rows_of, trend_exits = EQUIVALENCES[args.name]
    rows, degrees, ratios = [], [], []
    code = EXIT_OK
    for label, param, degree, lhs, rhs, ratio, diverged in rows_of(w, args):
        rows.append(Row(f"equiv-{args.name}", w.label(), label, param, lhs,
                        rhs, ratio, args.trunc))
        if diverged:
            code = EXIT_DIVERGENCE
        if ratio != "" and math.isfinite(ratio):
            degrees.append(degree)
            ratios.append(ratio)
    if ratios:
        slope = _trend_slope(degrees, ratios)
        rows.append(Row(f"equiv-{args.name}-summary", w.label(), "", "summary",
                        min(ratios), max(ratios), slope, args.trunc))
        if trend_exits and slope > TREND_SLOPE_LIMIT:
            code = EXIT_DIVERGENCE
    emit(rows, args)
    return code


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first request rather than at
    import: building it costs about twenty parses, and parsing leaves it
    unchanged."""
    ap = argparse.ArgumentParser(
        prog="fracvolt",
        description="numerical experiments for the weight-induced fractional "
                    "calculus and its Volterra-type operator")
    sub = ap.add_subparsers(dest="command", required=True)
    numeric = {"alpha": (float, -1.0), "p": (float, 2.0), "trunc": (int, 256),
               "depth": (int, 36), "seed": (int, 0)}

    def command(name, fn, help, *reads):
        """A subcommand taking --weight, --out, --format and, of the
        numeric options, only the ones in ``reads``; options are never
        abbreviated, so a misspelt one is a usage error."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(fn=fn)
        p.add_argument("--weight", default="std:1", help="weight shorthand or JSON")
        for option in reads:
            kind, default = numeric[option]
            p.add_argument(f"--{option}", type=kind, default=default)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        return p

    p = command("moments", cmd_moments, "moment table with quadrature cross-check")
    p.add_argument("--x", default="1,3,5,7", help="comma-separated indices")

    command("classify", cmd_classify, "doubling-class diagnostics", "depth")

    p = command("frac", cmd_frac, "apply a fractional operator to a series")
    p.add_argument("--symbol", default="mono:1")
    p.add_argument("--op", choices=("D", "I", "R"), default="D")
    p.add_argument("--weight2", default=None)

    p = command("norm", cmd_norm, "compute one space norm", "alpha", "p")
    p.add_argument("--symbol", default="mono:1")
    p.add_argument("--name", default="hardy2-lp", choices=tuple(NORMS))

    p = command("volterra", cmd_volterra, "spectrum and Schatten table",
                "alpha", "trunc")
    p.add_argument("--symbol", default="mono:1")
    p.add_argument("--p-list", default="1,2")
    p.add_argument("--spectrum-head", type=int, default=16)

    p = command("equivalence", cmd_equivalence,
                "two-sided norm comparison tables", "alpha", "p", "trunc", "seed")
    p.add_argument("--name", default="h2-lp", choices=tuple(EQUIVALENCES))
    p.add_argument("--corpus", type=int, default=12)
    return ap


def main(argv: Optional[list] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # argparse exits 0 after --help and 2 on a usage error; 2 is taken
        # by divergence here, so a usage error is an invariant violation
        return EXIT_INVARIANT if e.code else EXIT_OK
    try:
        return args.fn(args)
    except (WeightError, OperatorError, QuadratureError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
