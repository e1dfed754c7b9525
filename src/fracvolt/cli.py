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
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass
from typing import Iterable, List, Optional

import numpy as np

from . import norms, volterra, weight_class
from .quad import QuadratureError
from .taylor import TaylorSeries, frac_R, frac_derivative, frac_integral
from .volterra import OperatorError
from .weights import WeightError, from_shorthand

CSV_COLUMNS = ("experiment", "weight", "symbol", "param", "lhs", "rhs",
               "ratio", "trunc", "err", "anchor")

EXIT_OK = 0
EXIT_DIVERGENCE = 2
EXIT_INVARIANT = 3

# Largest least-squares slope of log ratio against log degree that an
# equivalence summary accepts: a doubling weight plateaus (slope -> 0),
# and sustained growth is the equivalence-failure witness (exit 2).
TREND_SLOPE_LIMIT = 0.3


@dataclass
class ExperimentConfig:
    """Fully serializable run description; same config = byte-identical output."""

    command: str
    weight: str = "std:1"
    symbol: str = "mono:1"
    name: str = "h2-lp"
    op: str = "D"
    alpha: float = -1.0
    p: float = 2.0
    trunc: int = 256
    depth: int = 36
    corpus: int = 12
    seed: int = 0
    format: str = "csv"
    x: str = "1,3,5,7"
    p_list: str = "1,2"

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls(**json.loads(text))

    def argv(self, out: Optional[str] = None) -> list:
        args = [self.command, "--weight", self.weight, "--alpha", str(self.alpha),
                "--p", str(self.p), "--trunc", str(self.trunc),
                "--depth", str(self.depth), "--seed", str(self.seed),
                "--format", self.format]
        if self.command in ("frac", "norm", "volterra"):
            args += ["--symbol", self.symbol]
        if self.command == "frac":
            args += ["--op", self.op]
        if self.command == "norm":
            args += ["--name", self.name]
        if self.command == "equivalence":
            args += ["--name", self.name, "--corpus", str(self.corpus)]
        if self.command == "volterra":
            args += ["--p-list", self.p_list]
        if self.command == "moments":
            args += ["--x", self.x]
        if out:
            args += ["--out", out]
        return args


def run_config(cfg: ExperimentConfig, out: Optional[str] = None) -> int:
    return main(cfg.argv(out))


class Row(dict):
    """One output record in the fixed schema."""

    def __init__(self, experiment, weight="", symbol="", param="", lhs="",
                 rhs="", ratio="", trunc="", err="", anchor=""):
        super().__init__(experiment=experiment, weight=weight, symbol=symbol,
                         param=param, lhs=lhs, rhs=rhs, ratio=ratio,
                         trunc=trunc, err=err, anchor=anchor)


def _fmt(x) -> str:
    if isinstance(x, np.floating):
        x = float(x)
    elif isinstance(x, np.complexfloating):
        x = complex(x)
    elif isinstance(x, np.integer):
        x = int(x)
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


def emit(rows: List[Row], args) -> None:
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
        return TaylorSeries.from_coeffs(
            np.concatenate([[0.0], 1.0 / np.arange(1.0, n + 1.0)]))
    if text.startswith("json:"):
        return TaylorSeries.from_json(text[5:])
    raise ValueError(f"cannot parse symbol {text!r}")


def default_corpus(size: int, seed: int, max_degree: int = 32) -> list:
    """(name, series) pairs: dyadic monomials, seeded random polys, log branch."""
    out = []
    deg = 1
    while deg <= max_degree and len(out) < size - 1:
        out.append((f"mono:{deg}", TaylorSeries.monomial(deg)))
        deg *= 2
    rng = np.random.default_rng(seed)
    i = 0
    while len(out) < size - 1:
        d = int(rng.integers(3, max_degree + 1))
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


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_moments(args) -> int:
    w = from_shorthand(args.weight)
    xs = [float(t) for t in args.x.split(",")]
    rows = []
    pf = w.panel_function()
    panels = len(pf.panel_integrals)
    for x in xs:
        lhs = w.moment(x)
        rhs = pf.moment(x)      # quadrature cross-check
        rows.append(Row("moments", w.label(), "", x, lhs, rhs,
                        lhs / rhs if rhs else "", panels, abs(lhs - rhs)))
    emit(rows, args)
    return EXIT_OK


def cmd_classify(args) -> int:
    w = from_shorthand(args.weight)
    report = weight_class.classify(w, depth=args.depth)
    if args.format == "json":
        text = json.dumps(report.to_dict(), indent=1) + "\n"
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    rows = [Row("classify-verdict", w.label(),
                f"dhat={report.verdicts['dhat']};dcheck={report.verdicts['dcheck']}",
                "summary", report.dhat_sup, report.beta_estimate, "",
                args.depth)]
    for r, lr in report.dhat_tail_profile:
        rows.append(Row("classify-dhat", w.label(), "", r, np.exp(min(lr, 700.0)),
                        "", "", args.depth))
    for x, lr in report.moment_profile:
        rows.append(Row("classify-moments", w.label(), "", x,
                        np.exp(min(lr, 700.0)), "", "", args.depth))
    for K, prof in report.dcheck_profiles.items():
        for r, lr in prof:
            rows.append(Row("classify-dcheck", w.label(), f"K={K:g}", r,
                            np.exp(min(lr, 700.0)), "", "", args.depth))
    emit(rows, args)
    return EXIT_OK


def cmd_frac(args) -> int:
    w = from_shorthand(args.weight)
    f = parse_symbol(args.symbol)
    if args.op == "D":
        out = frac_derivative(f, w)
    elif args.op == "I":
        out = frac_integral(f, w)
    elif args.op == "R":
        if not args.weight2:
            raise ValueError("op R needs --weight2")
        out = frac_R(f, w, from_shorthand(args.weight2))
    else:
        raise ValueError(f"unknown fractional op {args.op!r}")
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
    name = args.name
    if name == "hardy2-coeff":
        est = norms.hardy2_coeff(g)
    elif name == "hardy2-lp":
        est = norms.hardy2_lp(g, w)
    elif name == "tent":
        est = norms.tent_norm(g, w, args.p)
    elif name == "bmoa":
        est = norms.bmoa_mu_sup(g, w)
    elif name == "bmoa-kernel":
        est = norms.bmoa_kernel_sup(g, w)
    elif name == "bmoa-classical":
        est = norms.bmoa_classical(g)
    elif name == "bloch":
        est = norms.bloch_mu(g, w)
    elif name == "besov":
        est = norms.besov_mu(g, w, args.p)
    elif name == "besov-classical":
        est = norms.besov_classical(g, args.p)
    elif name == "bergman":
        est = norms.bergman_norm(g, args.alpha, args.p)
    else:
        raise ValueError(f"unknown norm {name!r}")
    anchor = est.anchor if est.anchor is not None else ""
    rows = [Row(f"norm-{name}", w.label(), args.symbol, args.p, est.value, "",
                "", json.dumps(est.truncation).replace(",", ";"), est.err,
                anchor)]
    emit(rows, args)
    return EXIT_DIVERGENCE if est.diverged else EXIT_OK


def cmd_volterra(args) -> int:
    w = from_shorthand(args.weight)
    g = parse_symbol(args.symbol)
    spectra = volterra.truncation_spectra(w, g, args.alpha, args.trunc)
    rows = []
    for i, lam in enumerate(spectra[0].values[: args.spectrum_head]):
        rows.append(Row("volterra-spectrum", w.label(), args.symbol, i, lam,
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
    name = args.name
    rows: List[Row] = []
    code = EXIT_OK

    if name == "h2-lp":
        if args.trunc < 0:
            raise ValueError("--trunc must be nonnegative")
        ns = list(range(0, args.trunc + 1, max(1, args.trunc // 100))) \
            if args.trunc > 8 else list(range(args.trunc + 1))
        ratios = norms.h2_monomial_ratios(w, ns).tolist()
        for n, ratio in zip(ns, ratios):
            mu = w.moment(2 * n + 1)
            rows.append(Row("equiv-h2-lp", w.label(), f"mono:{n}", n,
                            ratio * mu * mu, mu * mu, ratio, args.trunc))
        finite = [r for r in ratios if np.isfinite(r)]
        slope = _trend_slope([n + 1 for n in ns], ratios)
        if finite:
            rows.append(Row("equiv-h2-lp-summary", w.label(), "", "summary",
                            min(finite), max(finite), slope, args.trunc))
        if slope > TREND_SLOPE_LIMIT or len(finite) < len(ratios):
            code = EXIT_DIVERGENCE
        emit(rows, args)
        return code

    corpus = default_corpus(args.corpus, args.seed)

    def one(item):
        label, g = item
        if name == "tent-hp":
            lhs = norms.tent_norm_power(g, w, args.p)
            rhs = norms.hardy_p_reference(g, args.p).value ** args.p
            return label, g.degree, lhs.value, rhs, lhs.diverged
        if name == "bmoa":
            lhs = norms.bmoa_mu_sup(g, w)
            rhs = norms.bmoa_classical(g).value
            return label, g.degree, lhs.value, rhs, lhs.diverged
        if name == "besov":
            lhs = norms.besov_mu(g, w, args.p)
            rhs = norms.besov_classical(g, args.p).value
            return label, g.degree, lhs.value, rhs, lhs.diverged
        if name == "schatten":
            lhs = volterra.schatten_with_monitor(w, g, args.alpha, args.p,
                                                 args.trunc)
            rhs = norms.besov_mu(g, w, args.p).value ** (1.0 / args.p)
            return label, g.degree, lhs.value, rhs, lhs.diverged
        raise ValueError(f"unknown equivalence {name!r}")

    degrees, ratios = [], []
    for label, deg, lhs, rhs, diverged in map(one, corpus):
        ratio = lhs / rhs if (rhs and np.isfinite(lhs) and np.isfinite(rhs)) else ""
        rows.append(Row(f"equiv-{name}", w.label(), label, deg, lhs, rhs,
                        ratio, args.trunc))
        if diverged:
            code = EXIT_DIVERGENCE
        if ratio != "":        # infinite sides are excluded from the spread
            degrees.append(deg)
            ratios.append(ratio)
    if ratios:
        slope = _trend_slope(degrees, ratios)
        rows.append(Row(f"equiv-{name}-summary", w.label(), "", "summary",
                        min(ratios), max(ratios), slope, args.trunc))
        # the Schatten verdict is its truncation monitor's
        if name != "schatten" and slope > TREND_SLOPE_LIMIT:
            code = EXIT_DIVERGENCE
    emit(rows, args)
    return code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="fracvolt",
        description="numerical experiments for the weight-induced fractional "
                    "calculus and its Volterra-type operator")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--weight", default="std:1", help="weight shorthand or JSON")
        p.add_argument("--alpha", type=float, default=-1.0)
        p.add_argument("--p", type=float, default=2.0)
        p.add_argument("--trunc", type=int, default=256)
        p.add_argument("--depth", type=int, default=36)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("moments", help="moment table with quadrature cross-check")
    common(p)
    p.add_argument("--x", default="1,3,5,7", help="comma-separated indices")
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("classify", help="doubling-class diagnostics")
    common(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("frac", help="apply a fractional operator to a series")
    common(p)
    p.add_argument("--symbol", default="mono:1")
    p.add_argument("--op", choices=("D", "I", "R"), default="D")
    p.add_argument("--weight2", default=None)
    p.set_defaults(fn=cmd_frac)

    p = sub.add_parser("norm", help="compute one space norm")
    common(p)
    p.add_argument("--symbol", default="mono:1")
    p.add_argument("--name", default="hardy2-lp")
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("volterra", help="spectrum and Schatten table")
    common(p)
    p.add_argument("--symbol", default="mono:1")
    p.add_argument("--p-list", default="1,2")
    p.add_argument("--spectrum-head", type=int, default=16)
    p.set_defaults(fn=cmd_volterra)

    p = sub.add_parser("equivalence", help="two-sided norm comparison tables")
    common(p)
    p.add_argument("--name", default="h2-lp",
                   choices=("h2-lp", "tent-hp", "bmoa", "besov", "schatten"))
    p.add_argument("--corpus", type=int, default=12)
    p.set_defaults(fn=cmd_equivalence)
    return ap


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (WeightError, OperatorError, QuadratureError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
