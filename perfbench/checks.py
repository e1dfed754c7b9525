"""Output checks: form of every CLI output, values against stored references.

A request passes when its exit code is 0 or 2 (2 flags a detected
divergence, and open work moves some Schatten and BMOA cases between the
two), no exception escaped ``main``, its output parses in the fixed schema,
and every value column is finite.  When a reference output exists for the
same argv, the text columns must match exactly and the value columns within
``REL_TOL``.  Columns that open work is going to redefine are checked for
form only: every ``err`` (a number, NaN allowed) and the Schatten-derived
``lhs``/``rhs``/``ratio`` values (Richardson extrapolation is planned).
"""

from __future__ import annotations

import cmath
import gzip
import json
import math
from pathlib import Path

COLUMNS = ("experiment", "weight", "symbol", "param", "lhs", "rhs", "ratio",
           "trunc", "err", "anchor")
TEXT_COLUMNS = ("experiment", "weight", "symbol", "param", "trunc")
VALUE_COLUMNS = ("lhs", "rhs", "ratio", "anchor")
REL_TOL = 1e-8
OK_CODES = (0, 2)
SCHATTEN_ROWS = {"volterra-schatten": ("lhs", "ratio"),
                 "equiv-schatten": ("lhs", "ratio"),
                 "equiv-schatten-summary": ("lhs", "rhs", "ratio")}
# dhat_sup is +inf by definition when the D-hat evidence fails
INFINITE_OK = {("classify-verdict", "lhs")}

REF_DIR = Path(__file__).resolve().parent / "refs"


class OutputError(Exception):
    pass


def argv_key(argv) -> str:
    return json.dumps(list(argv))


def load_refs(workload: str) -> dict:
    path = REF_DIR / f"{workload}.json.gz"
    if not path.is_file():
        return {}
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def parse_rows(text: str) -> list:
    """Rows of a CSV or JSON output as dicts of the fixed columns."""
    if text.startswith("["):
        rows = json.loads(text)
        if not isinstance(rows, list) or any(
                not isinstance(r, dict) or tuple(r) != COLUMNS for r in rows):
            raise OutputError("JSON output is not a list of schema rows")
        return rows
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(COLUMNS):
        raise OutputError("CSV header does not match the schema")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(COLUMNS):
            raise OutputError(f"row has {len(cells)} cells: {line[:80]}")
        rows.append(dict(zip(COLUMNS, cells)))
    if not rows:
        raise OutputError("output has no rows")
    return rows


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return complex(cell)


def _form_only(row: dict, col: str) -> bool:
    return col == "err" or col in SCHATTEN_ROWS.get(row["experiment"], ())


def check_form(rows: list) -> None:
    for row in rows:
        for col in VALUE_COLUMNS + ("err",):
            cell = row[col]
            if cell == "":
                continue
            try:
                x = _number(cell)
            except ValueError:
                raise OutputError(f"{col}={cell!r} is not a number") from None
            if col == "err" and cmath.isnan(x):
                continue
            if not cmath.isfinite(x) and (row["experiment"], col) not in INFINITE_OK:
                raise OutputError(f"{row['experiment']} {col}={cell} is not finite")


def rel_dev(a, b) -> float:
    if a == b:
        return 0.0
    if not (cmath.isfinite(a) and cmath.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(rows: list, ref_rows: list) -> float:
    """Largest relative deviation of the compared value cells."""
    if len(rows) != len(ref_rows):
        raise OutputError(f"{len(rows)} rows, reference has {len(ref_rows)}")
    worst = 0.0
    for row, ref in zip(rows, ref_rows):
        for col in TEXT_COLUMNS:
            if row[col] != ref[col]:
                raise OutputError(f"{col}={row[col]!r}, reference {ref[col]!r}")
        for col in VALUE_COLUMNS:
            if _form_only(row, col):
                continue
            if (row[col] == "") != (ref[col] == ""):
                raise OutputError(f"{col}={row[col]!r}, reference {ref[col]!r}")
            if row[col] == "":
                continue
            dev = rel_dev(_number(row[col]), _number(ref[col]))
            if dev > REL_TOL:
                raise OutputError(f"{row['experiment']} {col}={row[col]}, "
                                  f"reference {ref[col]} (rel dev {dev:.3g})")
            worst = max(worst, dev)
    return worst


class Checker:
    """Checks outputs of one run and keeps the reference statistics."""

    def __init__(self, workload: str):
        self.refs = load_refs(workload)
        self.compared = 0
        self.identical = 0
        self.max_rel_dev = 0.0

    def check(self, argv, code, text: str) -> None:
        """Raise OutputError unless the output of ``argv`` is acceptable."""
        if code not in OK_CODES:
            raise OutputError(f"exit code {code}")
        rows = parse_rows(text)
        check_form(rows)
        ref = self.refs.get(argv_key(argv))
        if ref is None:
            return
        self.compared += 1
        if text == ref:
            self.identical += 1
            return
        self.max_rel_dev = max(self.max_rel_dev, compare(rows, parse_rows(ref)))
