"""Compare the CLI outputs of two source trees on the benchmark's requests.

    python3 tools/compare_outputs.py OLD_TREE NEW_TREE [WORKLOAD ...]

Each tree is the root of a fracvolt checkout (its package under ``src/``).
WORKLOAD is ``spectra``, ``suprema`` or ``sweep`` (all three by default):
every distinct argv of the workload's warm-up and of the passes of seeds
1-3 at the reference run length.  ``warmup`` takes the common warm-up
alone.  The request plans come from NEW_TREE's ``perfbench/workloads.py``
and rows are parsed by its ``perfbench/checks.py``; both are loaded by path
and only read.

Each tree runs every argv in one fresh interpreter through
``fracvolt.cli.main``.  The report gives the byte-identical count; every
argv whose exit code, stderr, row count or text columns differ; every
anchor that moved; and the largest relative move per (experiment, column)
over the value columns and ``err``.  The exit status is 1 when anything
but a value moved, or a value column (not ``err``) moved by more than
RTOL, else 0.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

SEEDS = (1, 2, 3)
# largest relative move of a value column that still passes
RTOL = 1e-13

# Runs in each tree's interpreter: argvs as JSON on stdin, one
# [code, stdout, stderr] per argv as JSON on stdout.
RUNNER = r"""
import io, json, sys, traceback
from contextlib import redirect_stderr, redirect_stdout
from fracvolt import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        except Exception:
            code = "exception"
            traceback.print_exc(file=err)
    results.append([code, out.getvalue(), err.getvalue()])
json.dump(results, sys.stdout)
"""


def load(tree: Path, name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", tree / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def plan_argvs(workloads, names) -> list:
    """Distinct argvs, in first-seen order, of the named workloads."""
    seen, out = set(), []

    def add(argv):
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            out.append(list(argv))

    for name in names:
        if name == "warmup":
            for argv in workloads.COMMON_WARMUP:
                add(argv.split())
            continue
        for seed in SEEDS:
            plan = workloads.Plan(name, seed)
            for argv in plan.warmup:
                add(argv)
            for k in range(plan.passes(workloads.REFERENCE_SECONDS)):
                for argv in plan.timed_pass(k):
                    add(argv)
    return out


def run_tree(tree: Path, argvs: list) -> list:
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER], input=json.dumps(argvs), text=True,
        capture_output=True, check=True,
        env=dict(os.environ, PYTHONPATH=str(tree.resolve() / "src")))
    return json.loads(proc.stdout)


def rel_move(checks, a: str, b: str) -> float:
    if a == b:
        return 0.0
    try:
        return checks.rel_dev(checks._number(a), checks._number(b))
    except ValueError:
        return float("inf")


def compare(checks, argvs, old, new, rtol: float = RTOL) -> tuple:
    """(report lines, whether any argv failed)."""
    lines, identical = [], 0
    moves = {}          # (experiment, column) -> (largest move, argv)
    for argv, first, second in zip(argvs, old, new):
        if first == second:
            identical += 1
            continue
        (c0, o0, e0), (c1, o1, e1) = first, second
        problems = []
        if c0 != c1:
            problems.append(f"EXIT {c0} -> {c1}")
        if e0 != e1:
            problems.append("STDERR differs")
        try:
            rows0, rows1 = checks.parse_rows(o0), checks.parse_rows(o1)
        except checks.OutputError:
            rows0 = rows1 = []
            if o0 != o1:
                problems.append("STDOUT differs and is not rows")
        if len(rows0) != len(rows1):
            problems.append("ROW COUNT differs")
        for r0, r1 in zip(rows0, rows1):
            for col in checks.TEXT_COLUMNS:
                if r0[col] != r1[col]:
                    problems.append(f"TEXT {col} {r0[col]!r} -> {r1[col]!r}")
            for col in checks.VALUE_COLUMNS + ("err",):
                a, b = str(r0[col]), str(r1[col])
                if col == "anchor" and a != b:
                    problems.append(f"ANCHOR {a} -> {b}")
                move = rel_move(checks, a, b)
                key = (r0["experiment"], col)
                if move > moves.get(key, (0.0,))[0]:
                    moves[key] = (move, " ".join(argv))
                if col != "err" and move > rtol:
                    problems.append(f"VALUE {key[0]} {col} moved {move:.3g}")
        lines += [f"{p}: {' '.join(argv)}" for p in problems]
    failed = bool(lines)
    lines.append(f"{identical} of {len(argvs)} outputs byte-identical")
    lines.append("largest relative move per (experiment, column):")
    for (exp, col), (move, label) in sorted(moves.items()):
        lines.append(f"  {exp:28s} {col:7s} {move:.3g}  ({label})")
    return lines, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help="spectra, suprema, sweep (default: all) or warmup")
    args = ap.parse_args(argv)
    names = args.workloads or ["spectra", "suprema", "sweep"]
    unknown = set(names) - {"spectra", "suprema", "sweep", "warmup"}
    if unknown:
        ap.error(f"unknown workload(s): {', '.join(sorted(unknown))}")
    argvs = plan_argvs(load(args.new, "workloads"), names)
    checks = load(args.new, "checks")
    old, new = run_tree(args.old, argvs), run_tree(args.new, argvs)
    lines, failed = compare(checks, argvs, old, new)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
