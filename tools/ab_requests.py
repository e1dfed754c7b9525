"""Interleaved A/B timing of two source trees on the benchmark's requests.

    python3 tools/ab_requests.py OLD_TREE NEW_TREE WORKLOAD [SEED]

Each tree is the root of a fracvolt checkout (its package under ``src/``).
Both packages are loaded into this one interpreter, each under its own
name (the package's imports are relative), so both run on the same
machine state; single benchmark runs on a shared 2-core machine swing by
about 30% from one run to the next.  WORKLOAD is ``spectra``, ``suprema``
or ``sweep``, or ``warmup`` for the common warm-up alone; the request
plan (default seed 1) comes from NEW_TREE's ``perfbench/workloads.py``,
loaded by path and only read.

The timing runs in REPEATS rounds, each a benchmark run in miniature: a
tree that interns weights (its ``from_shorthand`` has a ``cache_clear``)
drops them, both trees run the warm-up untimed, and then every argv of the
timed passes (the common warm-up itself for ``warmup``) runs once in each
tree, the tree that goes first alternating from one argv to the next and
from one round to the next.  So the repeats of an argv are whole passes
apart, and none finds a weight cached that a benchmark run, which never
repeats an argv, would not have; each argv keeps its fastest time.

A template is an argv with its drawn parts masked (symbol seeds, ``--seed``
and ``--x`` values, decimals, monomial degrees); passes shuffle their
requests, so templates are matched by this mask.  The report gives per
template the median over its requests of those minima for both trees, then
the two sums and their ratio OLD / NEW: above 1 means NEW is faster.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import re
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

REPEATS = 3


def load_workloads(tree: Path):
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", tree / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_cli(tree: Path, name: str):
    """The ``cli`` module of the tree's package, imported as ``name``."""
    package = tree.resolve() / "src" / "fracvolt"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def request(cli, argv) -> float:
    """Wall time of one request; its output is discarded."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(sink), redirect_stderr(sink):
        try:
            cli.main(argv)
        except SystemExit:
            pass
    return time.perf_counter() - t0


def template(argv) -> str:
    """The argv with the parts a seed draws masked by ``#``."""
    out = []
    for prev, arg in zip([""] + list(argv), argv):
        if prev in ("--seed", "--x"):
            arg = "#"
        arg = re.sub(r"^random:(\d+):\d+$", r"random:\1", arg)
        arg = re.sub(r"^mono:\d+$", "mono:#", arg)
        out.append(re.sub(r"\d+\.\d+", "#", arg))
    return " ".join(out)


def plan_passes(workloads, name: str, seed: int) -> tuple:
    """(warm-up argvs, passes): each pass a list of argvs."""
    if name == "warmup":
        return [], [[argv.split() for argv in workloads.COMMON_WARMUP]]
    plan = workloads.Plan(name, seed)
    count = plan.passes(workloads.REFERENCE_SECONDS)
    return plan.warmup, [plan.timed_pass(k) for k in range(count)]


def time_rounds(clis, warmup, requests) -> list:
    """Per argv of ``requests``, the fastest of REPEATS rounds in each tree
    as [old, new]; every round clears interned weights and runs the warm-up
    untimed before it times the requests."""
    best = [[float("inf")] * len(clis) for _ in requests]
    for round_ in range(REPEATS):
        for cli in clis:
            getattr(cli.from_shorthand, "cache_clear", lambda: None)()
            for argv in warmup:
                request(cli, argv)
        for turn, argv in enumerate(requests):
            first = (turn + round_) % 2
            for i in (first, 1 - first):
                best[turn][i] = min(best[turn][i], request(clis[i], argv))
    return best


def report(timings) -> list:
    """Per template the median of its requests' minima in both trees, then
    the sums and their ratio; ``timings`` maps a template to its list of
    (old, new) minima."""
    lines = [f"{'template':64s} {'old ms':>9s} {'new ms':>9s} {'ratio':>6s}"]
    sums = [0.0, 0.0]
    for key, pairs in timings.items():
        med = [statistics.median(p[i] for p in pairs) for i in (0, 1)]
        sums = [s + x for s, x in zip(sums, med)]
        lines.append(f"{key[:64]:64s} {med[0] * 1e3:9.3f} {med[1] * 1e3:9.3f} "
                     f"{med[0] / med[1]:6.2f}")
    lines.append(f"{'sum':64s} {sums[0] * 1e3:9.3f} {sums[1] * 1e3:9.3f} "
                 f"{sums[0] / sums[1]:6.2f}")
    lines.append(f"ratio old/new {sums[0] / sums[1]:.3f}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old", type=Path)
    ap.add_argument("new", type=Path)
    ap.add_argument("workload", choices=("spectra", "suprema", "sweep", "warmup"))
    ap.add_argument("seed", type=int, nargs="?", default=1)
    args = ap.parse_args(argv)
    warmup, passes = plan_passes(load_workloads(args.new), args.workload,
                                 args.seed)
    clis = [load_cli(args.old, "fracvolt_old"), load_cli(args.new, "fracvolt_new")]
    requests = [argv for argvs in passes for argv in argvs]
    timings = {}
    for argv, pair in zip(requests, time_rounds(clis, warmup, requests)):
        timings.setdefault(template(argv), []).append(pair)
    print("\n".join(report(timings)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
