"""Self-tests of the benchmark's spans.

    python3 perfbench/selftest.py [--seed N] [--seconds S]

- Declaration: BENCHMARK.json lists exactly the metrics the runs report.
- Spans: two traced runs per workload report identical counts, and every
  per-layer metric is non-zero on the workload meant to exercise it, which
  catches a patch on the wrong module name.
- Attribution: ``volterra.singular_values`` is slowed by a fixed delay from
  the benchmark side.  Over the medians of ``PAIRS`` interleaved pairs of
  runs with and without the delay, ``spectra`` and ``sweep`` must slow down
  by more than the ``requests_per_s`` bound, ``suprema`` must stay within
  every bound,
  the traced ``volterra.singular_values.self_s`` must hold the whole delay,
  and the self time of its callers must not absorb it.

Exit code 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from report import bench
from run import END_TO_END
from tracing import LAYER_METRICS
from workloads import WORKLOADS

DELAY_S = 0.1
PAIRS = 3
DIAGNOSTICS = {"cli.outputs_identical", "cli.max_rel_dev", "trace.overhead"}
EXACT_UNITS = {"count", "bytes", "flop"}

# workload on which each per-layer metric must be non-zero (the layer
# metric -> end-to-end metric table in README.md)
EXERCISED = {name: "sweep" for name, _, _ in LAYER_METRICS
             if name not in DIAGNOSTICS}
EXERCISED.update({name: "suprema" for name in EXERCISED
                  if name.startswith(("norms.angular_autocorr", "norms.square_mass",
                                      "norms.bmoa", "norms.bloch", "geometry."))})
EXERCISED.update({name: "spectra" for name in EXERCISED
                  if name.startswith("volterra.")})


def add_delay(package) -> None:
    volterra = package.volterra
    original = volterra.singular_values

    def delayed(M):
        time.sleep(DELAY_S)
        return original(M)

    volterra.singular_values = delayed


def check_declaration(problems: list) -> None:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if declared != END_TO_END:
        problems.append(f"BENCHMARK.json end_to_end {declared} != {END_TO_END}")
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if declared != [tuple(m) for m in LAYER_METRICS]:
        problems.append("BENCHMARK.json per_layer differs from tracing.LAYER_METRICS")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def check_spans(first: dict, second: dict, problems: list) -> None:
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    for w in WORKLOADS:
        a, b = first[w]["values"], second[w]["values"]
        for name, unit in units.items():
            exact = unit in EXACT_UNITS or name == "weights.moment.hit_ratio"
            if exact and name not in DIAGNOSTICS and a[name] != b[name]:
                problems.append(f"{w}: {name} {a[name]} then {b[name]}")
        for name, home in EXERCISED.items():
            if home == w and not a[name] > 0:
                problems.append(f"{w}: {name} is {a[name]}, expected > 0")


def check_attribution(seed: int, seconds: float, traced: dict,
                      problems: list) -> None:
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    for w in WORKLOADS:
        # PAIRS interleaved runs per side, alternating which goes first;
        # each side is compared by its median so one noisy run cannot decide
        runs = {0.0: [], DELAY_S: []}
        for i in range(PAIRS):
            for delay in ((0.0, DELAY_S) if i % 2 == 0 else (DELAY_S, 0.0)):
                runs[delay].append(bench(w, seed, seconds, 0, delay)["values"])
        base, slow = ({name: statistics.median(r[name] for r in runs[d])
                       for name in runs[d][0]} for d in (0.0, DELAY_S))
        if w == "suprema":
            for name, (bound, better) in bounds.items():
                if name == "setup_s":
                    continue
                worse = (base[name] - slow[name] if better == "higher"
                         else slow[name] - base[name]) / base[name]
                if worse > bound:
                    problems.append(f"suprema: {name} worse by {worse:.1%} "
                                    f"(bound {bound:.0%}) with the delay")
        else:
            drop = 1.0 - slow["requests_per_s"] / base["requests_per_s"]
            if drop <= bounds["requests_per_s"][0]:
                problems.append(f"{w}: requests_per_s fell only {drop:.1%} "
                                f"with the delay")
        before = traced[w]["values"]
        after = bench(w, seed, seconds, 1, DELAY_S)["values"]
        # The sleeps lie inside the singular_values spans, so its self time
        # holds all of them, and its callers' self time must not grow by
        # them.  The SVD time left over is not compared: after each sleep
        # the BLAS pool has parked and small SVDs pay to wake it.
        injected = DELAY_S * after["volterra.singular_values.calls"]
        self_s = after["volterra.singular_values.self_s"]
        undelayed = before["volterra.singular_values.self_s"]
        if self_s < injected:
            problems.append(f"{w}: singular_values.self_s {self_s:.3f} s < "
                            f"{injected:.3f} s injected")
        for caller in ("volterra.schatten_with_monitor.self_s", "cli.main.self_s"):
            leaked = after[caller] - before[caller]
            if leaked > 0.05 * injected + 0.05:
                problems.append(f"{w}: {caller} grew {leaked:.3f} s "
                                f"of {injected:.3f} s injected")
        print(f"attribution {w}: injected {injected:.3f} s; singular_values."
              f"self_s {self_s:.3f} s with the delay, {undelayed:.3f} s without",
              flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args(argv)
    problems = []
    check_declaration(problems)
    first = {w: bench(w, args.seed, args.seconds, 1) for w in WORKLOADS}
    second = {w: bench(w, args.seed, args.seconds, 1) for w in WORKLOADS}
    check_spans(first, second, problems)
    print(f"span test: {len(problems)} problems so far", flush=True)
    check_attribution(args.seed, args.seconds, first, problems)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    ap = argparse.ArgumentParser(add_help=False)
    ap.add_argument("--delay", type=float)
    known, rest = ap.parse_known_args()
    if known.delay is None:
        sys.exit(main(rest))
    # child of bench(): one benchmark run with the delay installed
    import run
    DELAY_S = known.delay
    sys.exit(run.run(run.parse_args(rest), instrument=add_delay))
