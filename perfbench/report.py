"""Run every workload untraced, then traced, and print the metrics.

    python3 perfbench/report.py [--seed N] [--seconds S]

Each run is a fresh interpreter (``run.py``).  The end-to-end metrics come
first, one row per workload, then the per-layer metrics of the traced runs,
then each workload's split of traced self time by module.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from run import END_TO_END
from tracing import LAYER_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def bench(workload: str, seed: int, seconds: float, trace: int,
          delay_s: float = 0.0) -> dict:
    """One benchmark run in a fresh interpreter; returns its result line.

    With ``delay_s`` the run goes through the self-test's child, which slows
    ``volterra.singular_values`` by that much per call.
    """
    script = [str(HERE / "run.py")] if not delay_s else \
        [str(HERE / "selftest.py"), "--delay", str(delay_s)]
    cmd = [sys.executable, *script, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["values"] = {k: m["value"] for k, m in result["metrics"].items()}
    return result


def module_split(workload: str, seed: int) -> dict:
    """Share of traced self time per module, from the traced run's record."""
    record = json.loads((Path.cwd() / ".perfbench" /
                         f"{workload}-seed{seed}-trace1.json").read_text())
    split = defaultdict(float)
    for key, value in record["layers"].items():
        if key.endswith(".self_s"):
            split[key.split(".")[0]] += value
    total = sum(split.values())
    return {m: v / total for m, v in sorted(split.items(), key=lambda kv: -kv[1])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args(argv)

    plain = {w: bench(w, args.seed, args.seconds, 0) for w in WORKLOADS}
    traced = {w: bench(w, args.seed, args.seconds, 1) for w in WORKLOADS}

    head = f"{'metric':42s} {'unit':6s}" + "".join(f"{w:>14s}" for w in WORKLOADS)
    for title, results, metrics in (
            ("end to end", plain, END_TO_END),
            ("per layer (traced)", traced, [(n, u) for n, u, _ in LAYER_METRICS])):
        print(f"\n== {title}\n{head}")
        for name, unit in metrics:
            print(f"{name:42s} {unit:6s}" + "".join(
                f"{results[w]['values'][name]:14.6g}" for w in WORKLOADS))
        print(f"{'correct':49s}" + "".join(
            f"{str(results[w]['correct']):>14s}" for w in WORKLOADS))
        print(f"{'failed / attempted':49s}" + "".join(
            f"{results[w]['failed']:>9d} /{results[w]['attempted']:>3d}"
            for w in WORKLOADS))
    print("\n== traced self time by module")
    for w in WORKLOADS:
        split = module_split(w, args.seed)
        print(f"{w:8s} " + ", ".join(f"{m} {v:.0%}" for m, v in split.items()
                                     if v >= 0.005))
    ok = all(r["correct"] for r in (*plain.values(), *traced.values()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
