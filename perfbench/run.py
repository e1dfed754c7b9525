"""fracvolt benchmark: one workload through ``fracvolt.cli.main(argv)``.

    python3 perfbench/run.py --workload {spectra,suprema,sweep} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``.  One client sends requests in a closed loop from this fresh
interpreter after an untimed warm-up.  ``--trace 0`` runs a fixed number
of whole passes, set from ``--seconds`` alone (``workloads.PASSES`` at
25 s), so the sample count and the request mix do not depend on the speed
of the machine or of the code; it reports the end-to-end metrics.
``--trace 1`` records spans over the warm-up and over pass 0, so counts
repeat exactly, and then measures the tracing overhead on two more copies
of pass 0, traced and with the unpatched package.  The last line of stdout
is the JSON result; a record with the environment goes to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from checks import Checker, OutputError
from workloads import WORKLOADS, Plan

SETUP_LAUNCHES = 5
TAIL_LADDER = (99, 95, 90, 75, 50)
MIN_BEYOND = 10

END_TO_END = [
    ("setup_s", "s"), ("requests_per_s", "1/s"), ("latency_p50_s", "s"),
    ("latency_tail_s", "s"), ("cpu_s_per_request", "s"),
    ("peak_rss_mb", "MB"), ("success_ratio", "ratio"),
]


def blas_threads() -> int:
    """Cap BLAS pools at the CPUs this process may use (nproc)."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    os.environ.pop("FRACVOLT_THREADS", None)
    return n


def measure_setup(src: Path) -> float:
    """Median wall time of a fresh interpreter importing fracvolt.cli.
    Called after this process has imported it, so any bytecode caches
    are already written."""
    cmd = [sys.executable, "-c", "import fracvolt.cli"]
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)    # all threads
    return ru.ru_utime + ru.ru_stime


def tail_latency(latencies) -> tuple:
    """(value, percentile, samples beyond): highest ladder percentile that
    leaves at least MIN_BEYOND samples beyond it (nearest rank); p50 when
    the run is too short for any."""
    s = sorted(latencies)
    n = len(s)
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(q / 100.0 * n))
        if n - rank >= MIN_BEYOND or q == TAIL_LADDER[-1]:
            return s[rank - 1], q, n - rank


def environment(root: Path, seed: int, threads: int) -> dict:
    import numpy
    import scipy
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_vendor = "unknown"
    commit = "unknown (not a git checkout)"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (root / ".git" / ref[5:]).is_file():
            commit = (root / ".git" / ref[5:]).read_text().strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "fracvolt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": threads, "cpu_model": cpu_model, "blas": blas_vendor,
        "blas_threads": threads, "python": sys.version.split()[0],
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "commit": commit, "source_sha256": digest.hexdigest(), "seed": seed,
        "cpu_pinning": "none: shared 2-core VMs allow no CPU pinning or "
                       "frequency control",
    }


class Client:
    """Closed-loop client: one request at a time, every output checked."""

    def __init__(self, cli, checker: Checker):
        self.cli = cli
        self.checker = checker
        self.attempted = 0
        self.failures = []

    def request(self, argv) -> float:
        out = io.StringIO()
        problem = None
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)    # looked up per call: may be traced
        except (Exception, SystemExit) as e:
            problem = f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - t0
        if problem is None:
            try:
                self.checker.check(argv, code, out.getvalue())
            except (OutputError, ValueError) as e:
                problem = str(e)
        self.attempted += 1
        if problem is not None:
            self.failures.append({"argv": argv, "problem": problem})
        return elapsed


def timed_passes(client: Client, plan: Plan, passes: int) -> dict:
    """Run ``passes`` whole passes; keep each request's latency and each
    pass's wall and CPU time."""
    latencies, walls, cpus = [], [], []
    for k in range(passes):
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        latencies.append([client.request(argv) for argv in plan.timed_pass(k)])
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - cpu0)
    return {"latencies": latencies, "walls": walls, "cpus": cpus}


def summarise(raw: dict) -> dict:
    latencies = [x for lat in raw["latencies"] for x in lat]
    wall, cpu = sum(raw["walls"]), sum(raw["cpus"])
    tail, q, beyond = tail_latency(latencies)
    return {
        "requests_per_s": len(latencies) / wall,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail,
        "cpu_s_per_request": cpu / len(latencies),
        "detail": {"passes": len(raw["walls"]), "requests": len(latencies),
                   "wall_s": wall, "tail_percentile": q,
                   "tail_samples_beyond": beyond},
    }


def traced_pass(client: Client, plan: Plan, tracer) -> tuple:
    """Pass 0 traced, as an untraced run would meet it, then the layer
    summary; then the tracing overhead: each request of pass 0 twice more,
    traced and with the unpatched package, order alternating, both copies
    finding the caches the first copy filled.  Returns the summary and
    traced rps over untraced rps."""
    requests = plan.timed_pass(0)
    for i, argv in enumerate(requests):
        tracer.request = f"pass0/{i}"
        client.request(argv)
    summary = tracer.summary()
    untraced = traced = 0.0
    for i, argv in enumerate(requests):
        tracer.request = f"overhead/{i}"
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            tracer.active(on)
            dt = client.request(argv)
            if on:
                traced += dt
            else:
                untraced += dt
    tracer.active(False)
    return summary, untraced / traced


def run(args, instrument=None) -> int:
    root = Path.cwd()
    src = root / "src"
    if not (src / "fracvolt" / "cli.py").is_file():
        print("error: run from the root of a fracvolt checkout "
              "(src/fracvolt/cli.py not found)", file=sys.stderr)
        return 2
    threads = blas_threads()
    sys.path.insert(0, str(src))
    import fracvolt
    from fracvolt import cli
    setup_s = measure_setup(src) if not args.trace else None
    if instrument is not None:
        instrument(fracvolt)

    plan = Plan(args.workload, args.seed)
    checker = Checker(args.workload)
    client = Client(cli, checker)
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(fracvolt)
    for i, argv in enumerate(plan.warmup):
        if tracer:
            tracer.request = f"warmup/{i}"
        client.request(argv)

    record = {"workload": args.workload, "trace": args.trace,
              "environment": environment(root, args.seed, threads)}
    if args.trace:
        from tracing import LAYER_METRICS
        summary, overhead = traced_pass(client, plan, tracer)
        summary["trace.overhead"] = overhead
        summary["cli.outputs_identical"] = int(checker.identical == checker.compared)
        summary["cli.max_rel_dev"] = checker.max_rel_dev
        metrics = {name: {"value": summary.get(name, 0), "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
        record["layers"] = summary
    else:
        raw = timed_passes(client, plan, plan.passes(args.seconds))
        timed = summarise(raw)
        record["detail"] = timed.pop("detail")
        record["raw"] = raw
        timed["setup_s"] = setup_s
        timed["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        timed["success_ratio"] = 1.0 - len(client.failures) / client.attempted
        metrics = {name: {"value": timed[name], "unit": unit}
                   for name, unit in END_TO_END}
    record["reference"] = {"compared": checker.compared,
                           "identical": checker.identical,
                           "max_rel_dev": checker.max_rel_dev}
    record["failures"] = client.failures
    record["metrics"] = metrics

    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer:
        tracer.dump(out_dir / f"{stem}.spans.jsonl")

    for f in client.failures[:5]:
        print(f"FAILED {' '.join(f['argv'])}: {f['problem']}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"],
                      **({"detail": record["detail"]} if "detail" in record else {})}))
    for name, m in metrics.items():
        print(f"{args.workload:8s} {name:42s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not client.failures,
                      "attempted": client.attempted,
                      "failed": len(client.failures), "metrics": metrics}))
    return 0


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
