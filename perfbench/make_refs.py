"""Regenerate the stored reference outputs in ``refs/``.

    python3 perfbench/make_refs.py [workload ...]

Run from the root of a checkout whose outputs are trusted.  For each
workload it stores the stdout of every warm-up request and of every pass
that a run of ``run_seconds`` (from BENCHMARK.json) makes for each default
seed, keyed by argv.  Runs with other seeds are checked for form only.
"""

from __future__ import annotations

import gzip
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from checks import OK_CODES, REF_DIR, argv_key
from run import blas_threads
from workloads import WORKLOADS, Plan

DEFAULT_SEEDS = (1, 2, 3)


def main(workloads) -> int:
    blas_threads()
    run_seconds = json.loads((Path.cwd() / "BENCHMARK.json").read_text())["run_seconds"]
    sys.path.insert(0, str(Path.cwd() / "src"))
    from fracvolt import cli
    for workload in workloads:
        refs = {}
        for seed in DEFAULT_SEEDS:
            plan = Plan(workload, seed)
            requests = list(plan.warmup)
            for k in range(plan.passes(run_seconds)):
                requests += plan.timed_pass(k)
            for argv in requests:
                out = io.StringIO()
                with redirect_stdout(out), redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                if code not in OK_CODES:
                    raise SystemExit(f"{' '.join(argv)}: exit code {code}")
                refs[argv_key(argv)] = out.getvalue()
        REF_DIR.mkdir(exist_ok=True)
        path = REF_DIR / f"{workload}.json.gz"
        with gzip.GzipFile(path, "wb", mtime=0) as fh:
            fh.write(json.dumps(refs, indent=0, sort_keys=True).encode())
        print(f"{path}: {len(refs)} outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or WORKLOADS))
