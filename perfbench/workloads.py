"""Request plans for the three benchmark workloads.

A plan is a fixed warm-up list plus an endless sequence of passes.  Every
pass of a workload has the same templates in the same order, so passes cost
about the same whatever the seed; the seed only draws the parameters that
do not change the amount of work (symbols, corpus seeds, weight constants).
The warm-up does not depend on the seed, so its outputs always have stored
references.  No argv occurs twice in one run.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("spectra", "suprema", "sweep")

# One small request per layer the traced run reports, so that every layer
# has run (and every process-wide cache is filled) before timing starts.
COMMON_WARMUP = [
    "moments --weight expr:(1-r)^2 --x 1,3",
    "classify --weight tailexpr:(1-r)^3 --depth 12",
    "frac --op R --weight std:1 --weight2 std:2 --symbol mono:2",
    "norm --name hardy2-lp --weight std:1 --symbol mono:1",
    "equivalence --name h2-lp --weight expr:(1-r)^2 --trunc 4",
    "norm --name bmoa --weight std:1 --symbol mono:1",
    "norm --name bmoa-classical --weight std:1 --symbol mono:1",
    "norm --name bmoa-kernel --weight exp:1:1 --symbol mono:1",
    "norm --name bloch --weight std:1 --symbol mono:1",
    "equivalence --name besov --weight std:1 --corpus 2 --p 3",
    "equivalence --name tent-hp --weight std:1 --corpus 2 --p 3",
    "volterra --weight std:1 --symbol mono:1 --trunc 64 --p-list 2",
]


def _spectra(rng: random.Random) -> list:
    # (weight, alpha, p-list, truncation, symbol degree or None for a
    # monomial): dense SVDs of N = 512..1024.  SVD time depends on the
    # symbol degree, so the degree is fixed per template.  Cost clusters,
    # measured on 2 cores: 0.2 and 0.4 s, three near 0.65 s, two N=768 near
    # 0.75 s, and N=1024 at 1.5 s.  With five passes the median falls in the
    # middle of the 0.65 s cluster and p75 in the middle of the 0.75 s one.
    templates = [("std:1", -1, "1,2", 512, None), ("std:1", 0, "1,2,4", 576, None),
                 ("exp:1:1", 0, "1,2", 512, 8), ("std:2", 0, "1,2", 640, 12),
                 ("std:2", -1, "1,2", 640, 12), ("exp:1:1", -1, "1,2", 768, None),
                 ("exp:1:1", 0, "1,2", 768, None), ("std:2", -1, "1,2", 1024, None)]
    out = []
    for weight, alpha, plist, n, degree in templates:
        sym = f"mono:{rng.randint(1, 64)}" if degree is None else \
            f"random:{degree}:{rng.randrange(10 ** 6)}"
        out.append(["volterra", "--weight", weight, "--symbol", sym,
                    "--alpha", str(alpha), "--p-list", plist,
                    "--trunc", str(n)])
    return out


def _suprema(rng: random.Random, k: int) -> list:
    weights = ("std:1", "exp:1:1")

    def norm(name, weight, degree, *extra):
        return ["norm", "--name", name, "--weight", weight,
                "--symbol", f"random:{degree}:{rng.randrange(10 ** 6)}", *extra]

    # Cost clusters, measured on 2 cores: six bloch and two bmoa (degree 8)
    # near 0.1 s, five exp:1:1 kernel sups at 0.12-0.16 s, six bmoa and
    # bmoa-classical at degree 28-32 near 0.3 s, then the std:1 kernel sup
    # (1.4 s) and the corpus (3 s).  With three passes the median falls in
    # the middle of the 0.12-0.16 s cluster and p75 in the middle of the
    # 0.3 s cluster, away from the edges where a small shift in cost would
    # jump to the next cluster.  The corpus weight alternates by pass: std:1
    # in passes 0 and 2, exp:1:1 in pass 1.
    return [
        norm("bloch", "std:1", 32),
        norm("bloch", "std:1", 4, "--format", "json"),
        norm("bloch", "std:1", 16),
        norm("bloch", "exp:1:1", 24),
        norm("bloch", "exp:1:1", 12),
        norm("bloch", "exp:1:1", 4),
        norm("bmoa", "std:1", 8),
        norm("bmoa", "exp:1:1", 8, "--format", "json"),
        norm("bmoa-kernel", "exp:1:1", 4),
        norm("bmoa-kernel", "exp:1:1", 24),
        norm("bmoa-kernel", "exp:1:1", 8),
        norm("bmoa-kernel", "exp:1:1", 16),
        norm("bmoa-kernel", "exp:1:1", 32, "--format", "json"),
        norm("bmoa", "std:1", 32),
        norm("bmoa", "std:1", 28),
        norm("bmoa", "exp:1:1", 28),
        norm("bmoa-classical", "std:1", 32, "--format", "json"),
        norm("bmoa-classical", "std:1", 28),
        norm("bmoa-classical", "exp:1:1", 32),
        norm("bmoa-kernel", "std:1", 24),
        ["equivalence", "--name", "bmoa", "--weight", weights[k % 2],
         "--corpus", "8", "--seed", str(rng.randrange(10 ** 6))],
    ]


def _sweep(rng: random.Random) -> list:
    def u(lo, hi):
        return f"{rng.uniform(lo, hi):.4f}"

    def xs():
        return ",".join(str(2 * rng.randint(0, 60) + 1) for _ in range(4))

    def sym(degree):
        return f"random:{degree}:{rng.randrange(10 ** 6)}"

    def seed():
        return str(rng.randrange(10 ** 6))

    def derived(op, lo, hi):
        return json.dumps({"kind": "derived", "op": op,
                           "param": float(u(lo, hi)),
                           "base": {"kind": "standard", "beta": float(u(1, 3))}},
                          separators=(",", ":"))

    return [
        ["moments", "--weight", f"expr:(1-r)^{u(1.5, 4)}", "--x", xs()],
        ["moments", "--weight", f"tailexpr:(1-r)^{u(2, 4)}*(1+r)", "--x", xs()],
        ["moments", "--weight", f"exp:{u(0.5, 2)}:{u(0.5, 1.5)}", "--x", xs(),
         "--format", "json"],
        ["moments", "--weight", derived("power_tail", 1.5, 2.5), "--x", xs()],
        ["classify", "--weight", f"expr:(1-r)^{u(1.5, 4)}", "--depth", "24"],
        ["classify", "--weight", f"tailexpr:(1-r)^{u(2, 4)}*(1+r)",
         "--depth", "24"],
        ["classify", "--weight", f"exp:{u(0.5, 2)}:{u(0.5, 1.5)}",
         "--depth", "24"],
        ["classify", "--weight", derived("times_power", 0.5, 2), "--depth", "24"],
        ["frac", "--op", "R", "--weight", f"std:{u(0.5, 3)}",
         "--weight2", f"exp:{u(0.5, 2)}:1", "--symbol", sym(24)],
        # these three and the N=256 schatten corpus cost about the same; with
        # eight passes the tail percentile (p90) falls inside that block
        ["equivalence", "--name", "h2-lp", "--weight",
         f"expr:(1-r)^{u(1.5, 3)}", "--trunc", "10"],
        ["equivalence", "--name", "h2-lp", "--weight",
         f"expr:(1-r)^{u(1.5, 3)}*(1+r)", "--trunc", "10"],
        ["equivalence", "--name", "h2-lp", "--weight",
         f"expr:(1-r)^{u(1.5, 3)}*(2-r)", "--trunc", "10", "--format", "json"],
        ["norm", "--name", "tent", "--weight", f"std:{u(0.5, 3)}",
         "--symbol", sym(12), "--p", u(1.5, 4), "--format", "json"],
        # besov_mu's divergence monitor wrongly reports std:beta as not a
        # weight for beta*p in (1, 1.4] (e.g. std:0.5345 at p=2.6122), so
        # the Besov requests draw beta >= 1, where beta*p >= 2.5
        ["norm", "--name", "besov", "--weight", f"std:{u(1, 3)}",
         "--symbol", sym(16), "--p", u(2.5, 4)],
        ["norm", "--name", "besov-classical", "--weight", "std:1",
         "--symbol", sym(16), "--p", u(2.5, 4)],
        ["norm", "--name", "bergman", "--weight", "std:1",
         "--symbol", sym(16), "--alpha", u(0, 2), "--p", u(1.5, 4)],
        ["norm", "--name", "hardy2-lp", "--weight", f"std:{u(0.5, 3)}",
         "--symbol", sym(16)],
        ["equivalence", "--name", "besov", "--weight", f"std:{u(1, 3)}",
         "--corpus", "6", "--seed", seed(), "--p", u(2.5, 4)],
        ["equivalence", "--name", "tent-hp", "--weight", f"std:{u(0.5, 3)}",
         "--corpus", "6", "--seed", seed(), "--p", u(1.5, 4),
         "--format", "json"],
        ["equivalence", "--name", "schatten", "--weight", f"std:{u(1, 3)}",
         "--corpus", "6", "--seed", seed(), "--trunc", "128"],
        ["equivalence", "--name", "schatten", "--weight", f"std:{u(1, 3)}",
         "--corpus", "6", "--seed", seed(), "--trunc", "256", "--p", u(2.5, 4)],
    ]


# Timed passes in a run of REFERENCE_SECONDS; other --seconds scale them,
# with at least MIN_PASSES.  The pass count depends only on --seconds, never
# on how fast the machine or the code under test happens to be, so the
# sample count and the request mix are the same in every run.  The counts
# put each percentile inside a cost cluster (see the templates) and keep a
# run near 30-45 s on 2 cores: passes take about 5.6, 7.5 and 2.5 s.
PASSES = {"spectra": 5, "suprema": 3, "sweep": 8}
REFERENCE_SECONDS = 25.0
MIN_PASSES = 2


class Plan:
    """Warm-up list and seeded passes of one workload."""

    def __init__(self, workload: str, seed: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self._seen = set()
        self.warmup = [a.split() for a in COMMON_WARMUP]
        self.warmup += self._draw("warmup")
        for argv in self.warmup:
            self._seen.add(tuple(argv))

    def passes(self, seconds: float) -> int:
        """Number of timed passes in a run of about ``seconds``."""
        return max(MIN_PASSES,
                   round(PASSES[self.workload] * seconds / REFERENCE_SECONDS))

    def _draw(self, stream: str, k: int = 0) -> list:
        rng = random.Random(f"{self.workload}/{stream}/{k}")
        if self.workload == "spectra":
            return _spectra(rng)
        if self.workload == "suprema":
            return _suprema(rng, k)
        return _sweep(rng)

    def timed_pass(self, k: int) -> list:
        """Pass k of this seed, in a seeded order; an argv already used in
        the run is redrawn.  The shuffle spreads each cost cluster over the
        whole run, so a percentile samples the machine's speed throughout
        the run rather than in one short stretch of each pass."""
        draws = [self._draw(f"seed={self.seed}", k)]
        out = []
        for i in range(len(draws[0])):
            attempt = 0
            while tuple(draws[attempt][i]) in self._seen:
                attempt += 1
                if attempt == len(draws):
                    draws.append(self._draw(f"seed={self.seed}/redraw={attempt}", k))
            self._seen.add(tuple(draws[attempt][i]))
            out.append(draws[attempt][i])
        random.Random(f"{self.workload}/order/seed={self.seed}/{k}").shuffle(out)
        return out
