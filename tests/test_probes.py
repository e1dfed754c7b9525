"""Every span that perfbench/tracing.py installs must find its target, and
its count hooks must read the shapes they model; every argv that the
benchmark sends must parse.

The tracer replaces each probed function in the module namespaces that
bind it, and each probed method in its class's own ``__dict__``.  A
refactor that moves, renames or inherits a probed callable, or changes
what a count hook reads (say, the operator storage behind N), would make
the traced benchmark run fail; these tests fail first.  The tracing and
workload modules are loaded by path (they import only the standard
library) and only read.
"""

import importlib
import importlib.util
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import fracvolt

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load("tracing")
workloads = load("workloads")
PROBES = tracing.PROBES


def test_every_benchmark_argv_parses():
    # the warm-up and the passes of seeds 1-3 of every workload; parsed
    # with the CLI's parser, none of them run
    from fracvolt import cli
    parser = cli.build_parser()
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            plan = workloads.Plan(workload, seed)
            argvs = list(plan.warmup)
            for k in range(plan.passes(workloads.REFERENCE_SECONDS)):
                argvs += plan.timed_pass(k)
            for argv in argvs:
                with redirect_stderr(io.StringIO()) as err:
                    try:
                        parser.parse_args(argv)
                    except SystemExit:
                        pytest.fail(f"{argv}: {err.getvalue()}")


def test_probe_table_is_not_empty():
    assert len(PROBES) > 20


@pytest.mark.parametrize("name,modname,attr", [p[:3] for p in PROBES],
                         ids=[f"{p[0]}:{p[2]}" for p in PROBES])
def test_probe_resolves(name, modname, attr):
    module = importlib.import_module(f"{fracvolt.__name__}.{modname}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        assert meth in cls.__dict__, f"{attr} is not defined on {cls_name} itself"
        raw = cls.__dict__[meth]
        assert callable(getattr(raw, "__func__", raw))
    else:
        assert callable(getattr(module, attr))


def run_warmup():
    """(exit codes, stdout) of the common warm-up through ``cli.main``,
    looked up per call so that a traced binding is the one run."""
    from fracvolt import cli
    codes, out = [], io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        for argv in workloads.COMMON_WARMUP:
            codes.append(cli.main(argv.split()))
    return codes, out.getvalue()


def test_traced_warmup_counts_and_output():
    plain_codes, plain_out = run_warmup()
    tracer = tracing.Tracer()
    try:
        tracer.install(fracvolt)
        codes, out = run_warmup()
    finally:
        tracer.active(False)
    # 2 flags a detected divergence (the h2-lp ratio trend), a pass as in
    # the benchmark's checks
    assert codes == plain_codes and set(codes) <= {0, 2}
    assert out == plain_out
    counts = tracer.summary()
    # the warm-up's one volterra request is a monomial, a weighted shift
    # whose spectra build no band and run no eigensolve
    assert counts.get("volterra.volterra_matrix.calls", 0) == 0
    assert counts.get("volterra.singular_values.calls", 0) == 0
    assert counts["volterra.schatten_with_monitor.calls"] == 1


def test_traced_band_spectra_cost_model():
    # a full symbol: N = 64 and its N/2 block
    from fracvolt import cli
    tracer = tracing.Tracer()
    try:
        tracer.install(fracvolt)
        with redirect_stdout(io.StringIO()):
            code = cli.main("volterra --weight std:1 --symbol random:3:1 "
                                     "--trunc 64 --p-list 2".split())
    finally:
        tracer.active(False)
    assert code in (0, 2)
    counts = tracer.summary()
    assert counts["volterra.volterra_matrix.entries"] == 64 ** 2
    assert counts["volterra.singular_values.flops_computed"] == \
        32 * 64 ** 3 // 3 + 32 * 32 ** 3 // 3


def run_volterra():
    from fracvolt import cli
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main("volterra --weight exp:1:1 --symbol mono:3 "
                        "--trunc 64".split())
    return code, out.getvalue()


def test_traced_volterra_times_its_odd_moments():
    # an odd_moments override on a subclass would escape the probes on
    # RadialWeight and StandardWeight and read as zero moment time
    plain = run_volterra()
    tracer = tracing.Tracer()
    try:
        tracer.install(fracvolt)
        traced = run_volterra()
    finally:
        tracer.active(False)
    assert traced == plain
    assert tracer.summary().get("weights.odd_moments.calls", 0) >= 1
