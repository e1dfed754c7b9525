"""Cold start: importing the CLI loads neither scipy.special nor
scipy.linalg, and a command loads scipy.special only when it reads a std
tail or an A^2_alpha norm.  Each command prints the same bytes whatever
was loaded before it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fracvolt import cli

SRC = str(Path(cli.__file__).resolve().parents[1])

# which of the two heavy scipy submodules a fresh interpreter holds
LOADED = ("[m for m in ('scipy.special', 'scipy.linalg') "
          "if m in sys.modules]")

# (argv, whether it reads a std tail and so loads scipy.special)
COMMANDS = [
    (["moments", "--weight", "expr:(1-r)^2", "--x", "1,3"], False),
    (["frac", "--op", "R", "--weight", "std:1", "--weight2", "std:2",
      "--symbol", "mono:2"], False),
    (["norm", "--name", "bmoa-kernel", "--weight", "exp:1:1",
      "--symbol", "mono:1"], False),
    (["norm", "--name", "hardy2-lp", "--weight", "std:1",
      "--symbol", "mono:1"], True),
]


def fresh_python(code, *argv):
    """Run ``code`` in a new interpreter that imports fracvolt from this
    checkout; its CompletedProcess with stdout and stderr as text."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)


def test_import_loads_no_heavy_scipy():
    proc = fresh_python("import sys, json, fracvolt.cli; "
                        f"print(json.dumps({LOADED}))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.fixture(scope="module")
def cold_runs():
    """(exit code, stdout, modules loaded) of each command, each run in a
    fresh interpreter; the module list is the last line of stderr."""
    code = ("import sys, json\nfrom fracvolt import cli\n"
            "rc = cli.main(sys.argv[1:])\nsys.stdout.flush()\n"
            f"print(json.dumps({LOADED}), file=sys.stderr)\nsys.exit(rc)\n")
    runs = []
    for argv, _ in COMMANDS:
        proc = fresh_python(code, *argv)
        runs.append((proc.returncode, proc.stdout,
                     json.loads(proc.stderr.splitlines()[-1])))
    return runs


@pytest.mark.parametrize("i", range(len(COMMANDS)),
                         ids=[" ".join(argv[:3]) for argv, _ in COMMANDS])
def test_scipy_special_loads_only_for_std_tails(cold_runs, i):
    code, out, loaded = cold_runs[i]
    assert code == cli.EXIT_OK and out
    assert ("scipy.special" in loaded) == COMMANDS[i][1]


def test_output_does_not_depend_on_what_loaded_first(cold_runs, capsys):
    # in process, in reverse order: hardy2-lp loads scipy.special first
    # (if nothing before it did), so the three that ran fresh without it
    # now run with it loaded
    for (argv, _), (code, out, _) in reversed(list(zip(COMMANDS, cold_runs))):
        assert cli.main(argv) == code
        assert capsys.readouterr().out == out
