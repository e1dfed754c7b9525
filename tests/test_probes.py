"""Every span that perfbench/tracing.py installs must find its target.

The tracer replaces each probed function in the module namespaces that
bind it, and each probed method in its class's own ``__dict__``.  A
refactor that moves, renames or inherits a probed callable would make the
traced benchmark run fail; this test fails first.  The tracing module is
loaded by path (it imports only the standard library) and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import fracvolt

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PROBES


PROBES = load_probes()


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
