"""tools/compare_outputs.py: the tree against itself on the common warm-up,
and its verdicts on hand-made outputs."""

import importlib.util
import io
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = load(ROOT / "tools" / "compare_outputs.py", "compare_outputs")


def test_tree_against_itself_on_the_warmup():
    out = io.StringIO()
    with redirect_stdout(out):
        code = tool.main([str(ROOT), str(ROOT), "warmup"])
    assert code == 0
    assert "12 of 12 outputs byte-identical" in out.getvalue()
    lines = tool.src_lines(ROOT)
    assert f"src/fracvolt/*.py lines: {lines} -> {lines} (+0)" in out.getvalue()


def test_moves_are_reported_and_judged():
    checks = tool.load(ROOT, "checks")
    header = ",".join(checks.COLUMNS)
    row = "norm-bmoa,std:1,mono:1,,{lhs},,,5,nan,{anchor}"

    def output(lhs, anchor="0.5+0j"):
        return [0, f"{header}\n{row.format(lhs=lhs, anchor=anchor)}\n", ""]

    argvs = [["a"], ["b"], ["c"]]
    old = [output("1.0"), output("2.0"), output("3.0")]
    lines, failed = tool.compare(checks, argvs, old,
                                 [output("1.0"), output("2.0000000000000004"),
                                  output("3.0")], 1e-13)
    assert not failed and lines[0] == "2 of 3 outputs byte-identical"
    assert any(line.split()[:2] == ["norm-bmoa", "lhs"] for line in lines)
    _, failed = tool.compare(checks, argvs, old,
                             [output("1.0"), output("2.001"), output("3.0")], 1e-13)
    assert failed
    lines, failed = tool.compare(checks, argvs, old,
                                 [output("1.0", "0.25+0j"), output("2.0"),
                                  [2, old[2][1], ""]], 1e-13)
    assert failed
    assert "ANCHOR 0.5+0j -> 0.25+0j: a" in lines and "EXIT 0 -> 2: c" in lines
