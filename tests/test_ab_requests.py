"""tools/ab_requests.py: the tree against itself on the common warm-up, its
rounds, and its template masks."""

import importlib.util
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = load(ROOT / "tools" / "ab_requests.py", "ab_requests")


def test_tree_against_itself_on_the_warmup():
    workloads = tool.load_workloads(ROOT)
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            code = tool.main([str(ROOT), str(ROOT), "warmup"])
    finally:
        for name in [n for n in sys.modules if n.startswith("fracvolt_")]:
            del sys.modules[name]
    lines = out.getvalue().splitlines()
    assert code == 0
    # a header, one row per template, the sums and the ratio
    assert len(lines) == len(workloads.COMMON_WARMUP) + 3
    assert lines[-2].startswith("sum")
    ratio = float(lines[-1].split()[-1])
    assert ratio > 0


def test_templates_mask_the_drawn_parts():
    a = "norm --name bmoa-kernel --weight exp:1:1 --symbol random:24:123".split()
    b = "norm --name bmoa-kernel --weight exp:1:1 --symbol random:24:9".split()
    c = "norm --name bmoa-kernel --weight exp:1:1 --symbol random:16:9".split()
    assert tool.template(a) == tool.template(b) != tool.template(c)
    d = "equivalence --name bmoa --weight std:1 --corpus 8 --seed 5".split()
    assert tool.template(d).endswith("--corpus 8 --seed #")
    e = "moments --weight expr:(1-r)^2.5123 --x 3,57,9,1".split()
    assert tool.template(e) == "moments --weight expr:(1-r)^# --x #"


class FakeCli:
    """Records the argvs it serves and the clears of its weight cache."""

    def __init__(self, log, name, interns):
        self.log, self.name = log, name
        self.from_shorthand = lambda text: None
        if interns:
            self.from_shorthand.cache_clear = lambda: log.append((name, "clear"))

    def main(self, argv):
        self.log.append((self.name, argv))
        return 0


def test_repeats_are_whole_passes_apart():
    log = []
    clis = [FakeCli(log, "old", interns=False), FakeCli(log, "new", interns=True)]
    best = tool.time_rounds(clis, ["w"], ["a", "b", "c"])
    assert len(best) == 3 and all(len(pair) == 2 for pair in best)
    round_ = [("old", "w"), ("new", "clear"), ("new", "w"),
              ("old", "a"), ("new", "a"), ("new", "b"), ("old", "b"),
              ("old", "c"), ("new", "c")]
    second = [("old", "w"), ("new", "clear"), ("new", "w"),
              ("new", "a"), ("old", "a"), ("old", "b"), ("new", "b"),
              ("new", "c"), ("old", "c")]
    assert log == (round_ + second) * (tool.REPEATS // 2) + \
        (round_ if tool.REPEATS % 2 else [])
