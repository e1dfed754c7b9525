"""Spans around calls into each fracvolt module, installed from outside.

Nothing in the package is edited: each traced function is replaced by a
wrapper in every module namespace (and class) that binds it, so a name
imported with ``from .x import y`` is timed where it is looked up.  Spans
(name, start, end, parent, request) stay in memory and are written out when
the run ends.  A span's self time is its duration minus the time its direct
child spans cover; a name's inclusive time counts only spans with no
ancestor of the same name, so recursion is not counted twice.

Computed cost models (labelled ``_computed``; derived from array shapes,
not measured):

- ``volterra.singular_values.flops_computed``: (32/3) N^3 per N x N complex
  matrix, the Golub-Kahan bidiagonalisation count 8N^3/3 for singular values
  without vectors, times 4 real flops per complex multiply-add.
- ``volterra.singular_values.bytes_computed``: 16 N^2 per matrix, one read
  of the complex128 entries.
- ``norms.angular_autocorr.entries``: sum over calls of radii x (deg + 1),
  the size of the returned A_k table.
- ``volterra.volterra_matrix.entries``: sum over calls of N^2.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


def _points(args, kwargs):
    return {"points": getattr(args[1], "size", 1)}


def _moment_hit(args, kwargs):
    x = float(args[1] if len(args) > 1 else kwargs["x"])
    return {"hits": int(x in args[0]._moment_cache)}


def _autocorr_entries(args, kwargs):
    coeffs, radii = args[0], args[1]
    return {"entries": getattr(radii, "size", 1) * len(coeffs)}


def _matrix_entries(args, kwargs, result):
    return {"entries": result.dimension ** 2}


def _svd_cost(args, kwargs):
    n = args[0].entries.shape[0]
    return {"flops_computed": 32 * n ** 3 // 3, "bytes_computed": 16 * n * n}


def _emitted_bytes(args, kwargs, result):
    # emit is the only writer to stdout and runs last, so after the call the
    # captured buffer holds exactly what it wrote
    return {"bytes": sys.stdout.tell()}


# (span name, module, attribute or Class.attribute, counts taken before the
# call from its arguments, counts taken after it from its arguments and result)
PROBES = [
    ("cli.main", "cli", "main", None, None),
    ("cli.emit", "cli", "emit", None, _emitted_bytes),
    ("weights.from_shorthand", "weights", "from_shorthand", None, None),
    ("weights.tail", "weights", "RadialWeight.tail", _points, None),
    ("weights.tail", "weights", "StandardWeight.tail", _points, None),
    ("weights.tail", "weights", "ExponentialWeight.tail", _points, None),
    ("weights.tail", "weights", "TailExprWeight.tail", _points, None),
    ("weights.moment", "weights", "RadialWeight.moment", _moment_hit, None),
    ("weights.odd_moments", "weights", "RadialWeight.odd_moments", None, None),
    ("weights.odd_moments", "weights", "StandardWeight.odd_moments", None, None),
    ("quad.panel_function", "quad", "PanelFunction.from_callable", None, None),
    ("quad.panel_function", "quad", "PanelFunction.from_values", None, None),
    ("quad.suffix_integral", "quad", "PanelFunction.suffix_integral", _points, None),
    ("weight_class.classify", "weight_class", "classify", None, None),
    ("taylor.frac", "taylor", "frac_derivative", None, None),
    ("taylor.frac", "taylor", "frac_integral", None, None),
    ("taylor.frac", "taylor", "frac_R", None, None),
    ("norms.angular_autocorr", "norms", "angular_autocorr", _autocorr_entries, None),
    ("norms.square_mass", "norms", "SquareMachine.square_mass", None, None),
    ("norms.bmoa_mu_sup", "norms", "bmoa_mu_sup", None, None),
    ("norms.bmoa_classical", "norms", "bmoa_classical", None, None),
    ("norms.bmoa_kernel_sup", "norms", "bmoa_kernel_sup", None, None),
    ("norms.bloch_mu", "norms", "bloch_mu", None, None),
    ("norms.besov_mu", "norms", "besov_mu", None, None),
    ("norms.besov_classical", "norms", "besov_classical", None, None),
    ("norms.tent_norm_power", "norms", "tent_norm_power", None, None),
    ("norms.hardy2_lp", "norms", "hardy2_lp", None, None),
    ("norms.h2_monomial_ratios", "norms", "h2_monomial_ratios", None, None),
    ("geometry.build_lattice", "geometry", "build_lattice", None, None),
    ("volterra.volterra_matrix", "volterra", "volterra_matrix", None, _matrix_entries),
    ("volterra.singular_values", "volterra", "singular_values", _svd_cost, None),
    ("volterra.schatten_with_monitor", "volterra", "schatten_with_monitor", None, None),
]

# Per-layer metrics reported by a traced run: (name, unit, better).
LAYER_METRICS = [
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.emit.s", "s", "lower"),
    ("cli.emit.bytes", "bytes", "lower"),
    ("cli.outputs_identical", "count", "higher"),
    ("cli.max_rel_dev", "ratio", "lower"),
    ("weights.from_shorthand.s", "s", "lower"),
    ("weights.tail.calls", "count", "lower"),
    ("weights.tail.points", "count", "lower"),
    ("weights.tail.self_s", "s", "lower"),
    ("weights.moment.calls", "count", "lower"),
    ("weights.moment.hit_ratio", "ratio", "higher"),
    ("weights.odd_moments.calls", "count", "lower"),
    ("weights.odd_moments.s", "s", "lower"),
    ("quad.panel_function.builds", "count", "lower"),
    ("quad.panel_function.s", "s", "lower"),
    ("quad.suffix_integral.calls", "count", "lower"),
    ("quad.suffix_integral.points", "count", "lower"),
    ("quad.suffix_integral.self_s", "s", "lower"),
    ("weight_class.classify.calls", "count", "lower"),
    ("weight_class.classify.s", "s", "lower"),
    ("taylor.frac.calls", "count", "lower"),
    ("taylor.frac.s", "s", "lower"),
    ("norms.angular_autocorr.calls", "count", "lower"),
    ("norms.angular_autocorr.entries", "count", "lower"),
    ("norms.angular_autocorr.s", "s", "lower"),
    ("norms.square_mass.calls", "count", "lower"),
    ("norms.square_mass.self_s", "s", "lower"),
    ("norms.bmoa_mu_sup.s", "s", "lower"),
    ("norms.bmoa_classical.s", "s", "lower"),
    ("norms.bmoa_kernel_sup.self_s", "s", "lower"),
    ("norms.bloch_mu.s", "s", "lower"),
    ("norms.besov_mu.s", "s", "lower"),
    ("norms.besov_classical.s", "s", "lower"),
    ("norms.tent_norm_power.s", "s", "lower"),
    ("norms.hardy2_lp.s", "s", "lower"),
    ("norms.h2_monomial_ratios.calls", "count", "lower"),
    ("norms.h2_monomial_ratios.s", "s", "lower"),
    ("geometry.build_lattice.calls", "count", "lower"),
    ("geometry.build_lattice.s", "s", "lower"),
    ("volterra.volterra_matrix.calls", "count", "lower"),
    ("volterra.volterra_matrix.s", "s", "lower"),
    ("volterra.volterra_matrix.entries", "count", "lower"),
    ("volterra.singular_values.calls", "count", "lower"),
    ("volterra.singular_values.self_s", "s", "lower"),
    ("volterra.singular_values.flops_computed", "flop", "lower"),
    ("volterra.singular_values.bytes_computed", "bytes", "lower"),
    ("volterra.schatten_with_monitor.calls", "count", "lower"),
    ("volterra.schatten_with_monitor.self_s", "s", "lower"),
    ("trace.overhead", "ratio", "higher"),
]


class Tracer:
    """In-memory span recorder.  Its wrappers are bound only while
    ``active(True)`` is in force; ``active(False)`` puts every original back,
    so untraced requests run the unpatched package."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, request id]
        self.counts = defaultdict(int)
        self.request = None
        self._stack = []
        self._patches = []   # (namespace, key, original, wrapped)

    def wrap(self, name, fn, before=None, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                for key, n in before(args, kwargs).items():
                    self.counts[f"{name}.{key}"] += n
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.request]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                for key, n in after(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += n
            return result
        return traced

    def install(self, package) -> None:
        """Find every binding of each probed function in ``package``, build
        its wrapper and bind the wrappers."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for name, modname, attr, before, after in PROBES:
            module = sys.modules[f"{package.__name__}.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, before, after))
                else:
                    wrapped = self.wrap(name, raw, before, after)
                self._patches.append((cls, meth, raw, wrapped))
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(name, original, before, after)
            for m in modules:
                for key, value in vars(m).items():
                    if value is original:
                        self._patches.append((m, key, original, wrapped))
        self.active(True)

    def active(self, on: bool) -> None:
        for target, key, original, wrapped in self._patches:
            setattr(target, key, wrapped if on else original)

    def summary(self) -> dict:
        """calls, inclusive s, self_s and counts per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(int)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += dur - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                out[f"{name}.s"] += dur
        for key, n in self.counts.items():
            out[key] += n
        out["quad.panel_function.builds"] = out["quad.panel_function.calls"]
        calls = out["weights.moment.calls"]
        out["weights.moment.hit_ratio"] = out["weights.moment.hits"] / calls if calls else 0.0
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")
