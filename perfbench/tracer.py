"""Outside-in layer tracing for mflef.

The program is not instrumented.  Instead the public functions of each layer
are wrapped from outside the package: every `mflef.*` module (and class) that
holds a traced function, whether it defined it or imported it with
`from .x import f`, gets the wrapper in place of the original.  After patching
the tracer checks that no module still holds an original, so no call can slip
past it.

`SpanTracer` records one span per call (id, parent id, name, case id, start
and end in ns) in memory and keeps per-name calls, busy time and self time;
self time is busy time minus the time of wrapped children.  `ScalarCounter`
counts calls of the scalar hot spots; it runs in a pass of its own, because
wrapping sub-microsecond calls would otherwise inflate every other layer's
self time.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, metric name) of every function that gets spans.
SPANNED = (
    ("polyring", "scale_substitute", "polyring.scale_substitute"),
    ("mfcore", "pullback", "mfcore.pullback"),
    ("mfcore", "MFMorphism.compose", "mfcore.MFMorphism.compose"),
    ("mfcore", "MFMorphism.inverse", "mfcore.MFMorphism.inverse"),
    ("mfcore", "stabilize_module", "mfcore.stabilize_module"),
    ("linalg", "solve", "linalg.solve"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "nullspace", "linalg.nullspace"),
    ("linalg", "invert", "linalg.invert"),
    ("linalg", "det", "linalg.det"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "syzygy_basis", "groebner.syzygy_basis"),
    ("groebner", "free_resolution", "groebner.free_resolution"),
    ("milnor", "MilnorAlgebra.__init__", "milnor.MilnorAlgebra"),
    ("milnor", "trace_space", "milnor.trace_space"),
    ("milnor", "canonical_pairing", "milnor.canonical_pairing"),
    ("homcoh", "hom_complex", "homcoh.hom_complex"),
    ("homcoh", "cohomology", "homcoh.cohomology"),
    ("homcoh", "induced_endomorphism", "homcoh.induced_endomorphism"),
    ("homcoh", "graded_euler_supertrace", "homcoh.graded_euler_supertrace"),
    ("lefschetz", "lhs_hlf", "lefschetz.lhs_hlf"),
    ("lefschetz", "rhs_hlf", "lefschetz.rhs_hlf"),
    ("lefschetz", "boundary_bulk", "lefschetz.boundary_bulk"),
    ("hilbert", "chi_polynomial", "hilbert.chi_polynomial"),
    ("document", "parse_document", "document.parse_document"),
    ("cli", "run_command", "cli.run_command"),
)

# (module, attribute, metric name) of the counted scalar operations.
COUNTED = (
    ("scalars", "Scalar.__mul__", "scalars.mul"),
    ("scalars", "Scalar.inverse", "scalars.inverse"),
    ("scalars", "Scalar.__pow__", "scalars.pow"),
)


def _mf_key(mf):
    return repr((mf.ring.vars, mf.potential, mf.d0, mf.d1, mf.gradings))


def _poly_key(w):
    return repr((w.ring.vars, w))


def _resolve(module_name, attr):
    """(holder, name, original) for `attr` ("f" or "Class.method") of a module."""
    holder = sys.modules[f"mflef.{module_name}"]
    *classes, name = attr.split(".")
    for cls_name in classes:
        holder = getattr(holder, cls_name)
    return holder, name, holder.__dict__[name]


class _Patcher:
    """Rebinds originals to wrappers everywhere in mflef and undoes it."""

    def __init__(self):
        self.undo = []

    def patch(self, module_name, attr, make_wrapper):
        holder, _, original = _resolve(module_name, attr)
        wrapper = make_wrapper(original)
        if isinstance(holder, type):
            holders = [holder]
        else:
            holders = [m for n, m in sorted(sys.modules.items())
                       if (n == "mflef" or n.startswith("mflef.")) and m is not None]
        for h in holders:
            for name, value in list(vars(h).items()):
                if value is original:
                    self.undo.append((h, name, original))
                    setattr(h, name, wrapper)
        self._assert_gone(holders, original, f"{module_name}.{attr}")

    @staticmethod
    def _assert_gone(holders, original, label):
        for h in holders:
            for name, value in vars(h).items():
                if value is original:
                    raise AssertionError(f"{h.__name__}.{name} still holds the original {label}")

    def restore(self):
        for holder, name, original in reversed(self.undo):
            setattr(holder, name, original)
        self.undo.clear()


class SpanTracer:
    """In-memory spans and per-name stats for the functions in `targets`."""

    def __init__(self, targets=SPANNED):
        self.targets = targets
        self.spans = []
        self.stack = []  # [span id, ns spent in wrapped children]
        self.active = {}  # name -> activations on the stack, for busy time
        self.case = None
        self.stats = {metric: [0, 0, 0] for _, _, metric in targets}  # calls, busy, self
        self.distinct = {"milnor.MilnorAlgebra": set(), "homcoh.cohomology": set()}
        self.counts = {"groebner.basis_size": 0, "homcoh.cohomology.dim_total": 0,
                       "document.parse_document.bytes": 0}
        self._patcher = _Patcher()

    def install(self):
        for module_name, attr, metric in self.targets:
            self._patcher.patch(module_name, attr, functools.partial(self._wrap, metric))
        return self

    def uninstall(self):
        self._patcher.restore()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapper

    def _call(self, name, fn, args, kwargs):
        parent = self.stack[-1][0] if self.stack else None
        sid = len(self.spans)
        self.spans.append(None)
        frame = [sid, 0]
        self.stack.append(frame)
        self.active[name] = self.active.get(name, 0) + 1
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self.stack.pop()
            self.active[name] -= 1
            duration = end - start
            if self.stack:
                self.stack[-1][1] += duration
            self.spans[sid] = (sid, parent, name, self.case, start, end)
            stat = self.stats[name]
            stat[0] += 1
            if not self.active[name]:
                stat[1] += duration
            stat[2] += duration - frame[1]
        self._observe(name, args, result)
        return result

    def _observe(self, name, args, result):
        if name == "groebner.buchberger":
            self.counts["groebner.basis_size"] += len(result)
        elif name == "homcoh.cohomology":
            self.distinct[name].add((_mf_key(args[0].source), _mf_key(args[0].target)))
            self.counts["homcoh.cohomology.dim_total"] += result.total_dim()
        elif name == "milnor.MilnorAlgebra":
            self.distinct[name].add(_poly_key(args[1]))
        elif name == "document.parse_document":
            self.counts["document.parse_document.bytes"] += len(args[0].encode("utf-8"))

    def metrics(self):
        out = {}
        for _, _, metric in self.targets:
            calls, busy, own = self.stats[metric]
            out[f"{metric}.calls"] = (calls, "count")
            out[f"{metric}.busy_s"] = (busy / 1e9, "s")
            out[f"{metric}.self_s"] = (own / 1e9, "s")
        for metric, keys in self.distinct.items():
            out[f"{metric}.distinct"] = (len(keys), "count")
        for metric, value in self.counts.items():
            out[metric] = (value, "bytes" if metric.endswith(".bytes") else "count")
        return out

    def write_spans(self, path):
        """One JSON array per line: id, parent id, name, case id, start ns, end ns."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


class ScalarCounter:
    """Call counts of the scalar operations and the largest cyclotomic order."""

    def __init__(self):
        self.calls = {metric: 0 for _, _, metric in COUNTED}
        self.max_order = 0
        self._patcher = _Patcher()

    def install(self):
        for module_name, attr, metric in COUNTED:
            self._patcher.patch(module_name, attr, functools.partial(self._wrap, metric))
        return self

    def uninstall(self):
        self._patcher.restore()

    def _wrap(self, metric, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(self_, *args):
            calls[metric] += 1
            if self_.order > self.max_order:
                self.max_order = self_.order
            return fn(self_, *args)
        return wrapper

    def metrics(self):
        out = {f"{metric}.calls": (n, "count") for metric, n in self.calls.items()}
        out["scalars.max_order"] = (self.max_order, "count")
        return out


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    names = {}
    names.update(ScalarCounter().metrics())
    names.update(SpanTracer().metrics())
    names["trace.untraced_cases_per_s"] = (0, "1/s")
    names["trace.cases_per_s"] = (0, "1/s")
    names["trace.overhead_share"] = (0, "share")
    return {name: unit for name, (_, unit) in names.items()}
