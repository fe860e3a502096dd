"""Span and counter tracing of henon_morse from outside the package.

``install`` wraps the public functions of each module and rebinds the
wrapper in every ``henon_morse`` module namespace that bound the original
by name (``cli`` imports ``morse_index`` directly, ``spectral`` imports
``require_certified``), plus ``solve_ivp`` inside ``radial_bvp`` and
``liouville``.  Spans are kept in memory as (name, start, end, parent, item)
and summarised per name into calls, inclusive seconds and self seconds
(duration minus the direct child spans).  ``uninstall`` restores every
binding.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# span name -> [(module, function name)], the functions timed as that span
SPANS = {
    "radial_bvp.shoot": [("radial_bvp", "shoot_positive"), ("radial_bvp", "shoot_nodal"),
                         ("radial_bvp", "shoot_system_newton")],
    "radial_bvp.certify": [("radial_bvp", "relative_residual"), ("radial_bvp", "residual"),
                           ("radial_bvp", "require_certified")],
    "spectral.morse_index": [("spectral", "morse_index")],
    "spectral.count": [("spectral", "count_negative_eigenvalues")],
    "halfline.transform": [("halfline", "transform_profile")],
    "halfline.checks": [("halfline", "transformed_residual"), ("halfline", "pohozaev_check"),
                        ("halfline", "pohozaev_identity_residual")],
    "halfline.qk_probe": [("halfline", "eval_Qk")],
    "halfline.weighted_eigen": [("halfline", "weighted_eigen_min")],
    "liouville.integrate": [("liouville", "integrate_limit_system")],
    "liouville.witness": [("liouville", "instability_witness")],
    "liouville.quadrature": [("liouville", "witness_quadrature")],
    "io.load": [("io", "load_profile"), ("io", "load_transformed")],
    "io.write": [("io", "save_profile"), ("io", "save_transformed"), ("io", "write_json"),
                 ("io", "_write_csv")],
}
# spans whose functions call each other: only the outermost call is a span
TOP_LEVEL_ONLY = {"radial_bvp.shoot", "radial_bvp.certify", "io.write"}
SPAN_NAMES = list(SPANS) + ["radial_bvp.ivp"]
COUNTERS = ["radial_bvp.ivp.nfev", "liouville.ivp.nfev", "spectral.count.nodes",
            "nonlinearity.grad.calls", "nonlinearity.grad.points",
            "nonlinearity.hess.calls", "nonlinearity.hess.points"]
# exception counters reported by name; any other escaping type goes to errors.other
ERROR_COUNTERS = ["radial_bvp.errors.NoBracket", "radial_bvp.errors.NoConverge",
                  "spectral.errors.SingularPivot", "halfline.errors.HypothesisViolated"]


class Tracer:
    """In-memory spans and counters; one instance per traced run."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index or None, item]
        self.stack = []       # indices of open spans
        self.open_names = Counter()
        self.counters = Counter()
        self.item = None
        self._restore = []

    # -- recording -----------------------------------------------------
    def _span_wrapper(self, name, fn, on_result=None):
        layer = name.split(".", 1)[0]
        top_only = name in TOP_LEVEL_ONLY
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if top_only and self.open_names[name]:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            rec = [name, clock(), None, self.stack[-1] if self.stack else None, self.item]
            self.spans.append(rec)
            self.stack.append(idx)
            self.open_names[name] += 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counters[f"{layer}.errors.{type(exc).__name__}"] += 1
                raise
            finally:
                rec[2] = clock()
                self.stack.pop()
                self.open_names[name] -= 1
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        calls, points = f"{name}.calls", f"{name}.points"
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(obj, u, v):
            counters[calls] += 1
            counters[points] += getattr(u, "size", 1)
            return fn(obj, u, v)

        return wrapper

    # -- installation --------------------------------------------------
    def _rebind(self, original, wrapper):
        """Replace ``original`` by ``wrapper`` wherever a henon_morse module bound it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "henon_morse" or modname.startswith("henon_morse.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self):
        import henon_morse.cli  # noqa: F401  (loads every module to rebind into)
        from henon_morse import liouville, nonlinearity, radial_bvp

        mods = {name: sys.modules[f"henon_morse.{name}"]
                for name in ("radial_bvp", "spectral", "halfline", "liouville", "io")}

        def nodes(args, kwargs, _):
            mesh = kwargs.get("mesh", args[1] if len(args) > 1 else 1000)
            self.counters["spectral.count.nodes"] += mesh - 1

        for span, targets in SPANS.items():
            hook = nodes if span == "spectral.count" else None
            for modname, fname in targets:
                original = getattr(mods[modname], fname)
                self._rebind(original, self._span_wrapper(span, original, hook))

        def nfev(key):
            def add(args, kwargs, sol):
                self.counters[key] += int(sol.nfev)
            return add

        ivp = radial_bvp.solve_ivp
        radial_bvp.solve_ivp = self._span_wrapper("radial_bvp.ivp", ivp,
                                                  nfev("radial_bvp.ivp.nfev"))
        self._restore.append((radial_bvp, "solve_ivp", ivp))
        ivp = liouville.solve_ivp
        liouville.solve_ivp = self._counted_call(ivp, nfev("liouville.ivp.nfev"))
        self._restore.append((liouville, "solve_ivp", ivp))

        cls = nonlinearity.NonlinearityF
        for meth in ("grad", "hess"):
            original = getattr(cls, meth)
            setattr(cls, meth, self._count_wrapper(f"nonlinearity.{meth}", original))
            self._restore.append((cls, meth, original))

    @staticmethod
    def _counted_call(fn, on_result):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_result(args, kwargs, result)
            return result
        return wrapper

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- summaries -----------------------------------------------------
    def mark(self):
        """Position to summarise from: (span count, counter snapshot)."""
        return len(self.spans), Counter(self.counters)

    def summary(self, since):
        """Per-span calls / s / self_s, root span seconds and counters since ``mark``."""
        first, counts0 = since
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        roots = 0.0
        for name, t0, t1, parent, _ in spans:
            if parent is None or parent < first:
                roots += t1 - t0
            else:
                child[parent - first] += t1 - t0
        out = {f"{n}.{k}": 0.0 for n in SPAN_NAMES for k in ("calls", "s", "self_s")}
        for (name, t0, t1, _, _), ch in zip(spans, child):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += t1 - t0
            out[f"{name}.self_s"] += t1 - t0 - ch
        counts = self.counters - counts0
        return out, roots, counts

    def dump(self, path):
        """Write every span as one JSON line (times relative to the first span)."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, item) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0 - base,
                                     "end": t1 - base, "parent": parent,
                                     "item": item}) + "\n")
