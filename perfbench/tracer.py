"""Per-layer call counts and self times, measured from outside the engine.

The tracer replaces a function at every module binding through which a
caller can reach it: the defining module, each ``from .x import f`` copy
in a sibling module, and the package namespace. Methods are replaced on
their class, under every name that holds the same function (``__add__``
and ``__radd__``). Modules are looked up in ``sys.modules``, because the
package attribute ``qtsym.kernel`` is the function ``kernel``, not the
module.

Self time is a span's duration minus the time covered by the spans it
contains. Spans are not stored one by one: each wrapped function keeps a
running call count, self time and inclusive time, so hot leaves such as
``poly_gcd`` cost two clock reads per call. Inclusive time counts only
the outermost of nested calls to the same function.
"""

from __future__ import annotations

import functools
import sys
import time

# metric prefix -> (module, function or Class.method)
TARGETS = {
    "coeffring.poly_gcd": ("qtsym.coeffring", "poly_gcd"),
    "coeffring.rf_add": ("qtsym.coeffring", "RationalFunction.__add__"),
    "coeffring.rf_mul": ("qtsym.coeffring", "RationalFunction.__mul__"),
    "coeffring.eval_poly": ("qtsym.coeffring", "Polynomial.eval_poly"),
    "linalg.solve_bareiss": ("qtsym.linalg", "solve_bareiss"),
    "symfunc.hall_scalar": ("qtsym.symfunc", "hall_scalar"),
    "symfunc.mn_character": ("qtsym.symfunc", "mn_character"),
    "plethysm.log_series": ("qtsym.plethysm", "log_series"),
    "plethysm.exp_series": ("qtsym.plethysm", "exp_series"),
    "macdonald.build_table": ("qtsym.macdonald", "build_table"),
    "macdonald.register_table": ("qtsym.macdonald", "register_table"),
    "kostka_algebra.structure_coefficients_all": (
        "qtsym.kostka_algebra", "structure_coefficients_all"),
    "kostka_algebra.qt_catalan": ("qtsym.kostka_algebra", "qt_catalan"),
    "kostka_algebra.nabla": ("qtsym.kostka_algebra", "nabla"),
    "kernel.hook_factor": ("qtsym.kernel", "hook_factor"),
    "kernel.cauchy_series": ("qtsym.kernel", "cauchy_series"),
    "kernel.log_cauchy_series": ("qtsym.kernel", "log_cauchy_series"),
    "kernel.kernel": ("qtsym.kernel", "kernel"),
    "kernel.specialize_kernel": ("qtsym.kernel", "specialize_kernel"),
    "quiver.poincare": ("qtsym.quiver", "poincare"),
    "quiver.twisted_poincare": ("qtsym.quiver", "twisted_poincare"),
    "quiver.c_from_trace": ("qtsym.quiver", "c_from_trace"),
    "quiver.c_from_log": ("qtsym.quiver", "c_from_log"),
    "quiver.q1_rhs": ("qtsym.quiver", "q1_rhs"),
    "quiver.mixed_hodge_rhs": ("qtsym.quiver", "mixed_hodge_rhs"),
    "cli.cache_save": ("qtsym.cli", "cache_save"),
    "cli.cache_load": ("qtsym.cli", "cache_load"),
}


class Tracer:
    """Install with ``install()``, read ``stats``, restore with ``uninstall()``."""

    def __init__(self):
        self.stats = {name: [0, 0.0, 0.0, 0] for name in TARGETS}  # calls, self, incl, depth
        self._stack = [0.0]
        self._restore = []

    def _wrap(self, fn, stat):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            stat[3] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stat[3] -= 1
                if not stat[3]:
                    stat[2] += elapsed
                stack[-1] += elapsed

        return wrapper

    def install(self):
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "qtsym" or name.startswith("qtsym."))
        ]
        for metric, (modname, qualname) in TARGETS.items():
            owner = sys.modules[modname]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                holders = [getattr(owner, cls_name)]
                fn = holders[0].__dict__[attr]
            else:
                fn = owner.__dict__[qualname]
                holders = modules
            wrapper = self._wrap(fn, self.stats[metric])
            bound = 0
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, name, wrapper)
                        self._restore.append((holder, name, fn))
                        bound += 1
            if not bound:
                raise RuntimeError("no binding found for %s" % metric)

    def uninstall(self):
        for holder, name, fn in reversed(self._restore):
            setattr(holder, name, fn)
        self._restore.clear()

    def metrics(self):
        out = {}
        for name, (calls, self_s, incl_s, _) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
            out[name + ".incl_s"] = incl_s
        return out
