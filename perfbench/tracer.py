"""Per-layer spans around the public functions of the toricsec modules.

The tracer wraps each target function from outside the package: the
wrapper is bound under every name that holds the original in any loaded
``toricsec`` module (``pipelines`` imports by name, and
``diagonal_resolution_verdict`` imports ``quiver`` functions at call time,
which then read the rebound module attribute).  Methods are rebound on
their class.  ``restore()`` puts every original back.

For each target the tracer records ``calls``, ``total_s`` (inclusive time)
and ``self_s`` (inclusive time minus the inclusive time of wrapped calls
made inside it), plus optional counters computed from the call's
arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter


def _bound(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _closure_counts(fn, args, kwargs, result):
    steps = getattr(result, "steps", None)
    targets = _bound(fn, args, kwargs)["targets"]
    return {"steps": len(steps) if steps is not None else 0,
            "targets": len(set(tuple(t) for t in targets))}


def _fiber_trials(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"trials": a["trials"] + a["diagonal_trials"]}


# (module, qualified name, counter hook, counter names).  A hook maps
# (function, args, kwargs, result) to increments of the named counters.
TARGETS = (
    ("workspace", "load_workspace", None, ()),
    ("fans", "nef_ample_test", None, ()),
    ("fans", "contraction_step", None, ()),
    ("cohomology", "has_higher_cohomology", None, ()),
    ("cohomology", "fiber_feasible", None, ()),
    ("cohomology", "strong_exceptional_check", None, ()),
    ("cohomology", "strong_exceptional_along_chain", None, ()),
    ("polyhedra", "ParametricIntegerFeasibility.query", None, ()),
    ("polyhedra", "polytope_lattice_points",
     lambda fn, a, k, r: {"points": len(r)}, ("points",)),
    ("polyhedra", "simplex_feasible",
     lambda fn, a, k, r: {"ok": int(r is not None)}, ("ok",)),
    ("frobenius", "frobenius_split_classes", None, ()),
    ("frobenius", "frobenius_gen_support", None, ()),
    ("method1", "generation_closure", _closure_counts, ("steps", "targets")),
    ("quiver", "build_quiver_of_sections", None, ()),
    ("quiver", "covering_quiver_on_y",
     lambda fn, a, k, r: {"arrows": len(r.arrows)}, ("arrows",)),
    ("quiver", "minkowski_embedding_check", None, ()),
    ("quiver", "check_theta_generic", None, ()),
    ("quiver", "theta_fiber_surjectivity_check", None, ()),
    ("diagonal", "cell_sets",
     lambda fn, a, k, r: {"cells": sum(len(lv) for lv in r.levels)}, ("cells",)),
    ("diagonal", "derivative_complex", None, ()),
    ("diagonal", "sign_solve", None, ()),
    ("diagonal", "check_dd_zero", None, ()),
    ("diagonal", "fiber_exactness_check", _fiber_trials, ("trials",)),
    ("pipelines", "verify_variety_recipe", None, ()),
    ("pipelines", "tilting_total_space_check", None, ()),
    ("pipelines", "propagate_collection", None, ()),
)


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self, counters=()):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts = dict.fromkeys(counters, 0)


class Tracer:
    """Install with ``install()``, read ``stats``, always ``restore()``."""

    def __init__(self, package: str = "toricsec", targets=TARGETS):
        self.package = package
        self.targets = targets
        self.stats: dict[str, Stat] = {}
        self._stack: list[float] = []     # child time of each open span
        self.root_s = 0.0                 # inclusive time of outermost spans
        self._undo: list[tuple[object, str, object]] = []

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def _wrap(self, key: str, fn, hook, counters):
        stat = self.stats[key] = Stat(counters)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                else:
                    self.root_s += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
            if hook is not None:
                for name, n in hook(fn, args, kwargs, result).items():
                    stat.counts[name] += n
            return result

        return wrapper

    def install(self):
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = self._modules()
        try:
            for mod_name, qualname, hook, counters in self.targets:
                module = sys.modules[f"{self.package}.{mod_name}"]
                key = f"{mod_name}.{qualname}"
                owner_name, _, attr = qualname.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    self._rebind(owner, attr, self._wrap(key, original, hook, counters))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(key, original, hook, counters)
                for m in modules:
                    for name, value in list(vars(m).items()):
                        if value is original:
                            self._rebind(m, name, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def _rebind(self, namespace, name, value):
        self._undo.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, value)

    def restore(self):
        while self._undo:
            namespace, name, original = self._undo.pop()
            setattr(namespace, name, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False
