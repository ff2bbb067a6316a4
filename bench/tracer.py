"""Outside-in tracer: spans around the public functions of each disconn module.

The tracer touches no source file.  ``install`` replaces every public
module-level function of the traced modules with a wrapper that records a
span (name, start, end, parent) and rebinds every ``disconn.*`` module
global that aliases the original, because modules import functions by
name (``from .discrete import eval_discrete``).  A few closures that the
library hands out are wrapped where they are returned:

* the ``Retraction`` from ``integration.reduced_retraction`` gets a traced
  ``step``, so Newton residuals are counted as spans under
  ``manifolds.invert_extended``;
* the ``f`` from ``abelian.primitive_on_segments`` becomes the span
  ``abelian.primitive_lookup``; a quadrature span directly under it is a
  cache miss;
* the integrands passed to ``richardson_derivative`` and
  ``gauss_legendre_line_integral`` are counted, not spanned.

Spans live in flat arrays until the run ends.  A span's self time is its
duration minus the time its child spans cover; the layer of a span is the
module prefix of its name.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("groups", "manifolds", "bundles", "connections", "discrete",
          "derivation", "integration", "abelian", "numdiff", "scenarios",
          "cli")

# Angle and hat-map helpers run only inside the groups layer's own data
# methods; spans on them would add calls without moving time between layers.
SKIP = {"groups.reduce_angle", "groups.hat", "groups.unhat"}


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.reset()

    def reset(self):
        """Drop recorded spans and counts; keep the installed wrappers."""
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self.errors = Counter()

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn, on_result=None, on_args=None):
        """Wrap fn so each call records one span called `name`."""
        nid = self.intern(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_args is not None:
                args = on_args(args)
            idx = len(tracer.name)
            tracer.name.append(nid)
            tracer.parent.append(tracer.stack[-1])
            tracer.end.append(0.0)
            tracer.stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                tracer.end[idx] = clock()
                tracer.stack.pop()
            return result if on_result is None else on_result(result)

        return traced

    def counted(self, key, f):
        """Wrap f so each call adds one to counts[key]; no span."""
        def g(*args):
            self.counts[key] += 1
            return f(*args)

        return g

    def arrays(self):
        """Spans as numpy arrays: name id, parent index, start, end."""
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path):
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)


def install(tracer):
    """Wrap the public functions of every traced disconn module."""
    modules = {layer: importlib.import_module(f"disconn.{layer}")
               for layer in LAYERS}
    scenarios = modules["scenarios"]
    check_names = {fn: name for name, fn in scenarios.CHECKS.items()}

    def counted_first_arg(key):
        return lambda args: (tracer.counted(key, args[0]),) + args[1:]

    special = {
        "abelian.primitive_on_segments": {"on_result": lambda f: tracer.span(
            "abelian.primitive_lookup", f)},
        "integration.reduced_retraction": {"on_result": lambda R: (
            dataclasses.replace(R, step=tracer.span(
                "integration.reduced_step", R.step)))},
        "numdiff.richardson_derivative": {
            "on_args": counted_first_arg("numdiff.richardson.f_evals")},
        "numdiff.gauss_legendre_line_integral": {
            "on_args": counted_first_arg("numdiff.quadrature.f_evals")},
    }

    wrappers = {}
    for layer, module in modules.items():
        for attr, fn in vars(module).items():
            qual = f"{layer}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__ or qual in SKIP):
                continue
            if fn in check_names:
                qual = f"scenarios.check.{check_names[fn]}"
            wrappers[id(fn)] = tracer.span(qual, fn, **special.get(qual, {}))

    # Module globals can hold unhashable values, hence the lookup by id.
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
    for name, fn in list(scenarios.CHECKS.items()):
        scenarios.CHECKS[name] = wrappers[id(fn)]

    _split_eval_discrete(tracer, modules)
    ctx_cls = scenarios.ScenarioContext
    ctx_cls.__init__ = tracer.span("scenarios.context", ctx_cls.__init__)


def _split_eval_discrete(tracer, modules):
    """Split eval_discrete spans by the form's name (a local form's pair-map
    builtin, integrated, matched, flat), so per-call costs of each route
    can be told apart."""
    wrapped = modules["discrete"].eval_discrete
    inner = wrapped.__wrapped__
    by_name = {}

    def traced(Ad, q0, q1):
        fn = by_name.get(Ad.name)
        if fn is None:
            fn = by_name[Ad.name] = tracer.span(
                f"discrete.eval_discrete[{Ad.name}]", inner)
        return fn(Ad, q0, q1)

    for module in modules.values():
        for attr, value in list(vars(module).items()):
            if value is wrapped:
                setattr(module, attr, traced)


def summarize(tracer):
    """(calls, inclusive s, self s) per span name; seconds covered by
    top-level spans; a counter of spans by (name, parent name); and the
    durations of spans whose name has a given prefix."""
    name, parent, start, end = tracer.arrays()
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    k = len(tracer.names)
    calls = np.bincount(name, minlength=k)
    incl = np.bincount(name, weights=dur, minlength=k)
    own = np.bincount(name, weights=dur - child, minlength=k)
    parent_name = np.where(has_parent, name[np.maximum(parent, 0)], -1)

    def under(child_name, parent_of):
        ids = tracer._ids
        if child_name not in ids or parent_of not in ids:
            return 0
        return int(np.count_nonzero((name == ids[child_name])
                                    & (parent_name == ids[parent_of])))

    def durations(prefix):
        ids = [i for i, n in enumerate(tracer.names) if n.startswith(prefix)]
        return dur[np.isin(name, ids)]

    per_name = {n: (int(calls[i]), float(incl[i]), float(own[i]))
                for i, n in enumerate(tracer.names) if calls[i]}
    return per_name, float(dur[~has_parent].sum()), under, durations


def layer_of(name):
    return name.split(".", 1)[0]


def function_of(name):
    """Span name without its [presentation] suffix."""
    return name.split("[", 1)[0]
