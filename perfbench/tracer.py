"""In-memory call tracer for the benchmark's traced passes.

`Tracer.install()` wraps the public functions of each package module (the
layers) and rebinds every module namespace that holds them, so calls made
through `from .interval_model import wedge` are seen as well as calls
through the package.  Each wrapped call pushes a frame; when it returns,
its duration minus the time covered by its child frames is added to its
layer's self time, so self times sum to the traced wall time.

Three places need more than a rebinding:

* `CumulantContext` stores `wedge` and `cup` as dataclass defaults bound
  when the class is defined.  The wrapped constructor passes the wrapped
  products in their place, and the public `apply`/`multiply` methods are
  counted as calls of their own.
* `MultiMap` memoizes evaluations.  Every `__call__` counts as an
  evaluation, and one entered from another layer opens a `hom_complex`
  frame, so the closures the maps run are charged to `hom_complex`.  The
  evaluator handed to the constructor is wrapped so that each memo miss is
  counted once, also when a later map re-wraps it.
* `cumulant_recursive` memoizes its recursion.  A call that reaches no
  other traced call returned from the memo and counts as a hit.

Spans (name, start, end, parent) are kept in memory for the coarse layers
and written out by `write_spans`; the per-call work of `interval_model`
and `cumulants` is counted and timed but not kept span by span, because
a pass makes millions of those calls.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

LAYERS = ("interval_model", "cumulants", "hom_complex", "cube_complex",
          "formal_ainfty", "suites", "cli")
SPANLESS_LAYERS = frozenset(("interval_model", "cumulants"))
ROOT = "bench"

# frame fields
_LAYER, _START, _CHILD_TIME, _CHILD_CALLS, _SPAN = range(5)


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.spans: list = []
        self._stack = [[ROOT, time.perf_counter(), 0.0, 0, None]]

    def reset(self) -> None:
        """Forget what was recorded so far; wrappers stay installed."""
        self.counts.clear()
        self.inclusive.clear()
        self.self_time.clear()
        self.spans.clear()
        self._stack[:] = [[ROOT, time.perf_counter(), 0.0, 0, None]]

    def wrap(self, layer: str, name: str, fn, on_return=None):
        """A traced stand-in for fn, counted under `layer.name`."""
        counts, inclusive, self_time = self.counts, self.inclusive, self.self_time
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        key = f"{layer}.{name}"
        calls_key = key + ".calls"
        keep_span = layer not in SPANLESS_LAYERS

        def traced(*args, **kwargs):
            counts[calls_key] += 1
            parent = stack[-1]
            parent[_CHILD_CALLS] += 1
            span = parent[_SPAN]
            if keep_span:
                spans.append([key, 0.0, 0.0, span])
                span = len(spans) - 1
            frame = [layer, clock(), 0.0, 0, span]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = clock()
                duration = end - frame[_START]
                self_time[layer] += duration - frame[_CHILD_TIME]
                inclusive[key] += duration
                parent[_CHILD_TIME] += duration
                if keep_span:
                    spans[span][1] = frame[_START]
                    spans[span][2] = end
            if on_return is not None:
                on_return(result, args, kwargs, frame)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap every layer's public functions and the three special cases."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{layer}")
            for layer in LAYERS]
        self._sweep_signature = inspect.signature(
            package.hom_complex.maps_equal_on_truncation)
        hooks = {
            "cumulants.cumulant": self._count_checked_cumulant,
            "cumulants.cumulant_recursive": self._count_recursive_hit,
            "hom_complex.maps_equal_on_truncation": self._count_sweep_tuples,
            "suites.run_suite": self._count_entries,
        }
        replaced = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for name, obj in vars(module).items():
                if (name.startswith("_") or inspect.isclass(obj)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                replaced[id(obj)] = self.wrap(layer, name, obj,
                                              hooks.get(f"{layer}.{name}"))
        for module in modules:
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, name, replaced[id(obj)])
        self._install_context(package.cumulants)
        self._install_multimap(package.hom_complex.MultiMap)

    def _install_context(self, cumulants) -> None:
        context = cumulants.CumulantContext
        wedge, cup = cumulants.wedge, cumulants.cup  # already wrapped
        constructor = context.__init__

        def __init__(self, chain_map, source_product=wedge, target_product=cup):
            constructor(self, chain_map, source_product, target_product)

        context.__init__ = __init__
        context.apply = self.wrap("cumulants", "context.apply", context.apply)
        context.multiply = self.wrap("cumulants", "context.multiply",
                                     context.multiply)

    def _install_multimap(self, multimap) -> None:
        counts, stack = self.counts, self._stack
        constructor, call = multimap.__init__, multimap.__call__
        # an evaluation entered from another layer is hom_complex work
        entered = self.wrap("hom_complex", "multimap.entered", call)

        def __init__(self, arity, shifted_degree, evaluator, name=""):
            counts["hom_complex.multimap.built"] += 1
            if not getattr(evaluator, "_counts_misses", False):
                inner = evaluator

                def evaluator(*xs):
                    counts["hom_complex.multimap.misses"] += 1
                    return inner(*xs)

                evaluator._counts_misses = True
            constructor(self, arity, shifted_degree, evaluator, name)

        def __call__(self, *forms):
            counts["hom_complex.multimap.evals"] += 1
            if stack[-1][_LAYER] == "hom_complex":
                return call(self, *forms)
            return entered(self, *forms)

        multimap.__init__ = __init__
        multimap.__call__ = __call__

    def _count_checked_cumulant(self, result, args, kwargs, frame) -> None:
        # a cumulant asked for by a suite or by the benchmark checks one tuple;
        # those evaluated inside maps are counted by their sweep
        if self._stack[-1][_LAYER] in ("suites", ROOT):
            self.counts["cumulants.cumulant.checked_tuples"] += 1

    def _count_recursive_hit(self, result, args, kwargs, frame) -> None:
        if frame[_CHILD_CALLS] == 0:
            self.counts["cumulants.cumulant_recursive.hits"] += 1

    def _count_sweep_tuples(self, verdict, args, kwargs, frame) -> None:
        bound = self._sweep_signature.bind(*args, **kwargs)
        f, grid = bound.arguments["f"], bound.arguments["grid"]
        basis = grid.slot_basis()
        if verdict.equal:
            swept = len(basis) ** f.arity
        else:
            index = 0
            for x in verdict.witness_tuple:
                index = index * len(basis) + basis.index(x)
            swept = index + 1
        self.counts["hom_complex.sweep.tuples"] += swept

    def _count_entries(self, entries, args, kwargs, frame) -> None:
        self.counts["suites.entries"] += len(entries)

    def write_spans(self, path) -> None:
        """One JSON object per line: name, start, end, parent span index."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps({"name": name, "start": start,
                                         "end": end, "parent": parent}) + "\n")
