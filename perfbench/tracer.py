"""Per-layer tracing from outside the program.

`Tracer.install()` replaces every public function of each collapsekit module
with a wrapper that records one span per call: (name, start, end, parent).
The wrapper is put in place under every name that refers to the function,
so calls between modules are traced too, for example the `feasibility_lp`
that `incompatibility` imported and the `collapse_effect_tree` that `chain`
and `cli` imported.  `remove()` puts the originals back.

Spans stay in memory until `dump()`.  Self time is a span's duration minus
the durations of its direct children.  A few wrappers also add counters
computed from the call's arguments or result (effect matrices built, bytes
of dense unitaries, tableau cells, solver iterations).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

MODULES = ("operator_core", "measurement", "collapse_product", "chain",
           "equivalence", "instruments", "incompatibility", "rational_lp",
           "io", "cli")

COMPLEX_BYTES = 16


def _effects_built(args, kwargs, result) -> dict:
    """Effect matrices produced at all tree nodes, leaves included."""
    observables, tree = args[0], args[1]
    sizes = [o.n_outcomes for o in observables]

    def walk(t) -> int:
        count = 1
        for leaf in t.leaves:
            count *= sizes[leaf]
        if hasattr(t, "left"):
            return count + walk(t.left) + walk(t.right)
        return count

    return {"collapse_product.effects_built": walk(tree)}


def _instrument_bytes(args, kwargs, result) -> dict:
    a, ancilla = args[0], args[1]
    return {"instruments.unitary_bytes": (a.dim * ancilla) ** 2 * COMPLEX_BYTES}


def _evolution_bytes(args, kwargs, result) -> dict:
    """U_A (x) 1, U_B and their product, all of side d * da * db."""
    model = args[0]
    side = model.system_dim * model.first.ancilla_dim * model.second.ancilla_dim
    return {"instruments.unitary_bytes": 3 * side * side * COMPLEX_BYTES}


def _joint_instrument_bytes(args, kwargs, result) -> dict:
    side = result.unitary.shape[0]
    return {"instruments.unitary_bytes": side * side * COMPLEX_BYTES}


def _tableau_cells(args, kwargs, result) -> dict:
    rows = args[0]
    m = len(rows)
    n = len(rows[0]) if m else 0
    return {"rational_lp.tableau_cells": m * (n + m + 1)}


def _iterations(args, kwargs, result) -> dict:
    return {"incompatibility.unifying_iterations": result.iterations}


COUNTERS = {
    "collapse_product.collapse_effect_tree": _effects_built,
    "instruments.build_instrument": _instrument_bytes,
    "instruments.sequential_probabilities": _evolution_bytes,
    "instruments.build_joint_instrument": _joint_instrument_bytes,
    "rational_lp.feasibility_lp": _tableau_cells,
    "incompatibility.noncommutative_unifying_state": _iterations,
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.spans: list = []          # [name index, start, end, parent]
        self.counters: Counter = Counter()
        self._stack: list = []
        self._patches: list = []       # (namespace, attribute, original, wrapper)
        self._wrappers = self._build()

    def _build(self) -> dict:
        """Wrapper per public function, keyed by id of the original."""
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"collapsekit.{short}")
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        return wrappers

    def _wrap(self, name: str, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            slot = len(spans)
            spans.append(None)
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent)
            if counter is not None:
                counters.update(counter(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        namespaces = [importlib.import_module("collapsekit")]
        namespaces += [importlib.import_module(f"collapsekit.{m}") for m in MODULES]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(ns, attr, hit[1])
                    self._patches.append((ns, attr, value))

    def remove(self) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def summary(self) -> dict:
        """Per function name: calls and self time in seconds."""
        child_time = defaultdict(float)
        for index, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        for slot, (index, start, end, parent) in enumerate(self.spans):
            name = self.names[index]
            calls[name] += 1
            self_s[name] += (end - start) - child_time[slot]
        return {name: {"calls": calls[name], "self_s": self_s[name]} for name in calls}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans,
                       "counters": dict(self.counters)}, fh)
