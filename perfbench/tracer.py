"""In-process tracer for one ckq worker: spans around the public functions
of each ``ckq`` module, aggregated in memory.

Every public module-level function, every public method and the arithmetic
operators of every public class defined in a ``ckq`` module are wrapped.
A wrapper records calls, inclusive time (outermost call only, so recursion
is not counted twice) and the self time of its layer: the span's duration
minus the time its child spans cover.  Nothing is stored per call.

Wrapping patches every binding of the original in the ``ckq`` module
namespaces, because modules bind functions such as ``frt_r``, ``contract``
and ``reduce_poly`` by ``from ... import``.  ``uninstall`` restores every
original.
"""

import functools
import importlib
import time
from collections import defaultdict

LAYERS = ("coeffring", "ckclassical", "rmatrix", "freealg", "qgroup",
          "qdual", "render", "cli")

# Dunder methods that do work and are wrapped next to the public methods;
# the others (__init__, __eq__, __hash__, __bool__, __str__, ...) are left
# alone and their time falls to the caller's span.
OPERATORS = ("__add__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__matmul__", "__neg__", "__pow__")

# Constructors worth a span because each one builds tables.
CONSTRUCTORS = {("qdual", "DualPairing")}


class Tracer:
    def __init__(self):
        # Child-time accumulators of the open spans; slot 0 is the root.
        self.stack = [0.0]
        self.self_s = defaultdict(float)
        # span name -> [calls, inclusive seconds, open depth]
        self.spans = {}
        self.counts = defaultdict(int)
        self._undo = []

    # ------------------------------------------------------------ spans

    def _wrap(self, fn, name, layer):
        stat = self.spans.setdefault(name, [0, 0.0, 0])
        stack = self.stack
        self_s = self.self_s
        pc = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stat[2] += 1
            t0 = pc()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = pc() - t0
                self_s[layer] += dur - stack.pop()
                stat[0] += 1
                stat[2] -= 1
                if not stat[2]:
                    stat[1] += dur
                # The parent is charged this span's bookkeeping too, so the
                # wrapper's own cost falls to no layer's self time.
                stack[-1] += pc() - t0
        return span

    def _counting(self, name, fn):
        """Extra counters read from arguments or results of a few spans."""
        counts = self.counts
        if name == "freealg.reduce_poly":
            defaults = fn.__wrapped__.__defaults__

            @functools.wraps(fn.__wrapped__)
            def reduce_poly(p, rules, step_cap=defaults[0], trace=None):
                own = [] if trace is None else trace
                before = len(own)
                counts["freealg.reduce_poly.attempts"] += 1
                try:
                    remainder = fn(p, rules, step_cap, own)
                finally:
                    counts["freealg.reduce_poly.steps"] += len(own) - before
                if not remainder:
                    counts["freealg.reduce_poly.zero"] += 1
                return remainder
            return reduce_poly
        sized = {"qgroup.QuantumCKGroup.relations": "qgroup.relations.count",
                 "qgroup.saturated_rules": "qgroup.saturated_rules.rules"}
        if name in sized:
            key = sized[name]

            @functools.wraps(fn.__wrapped__)
            def sized_result(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts[key] += len(out)
                return out
            return sized_result
        return fn

    # ------------------------------------------------------- patching

    def install(self):
        modules = {layer: importlib.import_module("ckq." + layer)
                   for layer in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("ckq")]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._patch_class(layer, obj)
                elif callable(obj):
                    name = "%s.%s" % (layer, attr)
                    wrapped = self._counting(name, self._wrap(obj, name, layer))
                    for ns in namespaces:
                        for key, val in list(vars(ns).items()):
                            if val is obj:
                                self._undo.append((ns, key, val))
                                setattr(ns, key, wrapped)

    def _patch_class(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            wanted = (not attr.startswith("_") or attr in OPERATORS
                      or (attr == "__init__"
                          and (layer, cls.__name__) in CONSTRUCTORS))
            if not wanted:
                continue
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(raw.__func__, name, layer))
            elif callable(raw):
                new = self._counting(name, self._wrap(raw, name, layer))
            else:
                continue
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -------------------------------------------------------- results

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s),
                "spans": {k: v[:2] for k, v in self.spans.items() if v[0]},
                "counts": dict(self.counts)}
