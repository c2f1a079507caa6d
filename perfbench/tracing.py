"""Span tracing of relagg's public functions, from outside the program.

`Tracer` wraps every public function of the layer modules at every module
attribute bound to it (`ms_union` lives at `relagg.multiset.ms_union`, and
also at `relagg.drivers.ms_union` and `relagg.sketch.ms_union`), plus the
constructor checks `Multiset.__post_init__` and `WeightedSet.__post_init__`.
Each call records a span (function, start, end, parent span, query id) in
memory. Leaving the `with` block puts every original back; the tracer can
be entered again, and keeps adding to the same spans.
"""

import importlib
import inspect
import json
import time
from collections import Counter

import relagg
from relagg import Instrumentation, Multiset, WeightedSet

# The layers are relagg's modules; the CLI, the oracle and the error
# classes are not on the path of a query.
LAYERS = ("algebra", "drivers", "engine", "jointree", "multiset",
          "queryspec", "sketch", "tables", "weightedset")
VALIDATORS = {"multiset.validate": Multiset, "weightedset.validate": WeightedSet}


def _entries_in_out(prefix):
    def probe(counters, args, out):
        n_in, n_out = len(args[0]), len(out)
        counters[prefix + ".entries_in"] += n_in
        counters[prefix + ".entries_out"] += n_out
        counters[prefix + ".shrunk"] += n_out < n_in
    return probe


def _pairs(prefix):
    def probe(counters, args, out):
        counters[prefix + ".pairs"] += len(args[0]) * len(args[1])
    return probe


def _entries_out(prefix):
    def probe(counters, args, out):
        counters[prefix + ".entries_out"] += len(out)
    return probe


def _rows(counters, args, out):
    counters["tables.rows"] += len(out)


# Work counts taken from a call's arguments and result.
PROBES = {
    "sketch.ms_sketch": _entries_in_out("sketch.ms_sketch"),
    "sketch.ws_sketch": _entries_in_out("sketch.ws_sketch"),
    "multiset.ms_union": _entries_out("multiset.ms_union"),
    "multiset.ms_convolve": _pairs("multiset.ms_convolve"),
    "weightedset.ws_convolve": _pairs("weightedset.ws_convolve"),
    "tables.load_table": _rows,
}


class FoldInstrumentation(Instrumentation):
    """relagg's own engine counters, plus the number of items folded."""

    fold_items = 0

    def record_fold(self, k):
        super().record_fold(k)
        self.fold_items += k


class Tracer:
    """Records spans of relagg's public functions while inside `with`."""

    def __init__(self):
        self.names = []    # span name per function id
        self.spans = []    # (function id, start, end, parent index, query)
        self.counters = Counter()
        self.query = None
        self._stack = []
        self._installs = None   # built on first entry, reused after
        self._patches = []

    def __enter__(self):
        if self._installs is None:
            self._installs = self._wrappers()
        for owner, attr, wrapper in self._installs:
            self._patches.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrappers(self):
        """(owner, attribute, wrapper) for every binding to be traced."""
        modules = [importlib.import_module(f"relagg.{m}") for m in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, fn in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        installs = [
            (module, attr, wrappers[fn])
            for module in [relagg, *modules]
            for attr, fn in vars(module).items()
            if inspect.isfunction(fn) and fn in wrappers
        ]
        for name, cls in VALIDATORS.items():
            installs.append((cls, "__post_init__", self._wrap(name, cls.__post_init__)))
        return installs

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, probe = self.spans, self._stack, PROBES.get(name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[index] = (fid, start, time.perf_counter(), parent, self.query)
                stack.pop()
            if probe is not None:
                probe(self.counters, args, out)
            return out

        return wrapper

    def write_spans(self, path, origin):
        """One JSON object per span, times in seconds from `origin`."""
        with open(path, "w") as fh:
            for fid, start, end, parent, query in self.spans:
                fh.write(json.dumps({
                    "name": self.names[fid], "start": start - origin,
                    "end": end - origin, "parent": parent, "query": query,
                }) + "\n")

    def times(self):
        """(inclusive seconds and calls per span name, self seconds per layer).

        Inclusive time counts only the outermost of nested spans of one name.
        """
        child = [0.0] * len(self.spans)
        for fid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive, calls, layer_self = Counter(), Counter(), Counter()
        for i, (fid, start, end, parent, _) in enumerate(self.spans):
            name = self.names[fid]
            calls[name] += 1
            layer_self[name.split(".")[0]] += end - start - child[i]
            if not self._inside(parent, fid):
                inclusive[name] += end - start
        return inclusive, calls, layer_self

    def _inside(self, index, fid):
        while index >= 0:
            if self.spans[index][0] == fid:
                return True
            index = self.spans[index][3]
        return False


def layer_metrics(tracer, instr):
    """Per-layer metrics: name -> (value, unit)."""
    inclusive, calls, layer_self = tracer.times()
    c = tracer.counters
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    for fn in ("ms_sketch", "ws_sketch"):
        name = f"sketch.{fn}"
        n = calls[name]
        m[f"{name}.calls"] = (n, "count")
        m[f"{name}_s"] = (inclusive[name], "s")
        m[f"{name}.entries_in"] = (c[f"{name}.entries_in"], "count")
        m[f"{name}.entries_out"] = (c[f"{name}.entries_out"], "count")
        m[f"{name}.shrink_frac"] = (c[f"{name}.shrunk"] / n if n else 0.0, "ratio")
    for name in ("multiset.ms_union", "multiset.ms_convolve",
                 "weightedset.ws_plus", "weightedset.ws_convolve",
                 "algebra.repeat"):
        m[f"{name}.calls"] = (calls[name], "count")
        m[f"{name}_s"] = (inclusive[name], "s")
    m["multiset.ms_union.entries_out"] = (c["multiset.ms_union.entries_out"], "count")
    m["multiset.ms_convolve.pairs"] = (c["multiset.ms_convolve.pairs"], "count")
    m["weightedset.ws_convolve.pairs"] = (c["weightedset.ws_convolve.pairs"], "count")
    for name in ("multiset.validate", "weightedset.validate",
                 "multiset.ms_triangle", "queryspec.validate",
                 "queryspec.spec_from_json", "jointree.build_decomposition",
                 "jointree.decomposition_violation", "tables.load_table"):
        m[f"{name}_s"] = (inclusive[name], "s")
    m["tables.rows"] = (c["tables.rows"], "count")
    m["engine.balanced_fold.calls"] = (calls["engine.balanced_fold"], "count")
    m["engine.fold_items"] = (instr.fold_items, "count")
    m["engine.max_fold_depth"] = (instr.max_fold_depth, "count")
    m["engine.max_value_entries"] = (instr.max_value_size, "count")
    m["drivers.evaluations"] = (
        calls["engine.evaluate"] + calls["engine.evaluate_to_root"], "count")
    return m
