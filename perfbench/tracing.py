"""Spans around the package's public boundaries, and a profiler pass.

`Tracer.install` replaces every binding of the boundary functions and
methods listed in BOUNDARIES, in every loaded `leavitt` module, by a
wrapper that records a span [name, start, end, parent, op, extra, hidden]
in memory; `uninstall` puts the originals back.  `extra` holds the sizes
a layer's counts are made of, measured after the span ends; `hidden` is
the time a span's descendants spent on that bookkeeping, which is taken
out of its duration.  The rest of a wrapper's cost, `span_cost` seconds
per call, is taken out of the duration of every span around it.

The scalar (`coeffs`) and word (`words`) layers are called millions of
times, so they are not wrapped; `profile_counts` attributes their calls
and self time from a cProfile pass instead.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
from time import perf_counter

# (span name, defining module, class or None, attribute)
BOUNDARIES = (
    ("cohn.mul", "leavitt.cohn", "CohnElement", "__mul__"),
    ("leavitt.nf", "leavitt.leavitt", None, "normal_form"),
    ("leavitt.mul", "leavitt.leavitt", "LeavittElement", "__mul__"),
    ("leavitt.bracket", "leavitt.leavitt", "LeavittElement", "bracket"),
    ("matrix.mul", "leavitt.matrix", "MatrixElement", "__mul__"),
    ("simplicity.is_simple", "leavitt.simplicity", None, "is_simple"),
    ("simplicity.build", "leavitt.simplicity", None, "build_witness"),
    ("simplicity.to_doc", "leavitt.simplicity", None, "witness_to_doc"),
    ("simplicity.from_doc", "leavitt.simplicity", None, "witness_from_doc"),
    ("simplicity.verify", "leavitt.simplicity", None, "verify_witness"),
    ("parser.parse", "leavitt.parser", None, "parse"),
    ("parser.evaluate", "leavitt.parser", None, "evaluate"),
    ("cli.main", "leavitt.cli", None, "main"),
)


def _size(x):
    return len(x.terms) if hasattr(x, "terms") else 0


def _entries(m):
    e = m.entries
    return list(e.values()) if isinstance(e, dict) else [x for row in e for x in row]


def _zeros(mats):
    entries = [x for m in mats for x in _entries(m)]
    return sum(1 for x in entries if x.is_zero()), len(entries)


_MEASURES = {
    "cohn.mul": lambda args, out: (_size(args[0]), _size(args[1]), _size(out)),
    "leavitt.nf": lambda args, out: (_size(args[0]), _size(out.rep)),
    "matrix.mul": lambda args, out: _zeros(
        [m for m in (args[0], args[1], out) if hasattr(m, "entries")]
    ),
    "simplicity.verify": lambda args, out: len(args[0].pairs),
}


def _loaded_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "leavitt" or name.startswith("leavitt."))]


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def install(self):
        for name in {b[1] for b in BOUNDARIES}:
            importlib.import_module(name)
        modules = _loaded_modules()
        for span, module, cls, attr in BOUNDARIES:
            owner = sys.modules[module]
            if cls is not None:
                owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self._wrap(span, original))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def _wrap(self, name, fn):
        spans, stack, measure = self.spans, self._stack, _MEASURES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
                rec[2] = perf_counter()
                if measure is not None:
                    rec[5] = measure(args, out)
                return out
            finally:
                if not rec[2]:
                    rec[2] = perf_counter()
                stack.pop()
                if rec[3] >= 0:
                    spans[rec[3]][6] += rec[6] + (perf_counter() - rec[2])

        traced.__wrapped_by_perfbench__ = True
        return traced


def span_cost(calls=2000, rounds=11):
    """Seconds a traced call adds to the duration of the span around it.

    Times an outer span over `calls` calls of an empty function, once
    wrapped and once not, and returns the median difference per call.
    """
    tracer = Tracer()

    def leaf():
        return None

    def loop(fn):
        for _ in range(calls):
            fn()

    outer, traced_leaf = tracer._wrap("cost.outer", loop), tracer._wrap("cost.leaf", leaf)

    def outer_s(fn):
        tracer.spans.clear()
        outer(fn)
        s = tracer.spans[0]
        return s[2] - s[1] - s[6]

    return statistics.median((outer_s(traced_leaf) - outer_s(leaf)) / calls for _ in range(rounds))


# --- aggregation --------------------------------------------------------------

# Every per-layer metric with its unit, in report order.
UNITS = {
    "coeffs.scalar_ops": "count", "coeffs.self_s": "s",
    "words.word_builds": "count", "words.compare_calls": "count", "words.self_s": "s",
    "cohn.mul_calls": "count", "cohn.mul_s": "s", "cohn.mono_products": "count",
    "cohn.out_terms": "count", "cohn.out_per_product": "1", "cohn.self_s": "s",
    "leavitt.nf_calls": "count", "leavitt.nf_s": "s", "leavitt.nf_in_terms": "count",
    "leavitt.nf_out_terms": "count", "leavitt.self_s": "s",
    "matrix.mul_calls": "count", "matrix.mul_s": "s", "matrix.entry_products": "count",
    "matrix.zero_entry_frac": "1", "matrix.self_s": "s",
    "simplicity.build_s": "s", "simplicity.serde_s": "s", "simplicity.verify_s": "s",
    "simplicity.pairs": "count",
    "parser.parse_s": "s", "parser.evaluate_s": "s",
    "cli.import_s": "s", "cli.main_s": "s", "cli.proc_s": "s",
    "trace.overhead_frac": "1",
}

LAYERS = ("cohn", "leavitt", "matrix", "simplicity", "parser", "cli")


def summarize(spans, wall_s, cli_procs=(), cost=0.0):
    """Per-layer metrics from the spans of one traced pass.

    `wall_s` is the pass's total operation time; `cli_procs` holds
    (process wall, import seconds) for each CLI child process; `cost` is
    `span_cost()`, taken out of a span's duration once per descendant.
    """
    n = len(spans)
    below = [0] * n  # descendant spans; a parent is recorded before its children
    for i in range(n - 1, -1, -1):
        if spans[i][3] >= 0:
            below[spans[i][3]] += below[i] + 1
    dur = [s[2] - s[1] - s[6] - cost * below[i] for i, s in enumerate(spans)]
    child = [0.0] * n
    above = [()] * n  # layers of a span's ancestors
    for i, s in enumerate(spans):
        par = s[3]
        if par >= 0:
            child[par] += dur[i]
            above[i] = above[par] + (spans[par][0].partition(".")[0],)
    m = {}
    incl = dict.fromkeys(LAYERS, 0.0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    count, total = {}, {}
    mono = out_terms = nf_in = nf_out = entry_products = zeros = stored = pairs = 0
    for i, s in enumerate(spans):
        name, layer = s[0], s[0].partition(".")[0]
        self_s[layer] += dur[i] - child[i]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + dur[i]
        if layer not in above[i]:
            incl[layer] += dur[i]
        extra = s[5]  # None when the call raised
        if extra is None:
            pass
        elif name == "cohn.mul":
            mono += extra[0] * extra[1]
            out_terms += extra[2]
        elif name == "leavitt.nf":
            nf_in += extra[0]
            nf_out += extra[1]
        elif name == "matrix.mul":
            zeros += extra[0]
            stored += extra[1]
        elif name == "simplicity.verify":
            pairs += extra
        if name in ("cohn.mul", "leavitt.mul") and s[3] >= 0 and spans[s[3]][0] == "matrix.mul":
            entry_products += 1
    proc_s = sum(w for w, _ in cli_procs) - total.get("cli.main", 0.0)
    m["cohn.mul_calls"] = count.get("cohn.mul", 0)
    m["cohn.mul_s"] = incl["cohn"]
    m["cohn.mono_products"] = mono
    m["cohn.out_terms"] = out_terms
    m["cohn.out_per_product"] = out_terms / mono if mono else 0.0
    m["cohn.self_s"] = self_s["cohn"]
    m["leavitt.nf_calls"] = count.get("leavitt.nf", 0)
    m["leavitt.nf_s"] = total.get("leavitt.nf", 0.0)
    m["leavitt.nf_in_terms"] = nf_in
    m["leavitt.nf_out_terms"] = nf_out
    m["leavitt.self_s"] = self_s["leavitt"]
    m["matrix.mul_calls"] = count.get("matrix.mul", 0)
    m["matrix.mul_s"] = incl["matrix"]
    m["matrix.entry_products"] = entry_products
    m["matrix.zero_entry_frac"] = zeros / stored if stored else 0.0
    m["matrix.self_s"] = self_s["matrix"]
    m["simplicity.build_s"] = total.get("simplicity.build", 0.0)
    m["simplicity.serde_s"] = total.get("simplicity.to_doc", 0.0) + total.get("simplicity.from_doc", 0.0)
    m["simplicity.verify_s"] = total.get("simplicity.verify", 0.0)
    m["simplicity.pairs"] = pairs
    m["parser.parse_s"] = total.get("parser.parse", 0.0)
    m["parser.evaluate_s"] = total.get("parser.evaluate", 0.0)
    m["cli.import_s"] = float(sum(imp for _, imp in cli_procs))
    m["cli.main_s"] = total.get("cli.main", 0.0)
    m["cli.proc_s"] = proc_s if cli_procs else 0.0
    shares = {layer: incl[layer] / wall_s for layer in LAYERS} if wall_s else {}
    if cli_procs:
        shares["cli"] = (proc_s + total.get("cli.main", 0.0)) / wall_s
        shares["cli.proc"] = proc_s / wall_s
        shares["cli.main"] = total.get("cli.main", 0.0) / wall_s
    return m, shares


# --- profiler attribution -----------------------------------------------------

_SCALAR_OPS = {"__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "inv"}


def _module_of(filename):
    parts = os.path.normpath(filename).split(os.sep)
    if len(parts) >= 2 and parts[-2] == "leavitt" and parts[-1].endswith(".py"):
        return parts[-1][:-3]
    return None


def profile_counts(stats):
    """coeffs and words counts and self times from `pstats.Stats(...).stats`."""
    out = {"coeffs.scalar_ops": 0, "coeffs.self_s": 0.0, "words.word_builds": 0,
           "words.compare_calls": 0, "words.self_s": 0.0}
    for (filename, _, func), (_, ncalls, tottime, _, _) in stats.items():
        module = _module_of(filename)
        if module == "coeffs":
            out["coeffs.self_s"] += tottime
            if func in _SCALAR_OPS:
                out["coeffs.scalar_ops"] += ncalls
        elif module == "words":
            out["words.self_s"] += tottime
            if func == "__init__":
                out["words.word_builds"] += ncalls
            elif func == "compare":
                out["words.compare_calls"] += ncalls
    return out


def add_counts(acc, counts):
    for k, v in counts.items():
        acc[k] = acc.get(k, 0) + v
    return acc
