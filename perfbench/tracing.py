"""Layer spans for the traced benchmark run.

The spans are recorded from the benchmark's side of each layer boundary: the
public functions of every ``jcgrid`` module (and a few named methods) are
replaced by wrappers that open a span, call the original and close the span.
A module that imports a function by name holds its own reference, so each
wrapper is bound into every ``jcgrid`` namespace that binds the original.

Spans are aggregated in memory per (command, span name); a span's self time
is its duration minus the durations of the spans opened inside it.  Work
counts (scalar products, Gram sizes, bytes written) are taken at the same
boundaries, inside a ``trace.count`` span, with the wrappers paused, so that
counting time is charged to neither the caller nor the callee.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "grids", "hnk", "opspace", "triple", "numlin", "serialize")

# Public module functions that share a span name; every other public
# function ``f`` of layer ``L`` records under ``L.f``.
GROUPS = {
    "numlin.singular_values": "numlin.eigen",
    "hnk.build_hnk": "hnk.build",
    "hnk.indices": "hnk.indices",
    "hnk.support_product": "hnk.indices",
    "hnk.hnk_projection": "hnk.projection",
    "grids.verify_grid": "grids.verify_grid",
}
for _name in ("verify_uIJ_grid", "ones_triple_coherence", "decompose_into_ones",
              "signature_general", "uij_family", "sum_decomposition_holds", "build_uIJ"):
    GROUPS[f"hnk.{_name}"] = "hnk.words"
for _name in ("rectangular_grid", "hermitian_grid", "symplectic_grid", "spin_system",
              "spin_grid", "rank_one_grid", "conjugate_grid", "signed_permutation",
              "random_signed_permutation"):
    GROUPS[f"grids.{_name}"] = "grids.construct"
for _name in ("hermitian_to_matrix_units", "symplectic_to_matrix_units",
              "spin_to_spin_system"):
    GROUPS[f"grids.{_name}"] = "grids.transform"

# Methods traced by (layer, class, method) -> span name.
METHODS = {
    ("numlin", "ExactMatrix", "__mul__"): "numlin.exact_mul",
    ("numlin", "ExactMatrix", "__init__"): "numlin.exact_new",
    ("numlin", "ExactMatrix", "to_approx"): "numlin.to_approx",
    ("numlin", "ExactMatrix", "scale"): "numlin.exact_scale",
    **{("numlin", "ExactMatrix", m): "numlin.exact_add" for m in ("__add__", "__sub__", "__neg__")},
    **{("numlin", "ExactMatrix", m): "numlin.exact_other"
       for m in ("__eq__", "adjoint", "transpose", "kron", "trace", "is_zero")},
    ("triple", "PartialIsometry", "__init__"): "triple.partial_isometry",
    ("hnk", "RankOneRealization", "__init__"): "hnk.realization",
    ("grids", "Grid", "__init__"): "grids.construct",
}


class Tracer:
    """In-memory span aggregates and work counters, keyed by command."""

    def __init__(self):
        self.command = None
        self.paused = False
        self._stack = []
        # (command, span) -> [calls, total_s, self_s]
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])
        # (command, counter) -> value
        self.counts = defaultdict(int)
        # per-command distinct matrices validated as partial isometries
        self.validated = defaultdict(set)

    def enter(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self):
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        rec = self.spans[(self.command, name)]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def count(self, name, value):
        self.counts[(self.command, name)] += value

    # -- totals over all commands -------------------------------------------

    def span_totals(self):
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (_, name), (calls, total, self_s) in self.spans.items():
            rec = out[name]
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        return out

    def count_totals(self):
        out = defaultdict(int)
        for (_, name), value in self.counts.items():
            out[name] += value
        return out

    def dump(self):
        """Per-command aggregates, as plain data for the trace file."""
        by_cmd = defaultdict(dict)
        for (cmd, name), (calls, total, self_s) in self.spans.items():
            by_cmd[cmd][name] = {"calls": calls, "total_s": total, "self_s": self_s}
        for (cmd, name), value in self.counts.items():
            by_cmd[cmd].setdefault("counts", {})[name] = value
        for cmd, mats in self.validated.items():
            by_cmd[cmd].setdefault("counts", {})["triple.partial_isometry.distinct"] = len(mats)
        return [{"command": cmd, "spans": spans} for cmd, spans in by_cmd.items()]


# -- work counters --------------------------------------------------------------


def _scalar_mults(a, b):
    """Nonzero scalar products of a * b: sum over k of nnz(a[:, k]) nnz(b[k, :])."""
    col = defaultdict(int)
    for _, k, _ in a.support():
        col[k] += 1
    total = 0
    for k, _, _ in b.support():
        total += col.get(k, 0)
    return total


def _count_exact_mul(tracer, args, result):
    tracer.count("numlin.exact_mul.scalar_mults", _scalar_mults(*args))


def _count_eigen(tracer, args, result):
    tracer.count("numlin.eigen.gram_n3", len(result) ** 3)


def _count_partial_isometry(tracer, args, result):
    tracer.validated[tracer.command].add(args[0].mat)


def _count_bytes(tracer, args, result):
    if isinstance(result, str):
        n = len(result.encode())
    else:  # list of csv lines, each printed with a newline
        n = sum(len(line.encode()) + 1 for line in result)
    tracer.count("serialize.bytes", n)


COUNTERS = {
    "numlin.exact_mul": _count_exact_mul,
    "numlin.eigen": _count_eigen,
    "triple.partial_isometry": _count_partial_isometry,
    "serialize.dumps": _count_bytes,
    "serialize.matrix_pretty": _count_bytes,
    "serialize.matrix_to_csv_lines": _count_bytes,
}


# -- installing the wrappers ----------------------------------------------------


def _wrap(tracer, fn, span, counter=None, matrix_operand=None):
    enter, exit_ = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.paused:
            return fn(*args, **kwargs)
        if matrix_operand is not None and not isinstance(args[1], matrix_operand):
            return fn(*args, **kwargs)  # ExactMatrix * scalar is a scale
        enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            exit_()
        if counter is not None:
            enter("trace.count")
            tracer.paused = True
            try:
                counter(tracer, args, result)
            finally:
                tracer.paused = False
                exit_()
        return result

    return wrapper


class Installation:
    """The wrappers bound into the ``jcgrid`` namespaces; ``remove`` undoes them."""

    def __init__(self, tracer, package):
        self._undo = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        layer_mods = {layer: sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS}
        for layer, mod in layer_mods.items():
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                span = GROUPS.get(f"{layer}.{name}", f"{layer}.{name}")
                wrapper = _wrap(tracer, obj, span, COUNTERS.get(span))
                self._rebind(modules, obj, wrapper)
        for (layer, cls_name, meth), span in METHODS.items():
            cls = getattr(layer_mods[layer], cls_name, None)
            orig = vars(cls).get(meth) if cls is not None else None
            if orig is None:  # gone in this version: its span records no call
                continue
            operand = cls if span == "numlin.exact_mul" else None
            wrapper = _wrap(tracer, orig, span, COUNTERS.get(span), operand)
            setattr(cls, meth, wrapper)
            self._undo.append((cls, meth, orig))

    def _rebind(self, modules, orig, wrapper):
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, orig))

    def remove(self):
        for target, name, orig in reversed(self._undo):
            setattr(target, name, orig)
        self._undo.clear()


# -- per-layer metrics ----------------------------------------------------------

# span -> the fields reported as "<span>.<field>"
_SPAN_METRICS = [
    ("numlin.exact_mul", ("calls", "self_s")),
    ("numlin.exact_new", ("calls", "self_s")),
    ("numlin.exact_scale", ("calls", "self_s")),
    ("numlin.exact_add", ("calls", "self_s")),
    ("numlin.exact_other", ("calls", "self_s")),
    ("numlin.eigen", ("calls", "self_s")),
    ("numlin.to_approx", ("calls", "self_s")),
    ("triple.partial_isometry", ("calls", "self_s")),
    ("triple.triple_product", ("calls",)),
    ("triple.classify_relation", ("calls",)),
    ("grids.verify_grid", ("calls", "self_s")),
    ("grids.construct", ("self_s",)),
    ("grids.transform", ("self_s",)),
    ("hnk.build", ("calls", "self_s")),
    ("hnk.realization", ("calls", "self_s")),
    ("hnk.indices", ("self_s",)),
    ("hnk.words", ("self_s",)),
    ("hnk.projection", ("calls", "self_s")),
]

_COUNT_METRICS = [
    ("numlin.exact_mul.scalar_mults", "count"),
    ("numlin.eigen.gram_n3", "count"),
    ("serialize.bytes", "B"),
]


def layer_metrics(tracer):
    """Per-layer metrics as {name: (value, unit)}, summed over all commands."""
    spans = tracer.span_totals()
    counts = tracer.count_totals()
    out = {}
    for layer in LAYERS:
        self_s = sum(rec[2] for name, rec in spans.items() if name.split(".")[0] == layer)
        out[f"{layer}.self_s"] = (self_s, "s")
    for span, fields in _SPAN_METRICS:
        calls, _, self_s = spans.get(span, (0, 0.0, 0.0))
        if "calls" in fields:
            out[f"{span}.calls"] = (calls, "count")
        if "self_s" in fields:
            out[f"{span}.self_s"] = (self_s, "s")
    for name, unit in _COUNT_METRICS:
        out[name] = (counts.get(name, 0), unit)
    validations = spans.get("triple.partial_isometry", (0,))[0]
    distinct = sum(len(mats) for mats in tracer.validated.values())
    out["triple.partial_isometry.per_element"] = (
        validations / distinct if distinct else 0.0, "1")
    return out


def zero_call_spans(tracer, predicted):
    """The predicted spans that recorded no call."""
    spans = tracer.span_totals()
    return [name for name in predicted if spans.get(name, (0,))[0] == 0]
