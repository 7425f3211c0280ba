"""Span tracing for the benchmark, installed from outside the package.

Each traced layer is a public function (or method) of one ``coverideals``
module.  ``Tracer.install`` swaps in a wrapper under every name that refers
to the original: the defining module, every module that imported it with
``from .x import f``, and the class attribute for methods.  A wrapper records
one span (name, start, end, parent, footprint) and adds its layer's counters;
spans stay in memory until ``layer_metrics`` reduces them to calls and self
time.

A span's duration (start to end) is the wrapped call alone.  Its footprint
is the whole wrapper, including the span bookkeeping and the counter
functions, which run after ``end`` while the parent span is still open.
Self time of a span is its duration minus the footprints of its direct child
spans, so the tracer's own work is billed to no layer.  Everything runs on
one thread, so children never overlap.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


def _rank_counts(args, result):
    columns = args[0]
    return {
        "columns": len(columns),
        "nonzeros": sum(len(c) for c in columns),
        "rank_sum": result,
    }


# layer name -> (defining module, attribute, counter names, counter function).
# A counter function gets the positional arguments and the result and returns
# {counter name: amount}.  ``cli.main.output_bytes`` is added by the runner,
# which owns the captured output.
LAYERS = {
    "resolution.koszul_betti": (
        "resolution", "koszul_betti", ("entries_out",),
        lambda a, r: {"entries_out": len(r.multigraded)}),
    "resolution.lcm_lattice": (
        "resolution", "lcm_lattice", ("points_out",),
        lambda a, r: {"points_out": len(r)}),
    "resolution.taylor_strand_betti": (
        "resolution", "taylor_strand_betti", ("subsets", "entries_out"),
        lambda a, r: {"subsets": (1 << len(a[0].generators)) - 1,
                      "entries_out": len(r.multigraded)}),
    "linalg.matrix_rank": (
        "linalg", "matrix_rank", ("columns", "nonzeros", "rank_sum"), _rank_counts),
    "resolution.is_componentwise_linear": (
        "resolution", "is_componentwise_linear", ("degrees_checked",),
        lambda a, r: {"degrees_checked": len(r.verdicts)}),
    "resolution.has_linear_resolution": (
        "resolution", "has_linear_resolution", (), None),
    "resolution.find_linear_quotient_order": (
        "resolution", "find_linear_quotient_order", ("certified",),
        lambda a, r: {"certified": int(r is not None)}),
    "graphs.cover_ideal": (
        "graphs", "cover_ideal", ("generators_out",),
        lambda a, r: {"generators_out": len(r.generators)}),
    "graphs.is_chordal": ("graphs", "SimpleGraph.is_chordal", (), None),
    "search.sweep": (
        "search", "sweep", ("rows",), lambda a, r: {"rows": len(r[0])}),
    "search.canonical_edge_mask": ("search", "canonical_edge_mask", (), None),
    "monomials.component": (
        "monomials", "MonomialIdeal.component", ("generators_out",),
        lambda a, r: {"generators_out": len(r.generators)}),
    "monomials.minimalize": (
        "monomials", "minimalize", ("monomials_in",),
        lambda a, r: {"monomials_in": len(a[1])}),
    "cli.main": ("cli", "main", ("output_bytes",), None),
}

# positional arguments that may be one-shot iterables; the wrapper turns them
# into lists before the call so the counter can measure them
_MATERIALISE = {"linalg.matrix_rank": 0, "monomials.minimalize": 1}

# one sweep call per run, so it reports rows in place of calls
_NO_CALLS = {"search.sweep"}

_UNITS = {"calls": "count", "self_s": "s"}


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for layer, (_, _, counters, _) in LAYERS.items():
        if layer not in _NO_CALLS:
            names.append(f"{layer}.calls")
        names.append(f"{layer}.self_s")
        names.extend(f"{layer}.{c}" for c in counters)
    names += [
        "resolution.koszul_betti.useful_ratio",
        "linalg.matrix_rank.pivot_ratio",
        "trace.overhead_ratio",
    ]
    return names


def metric_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    return "ratio" if last.endswith("_ratio") else _UNITS.get(last, "count")


class Tracer:
    """Wraps the package's layer functions and records spans."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, footprint)
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, layer: str, func, counter=None, materialise=None):
        """A wrapper for func that records one span per call."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            enter = clock()
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            start = clock()
            try:
                if materialise is not None and not isinstance(args[materialise], list):
                    args = list(args)
                    args[materialise] = list(args[materialise])
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, end - enter)
            c = counts[layer]
            c["calls"] += 1
            if counter is not None:
                for key, amount in counter(args, result).items():
                    c[key] += amount
            spans[idx] = (layer, start, end, parent, clock() - enter)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def install(self, package) -> None:
        """Rebind every layer of ``package`` (the imported coverideals) to a
        wrapper, under every module-level name that refers to it."""
        prefix = package.__name__
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]
        for layer, (modname, attr, _, counter) in LAYERS.items():
            home = sys.modules[f"{prefix}.{modname}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                self._rebind(cls, method, self.wrap(layer, cls.__dict__[method], counter))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(layer, original, counter, _MATERIALISE.get(layer))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def _rebind(self, owner, key, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    def add(self, layer: str, key: str, amount: int) -> None:
        self.counts[layer][key] += amount

    def self_times(self) -> dict[str, float]:
        child_time = [0.0] * len(self.spans)
        for _, _, _, parent, footprint in self.spans:
            if parent >= 0:
                child_time[parent] += footprint
        totals: dict[str, float] = defaultdict(float)
        for k, (layer, start, end, _, _) in enumerate(self.spans):
            totals[layer] += end - start - child_time[k]
        return totals

    def fired(self) -> set[str]:
        return {layer for layer, c in self.counts.items() if c.get("calls")}

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_ratio``, which
        needs an untraced run to compare with."""
        selfs = self.self_times()
        out: dict[str, float] = {}
        for layer, (_, _, counters, _) in LAYERS.items():
            c = self.counts.get(layer, {})
            if layer not in _NO_CALLS:
                out[f"{layer}.calls"] = c.get("calls", 0)
            out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
            for key in counters:
                out[f"{layer}.{key}"] = c.get(key, 0)
        points = out["resolution.lcm_lattice.points_out"]
        out["resolution.koszul_betti.useful_ratio"] = (
            out["resolution.koszul_betti.entries_out"] / points if points else 0.0
        )
        columns = out["linalg.matrix_rank.columns"]
        out["linalg.matrix_rank.pivot_ratio"] = (
            out["linalg.matrix_rank.rank_sum"] / columns if columns else 0.0
        )
        return out
