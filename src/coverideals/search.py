"""Batch sweeps over small labelled graphs: build the order-t cover ideal of
every graph in range and record its componentwise-linearity verdict.

Records come in a fixed enumeration order (vertex count, then edge-set
bitmask, then t ascending), so two runs of the same sweep give equal records
apart from wall times.  The summary deduplicates failing graphs up to
relabelling.  Records and summary are values; ``search`` in the CLI writes
them out.

The verdict, failing degree and generator count do not change when the
vertices are relabelled, so each is computed once per isomorphism class and
copied to every labelled member.  The classes come from orbit enumeration:
the n! relabellings are applied to the least edge mask of each class, about
112k mappings for the 156 classes on 6 vertices.  A capacity skip is
decided per class too, and a row's ``wall_ms`` is the time spent on that
row: the computation for the class's first member, a lookup for the others.

A row is skipped when a cap raises ``CapacityError``.  One such cap is the
row budget: the generators summed over the degree components a row builds
(``is_componentwise_linear``'s ``budget``).  The count depends on the graph
and t alone, so the same rows are skipped on every host and in any thread.
A row's verdict is settled at its first degree without a linear resolution,
so no Betti table is built past it (``stop_at_failure``); ``check-cwl``
reports every degree.
"""

from __future__ import annotations

import operator
import time
from collections import namedtuple
from itertools import combinations, permutations
from typing import Iterator, Optional

from .errors import CapacityError
from .graphs import SimpleGraph, cover_ideal, complete_graph
from .resolution import RATIONALS, is_componentwise_linear

# Default row budget: generators summed over the degree components a row
# builds.  Row time grows with this count.  The value is the largest count of
# any row with n <= 5 and t <= 4 (the star K_{1,4} at t = 4, about 1.6 s on a
# 2-core Xeon), so sweeps over n <= 4 at any t, n = 5 at t <= 4 and n = 6 at
# t <= 2 skip no row.
ROW_BUDGET = 7_149


class SweepConfig(namedtuple(
    "SweepConfig",
    "n_min n_max t_set chordal_only connected_only complete_only field row_budget",
    defaults=(1, 4, (1,), False, False, False, RATIONALS, ROW_BUDGET),
)):
    """Which graphs and orders a sweep covers: vertex counts n_min..n_max,
    the orders ``t_set`` (kept as a sorted tuple of distinct values), three
    graph filters, the coefficient ``field`` and the ``row_budget`` (0 means
    no budget)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        given = super().__new__(cls, *args, **kwargs)
        n_min, n_max, row_budget = map(
            operator.index, (given.n_min, given.n_max, given.row_budget)
        )
        t_set = tuple(sorted(set(map(operator.index, given.t_set))))
        if not 1 <= n_min <= n_max <= 6:
            raise ValueError("vertex range must satisfy 1 <= n_min <= n_max <= 6")
        if not t_set:
            raise ValueError("no t values given")
        if any(t < 1 or t > 6 for t in t_set):
            raise ValueError("t values must lie in 1..6")
        if row_budget < 0:
            raise ValueError("row budget must be >= 0 (0 means no budget)")
        return super().__new__(cls, n_min, n_max, t_set, *given[3:7], row_budget)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)


class SweepRecord(namedtuple(
    "SweepRecord",
    "n t edges chordal cwl failing_degree generator_count wall_ms status",
    defaults=("ok",),
)):
    """One (graph, t) row: ``edges`` as sorted vertex pairs, ``wall_ms`` the
    time spent on the row.  ``cwl``, ``failing_degree`` and
    ``generator_count`` are None on a skipped row; ``status`` is "ok" or
    "skipped: capacity (<reason>)", the row budget being one such cap.
    The CLI turns records into JSON-lines or CSV rows."""

    __slots__ = ()


def _edge_slots(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(1, n + 1), 2))


def _graph_from_mask(n: int, mask: int, slots) -> SimpleGraph:
    return SimpleGraph(n, [e for k, e in enumerate(slots) if mask >> k & 1])


def _relabellings(n: int) -> list[list[int]]:
    """For each of the n! vertex permutations, the slot each edge slot moves
    to."""
    slots = _edge_slots(n)
    slot = [[0] * (n + 1) for _ in range(n + 1)]
    for k, (u, v) in enumerate(slots):
        slot[u][v] = slot[v][u] = k
    return [
        [slot[p[u - 1]][p[v - 1]] for u, v in slots]
        for p in permutations(range(1, n + 1))
    ]


def _orbit(mask: int, relabellings: list[list[int]]) -> set[int]:
    """Every edge mask that some vertex relabelling takes mask to."""
    bits = [k for k in range(mask.bit_length()) if mask >> k & 1]
    return {sum(1 << to[k] for k in bits) for to in relabellings}


def _least_in_orbit(n: int) -> list[int]:
    """For every edge mask on n vertices, the least mask of its orbit under
    vertex relabelling.  Masks are walked in ascending order, so the first
    one not yet seen is the least of its orbit; total work is classes x n!."""
    relabellings = _relabellings(n)
    least = [-1] * (1 << n * (n - 1) // 2)
    for mask in range(len(least)):
        if least[mask] < 0:
            for member in _orbit(mask, relabellings):
                least[member] = mask
    return least


def _kept_chordality(G: SimpleGraph, config: SweepConfig) -> Optional[bool]:
    """G's chordality when G passes the config's filters, None when not."""
    if config.connected_only and not G.is_connected():
        return None
    chordal = G.is_chordal()[0]
    return None if config.chordal_only and not chordal else chordal


def _classified_graphs(
    config: SweepConfig,
) -> Iterator[tuple[SimpleGraph, tuple[int, int], bool]]:
    """All labelled graphs in range that pass the config's filters, in
    deterministic order (vertex count ascending, then edge bitmask
    ascending), each with its isomorphism class (n, least edge mask of its
    orbit) and its chordality.  The filters and chordality do not depend on
    labels, so each is decided once per class, on its least mask."""
    for n in range(config.n_min, config.n_max + 1):
        slots = _edge_slots(n)
        if config.complete_only:
            G = complete_graph(n)
            chordal = _kept_chordality(G, config)
            if chordal is not None:
                yield G, (n, (1 << len(slots)) - 1), chordal
            continue
        chordality: dict[int, Optional[bool]] = {}
        for mask, least in enumerate(_least_in_orbit(n)):
            if mask == least:  # the ascending walk meets each class here first
                chordality[least] = _kept_chordality(_graph_from_mask(n, mask, slots), config)
            if chordality[least] is not None:
                yield _graph_from_mask(n, mask, slots), (n, least), chordality[least]


def canonical_edge_mask(G: SimpleGraph) -> tuple[int, int]:
    """(n, least edge bitmask over all vertex relabellings); an isomorphism
    invariant for the summary's dedup pass."""
    n = G.nvertices
    slot_index = {e: k for k, e in enumerate(_edge_slots(n))}
    mask = sum(1 << slot_index[e] for e in G.edges)
    return n, min(_orbit(mask, _relabellings(n)))


def _decide(G: SimpleGraph, t: int, config: SweepConfig) -> tuple:
    """(cwl, failing degree, generator count, status) of one graph at t."""
    try:
        ideal = cover_ideal(G, t)
        report = is_componentwise_linear(
            ideal, config.field, budget=config.row_budget, stop_at_failure=True
        )
    except CapacityError as exc:
        return None, None, None, f"skipped: capacity ({exc})"
    return report.overall, report.failing_degree(), len(ideal.generators), "ok"


def sweep(config: SweepConfig) -> tuple[list[SweepRecord], dict]:
    """One record per (labelled graph, t); summary with per-t pass/fail
    counts and failing graphs deduplicated up to relabelling.

    The cover ideal and its verdict are computed once per (isomorphism
    class, t), on the class's first graph in enumeration order, and copied
    to every other member: a row budget or capacity skip is likewise decided
    once and every member carries the same status.  A row's ``wall_ms`` is
    the time spent on that row, so the class's first member carries the
    computation and the others only the lookup."""
    records: list[SweepRecord] = []
    classes: list[tuple[int, int]] = []
    warnings: list[str] = []
    decided: dict[tuple, tuple] = {}
    for G, cls, chordal in _classified_graphs(config):
        edges = tuple(G.edge_list())
        for t in config.t_set:
            start = time.perf_counter()
            if (cls, t) not in decided:
                decided[cls, t] = _decide(G, t, config)
            cwl, failing_degree, gens, status = decided[cls, t]
            ms = (time.perf_counter() - start) * 1000
            records.append(
                SweepRecord(
                    G.nvertices, t, edges, chordal, cwl, failing_degree, gens, ms, status
                )
            )
            classes.append(cls)
            if chordal and t == 1 and cwl is False:
                warnings.append(
                    f"chordal graph {G.edge_list()} failed at t=1; "
                    "this contradicts the chordal case and indicates a bug"
                )
    summary = _summarize(records, classes, warnings)
    return records, summary


def _summarize(
    records: list[SweepRecord], classes: list[tuple[int, int]], warnings: list[str]
) -> dict:
    """``classes[k]`` is the isomorphism class of ``records[k]``'s graph;
    each failing class is named by ``canonical_edge_mask`` once."""
    per_t: dict[int, dict] = {}
    fail_classes: dict[int, set] = {}
    names: dict[tuple[int, int], tuple[int, int]] = {}
    for rec, cls in zip(records, classes):
        bucket = per_t.setdefault(
            rec.t, {"rows": 0, "cwl_pass": 0, "cwl_fail": 0, "skipped": 0}
        )
        bucket["rows"] += 1
        if rec.status != "ok":
            bucket["skipped"] += 1
        elif rec.cwl:
            bucket["cwl_pass"] += 1
        else:
            bucket["cwl_fail"] += 1
            if cls not in names:
                names[cls] = canonical_edge_mask(SimpleGraph(rec.n, rec.edges))
            fail_classes.setdefault(rec.t, set()).add(names[cls])
    summary = {
        "rows": len(records),
        "per_t": {
            str(t): dict(per_t[t], distinct_failing_classes=len(fail_classes.get(t, ())))
            for t in sorted(per_t)
        },
        "warnings": warnings,
    }
    return summary
