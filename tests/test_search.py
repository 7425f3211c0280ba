import hashlib
import json
import threading
from collections import Counter

import pytest

from coverideals import search
from coverideals.cli import main
from coverideals.errors import CapacityError
from coverideals.graphs import SimpleGraph, counterexample_graph
from coverideals.resolution import RATIONALS, is_componentwise_linear
from coverideals.graphs import cover_ideal
from coverideals.search import SweepConfig, canonical_edge_mask, sweep
from test_graphs import relabel


def test_config_validation():
    vertex_range = r"^vertex range must satisfy 1 <= n_min <= n_max <= 6$"
    with pytest.raises(ValueError, match=vertex_range):
        SweepConfig(n_min=0)
    with pytest.raises(ValueError, match=vertex_range):
        SweepConfig(n_min=3, n_max=2)
    with pytest.raises(ValueError, match=vertex_range):
        SweepConfig(n_max=7)
    with pytest.raises(ValueError, match=vertex_range):
        SweepConfig()._replace(n_max=7)
    with pytest.raises(ValueError, match=r"^t values must lie in 1\.\.6$"):
        SweepConfig(t_set=(7,))
    with pytest.raises(ValueError, match=r"^no t values given$"):
        SweepConfig(t_set=())
    with pytest.raises(ValueError, match=r"^row budget must be >= 0 \(0 means no budget\)$"):
        SweepConfig(row_budget=-1)


def test_sweep_records_are_hashable_immutable_values():
    config = SweepConfig(2, 3, t_set=(1, 2))
    assert config == SweepConfig(n_min=2, n_max=3, t_set=(1, 2))
    assert {config: 1}[SweepConfig(2, 3, (1, 2))] == 1
    assert (config.field, config.row_budget, config.chordal_only) == (
        RATIONALS, search.ROW_BUDGET, False)
    record = search.SweepRecord(3, 2, ((1, 2),), True, True, None, 2, 0.5)
    assert record.status == "ok"
    assert record == search.SweepRecord(3, 2, ((1, 2),), True, True, None, 2, 0.5, "ok")
    assert hash(record) == hash(search.SweepRecord(3, 2, ((1, 2),), True, True, None, 2, 0.5))
    for value, name in ((config, "n_max"), (record, "status")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def untimed(records):
    """The records with their wall times dropped."""
    return [r._replace(wall_ms=None) for r in records]


def search_output(capsys, *argv):
    """stdout of ``search`` with the given arguments."""
    main(["search", *argv])
    return capsys.readouterr().out


def test_t_set_is_sorted_and_distinct(capsys):
    config = SweepConfig(n_min=2, n_max=2, t_set=(2, 1, 2))
    assert config.t_set == (1, 2)
    records, summary = sweep(config)
    assert sorted((r.edges, r.t) for r in records) == [
        ((), 1), ((), 2), (((1, 2),), 1), (((1, 2),), 2)]
    assert summary["rows"] == 4 and summary["per_t"]["2"]["rows"] == 2
    assert search_output(capsys, "--n", "3", "--t", "2,1,2", "--no-timing") == (
        search_output(capsys, "--n", "3", "--t", "1,2", "--no-timing"))


def rows(**config):
    """The records of a sweep at t = 1: one per graph the config keeps."""
    return sweep(SweepConfig(**config))[0]


def test_enumerate_counts():
    assert len(rows(n_min=3, n_max=3)) == 8
    assert len(rows(n_min=4, n_max=4)) == 64
    chordal4 = rows(n_min=4, n_max=4, chordal_only=True)
    assert len(chordal4) == 61  # 64 minus the three labelled 4-cycles
    assert len(rows(n_min=1, n_max=1, connected_only=True)) == 1  # one vertex is connected
    connected3 = rows(n_min=3, n_max=3, connected_only=True)
    assert len(connected3) == 4  # the three paths and the triangle
    records, summary = sweep(SweepConfig(n_min=4, n_max=4, connected_only=True))
    assert len(records) == 38
    # only the three labelled 4-cycles fail: (x1x3, x2x4) is not linear
    assert summary["per_t"]["1"]["cwl_pass"] == 35


def test_enumerate_deterministic_order():
    a = [r.edges for r in rows(n_min=1, n_max=3)]
    b = [r.edges for r in rows(n_min=1, n_max=3)]
    assert a == b
    ns = [r.n for r in rows(n_min=1, n_max=3)]
    assert ns == sorted(ns)


def test_complete_only_enumeration():
    records = rows(n_min=2, n_max=4, complete_only=True)
    assert [r.n for r in records] == [2, 3, 4]
    assert all(len(r.edges) == r.n * (r.n - 1) // 2 for r in records)


def test_canonical_edge_mask_is_isomorphism_invariant():
    G = counterexample_graph()
    for perm in ((2, 1, 3, 4), (4, 3, 2, 1), (1, 3, 2, 4)):
        assert canonical_edge_mask(relabel(G, perm)) == canonical_edge_mask(G)
    path = SimpleGraph(3, [(1, 2), (2, 3)])
    other = SimpleGraph(3, [(1, 3), (2, 3)])
    assert canonical_edge_mask(path) == canonical_edge_mask(other)


def test_chordal_t1_sweep_all_pass():
    records, summary = sweep(SweepConfig(n_min=1, n_max=4, t_set=(1,), chordal_only=True))
    assert all(r.cwl for r in records)
    assert summary["per_t"]["1"]["cwl_fail"] == 0
    assert summary["per_t"]["1"]["rows"] == 1 + 2 + 8 + 61
    assert summary["warnings"] == []


def test_counterexample_shows_up_in_t2_sweep(monkeypatch):
    # chordality is decided once for each of the 11 classes on 4 vertices,
    # the filter's test included
    calls = []
    is_chordal = SimpleGraph.is_chordal

    def counting(G):
        calls.append(G)
        return is_chordal(G)

    monkeypatch.setattr(SimpleGraph, "is_chordal", counting)
    records, summary = sweep(
        SweepConfig(n_min=4, n_max=4, t_set=(2,), chordal_only=True)
    )
    assert len(calls) == 11
    target = tuple(counterexample_graph().edge_list())
    hits = [r for r in records if r.edges == target]
    assert len(hits) == 1
    assert hits[0].cwl is False
    assert hits[0].failing_degree == 4
    assert summary["per_t"]["2"]["cwl_fail"] >= 1


def test_relabelled_failures_share_failing_degree():
    records, _ = sweep(SweepConfig(n_min=4, n_max=4, t_set=(2,), chordal_only=True))
    target_class = canonical_edge_mask(counterexample_graph())
    in_class = [
        r
        for r in records
        if canonical_edge_mask(SimpleGraph(r.n, r.edges)) == target_class
    ]
    assert len(in_class) > 1  # several labelled copies
    assert all(r.cwl is False and r.failing_degree == 4 for r in in_class)


def test_orbits_partition_the_edge_masks():
    # OEIS A000088: graphs on n unlabelled vertices
    for n, count in zip(range(1, 7), (1, 2, 4, 11, 34, 156)):
        least = search._least_in_orbit(n)
        reps = sorted(set(least))
        assert len(reps) == count
        relabellings = search._relabellings(n)
        orbits = [search._orbit(rep, relabellings) for rep in reps]
        assert sum(len(o) for o in orbits) == 2 ** (n * (n - 1) // 2)
        assert set().union(*orbits) == set(range(len(least)))
        assert all(min(o) == rep for o, rep in zip(orbits, reps))
        if n <= 5:
            slots = search._edge_slots(n)
            for mask, rep in enumerate(least):
                G = search._graph_from_mask(n, mask, slots)
                assert canonical_edge_mask(G) == (n, rep)


def test_records_match_fresh_verdicts():
    # differential check: class reuse and stopped reports against one full,
    # unstopped report per graph
    records, _ = sweep(SweepConfig(n_min=3, n_max=4, t_set=(1, 2, 3)))
    for r in records:
        ideal = cover_ideal(SimpleGraph(r.n, r.edges), r.t)
        fresh = is_componentwise_linear(ideal)
        assert r.cwl == fresh.overall
        assert r.failing_degree == fresh.failing_degree()
        assert r.generator_count == len(ideal.generators)


def test_sweep_rows_stop_at_their_first_failing_degree(monkeypatch):
    # the counterexample's class fails at degree 2t and has components up
    # to degree 3t; a row's report must end at the failure
    reports = []

    def recording(*args, **kwargs):
        reports.append(is_componentwise_linear(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(search, "is_componentwise_linear", recording)
    sweep(SweepConfig(n_min=4, n_max=4, t_set=(2, 3), chordal_only=True))
    failing = [r for r in reports if not r.overall]
    assert [r.failing_degree() for r in failing] == [4, 6]
    assert all(r.verdicts[-1].degree == r.failing_degree() for r in failing)


def test_reports_are_deterministic_modulo_timing():
    config = SweepConfig(n_min=3, n_max=3, t_set=(1, 2))
    r1, s1 = sweep(config)
    r2, s2 = sweep(config)
    assert (untimed(r1), s1) == (untimed(r2), s2)


def test_jsonl_and_csv_shapes(capsys):
    records, _ = sweep(SweepConfig(n_min=2, n_max=2, t_set=(1,)))
    jl = search_output(capsys, "--n", "2").strip().splitlines()
    assert len(jl) == len(records) + 1
    row = json.loads(jl[0])
    assert {"n", "t", "edges", "chordal", "cwl", "failing_degree", "gens", "ms", "status"} <= set(row)
    assert "summary" in json.loads(jl[-1])
    csv = search_output(capsys, "--n", "2", "--format", "csv").splitlines()
    assert csv[0] == "n,t,edges,chordal,cwl,failing_degree,gens,ms"
    assert len(csv) == len(records) + 2


def test_row_budget_skips_the_same_rows_in_any_thread():
    config = SweepConfig(n_min=4, n_max=4, t_set=(2,), row_budget=40)
    records, summary = sweep(config)
    on_main = (untimed(records), summary)
    in_thread = []

    def run_sweep():
        thread_records, thread_summary = sweep(config)
        in_thread.append((untimed(thread_records), thread_summary))

    worker = threading.Thread(target=run_sweep)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    assert in_thread == [on_main]

    skipped = [r for r in records if r.status != "ok"]
    assert ((1, 2), (1, 3), (1, 4)) in {r.edges for r in skipped}
    assert all("row budget of 40" in r.status for r in skipped)
    assert summary["per_t"]["2"]["skipped"] == len(skipped)
    unbudgeted, _ = sweep(SweepConfig(n_min=4, n_max=4, t_set=(2,), row_budget=0))
    assert all(r.status == "ok" for r in unbudgeted)
    for rec, ref in zip(untimed(records), untimed(unbudgeted)):
        if rec.status == "ok":
            assert rec == ref


def test_edgeless_and_single_edge_rows_trivially_pass():
    records, _ = sweep(SweepConfig(n_min=2, n_max=2, t_set=(2,)))
    by_edges = {r.edges: r for r in records}
    assert by_edges[()].cwl is True  # unit ideal
    assert by_edges[((1, 2),)].cwl is True  # power of a prime


def test_verdicts_are_decided_once_per_class(monkeypatch):
    config = SweepConfig(n_min=4, n_max=4, t_set=(1, 2))
    plain, _ = sweep(config)
    refused = canonical_edge_mask(counterexample_graph())
    graph_of_call = []
    calls = Counter()

    def recording_cover_ideal(G, t):
        graph_of_call.append((canonical_edge_mask(G), t))
        return cover_ideal(G, t)

    def stub(ideal, *args, **kwargs):
        cls, t = graph_of_call[-1]
        calls[cls, t] += 1
        if cls == refused:
            raise CapacityError("stub refusal")
        return is_componentwise_linear(ideal, *args, **kwargs)

    monkeypatch.setattr(search, "cover_ideal", recording_cover_ideal)
    monkeypatch.setattr(search, "is_componentwise_linear", stub)
    records, summary = sweep(config)

    assert len(calls) == 11 * 2 and set(calls.values()) == {1}
    assert len(records) == len(plain) == 64 * 2
    in_class = 0
    for rec, ref in zip(records, plain):
        assert rec.edges == ref.edges and rec.t == ref.t
        if canonical_edge_mask(SimpleGraph(rec.n, rec.edges)) == refused:
            in_class += 1
            assert rec.status == "skipped: capacity (stub refusal)"
            assert (rec.cwl, rec.failing_degree, rec.generator_count) == (None, None, None)
        else:
            assert (rec.cwl, rec.failing_degree, rec.generator_count, rec.status) == (
                ref.cwl, ref.failing_degree, ref.generator_count, ref.status)
    assert in_class == 6 * 2
    assert summary["per_t"]["2"]["skipped"] == 6


def test_n5_sweep_output_is_frozen(capsys):
    # sha256 of the output of the earlier sweep that decided every labelled
    # graph on its own
    text = search_output(capsys, "--n", "5", "--t", "1,2", "--no-timing")
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "de526e91ba69a88997760df8b41d4ac90bce43c798a176646f96aae9c901ac6b"
    )


def test_default_row_budget_skips_no_small_row():
    # The default is the largest row count over n <= 5, t <= 4 (the star
    # K_{1,4} at t = 4); n = 6 at t <= 2 stays below it (the star K_{1,5} at
    # t = 2 builds 3,130).  Counting needs no Betti table.
    def built(n, t):
        slots = search._edge_slots(n)
        for least in set(search._least_in_orbit(n)):
            ideal = cover_ideal(search._graph_from_mask(n, least, slots), t)
            yield sum(
                len(ideal.component(d).generators)
                for d in range(ideal.min_degree(), ideal.max_degree() + 1)
            )

    assert max(c for n in range(1, 6) for t in range(1, 5) for c in built(n, t)) == (
        search.ROW_BUDGET
    )
    assert max(c for t in (1, 2) for c in built(6, t)) == 3130
