import random
from itertools import combinations, permutations
from operator import le

import pytest
from hypothesis import given, settings, strategies as st

from coverideals import search
from coverideals.errors import CapacityError
from coverideals.graphs import (
    SimpleGraph,
    complete_graph,
    counterexample_graph,
    cover_ideal,
    knt_closed_form,
    minimal_t_covers,
    parse_graph,
    theorem_order,
)
from coverideals.monomials import MonomialIdeal, _deglex_key


def scan_ideal(G, t):
    """The cover ideal generated by the t-cover scan, the oracle for
    ``cover_ideal``."""
    return MonomialIdeal(G.nvertices, minimal_t_covers(G, t))


def chordless_cycle_exists(G):
    """Brute oracle: some vertex subset of size >= 4 induces a cycle."""
    verts = range(1, G.nvertices + 1)
    for k in range(4, G.nvertices + 1):
        for sub in combinations(verts, k):
            induced = [(u, v) for u, v in G.edges if u in sub and v in sub]
            if len(induced) != k:
                continue
            deg = {v: 0 for v in sub}
            for u, v in induced:
                deg[u] += 1
                deg[v] += 1
            if any(d != 2 for d in deg.values()):
                continue
            # 2-regular with k edges on k vertices: cycle iff connected
            adj = {v: set() for v in sub}
            for u, v in induced:
                adj[u].add(v)
                adj[v].add(u)
            seen, stack = {sub[0]}, [sub[0]]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) == k:
                return True
    return False


# ---------------------------------------------------------------------------
# graph basics

def test_graph_normalizes_and_validates():
    G = SimpleGraph(3, [(2, 1), (3, 2)])
    assert G.edge_list() == [(1, 2), (2, 3)]
    with pytest.raises(ValueError):
        SimpleGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        SimpleGraph(3, [(1, 4)])
    with pytest.raises(ValueError):
        SimpleGraph(0)


def test_complete_graph_edge_counts():
    assert len(complete_graph(3).edges) == 3
    assert len(complete_graph(5).edges) == 10
    assert len(complete_graph(1).edges) == 0
    with pytest.raises(ValueError):
        complete_graph(0)


def test_counterexample_graph_shape():
    G = counterexample_graph()
    assert G.nvertices == 4
    assert G.edge_list() == [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]
    assert [len(G.adjacency()[v]) for v in range(1, 5)] == [2, 3, 3, 2]


# ---------------------------------------------------------------------------
# chordality

def test_four_cycle_is_not_chordal():
    ok, peo = SimpleGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)]).is_chordal()
    assert not ok and peo is None


def assert_perfect_elimination_order(G, peo):
    """Every vertex once, and each vertex's later neighbours form a clique."""
    assert sorted(peo) == list(range(1, G.nvertices + 1))
    adj = G.adjacency()
    pos = {v: i for i, v in enumerate(peo)}
    for v in peo:
        later = [w for w in adj[v] if pos[w] > pos[v]]
        for a, b in combinations(later, 2):
            assert (min(a, b), max(a, b)) in G.edges, (G, peo)


def test_counterexample_is_chordal_with_witness():
    ok, peo = counterexample_graph().is_chordal()
    assert ok
    assert_perfect_elimination_order(counterexample_graph(), peo)


def test_complete_graphs_are_chordal():
    for n in range(1, 7):
        assert complete_graph(n).is_chordal()[0]


def test_chordality_agrees_with_bruteforce_up_to_six_vertices():
    for n in range(1, 7):
        slots = list(combinations(range(1, n + 1), 2))
        for mask in range(1 << len(slots)):
            G = SimpleGraph(n, [e for k, e in enumerate(slots) if mask >> k & 1])
            ok, peo = G.is_chordal()
            assert ok == (not chordless_cycle_exists(G)), (n, mask)
            if ok:
                assert_perfect_elimination_order(G, peo)
            else:
                assert peo is None


# ---------------------------------------------------------------------------
# covers

def test_minimal_vertex_covers_triangle_and_path():
    assert minimal_t_covers(complete_graph(3), 1) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    path = SimpleGraph(3, [(1, 2), (2, 3)])
    assert minimal_t_covers(path, 1) == [(0, 1, 0), (1, 0, 1)]
    assert minimal_t_covers(SimpleGraph(2), 1) == [(0, 0)]


def test_minimal_vertex_covers_counterexample():
    covers = minimal_t_covers(counterexample_graph(), 1)
    assert covers == [(0, 1, 1, 0), (1, 0, 1, 1), (1, 1, 0, 1)]


def test_minimal_t_covers_k3_t2():
    assert minimal_t_covers(complete_graph(3), 2) == [
        (0, 2, 2), (1, 1, 1), (2, 0, 2), (2, 2, 0)
    ]


def test_minimal_t_covers_counterexample_t2():
    assert minimal_t_covers(counterexample_graph(), 2) == [
        (0, 2, 2, 0), (1, 1, 1, 1), (2, 0, 2, 2), (2, 2, 0, 2)
    ]


def test_t_cover_minimality_is_pointwise():
    G = counterexample_graph()
    adj = G.adjacency()
    for t in (1, 2, 3):
        for cov in minimal_t_covers(G, t):
            for v in range(1, 5):
                assert all(cov[v - 1] + cov[w - 1] >= t for w in adj[v])
            assert any(
                cov[v - 1] > 0
                and any(cov[v - 1] - 1 + cov[w - 1] < t for w in adj[v])
                for v in range(1, 5)
                if cov[v - 1] > 0
            ) or all(c == 0 for c in cov)


def test_capping_above_t_is_lossless():
    # any t-cover capped at t is again a t-cover dividing it
    import random

    rng = random.Random(2718)
    G = counterexample_graph()
    adj = G.adjacency()
    for t in (1, 2, 3):
        found = 0
        while found < 40:
            vec = [rng.randint(0, 2 * t) for _ in range(4)]
            if all(
                vec[u - 1] + vec[v - 1] >= t for u in range(1, 5) for v in adj[u]
            ):
                found += 1
                capped = [min(e, t) for e in vec]
                assert all(c <= e for c, e in zip(capped, vec))
                assert all(
                    capped[u - 1] + capped[v - 1] >= t
                    for u in range(1, 5)
                    for v in adj[u]
                )


def _agreement_graphs():
    """One graph per isomorphism class on 1-6 vertices, then 20 seeded graphs
    on 7 vertices."""
    for n in range(1, 7):
        slots = search._edge_slots(n)
        for least in sorted(set(search._least_in_orbit(n))):
            yield search._graph_from_mask(n, least, slots)
    rng = random.Random(7)
    pairs = list(combinations(range(1, 8), 2))
    for _ in range(20):
        yield SimpleGraph(7, [e for e in pairs if rng.random() < 0.4])


def test_t_cover_methods_agree():
    # the intersection lists its generators in deglex order, and they must
    # be the scan's minimal t-covers in that order
    for G in _agreement_graphs():
        for t in (1, 2, 3):
            generators = cover_ideal(G, t).generators
            assert generators == tuple(sorted(minimal_t_covers(G, t), key=_deglex_key)), (G, t)


def test_scan_capacity_guard():
    with pytest.raises(CapacityError):
        minimal_t_covers(complete_graph(12), 5)


# ---------------------------------------------------------------------------
# ideals from graphs

def test_cover_ideal_counterexample_displays():
    G = counterexample_graph()
    I1 = cover_ideal(G, 1)
    assert set(I1.generators) == {(0, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1)}
    I2 = cover_ideal(G, 2)
    assert set(I2.generators) == {
        (0, 2, 2, 0), (1, 1, 1, 1), (2, 2, 0, 2), (2, 0, 2, 2)
    }


def test_cover_ideal_counterexample_t3_frozen():
    # frozen from the brute scan over {0..3}^4
    I3 = cover_ideal(counterexample_graph(), 3)
    assert set(I3.generators) == {
        (0, 3, 3, 0), (1, 2, 2, 1), (2, 1, 2, 2), (2, 2, 1, 2),
        (3, 0, 3, 3), (3, 3, 0, 3),
    }


def test_cover_ideal_of_edgeless_graph_is_unit():
    assert cover_ideal(SimpleGraph(3), 2) == MonomialIdeal.unit(3)


def test_cover_ideal_methods_agree_k3_t2():
    G = complete_graph(3)
    assert cover_ideal(G, 2) == scan_ideal(G, 2)
    expected = {(1, 1, 1), (0, 2, 2), (2, 0, 2), (2, 2, 0)}
    assert set(cover_ideal(G, 2).generators) == expected


def test_cover_ideal_of_two_edge_path():
    # <x1, x2> ∩ <x1, x3> = <x1, x2x3>
    I = cover_ideal(SimpleGraph(3, [(1, 2), (1, 3)]), 1)
    assert I.generators == ((1, 0, 0), (0, 1, 1))


graphs_2_to_5 = st.integers(2, 5).flatmap(lambda n: st.builds(
    SimpleGraph, st.just(n), st.lists(st.sampled_from(list(combinations(range(1, n + 1), 2))))))


@given(graphs_2_to_5, st.sampled_from((1, 2, 3)), st.lists(st.integers(0, 4), min_size=5, max_size=5))
@settings(max_examples=150)
def test_cover_ideal_membership_law(G, t, exps):
    # m lies in the intersection of the <x_u, x_v>^t exactly when it lies in
    # each of them, that is when m_u + m_v >= t on every edge
    m = exps[: G.nvertices]
    in_ideal = any(all(map(le, g, m)) for g in cover_ideal(G, t).generators)
    assert in_ideal == all(m[u - 1] + m[v - 1] >= t for u, v in G.edges)


def relabel(G, perm):
    """G with each vertex v renamed perm[v-1]."""
    return SimpleGraph(G.nvertices, [(perm[a - 1], perm[b - 1]) for a, b in G.edges])


def test_cover_ideal_invariant_under_relabelling():
    G = counterexample_graph()
    for perm in permutations(range(1, 5)):
        H = relabel(G, perm)
        I, J = cover_ideal(G, 2), cover_ideal(H, 2)
        relabelled = {
            tuple(e[perm.index(v + 1)] for v in range(4)) for e in I.generators
        }
        assert relabelled == set(J.generators)


# ---------------------------------------------------------------------------
# closed form

def test_closed_form_matches_brute_force_small():
    for n in (3, 4, 5):
        for t in (1, 2, 3, 4, 5, 6, 7):
            K = complete_graph(n)
            closed = knt_closed_form(n, t)
            assert closed == scan_ideal(K, t), (n, t)
            assert closed == cover_ideal(K, t), (n, t)


def test_closed_form_generator_counts():
    # n(m+1) generators at t = 2m+1, 1 + nm at t = 2m
    for n in (3, 4, 5):
        for m in (1, 2, 3):
            assert len(knt_closed_form(n, 2 * m + 1).generators) == n * (m + 1)
            assert len(knt_closed_form(n, 2 * m).generators) == 1 + n * m


def test_closed_form_rejects_small_n():
    with pytest.raises(ValueError):
        knt_closed_form(2, 3)


def test_k12_t5_families():
    I = knt_closed_form(12, 5)
    assert len(I.generators) == 36
    fams = {2: set(), 1: set(), 0: set()}
    for j in range(12):
        for low, high in ((2, 3), (1, 4), (0, 5)):
            e = [high] * 12
            e[j] = low
            fams[low].add(tuple(e))
    assert set(I.generators) == fams[2] | fams[1] | fams[0]


def test_k5_t6_families():
    I = knt_closed_form(5, 6)
    assert len(I.generators) == 16
    expected = {(3, 3, 3, 3, 3)}
    for j in range(5):
        for low, high in ((2, 4), (1, 5), (0, 6)):
            e = [high] * 5
            e[j] = low
            expected.add(tuple(e))
    assert set(I.generators) == expected


def test_theorem_order_rows():
    assert theorem_order(3, 2) == [
        (1, 1, 1), (0, 2, 2), (2, 0, 2), (2, 2, 0)
    ]
    assert theorem_order(3, 3) == [
        (1, 2, 2), (2, 1, 2), (2, 2, 1), (0, 3, 3), (3, 0, 3), (3, 3, 0)
    ]
    for t in (2, 4, 6):
        m = t // 2
        assert theorem_order(4, t)[0] == (m,) * 4


def test_theorem_order_is_deglex_sorted():
    for n in (3, 4, 5):
        for t in (1, 2, 3, 4, 5, 6):
            order = theorem_order(n, t)
            assert order == sorted(order, key=_deglex_key), (n, t)


# ---------------------------------------------------------------------------
# file format

def test_graph_file_roundtrip():
    # the counterexample graph written out by hand, edges in edge_list order
    text = "graph 4\n1 2\n1 3\n2 3\n2 4\n3 4\n"
    G = parse_graph(text)
    assert G == counterexample_graph()
    assert [f"{u} {v}" for u, v in G.edge_list()] == text.splitlines()[1:]


def test_parse_graph_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_graph("4\n1 2\n")
