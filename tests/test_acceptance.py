"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Criterion 8's componentwise exchange claim is genuinely false for complete
graphs on 4 vertices at orders t >= 2 (see the frozen falsifying witnesses in
test_quotients.py); that criterion reports FAIL honestly.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout
from itertools import combinations
from operator import add

from coverideals.cli import main
from coverideals.graphs import (
    SimpleGraph,
    complete_graph,
    counterexample_graph,
    cover_ideal,
    knt_closed_form,
    minimal_t_covers,
    theorem_order,
)
from coverideals.monomials import Monomial, MonomialIdeal, _colon, minimalize, parse_monomial
from coverideals.resolution import (
    RATIONALS,
    FieldChoice,
    betti_table,
    is_componentwise_linear,
    koszul_betti,
    linear_quotients_check,
    polymatroidal_check,
    taylor_strand_betti,
)
from coverideals.search import SweepConfig, canonical_edge_mask, sweep, to_jsonl

F2 = FieldChoice(2)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def _cli_json(*argv) -> dict:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv) + ["--format", "json"])
    return code, json.loads(buf.getvalue())


def _family(n: int, low: int, high: int) -> set:
    out = set()
    for j in range(n):
        e = [high] * n
        e[j] = low
        out.add(tuple(e))
    return out


def test_criterion_1_generator_sets():
    checks = []

    t0 = time.perf_counter()
    _, data = _cli_json("gens", "--counterexample", "--t", "1")
    checks.append(
        (set(data["generators"]) == {"x2*x3", "x1*x2*x4", "x1*x3*x4"},
         time.perf_counter() - t0)
    )

    t0 = time.perf_counter()
    _, data = _cli_json("gens", "--counterexample", "--t", "2")
    checks.append(
        (set(data["generators"])
         == {"x2^2*x3^2", "x1*x2*x3*x4", "x1^2*x2^2*x4^2", "x1^2*x3^2*x4^2"},
         time.perf_counter() - t0)
    )

    t0 = time.perf_counter()
    _, data = _cli_json("gens", "--complete", "12", "--t", "5")
    got = {tuple(parse_monomial(s, 12).exponents) for s in data["generators"]}
    expected = _family(12, 2, 3) | _family(12, 1, 4) | _family(12, 0, 5)
    checks.append((len(got) == 36 and got == expected, time.perf_counter() - t0))

    t0 = time.perf_counter()
    _, data = _cli_json("gens", "--complete", "5", "--t", "6")
    got = {tuple(parse_monomial(s, 5).exponents) for s in data["generators"]}
    expected = {(3,) * 5} | _family(5, 2, 4) | _family(5, 1, 5) | _family(5, 0, 6)
    checks.append((len(got) == 16 and got == expected, time.perf_counter() - t0))

    ok = all(c for c, _ in checks) and all(dt < 5.0 for _, dt in checks)
    _report(1, ok, f"four generator sets exact, times {[f'{dt:.2f}s' for _, dt in checks]}")
    assert ok


def test_criterion_2_closed_form_vs_brute_force():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 4, 5):
        for t in (1, 2, 3, 4, 5, 6):
            K = complete_graph(n)
            closed = knt_closed_form(n, t)
            scan = MonomialIdeal(n, [Monomial(v) for v in minimal_t_covers(K, t)])
            inter = cover_ideal(K, t)
            m, odd = divmod(t, 2)
            expected_count = n * (m + 1) if odd else 1 + n * m
            ok &= closed == scan == inter
            ok &= len(closed.generators) == expected_count
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    _report(2, ok, f"18-point grid, three routes agree, {elapsed:.1f}s")
    assert ok


def test_criterion_3_linear_quotient_certificates():
    t0 = time.perf_counter()
    ok = all(
        linear_quotients_check(theorem_order(n, t)).ok
        for n in (3, 4, 5)
        for t in (1, 2, 3, 4, 5, 6)
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _report(3, ok, f"quotient listings certified on the grid, {elapsed:.1f}s")
    assert ok


def test_criterion_4_cwl_verdicts_over_rationals():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (3, 4):
        for t in (1, 2, 3):
            rep = is_componentwise_linear(cover_ideal(complete_graph(n), t), RATIONALS)
            ok &= rep.overall
            details.append(f"K_{n}^({t}):{rep.overall}")
    rep = is_componentwise_linear(cover_ideal(counterexample_graph(), 1), RATIONALS)
    ok &= rep.overall
    details.append(f"I4^(1):{rep.overall}")
    for t in (2, 3):
        ideal = cover_ideal(counterexample_graph(), t)
        rep = is_componentwise_linear(ideal, RATIONALS)
        failing_at_2t = (not rep.overall) and rep.failing_degree() == 2 * t
        table = betti_table(ideal.component(2 * t), RATIONALS)
        beta1 = {j: r for (i, j), r in table.coarse.items() if i == 1}
        strictly_above = beta1.get(2 * t + 1, 0) == 0 and any(
            j >= 2 * t + 2 for j in beta1
        )
        ok &= failing_at_2t and strictly_above
        details.append(f"I4^({t}):fail@{rep.failing_degree()},beta1@{sorted(beta1)}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 600.0
    _report(4, ok, f"{'; '.join(details)}; {elapsed:.1f}s")
    assert ok


def _criteria_ideal_corpus():
    """Every ideal named in criteria 1-4, including visited components."""
    named = [
        cover_ideal(counterexample_graph(), 1),
        cover_ideal(counterexample_graph(), 2),
        cover_ideal(counterexample_graph(), 3),
        knt_closed_form(12, 5),
        knt_closed_form(5, 6),
    ]
    for n in (3, 4, 5):
        for t in (1, 2, 3, 4, 5, 6):
            named.append(knt_closed_form(n, t))
    components = []
    for n in (3, 4):
        for t in (1, 2, 3):
            I = cover_ideal(complete_graph(n), t)
            for d in range(I.min_degree(), I.max_degree() + 1):
                components.append(I.component(d))
    for t in (1, 2, 3):
        I = cover_ideal(counterexample_graph(), t)
        for d in range(I.min_degree(), I.max_degree() + 1):
            components.append(I.component(d))
    seen = set()
    corpus = []
    for I in named + components:
        key = (I.nvars, I.generators)
        if key not in seen:
            seen.add(key)
            corpus.append(I)
    return corpus


def test_criterion_5_engine_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for I in _criteria_ideal_corpus():
        if len(I.generators) > 14:
            continue
        ok &= taylor_strand_betti(I) == koszul_betti(I)
        checked += 1
    rng = random.Random(6021023)
    for _ in range(50):
        n = rng.randint(1, 4)
        gens = [
            Monomial(tuple(rng.randint(0, 3) for _ in range(n)))
            for _ in range(rng.randint(1, 6))
        ]
        I = MonomialIdeal(n, gens)
        ok &= taylor_strand_betti(I) == koszul_betti(I)
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    _report(5, ok, f"{checked} ideals, multigraded tables identical, {elapsed:.1f}s")
    assert ok


def member(I, m):
    """m lies in I: some generator divides it."""
    return any(g.divides(m) for g in I.generators)


def test_criterion_6_property_suites():
    rng = random.Random(314159)
    ok = True

    def random_ideal():
        n = rng.randint(1, 4)
        return (
            MonomialIdeal(
                n,
                [
                    Monomial(tuple(rng.randint(0, 4) for _ in range(n)))
                    for _ in range(rng.randint(0, 6))
                ],
            ),
            n,
        )

    # minimalize idempotence
    for _ in range(60):
        I, n = random_ideal()
        ok &= minimalize(n, I.generators) == I

    # intersection membership law, for the intersection of the <x_u, x_v>^t
    # that cover_ideal computes: m is in it iff m_u + m_v >= t on every edge
    for _ in range(60):
        n = rng.randint(2, 5)
        G = SimpleGraph(n, [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.5])
        t = rng.randint(1, 3)
        m = Monomial(tuple(rng.randint(0, 4) for _ in range(n)))
        ok &= member(cover_ideal(G, t), m) == all(
            m.exponents[u - 1] + m.exponents[v - 1] >= t for u, v in G.edges)

    # colon membership law: m is in I : f iff m*f is in I
    for _ in range(60):
        I, n = random_ideal()
        m = Monomial(tuple(rng.randint(0, 6) for _ in range(n)))
        f = Monomial(tuple(rng.randint(0, 3) for _ in range(n)))
        colon = MonomialIdeal(n, _colon(I.generators, f))
        ok &= member(colon, m) == member(I, Monomial(tuple(map(add, m.exponents, f.exponents))))

    # beta_0 equals the generator degree histogram, both engines
    corpus = [
        cover_ideal(counterexample_graph(), 2),
        cover_ideal(complete_graph(4), 3),
        cover_ideal(complete_graph(3), 4),
    ]
    for I in corpus:
        hist = {}
        for g in I.generators:
            hist[g.degree] = hist.get(g.degree, 0) + 1
        for table in (taylor_strand_betti(I), koszul_betti(I)):
            ok &= {j: r for (i, j), r in table.coarse.items() if i == 0} == hist

    # permutation equivariance
    for _ in range(12):
        I, n = random_ideal()
        if I.is_zero():
            continue
        perm = list(range(n))
        rng.shuffle(perm)
        J = MonomialIdeal(
            n,
            [
                Monomial(tuple(g.exponents[perm[i]] for i in range(n)))
                for g in I.generators
            ],
        )
        tI, tJ = taylor_strand_betti(I), taylor_strand_betti(J)
        mapped = {
            (i, tuple(a[perm[k]] for k in range(n))): r
            for (i, a), r in tI.multigraded.items()
        }
        ok &= mapped == tJ.multigraded and tI.coarse == tJ.coarse

    # rationals vs GF(2) on the reference corpus
    for t in (1, 2, 3):
        for base in (
            cover_ideal(counterexample_graph(), t),
            cover_ideal(complete_graph(3), t),
            cover_ideal(complete_graph(4), t),
        ):
            for d in range(base.min_degree(), base.max_degree() + 1):
                comp = base.component(d)
                ok &= betti_table(comp, RATIONALS) == betti_table(comp, F2)

    # subset-complex first-syzygy lower bound, equality at the 2t components
    for t in (2, 3):
        comp = cover_ideal(counterexample_graph(), t).component(2 * t)
        # total degrees of the generator pairs' lcms, the subset complex's
        # first-syzygy slots
        degs = [sum(map(max, f.exponents, g.exponents))
                for f, g in combinations(comp.generators, 2)]
        table = taylor_strand_betti(comp)
        beta1 = [j for (i, j) in table.coarse if i == 1]
        ok &= min(beta1) == min(degs) and min(degs) >= 2 * t + 2

    _report(6, ok, "minimalize/membership laws, beta_0, equivariance, F2, syzygy bound")
    assert ok


def test_criterion_7_sweep_reproduction():
    t0 = time.perf_counter()
    ok = True

    cfg1 = SweepConfig(n_min=1, n_max=4, t_set=(1,), chordal_only=True)
    rec1, sum1 = sweep(cfg1)
    ok &= sum1["per_t"]["1"]["cwl_fail"] == 0
    rec1b, sum1b = sweep(cfg1)
    ok &= to_jsonl(rec1, sum1, include_timing=False) == to_jsonl(
        rec1b, sum1b, include_timing=False
    )

    cfg2 = SweepConfig(n_min=4, n_max=4, t_set=(2,), chordal_only=True)
    rec2, sum2 = sweep(cfg2)
    target = tuple(counterexample_graph().edge_list())
    ok &= any(r.edges == target and r.cwl is False for r in rec2)
    rec2b, sum2b = sweep(cfg2)
    ok &= to_jsonl(rec2, sum2, include_timing=False) == to_jsonl(
        rec2b, sum2b, include_timing=False
    )

    cfg3 = SweepConfig(n_min=3, n_max=5, t_set=(1, 2, 3), complete_only=True)
    rec3, sum3 = sweep(cfg3)
    ok &= all(r.cwl for r in rec3)
    rec3b, sum3b = sweep(cfg3)
    ok &= to_jsonl(rec3, sum3, include_timing=False) == to_jsonl(
        rec3b, sum3b, include_timing=False
    )

    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 900.0
    _report(
        7,
        ok,
        f"chordal t=1 all pass; counterexample found at t=2; complete graphs "
        f"pass t<=3; byte-identical reruns; {elapsed:.1f}s",
    )
    assert ok


def test_criterion_8_polymatroidal_exchange():
    t0 = time.perf_counter()
    witnesses = []
    for n in (3, 4):
        for t in (1, 2, 3, 4):
            I = cover_ideal(complete_graph(n), t)
            for d in range(I.min_degree(), I.max_degree() + 1):
                holds, witness = polymatroidal_check(I.component(d))
                if not holds:
                    u, v, i = witness
                    witnesses.append((n, t, d, u.exponents, v.exponents, i))
    components_ok = not witnesses

    squares = MonomialIdeal(2, [Monomial((2, 0)), Monomial((0, 2))])
    holds, witness = polymatroidal_check(squares)
    rejects_squares = (not holds) and witness is not None

    elapsed = time.perf_counter() - t0
    ok = components_ok and rejects_squares and elapsed < 60.0
    detail = (
        f"squares rejected: {rejects_squares}; exchange on all components: "
        f"{components_ok}"
    )
    if witnesses:
        detail += f"; falsifying witnesses {witnesses[:2]}... ({len(witnesses)} total)"
    _report(8, ok, detail + f"; {elapsed:.1f}s")
    assert rejects_squares
    assert components_ok, (
        "the componentwise exchange condition is genuinely false for complete "
        f"graphs on 4 vertices at t >= 2; independently verified witnesses: {witnesses}"
    )
