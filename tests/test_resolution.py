import json
import random
import tracemalloc
from collections import defaultdict
from bisect import bisect_right
from itertools import accumulate, combinations, compress, count, groupby, permutations, product
from math import comb, prod
from operator import attrgetter, itemgetter, le, ne, or_

import pytest
from hypothesis import given, settings, strategies as st

from coverideals import resolution, search
from coverideals.cli import main
from coverideals.errors import CapacityError, NotEquigeneratedError
from coverideals.graphs import (
    SimpleGraph,
    complete_graph,
    counterexample_graph,
    cover_ideal,
)
from coverideals.linalg import matrix_rank
from coverideals.monomials import EXPONENT_CAP, MonomialIdeal
from coverideals.resolution import (
    BOX_CAP,
    RATIONALS,
    TAYLOR_CAP,
    CwlReport,
    DegreeVerdict,
    FieldChoice,
    betti_table,
    find_linear_quotient_order,
    has_linear_resolution,
    is_componentwise_linear,
    koszul_betti,
    lcm_lattice,
    parse_field,
    simplicial_homology_ranks,
    taylor_strand_betti,
)
from test_linalg import reference_rank

F2 = FieldChoice(2)


def ideal(n, *exps):
    return MonomialIdeal(n, exps)


def random_small_ideal(rng):
    n = rng.randint(1, 4)
    gens = [
        tuple(rng.randint(0, 3) for _ in range(n))
        for _ in range(rng.randint(1, 6))
    ]
    return MonomialIdeal(n, gens)


def _degree_d_monomials(n, d):
    if n == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in _degree_d_monomials(n - 1, d - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# fields

def test_field_choice_validation():
    assert FieldChoice(2).label == "F2"
    assert RATIONALS.label == "Q"
    with pytest.raises(ValueError, match="^4 is not prime$"):
        FieldChoice(4)
    with pytest.raises(ValueError, match="^1 is not prime$"):
        FieldChoice(1)
    with pytest.raises(ValueError, match=r"^field size 2147483648 is not below 2\^31$"):
        FieldChoice(p=1 << 31)
    with pytest.raises(ValueError, match="^4 is not prime$"):
        FieldChoice(3)._replace(p=4)
    with pytest.raises(TypeError, match="^'float' object cannot be interpreted as an integer$"):
        FieldChoice(3.0)
    with pytest.raises(TypeError, match="^'str' object cannot be interpreted as an integer$"):
        FieldChoice("3")


def test_records_are_hashable_immutable_values():
    assert FieldChoice() == RATIONALS and FieldChoice(p=3) == FieldChoice(3)
    assert {FieldChoice(3): "F3", RATIONALS: "Q"}[FieldChoice(3)] == "F3"
    assert repr(FieldChoice(3)) == "FieldChoice(p=3)"
    verdict = DegreeVerdict(4, "not linear", (1, 6))
    assert DegreeVerdict(2, "linear").offending is None
    report = CwlReport((verdict,), False)
    assert report == CwlReport((DegreeVerdict(4, "not linear", (1, 6)),), False)
    assert hash(report) == hash(CwlReport((verdict,), False, False))
    assert (report.vacuous, report.failing_degree()) == (False, 4)
    quotients = resolution.linear_quotients_check([(1, 0), (0, 1)])
    assert quotients == resolution.QuotientsResult(True, (((1, 0),),))
    for record, name in ((RATIONALS, "p"), (verdict, "status"), (report, "overall"),
                         (quotients, "ok")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_parse_field():
    assert parse_field("Q") == RATIONALS
    assert parse_field("2") == F2
    assert parse_field("F7") == FieldChoice(7)


# ---------------------------------------------------------------------------
# homology

def test_homology_empty_complex():
    assert simplicial_homology_ranks([[]]) == [1]


def test_homology_void_complex():
    assert simplicial_homology_ranks([]) == []


def test_homology_circle():
    ranks = simplicial_homology_ranks([[1], [2], [3], [1, 2], [1, 3], [2, 3]])
    assert ranks == [0, 0, 1]


def test_homology_full_simplex_contractible():
    faces = [list(f) for r in range(1, 4) for f in combinations([1, 2, 3], r)]
    assert simplicial_homology_ranks(faces) == [0, 0, 0, 0]


def test_homology_two_points():
    assert simplicial_homology_ranks([[1], [2]]) == [0, 1]


def test_homology_vertex_labels_need_not_be_consecutive():
    assert simplicial_homology_ranks([[3], [10]]) == [0, 1]
    circle = [[3], [7], [10], [3, 7], [3, 10], [7, 10]]
    assert simplicial_homology_ranks(circle) == [0, 0, 1]
    assert simplicial_homology_ranks(circle + [[3, 7, 10]], F2) == [0, 0, 0, 0]


def test_homology_rejects_open_families():
    for faces in (
        [[1, 2]],  # vertices missing
        [[1, 2, 3], [1, 2], [1, 3], [2, 3]],  # triangle and edges, no vertices
        [[1, 2, 3], [1, 2], [1, 3], [1], [2], [3]],  # edge 23 missing
    ):
        with pytest.raises(ValueError):
            simplicial_homology_ranks(faces)


def test_homology_sphere_mod2_and_rationals_agree():
    # boundary of the 3-simplex: a 2-sphere
    faces = [list(f) for r in range(1, 4) for f in combinations([1, 2, 3, 4], r)]
    assert simplicial_homology_ranks(faces) == [0, 0, 0, 1]
    assert simplicial_homology_ranks(faces, F2) == [0, 0, 0, 1]


# ---------------------------------------------------------------------------
# Betti engines: frozen values

def test_taylor_two_variables():
    table = taylor_strand_betti(ideal(2, (1, 0), (0, 1)))
    assert table.multigraded == {(0, (1, 0)): 1, (0, (0, 1)): 1, (1, (1, 1)): 1}


def test_taylor_two_generator_counterexample_component():
    table = taylor_strand_betti(ideal(4, (0, 2, 2, 0), (1, 1, 1, 1)))
    assert table.multigraded == {
        (0, (0, 2, 2, 0)): 1,
        (0, (1, 1, 1, 1)): 1,
        (1, (1, 2, 2, 1)): 1,
    }
    assert table.coarse == {(0, 4): 2, (1, 6): 1}


def test_taylor_counterexample_t1_table():
    # frozen via an independent subset-complex computation
    table = taylor_strand_betti(ideal(4, (0, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1)))
    assert table.multigraded == {
        (0, (0, 1, 1, 0)): 1,
        (0, (1, 1, 0, 1)): 1,
        (0, (1, 0, 1, 1)): 1,
        (1, (1, 1, 1, 1)): 2,
    }


def test_taylor_counterexample_t2_table():
    table = taylor_strand_betti(
        ideal(4, (0, 2, 2, 0), (1, 1, 1, 1), (2, 2, 0, 2), (2, 0, 2, 2))
    )
    assert table.coarse == {(0, 4): 2, (0, 6): 2, (1, 6): 1, (1, 7): 2}


def test_taylor_k32_component4_table():
    table = taylor_strand_betti(
        ideal(3, (2, 1, 1), (1, 2, 1), (1, 1, 2), (0, 2, 2), (2, 0, 2), (2, 2, 0))
    )
    assert table.coarse == {(0, 4): 6, (1, 5): 6, (2, 6): 1}


def test_taylor_i42_component5_coarse():
    comp = cover_ideal(counterexample_graph(), 2).component(5)
    table = taylor_strand_betti(comp)
    assert table.coarse == {(0, 5): 8, (1, 6): 13, (2, 7): 8, (3, 8): 2}


def generator_histogram(table):
    """Degree -> number of minimal generators, read from row i=0."""
    return {j: r for (i, j), r in table.coarse.items() if i == 0}


def test_taylor_cap():
    # degree-9 component of the order-3 cover ideal: 32 generators in 4 vars
    I = cover_ideal(complete_graph(4), 3).component(9)
    assert len(I.generators) > 14
    with pytest.raises(CapacityError):
        taylor_strand_betti(I)
    table = koszul_betti(I)  # the scalable engine still runs
    assert generator_histogram(table) == {9: len(I.generators)}


def test_beta_zero_counts_generators_by_degree():
    for I in (
        cover_ideal(counterexample_graph(), 2),
        cover_ideal(complete_graph(4), 3),
    ):
        hist = {}
        for g in I.generators:
            hist[sum(g)] = hist.get(sum(g), 0) + 1
        for table in (taylor_strand_betti(I), koszul_betti(I)):
            assert generator_histogram(table) == hist


def test_zero_and_unit_ideal_tables():
    assert taylor_strand_betti(MonomialIdeal(2)).multigraded == {}
    assert koszul_betti(MonomialIdeal(2)).multigraded == {}
    unit = MonomialIdeal.unit(3)
    assert taylor_strand_betti(unit).multigraded == {(0, (0, 0, 0)): 1}
    assert koszul_betti(unit).multigraded == {(0, (0, 0, 0)): 1}


def test_lcm_lattice_small():
    I = ideal(2, (1, 0), (0, 1))
    assert lcm_lattice(I) == [(0, 1), (1, 0), (1, 1)]


def test_divisor_box_cap_raises_before_allocating():
    # x1, ..., xn with 2^n > BOX_CAP: each axis compresses to {0, 1}.  The
    # check precedes the fill, so refusing this box stays cheap.
    n = BOX_CAP.bit_length()
    I = MonomialIdeal(
        n, [tuple(int(i == j) for i in range(n)) for j in range(n)]
    )
    with pytest.raises(CapacityError, match="cap"):
        koszul_betti(I)
    with pytest.raises(CapacityError, match="cap"):
        lcm_lattice(I)


def test_divisor_box_of_exactly_box_cap_cells_is_accepted():
    # x1 * ... * x21 spans 2^21 = BOX_CAP cells: the cap refuses only past it
    assert lcm_lattice(MonomialIdeal(21, [(1,) * 21])) == [(1,) * 21]


# ---------------------------------------------------------------------------
# engine agreement

def test_engines_agree_on_named_ideals():
    instances = [
        cover_ideal(counterexample_graph(), 1),
        cover_ideal(counterexample_graph(), 2),
        cover_ideal(counterexample_graph(), 3),
        cover_ideal(complete_graph(3), 2),
        cover_ideal(complete_graph(4), 3),
        cover_ideal(counterexample_graph(), 2).component(4),
        cover_ideal(complete_graph(3), 2).component(4),
    ]
    for I in instances:
        assert taylor_strand_betti(I) == koszul_betti(I)


def test_engines_agree_on_seeded_random_ideals():
    rng = random.Random(6021023)
    for _ in range(50):
        I = random_small_ideal(rng)
        t = taylor_strand_betti(I)
        k = koszul_betti(I)
        assert t == k, I
    # equigenerated ideals of 11-14 generators in 4-5 variables, where most
    # acyclic Taylor strata are cones on a generator that reaches the lcm on
    # some axis
    for n, d, g in ((4, 3, 11), (5, 4, 12), (4, 5, 13), (5, 3, 14), (4, 4, 14), (5, 5, 12)):
        I = MonomialIdeal(n, rng.sample(list(_degree_d_monomials(n, d)), g))
        for field in (RATIONALS, F2, FieldChoice(3)):
            assert taylor_strand_betti(I, field) == koszul_betti(I, field), (I, field)


def test_engines_agree_over_f2():
    rng = random.Random(401)
    for _ in range(15):
        I = random_small_ideal(rng)
        assert taylor_strand_betti(I, F2) == koszul_betti(I, F2), I


@st.composite
def gapped_ideals(draw):
    """Ideals in 1-5 variables whose exponents come from a random subset of
    0..9, so the divisor box compresses gaps; degrees are mixed."""
    n = draw(st.integers(1, 5))
    grid = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
    exps = st.tuples(*[st.sampled_from(grid)] * n)
    gens = draw(st.lists(exps, min_size=0, max_size=7))
    return MonomialIdeal(n, gens)


def _rank_f2(columns):
    """Rank over GF(2) of bitmask columns, by XOR-basis elimination."""
    basis = {}  # leading bit -> basis vector
    for v in columns:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def reference_betti_f2(I, lattice):
    """beta_{i,a} over GF(2) at each lattice point a, as reduced homology in
    dimension i-1 of the upper Koszul complex {b <= supp(a) : x^(a-b) in I},
    with membership decided by divisibility and ranks by ``_rank_f2``; it
    shares no code with either engine."""
    gens = list(I.generators)
    table = {}
    for a in lattice:
        support = [k for k, e in enumerate(a) if e]
        by_size = [[] for _ in range(len(support) + 1)]
        for r in range(len(support) + 1):
            for b in combinations(support, r):
                c = [e - (k in b) for k, e in enumerate(a)]
                if any(all(map(int.__le__, g, c)) for g in gens):
                    by_size[r].append(frozenset(b))
        row = [{f: k for k, f in enumerate(fs)} for fs in by_size]
        bd_rank = [0] * (len(by_size) + 1)
        for r in range(1, len(by_size)):
            bd_rank[r] = _rank_f2(
                sum(1 << row[r - 1][f - {v}] for v in f) for f in by_size[r]
            )
        for i, fs in enumerate(by_size):
            h = len(fs) - bd_rank[i] - bd_rank[i + 1]
            if h:
                table[(i, a)] = h
    return table


def assert_orbit_sizes_add_up(table):
    """A Koszul table's coarse entries, taken from orbit sizes before its
    orbits are expanded, are the coarse sums of the expanded table, which
    holds no zero rank."""
    summed = defaultdict(int)
    for (i, a), r in table.multigraded.items():
        assert r > 0
        summed[(i, sum(a))] += r
    assert table.coarse == summed


def assert_koszul_matches_oracles(I):
    gens = list(I.generators)
    lcms = {
        tuple(map(max, zip(*subset)))
        for r in range(1, len(gens) + 1)
        for subset in combinations(gens, r)
    }
    assert lcm_lattice(I) == sorted(lcms)
    for field in (RATIONALS, F2, FieldChoice(3)):
        table = koszul_betti(I, field)
        assert_orbit_sizes_add_up(table)
        assert table == taylor_strand_betti(I, field)
    # both engines take homology with the same routine; check it apart
    assert koszul_betti(I, F2).multigraded == reference_betti_f2(I, lcms)


@settings(derandomize=True, deadline=None)
@given(gapped_ideals())
def test_koszul_matches_taylor_and_brute_force_lattice(I):
    assert_koszul_matches_oracles(I)


# Taylor codes an lcm as one int: on each axis, the position of the exponent
# among the generators' exponents there, in unary.  Fourteen generators with
# fourteen distinct exponents on every axis, up to EXPONENT_CAP: coded by the
# exponents themselves, the lcms would need 170 and 301 bits; by positions
# they take 3 * 13 and 5 * 13.
WIDE_3 = [(3, 19, 42), (27, 30, 7), (63, 1, 0), (4, 7, 53), (21, 38, 5),
          (51, 4, 9), (10, 46, 8), (14, 44, 6), (11, 51, 2), (7, 54, 3),
          (30, 23, 11), (34, 20, 10), (43, 0, 21), (1, 36, 27)]
WIDE_5 = [(34, 17, 1, 36, 53), (62, 34, 20, 49, 10), (57, 49, 43, 46, 11),
          (36, 27, 5, 28, 54), (1, 48, 18, 38, 56), (12, 60, 19, 62, 32),
          (53, 21, 30, 26, 60), (52, 15, 51, 42, 59), (11, 16, 55, 24, 41),
          (37, 20, 11, 35, 19), (63, 36, 54, 6, 31), (35, 23, 9, 51, 22),
          (28, 13, 53, 57, 33), (64, 24, 6, 37, 42)]


def _six_variable_ideals():
    rng = random.Random(2009)
    return [
        MonomialIdeal(6, [
            tuple(rng.choice((0, 2, 3, 5, 7)) for _ in range(6))
            for _ in range(rng.randint(5, 9))
        ])
        for _ in range(6)
    ]


# I0-I17 in the ids of the tests that take them
EDGE_IDEALS = [
    MonomialIdeal.unit(1),
    MonomialIdeal.unit(4),
    MonomialIdeal(1),
    ideal(1, (3,)),
    ideal(1, (5,), (2,)),
    # x2 is in no generator: an axis of length 1 with no cell off position 0
    ideal(4, (1, 0, 2, 0), (0, 0, 1, 3), (2, 0, 0, 1)),
    ideal(6, (2, 0, 3, 1, 0, 4), (0, 0, 5, 2, 1, 1), (3, 0, 0, 0, 2, 2)),
    *_six_variable_ideals(),
    ideal(1, (EXPONENT_CAP,)),
    ideal(2, (EXPONENT_CAP, 0), (0, EXPONENT_CAP), (32, 32)),
    # x2 is in no generator and every generator has x3^2: Taylor code fields
    # of width 0, one of them off exponent 0
    ideal(4, (EXPONENT_CAP, 0, 2, 1), (0, 0, 2, 5), (7, 0, 2, 3)),
    ideal(3, *WIDE_3),
    ideal(5, *WIDE_5),
]


@pytest.mark.parametrize("I", EDGE_IDEALS)
def test_divisor_box_planes_on_edge_cases(I):
    if I.nvars == 6:  # planes of many 64-bit words, shifted by more than one
        assert resolution._DivisorBox(I).strides[0] > 64
    exps = list(I.generators)
    if len(exps) == TAYLOR_CAP:  # the WIDE ideals
        assert all(len(set(axis)) == TAYLOR_CAP for axis in zip(*exps))
        assert sum(map(max, zip(*exps))) > 64
    assert_koszul_matches_oracles(I)


def brute_force_planes(I):
    """(up, gens, member) of the divisor box cell by cell, cells numbered
    in the order ``product`` walks the grid values (the last axis fastest):
    up[i] holds the cells off the least value of axis i, gens the
    generators, member the cells some generator divides."""
    gens = list(I.generators)
    values = [sorted({0, *(e[i] for e in gens)}) for i in range(I.nvars)]
    up, gen_plane, member = [0] * I.nvars, 0, 0
    for idx, cell in enumerate(product(*values)):
        for i, x in enumerate(cell):
            if x:
                up[i] |= 1 << idx
        if cell in gens:
            gen_plane |= 1 << idx
        if any(all(e <= x for e, x in zip(g, cell)) for g in gens):
            member |= 1 << idx
    return up, gen_plane, member


def test_divisor_box_planes_match_a_per_cell_brute_force():
    rng = random.Random(2402)
    corpus = [*EDGE_IDEALS[:7], *EDGE_IDEALS[13:16]]
    for _ in range(60):
        n = rng.randint(1, 5)
        corpus.append(MonomialIdeal(n, [
            tuple(rng.randint(0, 4) for _ in range(n))
            for _ in range(rng.randint(1, 8))
        ]))
    sizes, strides = set(), set()
    for I in corpus:
        box = resolution._DivisorBox(I)
        assert (box.up, box.gens, box.member) == brute_force_planes(I), I
        sizes.add(box.size)
        strides.update(box.strides)
    # one-cell boxes (the unit and zero ideals), and planes of many 64-bit
    # words shifted by more than one
    assert 1 in sizes and max(strides) > 64


def taylor_strata(I):
    """Non-empty generator subsets, as bitmasks in ascending order, grouped
    by the exponent vector of their lcm."""
    gens = list(I.generators)
    strata = defaultdict(list)
    for mask in range(1, 1 << len(gens)):
        members = [e for k, e in enumerate(gens) if mask >> k & 1]
        strata[tuple(map(max, zip(*members)))].append(mask)
    return strata


def has_generator_apex(m, gens):
    """The skipping rule by brute force: some generator g != m divides m,
    and lcm(sigma + {g}) != m for every set sigma of generators dividing m
    with lcm sigma != m (the empty set included, whose lcm is 1)."""
    divisors = [e for e in gens if all(map(le, e, m))]
    lcms = [(0,) * len(m)]  # lcms[mask]: lcm of the divisors in mask
    for e in divisors:
        lcms += [tuple(map(max, a, e)) for a in lcms]
    below = [mask for mask, a in enumerate(lcms) if a != m]
    return any(
        e != m and all(lcms[mask | 1 << k] != m for mask in below)
        for k, e in enumerate(divisors)
    )


# (x1^2, x1x2x3, x2^2x3^2) in four variables: its degree-4 component has
# TAYLOR_CAP generators
CONE_COMPONENT = ideal(4, (2, 0, 0, 0), (1, 1, 1, 0), (0, 2, 2, 0)).component(4)
# 12 seeded monomials of degree 4 in 5 variables, a shape the benchmark's
# random Betti tables share: here most skipped strata have an apex that
# reaches m on some axis, so the apex test has axes to check
APEX_IDEAL = MonomialIdeal(5, random.Random(20091110).sample(list(_degree_d_monomials(5, 4)), 12))


def _cone_corpus():
    """CONE_COMPONENT, APEX_IDEAL, the edge ideals, and seeded equigenerated
    ideals of 2-10 generators in 2-4 variables."""
    rng = random.Random(1999)
    corpus = [CONE_COMPONENT, APEX_IDEAL, *EDGE_IDEALS]
    for _ in range(40):
        n, d = rng.randint(2, 4), rng.randint(2, 4)
        monomials = list(_degree_d_monomials(n, d))
        picked = rng.sample(monomials, min(len(monomials), rng.randint(2, 10)))
        corpus.append(MonomialIdeal(n, picked))
    return corpus


@pytest.mark.parametrize("field", [RATIONALS, F2, FieldChoice(3)], ids=attrgetter("label"))
def test_pruned_taylor_strata_are_acyclic(monkeypatch, field):
    homology = resolution._homology
    computed = []

    def recording(faces, over):
        computed.append(tuple(faces))
        return homology(computed[-1], over)

    monkeypatch.setattr(resolution, "_homology", recording)
    assert len(CONE_COMPONENT.generators) == TAYLOR_CAP
    skipped = []  # cone strata per ideal
    for I in _cone_corpus():
        gens = list(I.generators)
        unpruned, kept, cones = {}, set(), 0
        for m, masks in taylor_strata(I).items():
            ranks = homology(masks, field)
            if has_generator_apex(m, gens):
                assert not any(ranks.values()), (I, m)
                cones += 1
            else:
                kept.add(tuple(masks))
            unpruned.update({(size - 1, m): h for size, h in ranks.items() if h})
        computed.clear()
        assert taylor_strand_betti(I, field).multigraded == unpruned, I
        # homology is taken on exactly the strata the rule keeps
        assert sorted(computed) == sorted(kept), I
        skipped.append(cones)
    assert skipped[0] > 0  # CONE_COMPONENT
    assert sum(map(bool, skipped)) > len(skipped) // 2


# the degree components of J_{K5}(3); its check computes Betti numbers on
# degrees 9 and 12
K5_T3_COMPONENTS = [cover_ideal(complete_graph(5), 3).component(d) for d in range(9, 13)]


def _members(faces):
    """The patterns (vertex sets as bitmasks) in a face bitset."""
    return [k for k in range(faces.bit_length()) if faces >> k & 1]


def is_cone_family(members, m):
    """Brute force in set terms: the empty set is a member, and some vertex
    v < m joins every member to a member."""
    held = set(members)
    return 0 in held and any(all(k | 1 << v in held for k in held) for v in range(m))


# ideal -> its reference complexes, built once and shared by the field cases
REFERENCE_COMPLEXES = {}


def reference_complexes(I):
    """(lattice size, complexes): the upper Koszul complex of every
    lcm-lattice point, with membership by divisibility, as a map from each
    distinct complex to the points that have it, one byte per exponent.  A
    complex is a bitset of face patterns (bit p: the support axes in p
    stepped down).  Nothing here depends on the field.

    ``below[k][v]`` is the set of generators (a bitmask) with exponent at
    most v in x_k, so the generators dividing a monomial are the AND of its
    exponents' sets.  ``divisors`` holds them per pattern on the axes of a
    prefix (all exponents but the last), and keeps the ANDs of the prefix
    before over the axes before the first one where the two differ
    (lcm_lattice is sorted, so most axes are shared).  Generators are
    numbered in order of their last exponent, so the least bit of a set of
    them has the set's least last exponent, m say: at the prefix's point
    with last exponent e, pattern p is a face when m <= e, and p with the
    last axis stepped down is one when m <= e - 1."""
    if I in REFERENCE_COMPLEXES:
        return REFERENCE_COMPLEXES[I]
    gens = sorted(I.generators, key=itemgetter(-1))
    below = [
        [sum(1 << j for j, e in enumerate(gens) if e[k] <= v) for v in range(max(column) + 1)]
        for k, column in enumerate(zip(*gens))
    ]
    divisors = [[(1 << len(gens)) - 1]]
    last = ()
    lattice = lcm_lattice(I)
    complexes = defaultdict(bytearray)
    for prefix, points in groupby(lattice, itemgetter(slice(-1))):
        start = next(compress(count(), map(ne, prefix, last)), len(last))
        del divisors[start + 1:]
        for k in range(start, len(prefix)):
            kept, e = divisors[k], prefix[k]
            stepped = [d & below[k][e - 1] for d in kept] if e else []
            divisors.append([d & below[k][e] for d in kept] + stepped)
        last, kept = prefix, divisors[-1]
        # patterns by the least last exponent of their generators, and the
        # faces among the first i of them
        least = sorted((gens[(d & -d).bit_length() - 1][-1], p) for p, d in enumerate(kept) if d)
        thresholds = [x for x, _ in least]
        faces = list(accumulate((1 << p for _, p in least), or_, initial=0))
        for a in points:
            e = a[-1]
            key = faces[bisect_right(thresholds, e)]
            if e:
                key |= faces[bisect_right(thresholds, e - 1)] << len(kept)
            complexes[key].extend(a)
    REFERENCE_COMPLEXES[I] = len(lattice), complexes
    return REFERENCE_COMPLEXES[I]


def unscreened_koszul(I, field, homology):
    """beta_{i,a} from the upper Koszul complex at every lcm-lattice point,
    each distinct complex handed to ``homology`` once: no plane split, no
    screen, no symmetry."""
    table = {}
    for faces, points in reference_complexes(I)[1].items():
        patterns = [p for p in range(faces.bit_length()) if faces >> p & 1]
        for size, h in homology(patterns, field).items():
            if h:
                table.update(((size, a), h) for a in zip(*[iter(points)] * I.nvars))
    return table


def simplicial_complexes(m):
    """Every simplicial complex on the vertices 0..m-1 that holds the empty
    face, as a face bitset (bit k for pattern k): the families holding the
    empty set and, with each member, the member less any one vertex."""
    out = []
    for faces in range(1, 1 << (1 << m), 2):
        held = set(_members(faces))
        if all(k & ~(1 << v) in held for k in held for v in range(m)):
            out.append(faces)
    return out


def reduced_ranks(faces, field, homology=resolution._homology):
    """The nonzero ranks of the homology routine (bound here, so that no
    recording stand-in sees these calls)."""
    return {size: h for size, h in homology(faces, field).items() if h}


@pytest.mark.parametrize("field", [RATIONALS, F2, FieldChoice(3)], ids=attrgetter("label"))
def test_koszul_cone_screen_is_sound(monkeypatch, field):
    # Each complex is matched on one vertex v: a face lacking v is paired
    # with its union with v where that is a face.  The unpaired (critical)
    # faces carry the complex's reduced homology, and none are left on a cone.
    homology, critical_faces = resolution._homology, resolution._critical_faces
    tested, computed = [], []

    def recording_matching(faces, without):
        critical = critical_faces(faces, without)
        tested.append((faces, len(without), critical))
        return critical

    def recording_homology(faces, over):
        computed.append(tuple(faces))
        return homology(computed[-1], over)

    monkeypatch.setattr(resolution, "_critical_faces", recording_matching)
    monkeypatch.setattr(resolution, "_homology", recording_homology)
    corpus = [*_cone_corpus(), projective_plane_ideal(), *K5_T3_COMPONENTS]
    fired, shrunk = [], []
    for I in corpus:
        tested.clear()
        computed.clear()
        table = koszul_betti(I, field)
        # the homology routine sees critical faces only
        assert sorted(computed) == sorted(tuple(_members(c)) for _, _, c in tested if c), I
        shrunk.append((sum(map(len, computed)), sum(f.bit_count() for f, _, c in tested if c)))
        for faces, m, critical in tested:
            members = _members(faces)
            # a recorded complex holds the empty face, as its point is in I;
            # its critical faces are some of its faces and keep its homology
            assert faces & 1 and critical & ~faces == 0, (I, faces)
            assert reduced_ranks(_members(critical), field) == reduced_ranks(members, field)
            # no critical face: a cone, which never reaches the homology routine
            assert (critical == 0) == is_cone_family(members, m), (I, faces)
        fired.append(sum(not c for _, _, c in tested))
        assert table.multigraded == unscreened_koszul(I, field, homology), I
        if len(I.generators) <= TAYLOR_CAP:
            assert table == taylor_strand_betti(I, field), I
    # on the degree-12 component, where Betti numbers are computed, 6 of
    # the 20 distinct complexes are cones, and the other 14 hand over 35
    # of their 193 faces
    assert (len(tested), fired[-1], len(computed), shrunk[-1]) == (20, 6, 14, (35, 193))
    if field == F2:
        degree_12 = K5_T3_COMPONENTS[-1]
        assert koszul_betti(degree_12, F2).multigraded == reference_betti_f2(
            degree_12, lcm_lattice(degree_12)
        )
    # every simplicial complex on at most 4 vertices
    complexes = {m: simplicial_complexes(m) for m in range(5)}
    assert len(complexes[4]) == 167  # the Dedekind number 168, less the void family
    for m, family in complexes.items():
        without = resolution._pattern_masks(m)
        for faces in family:
            members = _members(faces)
            critical = critical_faces(faces, without)
            assert (critical == 0) == is_cone_family(members, m), (m, members)
            assert reduced_ranks(_members(critical), field) == reduced_ranks(members, field)


def test_koszul_builds_one_divisor_box_per_call(monkeypatch):
    # koszul_betti hands its box to lcm_lattice instead of building a second
    boxes, lattices = [], []
    box_class, lattice = resolution._DivisorBox, resolution.lcm_lattice
    monkeypatch.setattr(resolution, "_DivisorBox", lambda I: boxes.append(I) or box_class(I))
    monkeypatch.setattr(resolution, "lcm_lattice",
                        lambda I, **kw: lattices.append(I) or lattice(I, **kw))
    for I in [K5_T3_COMPONENTS[-1], projective_plane_ideal(), *EDGE_IDEALS[:7]]:
        boxes.clear()
        lattices.clear()
        koszul_betti(I)
        assert boxes == [I] and lattices == [I], I
    # on its own, lcm_lattice still builds the box it needs
    boxes.clear()
    lcm_lattice(CONE_COMPONENT)
    assert boxes == [CONE_COMPONENT]


def test_twin_classes():
    twin_classes = resolution._twin_classes
    for n in range(2, 6):
        for t in (1, 2, 3):
            assert twin_classes(cover_ideal(complete_graph(n), t)) == [list(range(n))]
    # the five leaves of the star, not its centre
    assert twin_classes(cover_ideal(STAR_K15, 2)) == [[0], [1, 2, 3, 4, 5]]
    # swapping does nothing to the unit ideal and has no generator to move
    # in the zero ideal
    assert twin_classes(MonomialIdeal.unit(3)) == [[0, 1, 2]]
    assert twin_classes(MonomialIdeal(3)) == [[0, 1, 2]]
    # every column holds 0, 1, 2, but only the cyclic shift fixes the
    # generators, and no swap does
    cyclic = ideal(3, (1, 2, 0), (2, 0, 1), (0, 1, 2))
    assert twin_classes(cyclic) == [[0], [1], [2]]
    # classes need not be runs of variables
    assert twin_classes(ideal(4, (2, 1, 0, 0), (0, 1, 2, 0), (1, 0, 1, 3))) == [[0, 2], [1], [3]]
    for I in (MonomialIdeal.unit(3), MonomialIdeal(3), cyclic):
        assert koszul_betti(I).multigraded == unscreened_koszul(I, RATIONALS, resolution._homology)


def block_symmetric_ideal(n, blocks, seeds):
    """The ideal of every exponent vector got from a seed by permuting its
    exponents within each block of variables."""
    gens = set()
    for e in seeds:
        for images in product(*(permutations(block) for block in blocks)):
            f = list(e)
            for block, image in zip(blocks, images):
                for src, dst in zip(block, image):
                    f[dst] = e[src]
            gens.add(tuple(f))
    return MonomialIdeal(n, gens)


def _symmetric_ideals(count=40):
    """Seeded ideals in 2-5 variables closed under permuting the exponents
    within random blocks of variables, so that each block lies in a twin
    class; blocks need not be runs of variables."""
    rng = random.Random(1616)
    out = []
    for _ in range(count):
        n = rng.randint(2, 5)
        order = rng.sample(range(n), n)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        blocks = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        seeds = [[rng.randint(0, 2) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        out.append(block_symmetric_ideal(n, blocks, seeds))
    return out


def grid_values(I):
    """Per variable, the generators' exponents in it, plus 0, sorted."""
    return [sorted({0, *(g[i] for g in I.generators)}) for i in range(I.nvars)]


def candidate_count(I):
    """The nondecreasing words over the grid values of each twin class, the
    candidates from which orbit representatives can be built."""
    values = grid_values(I)
    classes = resolution._twin_classes(I)
    return prod(comb(len(values[c[0]]) + len(c) - 1, len(c)) for c in classes)


@st.composite
def partition_symmetric_ideals(draw):
    """(ideal, blocks): an ideal in 2-6 variables closed under permuting the
    exponents within each block of a random partition of the variables
    (blocks need not be runs), so each block lies in a twin class."""
    n = draw(st.integers(2, 6))
    order = draw(st.permutations(range(n)))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1))))
    blocks = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
    seeds = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n), min_size=1, max_size=3))
    return block_symmetric_ideal(n, blocks, seeds), blocks


@settings(max_examples=80, deadline=None)
@given(partition_symmetric_ideals())
def test_built_orbit_representatives_match_the_column_filter(drawn):
    # Representatives built as words over the classes' grid values and
    # found by bisection are the lattice points that a column filter keeps:
    # values nondecreasing along every twin class.
    I, blocks = drawn
    classes = resolution._twin_classes(I)
    assert all(any(set(block) <= set(c) for c in classes) for block in blocks)
    points = lcm_lattice(I)
    values = grid_values(I)
    built = resolution._built_representatives(points, classes, [values[c[0]] for c in classes])
    twins = [(i, j) for c in classes for i, j in zip(c, c[1:])]
    filtered = [a for a in points if all(a[i] <= a[j] for i, j in twins)]
    assert len(built) == len(set(built)) and set(built) == set(filtered)
    # their twin orbits partition the lattice, and each is every
    # rearrangement of its representative within the classes
    orbits = [resolution._twin_orbit(a, twins) for a in built]
    union = set().union(*orbits)
    assert sum(map(len, orbits)) == len(union)  # pairwise disjoint
    assert union == set(points)
    for a, orbit in zip(built, orbits):
        arranged = set()
        for words in product(*(set(permutations([a[i] for i in c])) for c in classes)):
            b = list(a)
            for c, word in zip(classes, words):
                for i, v in zip(c, word):
                    b[i] = v
            arranged.add(tuple(b))
        assert orbit == arranged, a


@pytest.mark.parametrize("field", [RATIONALS, F2, FieldChoice(3)], ids=attrgetter("label"))
def test_koszul_twin_orbits_match_unreduced(monkeypatch, field):
    # Homology is taken at one lattice point per orbit of the twin swaps;
    # the table must equal the one from every point's own complex.
    homology = resolution._homology
    corpus = [*EDGE_IDEALS, projective_plane_ideal(), *_symmetric_ideals()]
    for J in _graph_class_ideals():
        corpus += [J.component(d) for d in range(J.min_degree(), J.max_degree() + 1)]
    seen = {}  # the reference's complexes recur from ideal to ideal

    def recalled(faces, over):
        key = tuple(faces)
        if key not in seen:
            seen[key] = homology(key, over)
        return seen[key]

    # representatives are built from the classes' words where those are
    # fewer than the lattice points, else filtered from the points
    builds = []
    build = resolution._built_representatives
    monkeypatch.setattr(resolution, "_built_representatives",
                        lambda *args: builds.append(args) or build(*args))
    reduced, sides = 0, set()
    for I in corpus:
        before = len(builds)
        assert koszul_betti(I, field).multigraded == unscreened_koszul(I, field, recalled), I
        assert (len(builds) > before) == (candidate_count(I) < reference_complexes(I)[0]), I
        if len(resolution._twin_classes(I)) < I.nvars:
            reduced += 1
            sides.add(len(builds) > before)
    assert reduced > len(corpus) // 2
    # both sides occur with twins present
    assert sides == {True, False}
    degree_12 = K5_T3_COMPONENTS[-1]
    assert (candidate_count(degree_12), len(lcm_lattice(degree_12))) == (252, 2228)
    star_23 = cover_ideal(SimpleGraph(4, [(1, 2), (1, 3), (1, 4), (2, 3)]), 2).component(6)
    assert (candidate_count(star_23), len(lcm_lattice(star_23))) == (300, 257)
    # on the degree-12 component of J_{K5}(3) the reduction takes homology
    # of fewer complexes than the same engine with every variable alone
    calls = []

    def counting(faces, over):
        calls.append(faces)
        return homology(faces, over)

    monkeypatch.setattr(resolution, "_homology", counting)
    table = koszul_betti(degree_12, field)
    twin_calls = len(calls)
    monkeypatch.setattr(resolution, "_twin_classes", lambda I: [[i] for i in range(I.nvars)])
    assert koszul_betti(degree_12, field) == table
    assert 0 < twin_calls < len(calls) - twin_calls


@pytest.mark.parametrize("field", [RATIONALS, F2, FieldChoice(3)], ids=attrgetter("label"))
def test_coarse_entries_from_orbit_sizes(field):
    # Coarse entries add each orbit representative's ranks times the orbit's
    # size; they must be the sums of the expanded table, and that table the
    # one the subset-complex engine computes wherever it applies.
    corpus = [projective_plane_ideal(), *_symmetric_ideals()]
    for J in (cover_ideal(complete_graph(n), t) for n in range(2, 7) for t in (1, 2, 3)):
        corpus += [J.component(d) for d in range(J.min_degree(), J.max_degree() + 1)]
    # the star's five twin leaves and its centre; its components past degree
    # 7 hold 477 generators or more, up to a box past BOX_CAP
    for J in (cover_ideal(STAR_K15, t) for t in (1, 2, 3)):
        corpus += [J, *(J.component(d) for d in range(J.min_degree(), 8))]
    for I in corpus:
        table = koszul_betti(I, field)
        assert_orbit_sizes_add_up(table)
        if len(I.generators) <= TAYLOR_CAP:
            assert table == taylor_strand_betti(I, field), I


# x1, x4, x6 are twins, and so are x2, x7: classes that are not runs
SPREAD_TWINS = MonomialIdeal(8, {
    (p[0], q[0], 0, p[1], 0, p[2], q[1], 1)
    for p in permutations((2, 0, 0)) for q in permutations((1, 0))
} | {(1, 0, 1, 1, 0, 1, 2, 3), (1, 2, 1, 1, 0, 1, 0, 3)})


def _wide_ideals():
    """Seeded ideals in 7-10 variables drawn with 5-12 generators (fewer
    once minimalised), every other one squarefree and the rest with
    exponents up to 3, then the maximal ideal in 12 variables and
    SPREAD_TWINS."""
    rng = random.Random(1818)
    corpus = []
    for k in range(12):
        n, top = rng.randint(7, 10), 1 + 2 * (k % 2)
        corpus.append(MonomialIdeal(n, [
            tuple(rng.randint(0, top) for _ in range(n))
            for _ in range(rng.randint(5, 12))
        ]))
    maximal = MonomialIdeal(12, [tuple(int(i == k) for i in range(12)) for k in range(12)])
    return [*corpus, maximal, SPREAD_TWINS]


@pytest.mark.parametrize("field", [RATIONALS, F2, FieldChoice(3)], ids=attrgetter("label"))
def test_koszul_matches_taylor_on_wide_supports(field):
    # The Koszul engine gathers one membership bit per face pattern of a
    # support, 2^m patterns on m support axes; elsewhere the tests stop at 6
    # variables, here supports reach 7 to 12 axes.
    corpus = _wide_ideals()
    assert resolution._twin_classes(SPREAD_TWINS) == [[0, 3, 5], [1, 6], [2], [4], [7]]
    widest = 0
    for I in corpus:
        assert len(I.generators) <= TAYLOR_CAP, I
        table = koszul_betti(I, field)
        assert_orbit_sizes_add_up(table)
        assert table == taylor_strand_betti(I, field), I
        widest = max(widest, *(len(a) - a.count(0) for (_, a) in table.multigraded))
    assert widest == 12


def test_koszul_memory_on_a_wide_support_is_linear_in_its_patterns():
    # x1 * ... * x16: one lattice point whose support has 2^16 face patterns.
    # Bookkeeping per pattern must stay a few bytes; one int of bit k per
    # pattern k alone would hold 2^32 / 16 bytes, about 268 MB.
    I = MonomialIdeal(16, [(1,) * 16])
    tracemalloc.start()
    try:
        table = koszul_betti(I)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.multigraded == {(0, (1,) * 16): 1}
    assert peak < 32 << 20, peak


def test_cwl_verdict_expands_no_orbit(monkeypatch):
    # the verdict reads coarse entries only, and those come from orbit sizes
    def refuse(*args):
        raise AssertionError("an orbit was expanded")

    monkeypatch.setattr(resolution, "_twin_orbit", refuse)
    report = is_componentwise_linear(cover_ideal(complete_graph(5), 3))
    assert report.overall and [v.degree for v in report.verdicts] == [9, 10, 11, 12]


def test_betti_table_auto_engine_switches():
    small = cover_ideal(complete_graph(4), 2).component(6)
    assert len(small.generators) == TAYLOR_CAP
    assert betti_table(small, engine="auto") == taylor_strand_betti(small)
    large = cover_ideal(complete_graph(4), 3).component(9)
    assert len(large.generators) == 32
    with pytest.raises(CapacityError):
        taylor_strand_betti(large)
    assert betti_table(large, engine="auto") == koszul_betti(large)


def test_permutation_equivariance():
    rng = random.Random(77)
    for _ in range(10):
        I = random_small_ideal(rng)
        n = I.nvars
        perm = list(range(n))
        rng.shuffle(perm)
        J = MonomialIdeal(
            n,
            [
                tuple(g[perm[i]] for i in range(n))
                for g in I.generators
            ],
        )
        for engine in (taylor_strand_betti, koszul_betti):
            tI, tJ = engine(I), engine(J)
            mapped = {
                (i, tuple(a[perm[k]] for k in range(n))): r
                for (i, a), r in tI.multigraded.items()
            }
            assert mapped == tJ.multigraded
            assert tI.coarse == tJ.coarse


def test_rationals_vs_f2_on_reference_corpus():
    corpus = []
    for t in (1, 2, 3):
        corpus.append(cover_ideal(counterexample_graph(), t))
        corpus.append(cover_ideal(complete_graph(3), t))
        corpus.append(cover_ideal(complete_graph(4), t))
    for I in corpus:
        for d in range(I.min_degree(), I.max_degree() + 1):
            comp = I.component(d)
            assert betti_table(comp, RATIONALS) == betti_table(comp, F2), (I, d)


PROJECTIVE_PLANE_TRIANGLES = [
    (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 4, 6),
    (2, 3, 4), (2, 3, 6), (2, 4, 5), (3, 5, 6), (4, 5, 6),
]


def test_projective_plane_homology_depends_on_field():
    faces = set()
    for t in PROJECTIVE_PLANE_TRIANGLES:
        for r in (1, 2, 3):
            faces.update(combinations(t, r))
    assert simplicial_homology_ranks(faces, RATIONALS) == [0, 0, 0, 0]
    assert simplicial_homology_ranks(faces, F2) == [0, 0, 1, 1]


def projective_plane_ideal():
    """The squarefree monomials of the 3-sets that are not faces of the
    6-vertex projective plane."""
    face_set = set()
    for t in PROJECTIVE_PLANE_TRIANGLES:
        for r in (1, 2, 3):
            face_set.update(frozenset(f) for f in combinations(t, r))
    gens = []
    for t in combinations(range(1, 7), 3):
        if frozenset(t) not in face_set:
            e = [0] * 6
            for v in t:
                e[v - 1] = 1
            gens.append(e)
    return MonomialIdeal(6, gens)


def test_projective_plane_ideal_betti_depends_on_field():
    # the non-face ideal of the 6-vertex projective plane: linear over Q,
    # extra syzygies in characteristic 2; engines must agree within each field
    I = projective_plane_ideal()
    assert len(I.generators) == 10
    tQ = taylor_strand_betti(I, RATIONALS)
    t2 = taylor_strand_betti(I, F2)
    assert tQ == koszul_betti(I, RATIONALS)
    assert t2 == koszul_betti(I, F2)
    assert tQ.coarse == {(0, 3): 10, (1, 4): 15, (2, 5): 6}
    assert t2.coarse == {(0, 3): 10, (1, 4): 15, (2, 5): 6, (2, 6): 1, (3, 6): 1}
    assert has_linear_resolution(I, RATIONALS)[0]
    ok, offending = has_linear_resolution(I, F2)
    assert not ok and offending == (2, 6)


def _closure(facets):
    """Every sorted vertex tuple below one of the facets, the empty one too."""
    return {
        s for f in facets for r in range(len(f) + 1) for s in combinations(sorted(f), r)
    }


def _masks(faces):
    """The faces as bitmasks: vertex (or generator) k is bit k."""
    return [sum(1 << k for k in f) for f in faces]


def reference_homology(faces, p):
    """Homology ranks by face size of a family of sorted tuples, with the
    simplicial boundary (-1)^i for the i-th entry dropped and ranks by
    ``reference_rank``; it shares no code with ``_homology``."""
    by_size = defaultdict(list)
    for f in faces:
        by_size[len(f)].append(f)
    row = {f: k for fs in by_size.values() for k, f in enumerate(fs)}
    bd_rank = defaultdict(int)
    for size, fs in by_size.items():
        cols = [
            {row[f[:i] + f[i + 1:]]: (-1) ** i for i in range(size) if f[:i] + f[i + 1:] in row}
            for f in fs
        ]
        bd_rank[size] = reference_rank(cols, p)
    return {size: len(fs) - bd_rank[size] - bd_rank[size + 1] for size, fs in by_size.items()}


@pytest.fixture
def rank_calls(monkeypatch):
    """(field, column count, rank) of every ``matrix_rank`` call made by
    resolution."""
    calls = []

    def counting(columns, p=None, pivots=None):
        columns = list(columns)
        rank = matrix_rank(columns, p, pivots)
        calls.append((p, len(columns), rank))
        return rank

    monkeypatch.setattr(resolution, "matrix_rank", counting)
    return calls


def test_rational_ranks_are_certified_mod_2(rank_calls):
    simplex = range(1 << 4)  # every subset of 4 vertices
    assert resolution._homology(simplex, RATIONALS) == {s: 0 for s in range(5)}
    # a cone is contractible even over the projective plane, whose own
    # mod-2 homology does not vanish
    cone = _closure(t + (7,) for t in PROJECTIVE_PLANE_TRIANGLES)
    assert resolution._homology(_masks(cone), RATIONALS) == {s: 0 for s in range(5)}
    assert rank_calls and {p for p, _, _ in rank_calls} == {2}
    rp2 = resolution._homology(_masks(_closure(PROJECTIVE_PLANE_TRIANGLES)), RATIONALS)
    assert [rp2[s] for s in range(4)] == [0, 0, 0, 0]
    assert None in {p for p, _, _ in rank_calls}


def test_clearing_ranks_only_pivot_columns(rank_calls):
    # On an acyclic complex, clearing leaves exactly the columns that become
    # pivots: every column whose face is a pivot row of the boundary one
    # size up is skipped, and every other one is independent.
    simplex = range(1 << 4)
    cone = _masks(_closure(t + (7,) for t in PROJECTIVE_PLANE_TRIANGLES))
    for faces, columns in ((simplex, 8), (cone, None)):
        for field in (F2, FieldChoice(3)):
            rank_calls.clear()
            assert set(resolution._homology(faces, field).values()) == {0}
            assert {p for p, _, _ in rank_calls} == {field.p}
            passed = sum(n for _, n, _ in rank_calls)
            assert passed == sum(rank for _, _, rank in rank_calls)
            assert columns is None or passed == columns  # of 15 boundary columns
    # over Q, RP^2 is ranked exactly from all 10 triangles
    rank_calls.clear()
    rp2 = resolution._homology(_masks(_closure(PROJECTIVE_PLANE_TRIANGLES)), RATIONALS)
    assert set(rp2.values()) == {0}
    assert (None, 10, 10) in rank_calls


def test_homology_matches_fraction_reference():
    rng = random.Random(61)
    complexes = [_closure(PROJECTIVE_PLANE_TRIANGLES)]
    for _ in range(60):
        nv = rng.randint(1, 7)
        facets = [rng.sample(range(nv), rng.randint(1, nv)) for _ in range(rng.randint(1, 5))]
        complexes.append(_closure(facets))
    for _ in range(30):
        # Taylor strata: generator subsets grouped by their lcm
        n = rng.randint(2, 4)
        gens = [tuple(rng.randint(0, 2) for _ in range(n)) for _ in range(rng.randint(2, 8))]
        gens = MonomialIdeal(n, gens).generators
        strata = defaultdict(list)
        for r in range(1, len(gens) + 1):
            for subset in combinations(range(len(gens)), r):
                strata[tuple(map(max, zip(*(gens[k] for k in subset))))].append(subset)
        complexes.extend(strata.values())
    for faces in complexes:
        for field in (RATIONALS, F2, FieldChoice(3)):
            expected = reference_homology(faces, field.p)
            assert resolution._homology(_masks(faces), field) == expected, faces


# ---------------------------------------------------------------------------
# linear resolutions

def test_koszul_complex_is_linear():
    ok, offending = has_linear_resolution(ideal(2, (1, 0), (0, 1)))
    assert ok and offending is None


def test_counterexample_component_2t_fails_linearity():
    comp = cover_ideal(counterexample_graph(), 2).component(4)
    ok, offending = has_linear_resolution(comp)
    assert not ok
    assert offending == (1, 6)


def test_counterexample_t1_component3_is_linear():
    comp = cover_ideal(counterexample_graph(), 1).component(3)
    ok, _ = has_linear_resolution(comp)
    assert ok


def test_linear_resolution_rejects_mixed_degrees():
    with pytest.raises(NotEquigeneratedError):
        has_linear_resolution(ideal(2, (1, 0), (0, 2)))


def test_zero_ideal_vacuously_linear():
    ok, offending = has_linear_resolution(MonomialIdeal(2))
    assert ok and offending is None


def test_equigenerated_degree_bound():
    # every nonzero coarse entry of an equigenerated ideal has j >= i + d
    rng = random.Random(5150)
    for _ in range(20):
        n = rng.randint(2, 4)
        d = rng.randint(1, 4)
        pool = list(_degree_d_monomials(n, d))
        rng.shuffle(pool)
        I = MonomialIdeal(n, pool[: rng.randint(1, min(6, len(pool)))])
        table = taylor_strand_betti(I)
        for i, j, r in table.coarse_entries():
            assert j >= i + d


# ---------------------------------------------------------------------------
# componentwise linearity

def test_counterexample_t1_is_cwl():
    ideal = cover_ideal(counterexample_graph(), 1)
    report = is_componentwise_linear(ideal)
    assert report.overall
    assert [v.status for v in report.verdicts] == ["linear", "linear"]
    assert find_linear_quotient_order(ideal) is not None


def test_counterexample_t2_fails_at_degree4():
    report = is_componentwise_linear(cover_ideal(counterexample_graph(), 2))
    assert not report.overall
    assert report.failing_degree() == 4
    d4 = next(v for v in report.verdicts if v.degree == 4)
    assert d4.status == "not linear" and d4.offending == (1, 6)


def test_complete_graph_cwl_small_grid():
    for n in (3, 4):
        for t in (1, 2, 3):
            report = is_componentwise_linear(cover_ideal(complete_graph(n), t))
            assert report.overall, (n, t)


def test_complete_graph_k6_t2_cwl_through_betti():
    # the paper's theorem at n = 6, decided from the Betti tables of the
    # generator degrees 6 and 10 (degrees 7-9 follow a linear degree 6)
    report = is_componentwise_linear(cover_ideal(complete_graph(6), 2))
    assert report.overall
    assert [(v.degree, v.status) for v in report.verdicts] == [
        (d, "linear") for d in range(6, 11)
    ]


def test_zero_ideal_cwl_vacuous():
    report = is_componentwise_linear(MonomialIdeal(3))
    assert report.overall and report.vacuous


def test_budget_caps_component_generators():
    star = cover_ideal(SimpleGraph(4, [(1, 2), (1, 3), (1, 4)]), 2)
    sizes = {
        d: len(star.component(d).generators)
        for d in range(star.min_degree(), star.max_degree() + 1)
    }
    assert sum(sizes.values()) == 81
    assert is_componentwise_linear(star, budget=81).overall
    with pytest.raises(CapacityError, match="row budget of 80"):
        is_componentwise_linear(star, budget=80)
    with pytest.raises(ValueError):
        is_componentwise_linear(star, budget=-1)


STAR_K13 = SimpleGraph(4, [(1, 2), (1, 3), (1, 4)])


@pytest.mark.parametrize(
    "graph, budget, stop",
    [
        # the star K_{1,3} at t = 2: 81 component generators, the last
        # degree alone past 40
        pytest.param(STAR_K13, 40, False, id="40"),
        pytest.param(STAR_K13, 80, False, id="80"),
        # the counterexample at t = 2: 2, 8 and 21 generators in degrees
        # 4, 5 and 6, and degree 4 fails; the later degrees still count, so
        # a report that would stop at degree 4 is refused all the same
        pytest.param(counterexample_graph(), 2, True, id="stop-2"),
        pytest.param(counterexample_graph(), 30, True, id="stop-30"),
    ],
)
def test_budget_refuses_before_any_betti_table(monkeypatch, graph, budget, stop):
    # a refused row must compute no Betti table at all
    I = cover_ideal(graph, 2)
    tables = []

    def counting(comp, *args):
        tables.append(sum(comp.generators[0]))
        return has_linear_resolution(comp, *args)

    monkeypatch.setattr(resolution, "has_linear_resolution", counting)
    with pytest.raises(CapacityError, match=f"row budget of {budget}"):
        is_componentwise_linear(I, budget=budget, stop_at_failure=stop)
    assert tables == []


def failing_chordal_ideals():
    """The counterexample at t = 2, 3, 4, then one graph of every chordal
    class on 5 vertices at t = 2 and 3 whose cover ideal is not CWL."""
    ideals = [cover_ideal(counterexample_graph(), t) for t in (2, 3, 4)]
    config = search.SweepConfig(n_min=5, n_max=5, chordal_only=True)
    firsts = {}
    for G, cls, _ in search._classified_graphs(config):
        firsts.setdefault(cls, G)
    for t in (2, 3):
        for G in firsts.values():
            I = cover_ideal(G, t)
            if not is_componentwise_linear(I).overall:
                ideals.append(I)
    return ideals


def test_stop_at_failure_ends_the_report_at_its_first_failing_degree(monkeypatch):
    degrees = []

    def counting(comp, *args):
        degrees.append(sum(comp.generators[0]))
        return has_linear_resolution(comp, *args)

    monkeypatch.setattr(resolution, "has_linear_resolution", counting)
    ideals = failing_chordal_ideals()
    assert len(ideals) == 3 + 6
    skipped = 0
    for I in ideals:
        degrees.clear()
        full = is_componentwise_linear(I)
        full_degrees = degrees[:]
        degrees.clear()
        stopped = is_componentwise_linear(I, stop_at_failure=True)
        failing = full.failing_degree()
        head = [v for v in full.verdicts if v.degree <= failing]
        assert stopped == CwlReport(tuple(head), False)
        assert stopped.failing_degree() == failing
        # the same Betti tables up to the failing degree, none after it
        assert degrees == [d for d in full_degrees if d <= failing]
        skipped += len(full_degrees) - len(degrees)
    assert skipped > 0


def brute_force_verdicts(I, field):
    """A Betti table for every degree from the lowest to the highest
    generator degree, gap degrees included."""
    verdicts = []
    for d in range(I.min_degree(), I.max_degree() + 1):
        ok, offending = resolution.has_linear_resolution(I.component(d), field)
        verdicts.append(DegreeVerdict(d, "linear" if ok else "not linear", offending))
    return tuple(verdicts)


def _gapped_multidegree_ideals(count=30, max_component_gens=120):
    """Seeded ideals in 2-5 variables with generators in two or more
    degrees and a degree between them that holds no generator."""
    rng = random.Random(1999)
    out = []
    while len(out) < count:
        n = rng.randint(2, 5)
        gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(2, 4))]
        I = MonomialIdeal(n, gens)
        if I.is_zero():
            continue
        degrees = set(I.degrees())
        span = range(I.min_degree(), I.max_degree() + 1)
        if len(degrees) < 2 or len(degrees) == len(span):
            continue
        if sum(len(I.component(d).generators) for d in span) <= max_component_gens:
            out.append(I)
    return out


def _graph_class_ideals(n_max=5, t_max=3):
    """The order-t cover ideal of one graph per isomorphism class."""
    for n in range(1, n_max + 1):
        slots = search._edge_slots(n)
        for least in sorted(set(search._least_in_orbit(n))):
            G = search._graph_from_mask(n, least, slots)
            for t in range(1, t_max + 1):
                yield cover_ideal(G, t)


# x1^2, x2^2, x3^4: degree 2 is not linear, degree 3 is a gap after it
SQUARES_AND_FOURTH = ideal(3, (2, 0, 0), (0, 2, 0), (0, 0, 4))


@pytest.mark.parametrize("field", [RATIONALS, F2, FieldChoice(3)], ids=attrgetter("label"))
def test_gap_degree_verdicts_match_brute_force(monkeypatch, field):
    # A gap degree after a linear one is linear by Eisenbud-Goto; the report
    # must agree with a Betti table for every degree.  Both routes share one
    # table per component, so the report's own degrees cost nothing twice.
    tables = {}

    def shared(comp, *args):
        if comp.generators not in tables:
            tables[comp.generators] = has_linear_resolution(comp, *args)
        return tables[comp.generators]

    monkeypatch.setattr(resolution, "has_linear_resolution", shared)
    ideals = [SQUARES_AND_FOURTH, *_gapped_multidegree_ideals(), *_graph_class_ideals()]
    for I in ideals:
        if I.is_zero():
            continue
        expected = brute_force_verdicts(I, field)
        report = is_componentwise_linear(I, field)
        assert report.verdicts == expected, I.generators


STAR_K15 = SimpleGraph(6, [(1, v) for v in range(2, 7)])


@pytest.mark.parametrize(
    "I, computed",
    [
        (cover_ideal(complete_graph(5), 3), [9, 12]),
        (cover_ideal(complete_graph(6), 2), [6, 10]),
        (cover_ideal(STAR_K15, 2), [2, 6, 10]),
        (cover_ideal(counterexample_graph(), 2), [4, 5, 6]),
        (cover_ideal(counterexample_graph(), 3), [6, 7, 9]),
        (SQUARES_AND_FOURTH, [2, 3, 4]),
    ],
    ids=["K5-t3", "K6-t2", "star-K15-t2", "diamond-t2", "diamond-t3", "squares-fourth"],
)
def test_betti_tables_only_where_not_settled(monkeypatch, I, computed):
    tables = []

    def counting(comp, *args):
        tables.append(comp.min_degree())
        return has_linear_resolution(comp, *args)

    monkeypatch.setattr(resolution, "has_linear_resolution", counting)
    is_componentwise_linear(I)
    assert tables == computed


def test_cwl_report_json_schema(capsys):
    assert main(["check-cwl", "--counterexample", "--t", "2", "--format", "json"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"field", "overall", "vacuous", "per_degree", "certificate"}
    assert (out["field"], out["overall"], out["vacuous"], out["certificate"]) == (
        "Q", False, False, None)
    assert {"degree", "verdict"} <= set(out["per_degree"][0])
    offending = [e for e in out["per_degree"] if e["verdict"] == "not linear"]
    assert offending and offending[0]["offending"] == [1, 6]


# ---------------------------------------------------------------------------
# first syzygies

def test_taylor_lower_bound_random():
    # every nonzero beta_{1,j} sits at the degree of some generator pair's
    # lcm, the subset complex's first-syzygy slots
    rng = random.Random(999)
    for _ in range(25):
        I = random_small_ideal(rng)
        if len(I.generators) < 2:
            continue
        table = taylor_strand_betti(I)
        beta1 = [j for (i, j) in table.coarse if i == 1]
        if beta1:
            assert min(beta1) >= min(sum(map(max, f, g))
                                     for f, g in combinations(I.generators, 2))
