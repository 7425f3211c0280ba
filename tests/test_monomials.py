from itertools import combinations_with_replacement, product
from operator import add, le

import pytest
from hypothesis import example, given, settings, strategies as st

from coverideals.errors import CapacityError, DimensionError
from coverideals.graphs import (
    SimpleGraph,
    complete_graph,
    cover_ideal,
    minimal_t_covers,
    parse_graph,
    theorem_order,
)
from coverideals.monomials import (
    EXPONENT_CAP,
    MonomialIdeal,
    format_monomial,
    minimalize,
    parse_ideal,
    parse_monomial,
    _colon,
    _deglex_key,
)
from coverideals.resolution import (
    betti_table,
    find_linear_quotient_order,
    is_componentwise_linear,
    lcm_lattice,
    linear_quotients_check,
)
from coverideals.search import SweepConfig


def ideal(n, *exps):
    return MonomialIdeal(n, exps)


def naive_member(gens, m):
    """Independent membership check: some generator divides m."""
    return any(all(a <= b for a, b in zip(g, m)) for g in gens)


def times(m, f):
    return tuple(map(add, m, f))


# ---------------------------------------------------------------------------
# divisibility, lcm

def test_divides_componentwise():
    # a monomial divides another when no exponent is larger, and minimalize
    # keeps only the divisor
    assert minimalize(2, [(1, 1), (1, 0)]).generators == ((1, 0),)
    assert minimalize(2, [(1, 1), (2, 0)]).generators == ((1, 1), (2, 0))
    assert minimalize(2, [(7, 3), (0, 0)]).generators == ((0, 0),)


def test_divides_dimension_mismatch():
    with pytest.raises(DimensionError):
        linear_quotients_check([(1, 0), (1, 0, 0)])


def test_lcm_of_mixed_support_pair():
    # lcm(b^2c^2, abcd) = ab^2c^2d, the one lcm of the pair's lattice
    assert lcm_lattice(ideal(4, (0, 2, 2, 0), (1, 1, 1, 1))) == [
        (0, 2, 2, 0), (1, 1, 1, 1), (1, 2, 2, 1)]


def test_lcm_idempotent_and_componentwise_max():
    assert lcm_lattice(ideal(3, (2, 0, 1))) == [(2, 0, 1)]
    assert lcm_lattice(ideal(3, (2, 0, 1), (0, 3, 1))) == [(0, 3, 1), (2, 0, 1), (2, 3, 1)]


def test_exponent_cap_guards_construction():
    with pytest.raises(CapacityError):
        ideal(2, (65, 0))
    ideal(2, (64, 0))  # at the cap is fine


def test_zero_variables_rejected():
    with pytest.raises(ValueError):
        ideal(1, ())
    with pytest.raises(ValueError):
        MonomialIdeal(0)


# ---------------------------------------------------------------------------
# minimalize

def test_minimalize_drops_multiples():
    I = minimalize(2, [(2, 0), (2, 1), (1, 1)])
    assert set(I.generators) == {(2, 0), (1, 1)}


def test_minimalize_keeps_counterexample_cover_generators():
    gens = [(0, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1)]
    I = minimalize(4, gens)
    assert set(I.generators) == set(gens)


def test_minimalize_idempotent():
    I = minimalize(3, [(1, 1, 0), (1, 1, 1), (0, 0, 2), (2, 0, 1)])
    again = minimalize(3, I.generators)
    assert I == again


def test_minimalize_empty_gives_zero_ideal():
    I = minimalize(3, [])
    assert I.is_zero() and I.generators == ()


small_monomials = st.tuples(*[st.integers(0, 4)] * 3)
small_gen_sets = st.lists(small_monomials, min_size=0, max_size=6)


@given(small_gen_sets)
def test_minimalize_output_has_no_divisibility(gens):
    I = minimalize(3, gens)
    for f in I.generators:
        for g in I.generators:
            if f != g:
                assert not all(map(le, f, g))


@given(small_gen_sets, small_monomials)
def test_minimalize_preserves_membership(gens, m):
    I = minimalize(3, gens)
    assert naive_member(I.generators, m) == naive_member(gens, m)


# ---------------------------------------------------------------------------
# colon

def test_colon_quotient_steps_of_triangle_order():
    # first two quotient steps of the K_3^(2) listing
    I = ideal(3, (1, 1, 1))
    assert _colon(I.generators, (0, 2, 2)) == ((1, 0, 0),)
    I2 = ideal(3, (1, 1, 1), (0, 2, 2))
    assert _colon(I2.generators, (2, 0, 2)) == ((0, 1, 0),)


def test_colon_by_unit_is_identity():
    I = ideal(3, (1, 1, 0), (0, 0, 2))
    assert _colon(I.generators, (0, 0, 0)) == I.generators


def test_colon_of_zero_ideal():
    assert _colon((), (1, 0)) == ()


@given(small_gen_sets, small_monomials, small_monomials)
@settings(max_examples=150)
def test_colon_membership_law(gens, f, m):
    I = minimalize(3, gens)
    assert naive_member(_colon(I.generators, f), m) == naive_member(I.generators, times(m, f))


# ---------------------------------------------------------------------------
# component

def test_component_examples_from_counterexample():
    I1 = ideal(4, (0, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1))
    assert set(I1.component(2).generators) == {(0, 1, 1, 0)}
    assert set(I1.component(3).generators) == {
        (1, 1, 1, 0), (0, 2, 1, 0), (0, 1, 2, 0), (0, 1, 1, 1),
        (1, 1, 0, 1), (1, 0, 1, 1),
    }
    I2 = ideal(4, (0, 2, 2, 0), (1, 1, 1, 1), (2, 2, 0, 2), (2, 0, 2, 2))
    assert set(I2.component(4).generators) == {(0, 2, 2, 0), (1, 1, 1, 1)}


def test_component_below_min_degree_is_zero():
    I = ideal(2, (2, 1))
    assert I.component(2).is_zero()


@given(small_gen_sets, st.integers(0, 8))
@settings(max_examples=80)
def test_component_equigenerated_and_idempotent(gens, d):
    I = minimalize(3, gens)
    C = I.component(d)
    assert all(sum(g) == d for g in C.generators)
    assert C.component(d) == C
    # every degree-d monomial in I, found by brute force, in deglex order
    degree_d = (e for e in product(range(d + 1), repeat=3) if sum(e) == d)
    inside = (m for m in degree_d if naive_member(I.generators, m))
    assert list(C.generators) == sorted(inside, key=_deglex_key)


# ---------------------------------------------------------------------------
# unchecked results: components and colons equal checked builds

def assert_checked_build(m, n):
    """m is what the entry check makes of its exponents: a tuple of n ints
    that an ideal built from it holds unchanged."""
    assert type(m) is tuple and all(type(e) is int for e in m)
    assert MonomialIdeal(n, [m]).generators == (m,)


@given(small_gen_sets, small_monomials, st.integers(0, 8))
@settings(max_examples=80)
def test_component_and_colon_equal_checked_builds(gens, f, d):
    I = minimalize(3, gens)
    results = I.component(d).generators + _colon(I.generators, f) + _colon(gens, f)
    for m in results:
        assert_checked_build(m, 3)
    # the colon of any generating set, minimalized from checked quotients
    quotients = (tuple(max(a - b, 0) for a, b in zip(g, f)) for g in gens)
    assert _colon(gens, f) == minimalize(3, quotients).generators
    assert _colon(I.generators, f) == _colon(gens, f)


def checked_component(I, d):
    """Every degree-d monomial of I, each checked as a one-generator ideal in
    deglex order: the generators of I.component(d), or the CapacityError
    the first one past the exponent cap raises."""
    n = I.nvars
    degree_d = (tuple(map(c.count, range(n))) for c in combinations_with_replacement(range(n), d))
    inside = [e for e in degree_d if any(all(map(le, g, e)) for g in I.generators)]
    deglex = sorted(inside, key=lambda e: (sum(e), tuple(-x for x in reversed(e))))
    return tuple(MonomialIdeal(n, [e]).generators[0] for e in deglex)


near_cap = st.one_of(st.integers(0, 3), st.integers(EXPONENT_CAP - 8, EXPONENT_CAP))
ideals_near_cap = st.integers(1, 3).flatmap(lambda n: st.builds(
    MonomialIdeal, st.just(n),
    st.lists(st.tuples(*[near_cap] * n), min_size=1, max_size=4)))


@given(ideals_near_cap, st.integers(EXPONENT_CAP - 6, EXPONENT_CAP + 10))
@example(ideal(2, (1, 0)), 70)  # first past the cap: x1*x2^69
@example(ideal(3, (1, 3, 0), (0, 2, 5), (0, 0, 60)), 66)  # x3^66
@example(ideal(2, (60, 0)), 66)  # x1^65*x2, as x2 stays below the cap
@settings(max_examples=60, deadline=None)
def test_component_past_the_exponent_cap_fails_as_checked_builds_do(I, d):
    try:
        expected = checked_component(I, d)
    except CapacityError as exc:
        with pytest.raises(CapacityError) as info:
            I.component(d)
        assert str(info.value) == str(exc)
    else:
        assert I.component(d).generators == expected


# ---------------------------------------------------------------------------
# deglex

def test_deglex_degree_dominates():
    assert _deglex_key((1, 2, 2)) < _deglex_key((3, 3, 0))  # deg 5 before deg 6
    assert ideal(3, (3, 3, 0), (1, 2, 2)).generators == ((1, 2, 2), (3, 3, 0))


def test_deglex_tiebreak_matches_theorem_listing():
    # within degree 4 of K_3^(2): x2^2x3^2, x1^2x3^2, x1^2x2^2
    row = [(0, 2, 2), (2, 0, 2), (2, 2, 0)]
    assert sorted(row, key=_deglex_key) == row
    assert ideal(3, *reversed(row)).generators == tuple(row)


def test_deglex_k33_cross_degree():
    assert _deglex_key((1, 2, 2)) < _deglex_key((0, 3, 3))
    assert ideal(3, (0, 3, 3), (1, 2, 2)).generators == ((1, 2, 2), (0, 3, 3))


@given(small_monomials, small_monomials)
def test_deglex_total_order(a, b):
    # the key separates distinct monomials, so it orders them totally, and
    # a lower degree sorts first
    assert (_deglex_key(a) == _deglex_key(b)) == (a == b)
    if sum(a) < sum(b):
        assert _deglex_key(a) < _deglex_key(b)


def test_generators_stored_in_deglex_order():
    I = ideal(3, (2, 2, 0), (1, 1, 1), (0, 2, 2), (2, 0, 2))
    assert list(I.generators) == [(1, 1, 1), (0, 2, 2), (2, 0, 2), (2, 2, 0)]


# ---------------------------------------------------------------------------
# text formats

def test_monomial_text_roundtrip():
    m = (2, 0, 1)
    assert format_monomial(m) == "x1^2*x3"
    assert parse_monomial("x1^2*x3", 3) == m
    assert format_monomial((0, 0)) == "1"
    assert parse_monomial("1", 2) == (0, 0)


def test_parse_monomial_rejects_garbage():
    with pytest.raises(ValueError):
        parse_monomial("x0", 3)
    with pytest.raises(ValueError):
        parse_monomial("x4", 3)
    with pytest.raises(ValueError):
        parse_monomial("y2", 3)
    with pytest.raises(ValueError):
        parse_monomial("x1^0", 3)


def test_ideal_file_roundtrip():
    text = "vars 3\nx3^2\nx1*x2\n"  # deglex order
    I = parse_ideal(text)
    assert I == ideal(3, (1, 1, 0), (0, 0, 2))
    assert [format_monomial(g) for g in I.generators] == text.splitlines()[1:]


def test_parse_ideal_requires_header():
    with pytest.raises(ValueError):
        parse_ideal("x1*x2\n")


# ---------------------------------------------------------------------------
# input checks across the library, each with its exact message

# Integer inputs go through operator.index, so a float or a string is
# refused rather than truncated or parsed.
NOT_AN_INT = "'%s' object cannot be interpreted as an integer"

# A monomial is checked where it enters: each bad one through each entry
# route that takes it (MonomialIdeal, minimalize, parse_monomial).
PAST_CAP = "exponent 65 exceeds the cap 64"
NO_VARIABLE = "a monomial needs at least one ring variable"

@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: ideal(2, (1, -1)), ValueError, "negative exponent in (1, -1)"),
        (lambda: minimalize(3, [(1, 0)]), DimensionError, "monomial in 2 variables, expected 3"),
        (lambda: MonomialIdeal(0), ValueError, "need at least one ring variable"),
        (lambda: MonomialIdeal(2).min_degree(), ValueError,
         "zero ideal has no generator degrees"),
        (lambda: MonomialIdeal(2).max_degree(), ValueError,
         "zero ideal has no generator degrees"),
        (lambda: ideal(2, (1, 0)).component(-1), ValueError, "negative degree"),
        (lambda: parse_ideal("vars x"), ValueError, "bad vars line 'vars x'"),
        (lambda: cover_ideal(complete_graph(3), 65), CapacityError,
         "exponent 65 exceeds the cap 64"),
        (lambda: cover_ideal(complete_graph(3), 0), ValueError, "cover order t must be >= 1"),
        (lambda: minimal_t_covers(complete_graph(3), 0), ValueError,
         "cover order t must be >= 1"),
        (lambda: theorem_order(3, 0), ValueError, "cover order t must be >= 1"),
        (lambda: parse_graph("4\n1 2\n"), ValueError,
         "graph file must start with a 'graph <n>' line"),
        (lambda: parse_graph("graph 3\n1 2 3\n"), ValueError, "bad edge line '1 2 3'"),
        (lambda: betti_table(ideal(2, (1, 0)), engine="x"), ValueError, "unknown engine 'x'"),
        (lambda: find_linear_quotient_order(ideal(2, (1, 0), (0, 1)), strategy="x"),
         ValueError, "unknown strategy 'x'"),
        (lambda: ideal(2, (1.5, 2)), TypeError, NOT_AN_INT % "float"),
        (lambda: ideal(2, ("2", 1)), TypeError, NOT_AN_INT % "str"),
        (lambda: SimpleGraph(3.0), TypeError, NOT_AN_INT % "float"),
        (lambda: SimpleGraph(3, [(1, 2.7)]), TypeError, NOT_AN_INT % "float"),
        (lambda: SimpleGraph(3, [("1", 2)]), TypeError, NOT_AN_INT % "str"),
        (lambda: MonomialIdeal(2.5, [(1, 0)]), TypeError, NOT_AN_INT % "float"),
        (lambda: is_componentwise_linear(ideal(2, (1, 0)), budget=2.5e9), TypeError,
         NOT_AN_INT % "float"),
        (lambda: SweepConfig(n_min=3.5), TypeError, NOT_AN_INT % "float"),
        (lambda: SweepConfig(n_max=4.0), TypeError, NOT_AN_INT % "float"),
        (lambda: SweepConfig(t_set=(2, "3")), TypeError, NOT_AN_INT % "str"),
        (lambda: SweepConfig(row_budget=1e3), TypeError, NOT_AN_INT % "float"),
        (lambda: minimalize(2, [(1, -1)]), ValueError, "negative exponent in (1, -1)"),
        (lambda: minimalize(2, [(1.5, 2)]), TypeError, NOT_AN_INT % "float"),
        (lambda: minimalize(2, [("2", 1)]), TypeError, NOT_AN_INT % "str"),
        (lambda: ideal(2, (65, 0)), CapacityError, PAST_CAP),
        (lambda: minimalize(2, [(65, 0)]), CapacityError, PAST_CAP),
        (lambda: parse_monomial("x1^65", 2), CapacityError, PAST_CAP),
        (lambda: ideal(3, (1, 0)), DimensionError, "monomial in 2 variables, expected 3"),
        (lambda: linear_quotients_check([(1, 0), (1, 0, 0)]), DimensionError,
         "monomials in 2 and 3 variables"),
        (lambda: linear_quotients_check([(1, -1), (0, 1)]), ValueError,
         "negative exponent in (1, -1)"),
        (lambda: ideal(2, ()), ValueError, NO_VARIABLE),
        (lambda: minimalize(2, [()]), ValueError, NO_VARIABLE),
        (lambda: parse_monomial("1", 0), ValueError, NO_VARIABLE),
        (lambda: SimpleGraph(3, [(1, 2, 3)]), ValueError,
         "edge (1, 2, 3) is not a pair of vertices"),
        (lambda: SimpleGraph(3, [(1,)]), ValueError, "edge (1,) is not a pair of vertices"),
        (lambda: SimpleGraph(3, [5]), ValueError, "edge 5 is not a pair of vertices"),
        (lambda: parse_ideal("vars 2 junk"), ValueError, "bad vars line 'vars 2 junk'"),
        (lambda: parse_ideal("varsx 2"), ValueError, "bad vars line 'varsx 2'"),
        (lambda: parse_graph("graph 3 9"), ValueError, "bad graph header 'graph 3 9'"),
        (lambda: parse_graph("graphs 3"), ValueError, "bad graph header 'graphs 3'"),
    ],
    ids=[
        "negative-exponent", "minimalize-ring", "zero-ideal-ring",
        "zero-min-degree", "zero-max-degree", "negative-component",
        "vars-line", "cover-exponent-cap", "cover-t", "t-covers-t", "theorem-order-t",
        "graph-header", "graph-edge-line", "engine", "strategy",
        "float-exponent", "str-exponent", "float-vertex-count", "float-endpoint",
        "str-endpoint", "float-nvars", "float-budget", "float-n-min", "float-n-max",
        "str-t", "float-row-budget",
        "minimalize-negative", "minimalize-float", "minimalize-str",
        "exponent-cap", "minimalize-exponent-cap", "parse-exponent-cap",
        "ideal-ring", "quotients-ring", "quotients-negative",
        "empty-monomial", "minimalize-empty", "parse-empty",
        "edge-triple", "edge-single", "edge-int",
        "vars-trailing", "vars-keyword", "graph-trailing", "graph-keyword",
    ],
)
def test_library_input_checks(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
