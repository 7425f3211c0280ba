import random
from itertools import chain, groupby, permutations, product

import pytest
from hypothesis import given, strategies as st

from coverideals.errors import CapacityError, NotEquigeneratedError
from coverideals.graphs import complete_graph, counterexample_graph, cover_ideal, theorem_order
from coverideals.monomials import MonomialIdeal, _deglex_key, minimalize
from coverideals.resolution import (
    find_linear_quotient_order,
    has_linear_resolution,
    linear_quotients_check,
    polymatroidal_check,
)


def ideal(n, *exps):
    return MonomialIdeal(n, exps)


# ---------------------------------------------------------------------------
# linear quotients

def test_k32_theorem_order_steps():
    result = linear_quotients_check(theorem_order(3, 2))
    assert result.ok
    assert list(result.steps) == [
        ((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),)
    ]


def test_theorem_order_passes_grid():
    for n in (3, 4, 5):
        for t in (1, 2, 3, 4, 5, 6):
            assert linear_quotients_check(theorem_order(n, t)).ok, (n, t)


def test_two_generator_component_fails_both_orders():
    b2c2, abcd = (0, 2, 2, 0), (1, 1, 1, 1)
    r1 = linear_quotients_check([abcd, b2c2])
    assert not r1.ok and r1.failing_index == 2
    assert r1.offending == (1, 0, 0, 1)  # colon is <ad>, degree 2
    r2 = linear_quotients_check([b2c2, abcd])
    assert not r2.ok and r2.failing_index == 2


def test_check_validates_input():
    with pytest.raises(ValueError):
        linear_quotients_check([])
    with pytest.raises(ValueError):
        linear_quotients_check([(1, 0), (1, 0)])
    with pytest.raises(ValueError):
        linear_quotients_check([(1, 0), (1, 1)])  # not minimal


def test_single_generator_trivially_succeeds():
    for exponents in ((3, 1), (1, 0), (0, 0)):
        I = ideal(2, exponents)
        assert find_linear_quotient_order(I) == [exponents]
        assert find_linear_quotient_order(I, "backtracking") == [exponents]


def test_deglex_strategy_matches_theorem_order_for_k32():
    I = cover_ideal(complete_graph(3), 2)
    order = find_linear_quotient_order(I, strategy="deglex")
    assert order is not None
    assert order == theorem_order(3, 2)


def test_backtracking_finds_no_order_for_failing_component():
    comp = cover_ideal(counterexample_graph(), 2).component(4)
    assert find_linear_quotient_order(comp, strategy="backtracking") is None


def test_backtracking_finds_no_order_for_full_counterexample_t2():
    I = cover_ideal(counterexample_graph(), 2)
    assert find_linear_quotient_order(I, strategy="backtracking") is None


def test_backtracking_recovers_from_bad_deglex_prefix():
    # the deglex listing of this ideal fails, and backtracking finds another
    # degree-nondecreasing listing of the same generators that passes
    I = ideal(6, (0, 1, 0, 0, 1, 1), (0, 0, 1, 1, 0, 1), (1, 0, 0, 1, 0, 1),
              (0, 1, 1, 0, 0, 1), (0, 0, 1, 1, 1, 0), (1, 0, 0, 1, 1, 0),
              (1, 1, 0, 0, 1, 0), (1, 1, 0, 1, 0, 0), (1, 1, 1, 0, 0, 0))
    assert not linear_quotients_check(list(I.generators)).ok
    assert find_linear_quotient_order(I, strategy="deglex") is None
    order = find_linear_quotient_order(I, strategy="backtracking")
    assert order is not None and linear_quotients_check(order).ok
    assert order != list(I.generators)
    assert sorted(order, key=_deglex_key) == list(I.generators)


def test_unknown_strategy_is_refused_whatever_the_generator_count():
    # <x1> has one generator, which is its own listing, yet the strategy is
    # checked first, as for two generators
    messages = []
    for I in (ideal(2, (1, 0), (0, 1)), ideal(1, (1,))):
        with pytest.raises(ValueError) as refused:
            find_linear_quotient_order(I, strategy="bogus")
        messages.append(str(refused.value))
    assert messages == ["unknown strategy 'bogus'"] * 2


def minimalized_colon(prefix, f):
    """(prefix) : f as minimalize, which checks them, reduces the quotients
    g / gcd(g, f)."""
    quotients = (tuple(max(a - b, 0) for a, b in zip(g, f)) for g in prefix)
    return minimalize(len(f), quotients).generators


def assert_steps_are_minimalized_colons(gens):
    result = linear_quotients_check(gens)
    colons = [minimalized_colon(gens[: k - 1], gens[k - 1]) for k in range(2, len(gens) + 1)]
    bad = next((k for k, c in enumerate(colons, start=2) if any(sum(m) != 1 for m in c)), None)
    assert result.ok == (bad is None) and result.failing_index == bad
    assert list(result.steps) == colons[: len(result.steps)]
    for got in result.steps:
        assert all(type(m) is tuple and all(type(e) is int for e in m) for m in got)
    if bad is not None:
        assert result.offending == next(m for m in colons[bad - 2] if sum(m) != 1)
    I = MonomialIdeal(len(gens[0]), gens)
    certified = find_linear_quotient_order(I, strategy="deglex") is not None
    assert certified == linear_quotients_check(list(I.generators)).ok


listings = st.lists(
    st.lists(st.integers(0, 3), min_size=3, max_size=3), min_size=1, max_size=7
).map(lambda rows: list(MonomialIdeal(3, rows).generators)).flatmap(
    st.permutations)


@given(listings)
def test_check_steps_equal_minimalized_colons(gens):
    assert_steps_are_minimalized_colons(gens)


def test_cover_ideal_steps_equal_minimalized_colons():
    graphs = [complete_graph(n) for n in (3, 4, 5)] + [counterexample_graph()]
    for G in graphs:
        for t in (1, 2, 3):
            assert_steps_are_minimalized_colons(list(cover_ideal(G, t).generators))
    for n, t in ((3, 4), (4, 3), (5, 2)):
        assert_steps_are_minimalized_colons(theorem_order(n, t))


def test_backtracking_cap():
    I = cover_ideal(complete_graph(7), 6)  # 22 generators, past the cap of 20
    assert len(I.generators) == 22
    with pytest.raises(CapacityError, match="cap 20"):
        find_linear_quotient_order(I, strategy="backtracking")


def test_certified_orders_give_linear_resolutions():
    # certificate soundness on equigenerated instances
    instances = [
        cover_ideal(complete_graph(3), 2).component(4),
        cover_ideal(complete_graph(4), 2).component(6),
        cover_ideal(counterexample_graph(), 1).component(3),
    ]
    for J in instances:
        order = find_linear_quotient_order(J, strategy="deglex")
        if order is None:
            order = find_linear_quotient_order(J, strategy="backtracking")
        if order is not None:
            assert has_linear_resolution(J)[0], J


def test_zero_ideal_rejected():
    with pytest.raises(ValueError):
        find_linear_quotient_order(MonomialIdeal(2))


# ---------------------------------------------------------------------------
# polymatroidal exchange

def test_single_generator_component_passes():
    assert polymatroidal_check(ideal(3, (1, 1, 1))) == (True, None)


def test_two_squares_fail_with_witness():
    ok, witness = polymatroidal_check(ideal(2, (2, 0), (0, 2)))
    assert not ok
    u, v, i = witness
    assert {u, v} == {(2, 0), (0, 2)}
    assert i in (1, 2)
    # the witness is checkable: no admissible j rescues position i
    assert u[i - 1] > v[i - 1]
    gens = {(2, 0), (0, 2)}
    for j in range(2):
        if u[j] < v[j]:
            swapped = list(u)
            swapped[i - 1] -= 1
            swapped[j] += 1
            assert tuple(swapped) not in gens


def test_k3t_components_satisfy_exchange():
    for t in (1, 2, 3, 4):
        I = cover_ideal(complete_graph(3), t)
        for d in range(I.min_degree(), I.max_degree() + 1):
            ok, witness = polymatroidal_check(I.component(d))
            assert ok, (t, d, witness)


def test_k4_t1_components_and_bottom_components_satisfy_exchange():
    I = cover_ideal(complete_graph(4), 1)
    for d in range(I.min_degree(), I.max_degree() + 1):
        assert polymatroidal_check(I.component(d))[0], d
    for t in (2, 3, 4):
        I = cover_ideal(complete_graph(4), t)
        assert polymatroidal_check(I.component(I.min_degree()))[0], t


def test_k42_top_component_fails_exchange():
    # x1*x2*x3*x4^3 vs x2^2*x3^2*x4^2 in degree 6: dropping x1 forces a
    # zero first exponent next to a 1, and some pair then sums below 2.
    # Verified against an independent brute-force scan; the componentwise
    # exchange property genuinely fails for K_4^(t) from t = 2 on.
    comp = cover_ideal(complete_graph(4), 2).component(6)
    ok, witness = polymatroidal_check(comp)
    assert not ok
    u, v, i = witness
    assert u[i - 1] > v[i - 1]
    gens = set(comp.generators)
    assert u in gens and v in gens
    for j in range(4):
        if u[j] < v[j]:
            swapped = list(u)
            swapped[i - 1] -= 1
            swapped[j] += 1
            assert tuple(swapped) not in gens


def test_exchange_requires_equigenerated():
    with pytest.raises(NotEquigeneratedError):
        polymatroidal_check(ideal(2, (1, 0), (0, 2)))


def brute_force_order_exists(I):
    """Some degree-nondecreasing listing of I's generators has linear
    quotients: every order within each degree, checked one by one."""
    blocks = [list(group) for _, group in groupby(I.generators, key=sum)]
    return any(
        linear_quotients_check(list(chain.from_iterable(listing))).ok
        for listing in product(*map(permutations, blocks))
    )


def test_backtracking_failed_prefix_memo():
    # <x3^3, x1x2x3, x1x2^2, x1^3> reaches failed sets of chosen generators
    # again by other orders, and has no listing with linear quotients
    I = ideal(3, (0, 0, 3), (1, 1, 1), (1, 2, 0), (3, 0, 0))
    assert find_linear_quotient_order(I, strategy="backtracking") is None
    assert not brute_force_order_exists(I)
    # the chosen set {x2x5x6, x2x3x6, x3x4x6, x3x4x5} has linear quotients but
    # fails, and {x2x5x6, x2x3x6, x3x4x6, x1x2x5} goes on to an order: the
    # memo must be keyed by the set, not by its size (a search of small
    # ideals on 3 to 5 variables found none that tells the two apart)
    I = ideal(6, (0, 1, 0, 0, 1, 1), (0, 0, 1, 1, 0, 1), (1, 0, 0, 1, 0, 1),
              (0, 1, 1, 0, 0, 1), (0, 0, 1, 1, 1, 0), (1, 0, 0, 1, 1, 0),
              (1, 1, 0, 0, 1, 0), (1, 1, 0, 1, 0, 0), (1, 1, 1, 0, 0, 0))
    order = find_linear_quotient_order(I, strategy="backtracking")
    assert order is not None and linear_quotients_check(order).ok
    assert not linear_quotients_check(list(I.generators)).ok
    rng = random.Random(20231)
    for _ in range(150):
        n = rng.randint(3, 4)
        J = MonomialIdeal(n, [tuple(rng.randint(0, 3) for _ in range(n))
                              for _ in range(rng.randint(4, 7))])
        order = find_linear_quotient_order(J, strategy="backtracking")
        assert (order is not None) == brute_force_order_exists(J), J
        if order is not None:
            assert sorted(order, key=_deglex_key) == list(J.generators)
            assert linear_quotients_check(order).ok
