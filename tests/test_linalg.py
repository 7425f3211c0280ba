import copy
import random
from fractions import Fraction

import pytest

from coverideals.linalg import matrix_rank


def reference_rank(columns, p=None):
    """Rank of {row: value} columns by dense Gaussian elimination, with
    ``Fraction`` entries over Q (p=None) and residues mod p otherwise; it
    shares no code with ``coverideals.linalg``."""
    rows = sorted({r for col in columns for r in col})
    if p is None:
        vectors = [[Fraction(col.get(r, 0)) for r in rows] for col in columns]
    else:
        vectors = [[col.get(r, 0) % p for r in rows] for col in columns]
    rank = 0
    for j in range(len(rows)):
        pivot = next((i for i in range(rank, len(vectors)) if vectors[i][j]), None)
        if pivot is None:
            continue
        vectors[rank], vectors[pivot] = vectors[pivot], vectors[rank]
        top = vectors[rank]
        for i in range(rank + 1, len(vectors)):
            if not vectors[i][j]:
                continue
            if p is None:
                f = vectors[i][j] / top[j]
                vectors[i] = [a - f * b for a, b in zip(vectors[i], top)]
            else:
                f = vectors[i][j] * pow(top[j], p - 2, p) % p
                vectors[i] = [(a - f * b) % p for a, b in zip(vectors[i], top)]
        rank += 1
    return rank


def random_columns(rng, nrows):
    """Sparse integer columns with entries in -3..3 (zeros listed too), some
    of them empty and some repeating an earlier column."""
    columns = []
    for _ in range(rng.randint(0, 9)):
        roll = rng.random()
        if columns and roll < 0.15:
            columns.append(dict(rng.choice(columns)))
        elif roll < 0.25:
            columns.append({})
        else:
            rows = rng.sample(range(nrows), rng.randint(1, min(nrows, 5)))
            columns.append({r: rng.randint(-3, 3) for r in rows})
    return columns


def seeded_matrices(p):
    """400 seeded random matrices for the field ``p``."""
    rng = random.Random(20261018 + (p or 0))
    for _ in range(400):
        # past 64 rows the packed GF(2) columns are multi-word integers
        yield random_columns(rng, rng.choice((3, 6, 12, 100)))


def reference_pivot_rows(columns, p=None):
    """The rows r where the rows from r up have larger rank than the rows
    above r.  Any column reduction that pivots on the highest nonzero row
    ends with exactly these as the highest rows of its nonzero columns, since
    reducing against earlier columns keeps the rank of every such slice."""

    def rank_from(r):
        return reference_rank([{k: v for k, v in col.items() if k >= r} for col in columns], p)

    return {r for r in {r for col in columns for r in col} if rank_from(r) > rank_from(r + 1)}


@pytest.mark.parametrize("p", [None, 2, 3, 5, 2**31 - 1])
def test_matrix_rank_matches_reference_elimination(p):
    for columns in seeded_matrices(p):
        before = copy.deepcopy(columns)
        assert matrix_rank(columns, p) == reference_rank(columns, p), columns
        assert columns == before


@pytest.mark.parametrize("p", [None, 2, 3, 5, 2**31 - 1])
def test_matrix_rank_pivot_rows_match_reference(p):
    for columns in seeded_matrices(p):
        before = copy.deepcopy(columns)
        pivots = set()
        rank = matrix_rank(columns, p, pivots)
        assert pivots == reference_pivot_rows(columns, p), columns
        assert len(pivots) == rank
        assert columns == before


def test_matrix_rank_even_and_negative_entries():
    fields = (None, 2, 3, 5, 2**31 - 1)
    even = [{0: 2, 1: -4}, {1: 6}]
    assert [matrix_rank(even, p) for p in fields] == [2, 0, 1, 2, 2]
    odd = [{0: -1, 1: 1}, {0: 1, 1: 1}]
    assert [matrix_rank(odd, p) for p in fields] == [2, 1, 2, 2, 2]
    assert [matrix_rank([{0: -3}, {0: 5}], p) for p in fields] == [1, 1, 1, 1, 1]


def test_matrix_rank_empty_and_one_shot_input():
    for p in (None, 2, 3, 5, 2**31 - 1):
        assert matrix_rank([], p) == 0
        assert matrix_rank([{}, {0: 0}], p) == 0
        assert matrix_rank(iter([{0: 1}, {1: 1}, {0: 1, 1: 1}]), p) == 2


def test_matrix_rank_pivot_rows_of_empty_and_one_shot_input():
    for p in (None, 2, 3, 5, 2**31 - 1):
        pivots = set()
        assert matrix_rank([], p, pivots) == 0 and pivots == set()
        assert matrix_rank([{}, {0: 0}], p, pivots) == 0 and pivots == set()
        # rows are added to what the set already holds
        pivots = {7}
        assert matrix_rank(iter([{0: 1}, {1: 1}, {0: 1, 1: 1}]), p, pivots) == 2
        assert pivots == {0, 1, 7}
        # the second column's highest row 3 is taken by the first, so it
        # pivots on row 2; the third is twice the first (zero mod 2)
        pivots = set()
        assert matrix_rank([{0: 1, 3: 1}, {2: 1, 3: 1}, {0: 2, 3: 2}], p, pivots) == 2
        assert pivots == {2, 3}
