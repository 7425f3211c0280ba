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


@pytest.mark.parametrize("p", [None, 2, 3])
def test_matrix_rank_matches_reference_elimination(p):
    rng = random.Random(20261018 + (p or 0))
    for _ in range(400):
        # past 64 rows the packed GF(2) columns are multi-word integers
        columns = random_columns(rng, rng.choice((3, 6, 12, 100)))
        before = copy.deepcopy(columns)
        assert matrix_rank(columns, p) == reference_rank(columns, p), columns
        assert columns == before


def test_matrix_rank_even_and_negative_entries():
    even = [{0: 2, 1: -4}, {1: 6}]
    assert [matrix_rank(even, p) for p in (None, 2, 3)] == [2, 0, 1]
    odd = [{0: -1, 1: 1}, {0: 1, 1: 1}]
    assert [matrix_rank(odd, p) for p in (None, 2, 3)] == [2, 1, 2]
    assert [matrix_rank([{0: -3}, {0: 5}], p) for p in (None, 2, 3)] == [1, 1, 1]


def test_matrix_rank_empty_and_one_shot_input():
    for p in (None, 2, 3):
        assert matrix_rank([], p) == 0
        assert matrix_rank([{}, {0: 0}], p) == 0
        assert matrix_rank(iter([{0: 1}, {1: 1}, {0: 1, 1: 1}]), p) == 2
