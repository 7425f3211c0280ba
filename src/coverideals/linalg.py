"""Exact rank of sparse integer matrices over Q or a prime field.

The boundary matrices this package produces are sparse with entries that
start at +-1, so ranks are computed by a column-reduction elimination in the
style of the persistence algorithm: each column is reduced against the
pivot column with the same highest nonzero row until that row, its pivot
row, is fresh.  ``matrix_rank`` hands the pivot rows back on request, for
clearing in chain complexes (Chen-Kerber, EuroCG 2011).

Over the rationals the updates are fraction-free: columns stay integral and
are divided by their content after every combination, which keeps entries
small without ever rounding.  Over GF(p) for odd p arithmetic is plain
modular.  Over GF(2) each column is packed into one Python int whose set
bits are the rows of its odd entries, and reduction is XOR against the
pivot column with the same highest set bit, as in persistent-homology codes
(Bauer, "Ripser", J. Appl. Comput. Topol. 2021).
"""

from __future__ import annotations

from math import gcd
from typing import Iterable


def matrix_rank(
    columns: Iterable[dict], p: int | None = None, pivots: set[int] | None = None
) -> int:
    """Rank of the matrix whose columns are {row_index: value} dicts, with
    non-negative integer row indices and integer values.

    ``p`` selects GF(p); ``None`` means exact rank over the rationals.  A
    set ``pivots`` receives the pivot rows, one per unit of rank: the rows
    r where the rows from r up have larger rank than the rows above r.
    Input dicts are not modified.
    """
    if p is None:
        reduced = _rank_rationals(columns)
    elif p == 2:
        reduced = _rank_mod_2(columns)
    else:
        reduced = _rank_mod_p(columns, p)
    if pivots is not None:
        pivots.update(reduced)
    return len(reduced)


def _content_reduce(col: dict) -> None:
    g = gcd(*col.values())
    if g > 1:
        for r in col:
            col[r] //= g


def _rank_rationals(columns: Iterable[dict]) -> dict[int, dict]:
    pivots: dict[int, dict] = {}  # highest row -> pivot column
    for col in columns:
        col = {r: v for r, v in col.items() if v}
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                _content_reduce(col)
                pivots[low] = col
                break
            a, b = piv[low], col[low]
            # col <- a*col - b*piv zeroes row `low` and only touches rows below it
            new = {}
            for r, v in col.items():
                new[r] = a * v
            for r, v in piv.items():
                w = new.get(r, 0) - b * v
                if w:
                    new[r] = w
                else:
                    new.pop(r, None)
            col = new
            _content_reduce(col)
    return pivots


def _rank_mod_p(columns: Iterable[dict], p: int) -> dict[int, dict]:
    pivots: dict[int, dict] = {}  # highest row -> pivot column
    for col in columns:
        col = {r: v % p for r, v in col.items() if v % p}
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
            factor = (col[low] * pow(piv[low], p - 2, p)) % p
            new = dict(col)
            for r, v in piv.items():
                w = (new.get(r, 0) - factor * v) % p
                if w:
                    new[r] = w
                else:
                    new.pop(r, None)
            col = new
    return pivots


def _rank_mod_2(columns: Iterable[dict]) -> dict[int, int]:
    pivots: dict[int, int] = {}  # highest set bit -> packed pivot column
    for col in columns:
        x = 0
        for r, v in col.items():
            if v & 1:
                x |= 1 << r
        while x:
            top = x.bit_length() - 1
            piv = pivots.get(top)
            if piv is None:
                pivots[top] = x
                break
            x ^= piv
    return pivots
