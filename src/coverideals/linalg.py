"""Exact rank of sparse integer matrices over Q or a prime field.

The boundary matrices this package produces are sparse with entries that
start at +-1, so ranks are computed by a column-reduction elimination in the
style of the persistence algorithm: each column is reduced against the
pivot column with the same lowest row until its lowest row is fresh.

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


def matrix_rank(columns: Iterable[dict], p: int | None = None) -> int:
    """Rank of the matrix whose columns are {row_index: value} dicts, with
    non-negative integer row indices and integer values.

    ``p`` selects GF(p); ``None`` means exact rank over the rationals.
    Input dicts are not modified.
    """
    if p is None:
        return _rank_rationals(columns)
    if p == 2:
        return _rank_mod_2(columns)
    return _rank_mod_p(columns, p)


def _content_reduce(col: dict) -> None:
    g = 0
    for v in col.values():
        g = gcd(g, v)
        if g == 1:
            return
    if g > 1:
        for r in col:
            col[r] //= g


def _rank_rationals(columns: Iterable[dict]) -> int:
    pivots: dict[int, dict] = {}  # lowest row -> pivot column
    rank = 0
    for col in columns:
        col = {r: v for r, v in col.items() if v}
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                _content_reduce(col)
                pivots[low] = col
                rank += 1
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
    return rank


def _rank_mod_p(columns: Iterable[dict], p: int) -> int:
    pivots: dict[int, dict] = {}
    rank = 0
    for col in columns:
        col = {r: v % p for r, v in col.items() if v % p}
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                rank += 1
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
    return rank


def _rank_mod_2(columns: Iterable[dict]) -> int:
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
    return len(pivots)
