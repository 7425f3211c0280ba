"""Exact rank of sparse integer matrices over Q or a prime field.

The boundary matrices this package produces are sparse with entries that
start at +-1, so ranks are computed by a column-reduction elimination in the
style of the persistence algorithm: each column is reduced against the
pivot column with the same highest nonzero row until that row, its pivot
row, is fresh.  ``matrix_rank`` hands the pivot rows back on request, for
clearing in chain complexes (Chen-Kerber, EuroCG 2011).

Over Q and over GF(p) for odd p one fraction-free kernel serves both
fields (Bareiss, Math. Comp. 22, 1968): a column is replaced by
a*col - b*piv, where a and b are the entries of the pivot column and of
the column in the pivot row, and is then divided by its content over Q,
which keeps entries small without ever rounding, or reduced mod p over
GF(p), where a is a unit and no inverse is needed.  Over GF(2) each column
is packed into one Python int whose set bits are the rows of its odd
entries, and reduction is XOR against the pivot column with the same
highest set bit, as in persistent-homology codes (Bauer, "Ripser",
J. Appl. Comput. Topol. 2021).
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
    reduced = _rank_mod_2(columns) if p == 2 else _rank_fraction_free(columns, p)
    if pivots is not None:
        pivots.update(reduced)
    return len(reduced)


def _rank_fraction_free(columns: Iterable[dict], p: int | None) -> dict[int, dict]:
    pivots: dict[int, dict] = {}  # highest row -> pivot column
    for col in columns:
        col = _normalise(col, p)
        while col:
            low = max(col)
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = col
                break
            a, b = piv[low], col[low]
            # col <- a*col - b*piv zeroes row `low` and only touches rows below it
            new = {r: a * v for r, v in col.items()}
            for r, v in piv.items():
                new[r] = new.get(r, 0) - b * v
            col = _normalise(new, p)
    return pivots


def _normalise(col: dict, p: int | None) -> dict:
    """``col`` without its zero entries, divided by its content over Q or
    reduced mod p over GF(p)."""
    if p is None:
        g = gcd(*col.values())
        return {r: v // g for r, v in col.items() if v}
    return {r: v % p for r, v in col.items() if v % p}


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
