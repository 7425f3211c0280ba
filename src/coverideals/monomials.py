"""Exact arithmetic with monomials and monomial ideals.

A monomial is its exponent vector over a fixed number of ring variables
x1..xn, a tuple of ints; a monomial ideal is its unique minimal generating
set.  Everything here is integer arithmetic: divisibility, minimal
generators, the colon step that linear quotients read (``_colon``), degree
components, and the degree-lex order used to list generators canonically.
The one intersection the package computes, the cover ideal's, is
``graphs.cover_ideal``.  ``MonomialIdeal`` is the one checked type:
exponents are checked where monomials enter (``minimalize``, and through it
``MonomialIdeal(...)``, and ``parse_monomial``), not again in what is
computed from them: colons and components.

Text format (files and CLI): ``x1^2*x3`` with ``1`` for the unit monomial.
Ideal files start with a ``vars <n>`` line followed by one monomial per line.
"""

from __future__ import annotations

import operator
import re
from itertools import combinations_with_replacement
from math import comb
from operator import itemgetter, le, neg, sub
from typing import Iterable, Sequence

from .errors import CapacityError, DimensionError

EXPONENT_CAP = 64  # guard against runaway exponents
COMPONENT_ENUMERATION_CAP = 2_000_000


def _deglex_key(exps: Sequence[int]) -> tuple:
    # Total degree first; ties broken scanning from the highest-index
    # variable down, larger exponent there sorting earlier.
    return (sum(exps), tuple(map(neg, reversed(exps))))


def _checked(exponents: Iterable[int], nvars: int) -> tuple[int, ...]:
    """The exponent tuple of a monomial entering the package, once checked:
    ``nvars`` integers (by ``operator.index``) from 0 to ``EXPONENT_CAP``."""
    exps = tuple(map(operator.index, exponents))
    if not exps:
        raise ValueError("a monomial needs at least one ring variable")
    if min(exps) < 0:
        raise ValueError(f"negative exponent in {exps}")
    if max(exps) > EXPONENT_CAP:
        raise CapacityError(f"exponent {max(exps)} exceeds the cap {EXPONENT_CAP}")
    if len(exps) != nvars:
        raise DimensionError(f"monomial in {len(exps)} variables, expected {nvars}")
    return exps


def format_monomial(exps: Sequence[int]) -> str:
    parts = []
    for i, e in enumerate(exps, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def parse_monomial(text: str, nvars: int) -> tuple[int, ...]:
    text = text.strip()
    exps = [0] * nvars
    if text == "1":
        return _checked(exps, nvars)
    for factor in text.split("*"):
        m = _FACTOR_RE.match(factor.strip())
        if m is None:
            raise ValueError(f"cannot parse monomial factor {factor!r}")
        idx, exp = int(m.group(1)), int(m.group(2) or 1)
        if not 1 <= idx <= nvars:
            raise ValueError(f"variable x{idx} out of range 1..{nvars}")
        if exp < 1:
            raise ValueError(f"exponent must be >= 1 in {factor!r}")
        exps[idx - 1] += exp
    return _checked(exps, nvars)


def _minimal_exponents(exponents: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """The divisibility-minimal exponent vectors among ``exponents``, once
    each, in deglex order."""
    kept: list[tuple[int, ...]] = []
    for e in sorted(set(exponents), key=_deglex_key):
        # earlier entries have lower or equal degree, so only they can divide e
        if not any(all(map(le, k, e)) for k in kept):
            kept.append(e)
    return tuple(kept)


def minimalize(nvars: int, monomials: Iterable[Sequence[int]]) -> "MonomialIdeal":
    """Keep only the divisibility-minimal monomials, each checked first;
    empty input gives the zero ideal."""
    return MonomialIdeal._from_minimal(
        nvars, _minimal_exponents(_checked(m, nvars) for m in monomials))


def _colon(gens: Iterable[tuple[int, ...]], f: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Minimal generators of (gens) : f in deglex order, for any generating
    set: the g / gcd(g, f) generate the colon."""
    return _minimal_exponents(tuple(map(sub, g, map(min, g, f))) for g in gens)


class MonomialIdeal:
    """A monomial ideal stored as its minimal generators, exponent tuples in
    deglex order.

    The zero ideal has no generators; the unit ideal is generated by the
    monomial 1.  Construction minimalizes, so any generating set is accepted.
    """

    __slots__ = ("nvars", "generators")

    def __init__(self, nvars: int, generators: Iterable[Sequence[int]] = ()):
        nvars = operator.index(nvars)
        if nvars < 1:
            raise ValueError("need at least one ring variable")
        self.nvars = nvars
        self.generators = minimalize(nvars, generators).generators

    @classmethod
    def _from_minimal(cls, nvars: int, gens: tuple) -> "MonomialIdeal":
        obj = object.__new__(cls)
        obj.nvars = nvars
        obj.generators = gens
        return obj

    @classmethod
    def unit(cls, nvars: int) -> "MonomialIdeal":
        return cls._from_minimal(nvars, ((0,) * nvars,))

    def is_zero(self) -> bool:
        return not self.generators

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MonomialIdeal)
            and self.nvars == other.nvars
            and self.generators == other.generators
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.generators))

    def __repr__(self) -> str:
        gens = ", ".join(format_monomial(g) for g in self.generators)
        return f"MonomialIdeal({self.nvars}, <{gens}>)"

    def degrees(self) -> list[int]:
        return [sum(g) for g in self.generators]

    def min_degree(self) -> int:
        if self.is_zero():
            raise ValueError("zero ideal has no generator degrees")
        return sum(self.generators[0])

    def max_degree(self) -> int:
        if self.is_zero():
            raise ValueError("zero ideal has no generator degrees")
        return sum(self.generators[-1])

    def is_equigenerated(self) -> bool:
        return self.is_zero() or self.min_degree() == self.max_degree()

    def component(self, d: int) -> "MonomialIdeal":
        """The ideal generated by all degree-d monomials of self.

        Its minimal generators are exactly the degree-d monomials contained
        in self (monomials of one degree never divide each other).  The
        enumeration cap is checked per generator; the exponent cap once,
        after enumeration, naming the largest exponent of the deglex-first
        monomial past it, which is the text of an entry check (``_checked``).
        """
        if d < 0:
            raise ValueError("negative degree")
        seen: set[tuple] = set()
        n = self.nvars
        over = False  # some multiple is past the exponent cap
        for g in self.generators:
            k = d - sum(g)
            if k < 0:
                continue
            count = comb(k + n - 1, n - 1)  # multisets of k of the n variables
            if count > COMPONENT_ENUMERATION_CAP:
                raise CapacityError(
                    f"enumerating the degree-{d} component needs {count} "
                    "multiples per generator; beyond the enumeration cap"
                )
            over |= max(g) + k > EXPONENT_CAP
            for extra in combinations_with_replacement(range(n), k):
                exps = list(g)
                for i in extra:
                    exps[i] += 1
                seen.add(tuple(exps))
        if over:
            first = min((e for e in seen if max(e) > EXPONENT_CAP), key=_deglex_key)
            raise CapacityError(f"exponent {max(first)} exceeds the cap {EXPONENT_CAP}")
        # one degree, so deglex is descending order of the reversed exponents
        exps = sorted(seen, reverse=True, key=itemgetter(*reversed(range(n))))
        return MonomialIdeal._from_minimal(n, tuple(exps))


def parse_ideal(text: str) -> MonomialIdeal:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("vars"):
        raise ValueError("ideal file must start with a 'vars <n>' line")
    header = re.fullmatch(r"vars\s+([+-]?\d+)", lines[0])
    if header is None:
        raise ValueError(f"bad vars line {lines[0]!r}")
    nvars = int(header.group(1))
    gens = [parse_monomial(ln, nvars) for ln in lines[1:]]
    return MonomialIdeal(nvars, gens)


def load_ideal(path) -> MonomialIdeal:
    with open(path, encoding="utf-8") as fh:
        return parse_ideal(fh.read())
