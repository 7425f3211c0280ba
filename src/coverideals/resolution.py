"""Multigraded Betti numbers of monomial ideals and linearity tests.

Two engines build different chain complexes for the same table and take
their homology with one routine, ``_homology``, whose faces are bitmasks:

* ``taylor_strand_betti`` works straight from the subset complex of the
  generators; the strand of the complex at a fixed multidegree, with the
  differential keeping a face only when dropping a generator leaves the lcm
  unchanged, has the Betti numbers as its homology.  Each generator is coded
  as one int, with each exponent's position among the generators'
  exponents in its variable written in unary, so the lcm of a subset is the
  OR of its generators' codes and is decoded to exponents only where a
  Betti number lives.  A stratum whose lcm has a generator strictly below
  it on every axis off the least exponent is a cone with no homology, and
  is skipped before any boundary is built.  Cost is 2^g in the number of
  generators, so it is the small-instance oracle.

* ``koszul_betti`` enumerates the lcm lattice of the generators and reads
  beta_{i,a} off the reduced homology (one dimension down) of the squarefree
  complex {b <= support(a) : x^(a-b) in I}, which lives on at most n
  vertices regardless of the generator count (Miller-Sturmfels, Thm 1.34).
  Variables that can be swapped without changing the generators (twins,
  such as all n vertices of K_n in J_{K_n}(t)) give lattice points with
  equal Betti numbers, so complexes are built only at the points whose
  values do not decrease along each twin class, one per orbit of the swaps,
  built as words over the twins' values where fewer than the lattice's
  points, else filtered from them; the rest of an orbit, reached by
  swapping twins, is listed only if the multigraded entries are read, as
  the coarse ones need only its size.
  Membership is a bit plane over the compressed divisor box (on each axis
  the generator exponents in its variable, plus 0), one per call, which
  also gives the lattice.  The representatives are grouped by support, and
  each face pattern's membership bit is gathered for all of a support's
  points at once.  Each distinct complex is matched on one vertex, and only
  the faces left unmatched reach ``_homology``, once (none: a cone).  A box
  past ``BOX_CAP`` cells raises CapacityError before anything is allocated.

``_homology`` builds the boundary columns one at a time as the rank kernel
reads them, so no boundary matrix is held whole.  Over Q it ranks every
boundary mod 2 first (the packed GF(2) kernel of ``matrix_rank``).  Integer
boundaries with d^2 = 0 make those ranks the rational ones wherever the
mod-2 ranks at a size add up to its face count; a boundary that neither of
its end sizes certifies, which needs mod-2 homology there (the RP^2
triangulation), is ranked again exactly.

``betti_table(engine="auto")`` uses the Taylor engine up to ``TAYLOR_CAP``
generators and the Koszul engine past it.  Linear resolutions and
componentwise linearity are decided on top of the Betti tables.  Linear
quotients (with order search) and the polymatroidal exchange condition read
the generators alone; a linear-quotients order certifies componentwise
linearity with no Betti number.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from collections import Counter, defaultdict, namedtuple
from itertools import (
    combinations, combinations_with_replacement, compress, islice, product, repeat,
)
from math import comb, factorial, prod
from operator import getitem, itemgetter, le
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CapacityError, NotEquigeneratedError
from .linalg import matrix_rank
from .monomials import Monomial, MonomialIdeal, _colon

# Generator count past which the subset-complex engine refuses an ideal and
# ``engine="auto"`` switches to the lcm-lattice engine.
TAYLOR_CAP = 14
BACKTRACKING_CAP = 20
# GF(p) is accepted for primes p below this bound only, which keeps the
# trial-division primality test to milliseconds.
FIELD_BOUND = 1 << 31
# Cells of the compressed divisor box past which the lcm-lattice engine
# refuses an ideal.  Every degree component of J_{K_n}(t) with n <= 7 and
# t <= 3 fits; the largest (n = 7, t = 3, degree 18) fills it exactly.
BOX_CAP = 1 << 21


class FieldChoice(namedtuple("FieldChoice", "p", defaults=(None,))):
    """Coefficient field: the rationals (p=None) or GF(p) for a prime
    p < ``FIELD_BOUND`` (2^31)."""

    __slots__ = ()

    def __new__(cls, p: Optional[int] = None):
        if p is not None:
            p = operator.index(p)
            if p >= FIELD_BOUND:
                raise ValueError(f"field size {p} is not below 2^31")
            if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
                raise ValueError(f"{p} is not prime")
        return super().__new__(cls, p)

    @classmethod
    def _make(cls, iterable):  # so that _replace validates too
        return cls(*iterable)

    @property
    def label(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"

    def __str__(self) -> str:
        return self.label


RATIONALS = FieldChoice(None)


def parse_field(text: str) -> FieldChoice:
    text = text.strip()
    if text in ("Q", "q", "QQ", "rationals"):
        return RATIONALS
    try:
        p = int(text[1:] if text.startswith(("F", "f")) else text)
    except ValueError:
        raise ValueError(f"bad field {text!r}: expected Q, a prime p or Fp") from None
    return FieldChoice(p)


class BettiTable:
    """Multigraded Betti numbers with their coarse (total-degree) shadow.

    ``multigraded`` maps (homological index i, exponent tuple) to a positive
    rank; ``coarse`` maps (i, total degree) to the sum over multidegrees.
    A ``koszul_betti`` table holds one point per twin orbit (``_of_orbits``)
    and swaps twins (``_twin_orbit``) to expand ``multigraded`` when read.
    """

    __slots__ = ("nvars", "field", "coarse", "_multigraded", "_orbits")

    def __init__(self, nvars: int, field: FieldChoice, multigraded: dict):
        self.nvars = nvars
        self.field = field
        self._multigraded = multigraded
        self.coarse: dict[tuple[int, int], int] = {}
        for (i, a), r in multigraded.items():
            self.coarse[(i, sum(a))] = self.coarse.get((i, sum(a)), 0) + r

    @classmethod
    def _of_orbits(cls, nvars: int, field: FieldChoice, classes: list[list[int]],
                   twins: list[tuple[int, int]], orbits: dict) -> BettiTable:
        """Every point of the orbit of a representative in ``orbits``, lists of
        (representative, ranks) by pattern of equal consecutive twins, has
        beta_{i,a} = r for (i, r) in ranks."""
        table = cls(nvars, field, {})
        table._multigraded, table._orbits = None, (twins, orbits)
        for carried in orbits.values():
            # the orbit's size, the same for every point of a pattern, is its
            # number of distinct rearrangements within each twin class
            counts = [Counter(carried[0][0][i] for i in c).values() for c in classes]
            size = prod(factorial(sum(n)) // prod(map(factorial, n)) for n in counts)
            for a, ranks in carried:
                for i, r in ranks:
                    table.coarse[(i, sum(a))] = table.coarse.get((i, sum(a)), 0) + r * size
        return table

    @property
    def multigraded(self) -> dict:
        if self._multigraded is None:
            twins, orbits = self._orbits
            self._multigraded = {
                (i, b): r for carried in orbits.values() for a, ranks in carried
                for b in _twin_orbit(a, twins) for i, r in ranks
            }
        return self._multigraded

    def coarse_entries(self) -> list[tuple[int, int, int]]:
        return sorted((i, j, r) for (i, j), r in self.coarse.items())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BettiTable)
            and self.nvars == other.nvars
            and self.multigraded == other.multigraded
        )

    def __repr__(self) -> str:
        return f"BettiTable({self.coarse_entries()})"

    def to_json_dict(self) -> dict:
        rows = sorted((i, sum(a), a, r) for (i, a), r in self.multigraded.items())
        return {
            "field": self.field.label,
            "coarse": [[i, j, r] for i, j, r in self.coarse_entries()],
            "multigraded": [[i, list(a), r] for i, _, a, r in rows],
        }


# ---------------------------------------------------------------------------
# simplicial homology


def simplicial_homology_ranks(
    faces: Iterable[Iterable[int]], field: FieldChoice = RATIONALS
) -> list[int]:
    """Reduced homology ranks by dimension, starting at dimension -1.

    ``faces`` must be closed under taking subsets; the empty face is implied
    and need not be listed.  The check drops one vertex at a time: a finite
    family closed under that is closed under every subset.  The empty
    complex (only the empty face) has rank 1 in dimension -1; the void
    complex (no faces at all) has no homology and yields [].
    """
    face_set = {frozenset(f) for f in faces}
    if not face_set:
        return []
    face_set.add(frozenset())
    if any(f - {v} not in face_set for f in face_set for v in f):
        raise ValueError("faces are not closed under taking subsets")
    bit = {v: 1 << k for k, v in enumerate(sorted(set().union(*face_set)))}
    ranks = _homology([sum(bit[v] for v in f) for f in face_set], field)
    return [ranks[size] for size in range(len(ranks))]


def _homology(faces: Iterable[int], field: FieldChoice) -> dict[int, int]:
    """Homology ranks of a chain complex of bitmask faces, by face size.

    The boundary of a face drops one set bit at a time, with sign
    (-1)^(number of set bits below it), and keeps only the sub-faces that
    are themselves faces.  The faces must contain every set lying between
    two of them, so that the boundary squares to zero: simplicial complexes
    and Taylor strata do.  For a simplicial complex (empty face included)
    the rank at size s is reduced homology in dimension s-1.

    Boundaries are ranked from the largest size down, with clearing
    (Chen-Kerber, EuroCG 2011): the reduced column of d_{s+1} with pivot
    row r is a sum of boundaries, so a cycle whose highest face is the r-th
    face of size s; d_s kills it, so column r of d_s is a combination of
    earlier columns and is never built, which by induction leaves rank d_s
    unchanged over any field.  This needs the rows of d_{s+1} in the order
    of the columns of d_s (both are positions in ``by_size[s]``) and every
    ``matrix_rank`` kernel pivoting on the highest nonzero row.

    Over Q every boundary is ranked mod 2 first.  Where the mod-2 ranks of
    the two boundaries at a size add up to its face count, both are the
    rational ranks; only a boundary that neither of its end sizes certifies
    is eliminated again, exactly and uncleared (mod-2 pivots do not clear
    rational columns), over Q.  That happens only where mod-2 homology does
    not vanish at both ends, as on the RP^2 triangulation.
    """
    by_size: dict[int, list[int]] = defaultdict(list)
    for f in faces:
        by_size[f.bit_count()].append(f)
    # a face's position among the faces of its size: its row in the
    # boundary matrix of the next size up
    index = {f: i for fs in by_size.values() for i, f in enumerate(fs)}
    p = 2 if field.p is None else field.p
    bd_rank: dict[int, int] = {}  # s -> rank of the boundary from size s to size s-1
    cleared: set[int] = set()  # pivot rows of the boundary from size s+1
    for size in sorted(by_size, reverse=True):
        kept = [f for i, f in enumerate(by_size[size]) if i not in cleared]
        cleared = set()
        has_rows = size - 1 in by_size
        bd_rank[size] = matrix_rank(_boundary(kept, index), p, cleared) if has_rows else 0
    if field.p is None:
        # The boundary matrices are integral, so rank_Q >= rank_2 for each
        # (a minor that is nonzero mod 2 is a nonzero integer), and
        # d_s d_{s+1} = 0 gives rank_Q d_s + rank_Q d_{s+1} <= n_s.  At a
        # size where rank_2 d_s + rank_2 d_{s+1} = n_s both inequalities
        # are equalities, so both mod-2 ranks are the rational ones.
        exact = {
            size
            for size, fs in by_size.items()
            if bd_rank[size] + bd_rank.get(size + 1, 0) == len(fs)
        }
        for size, fs in by_size.items():
            if size - 1 in by_size and size not in exact and size - 1 not in exact:
                bd_rank[size] = matrix_rank(_boundary(fs, index), None)
    return {
        size: len(fs) - bd_rank[size] - bd_rank.get(size + 1, 0)
        for size, fs in by_size.items()
    }


def _boundary(faces: list[int], index: dict[int, int]) -> Iterator[dict]:
    """Boundary matrix columns of ``faces``, rows numbered by ``index``,
    built one at a time as the rank kernel reads them."""
    for f in faces:
        col = {}
        sign = 1
        rest = f
        while rest:
            low = rest & -rest
            row = index.get(f ^ low)
            if row is not None:
                col[row] = sign
            sign = -sign
            rest ^= low
        yield col


# ---------------------------------------------------------------------------
# Betti engines


def taylor_strand_betti(
    ideal: MonomialIdeal, field: FieldChoice = RATIONALS
) -> BettiTable:
    """Multigraded Betti numbers from the strands of the generator-subset
    complex.

    The subsets are grouped by the code of their lcm: on axis i a generator
    sets the k low bits of the axis's field when its exponent is the k-th
    smallest (from 0) of the generators' exponents in x_i.  The fields
    hold unary positions, so the OR of two codes is the code of their lcm,
    and a code has at most n * (g - 1) bits whatever the exponents.  A
    stratum's code is decoded (axis i: its values at the field's popcount)
    only when the stratum has homology.

    Before any homology, each distinct lcm code is tested once for being a
    cone, and a cone stratum is skipped: its masks are never grouped.  With
    ``tops`` the top bit of every field of nonzero width, ``down = code &
    (code >> 1) & ~tops`` is the code one position lower on every axis
    (0 where the field is 0), and the stratum of a nonzero code is a cone
    when some generator code c has ``c & ~down == 0``: that generator is
    strictly below the lcm m on every axis where m is above the generators'
    least exponent, and equal to m on the others.  Such a stratum has no
    homology over any field (Taylor, 1966; Gasharov-Peeva-Welker, Math. Res.
    Lett. 6, 1999):

    * On an axis where m is at the least exponent, every generator dividing
      m equals m there, so only the other axes can make the lcm of a subset
      a proper divisor of m.
    * Let Delta_<m be the subsets of the generators dividing m whose lcm
      properly divides m, the empty set included.  A generator g strictly
      below m on all those other axes is an apex of Delta_<m: adding g to
      any member keeps its lcm below m on the axis that put it there (for
      the empty set, {g} itself lies below m, as m is above the least
      exponent somewhere).  So Delta_<m is a cone, hence acyclic.
    * The stratum is the full simplex on the generators dividing m relative
      to Delta_<m.  Both are acyclic, so by the long exact sequence of the
      pair the stratum has no homology.

    The argument uses only the subset complex, so this engine stays an
    oracle independent of ``koszul_betti``.

    Exponential in the generator count; past ``TAYLOR_CAP`` (14) generators
    it raises CapacityError, and ``koszul_betti`` should be used instead."""
    gens = ideal.generators
    g = len(gens)
    if g > TAYLOR_CAP:
        raise CapacityError(
            f"{g} generators exceeds the subset-complex cap {TAYLOR_CAP}; "
            "use koszul_betti"
        )
    exps = [m.exponents for m in gens]
    values = [sorted(set(axis)) for axis in zip(*exps)]
    fields = []  # (offset, width mask, grid values) per axis
    offset = 0
    for vs in values:
        fields.append((offset, (1 << (len(vs) - 1)) - 1, vs))
        offset += len(vs) - 1
    codes = [
        sum(((1 << vs.index(v)) - 1) << off for v, (off, _, vs) in zip(e, fields))
        for e in exps
    ]
    # lcm_of[mask]: code of the lcm of the generators in mask, built one
    # generator at a time (the masks holding generator k are those below
    # 2^k with bit k added)
    lcm_of = [0]
    for c in codes:
        lcm_of += [d | c for d in lcm_of]

    # `& ~tops` clears what the shift brings into each field's top bit from
    # the field above; code 0 (one generator at the least exponents) is no cone
    tops = sum(1 << (off + width.bit_length() - 1) for off, width, _ in fields if width)
    kept = set()
    for code in set(lcm_of):
        down = code & (code >> 1) & ~tops
        if not code or all(c & ~down for c in codes):
            kept.add(code)
    strata: dict[int, list[int]] = defaultdict(list)
    for mask in compress(range(1, 1 << g), map(kept.__contains__, islice(lcm_of, 1, None))):
        strata[lcm_of[mask]].append(mask)
    del lcm_of  # 2^g codes: over half of the call's peak memory at g = 14

    multigraded: dict[tuple, int] = {}
    for code, masks in strata.items():
        homology = [(size, h) for size, h in _homology(masks, field).items() if h]
        if homology:
            a = tuple(vs[((code >> off) & width).bit_count()] for off, width, vs in fields)
            # a strand face of `size` generators sits in homological degree size-1
            for size, h in homology:
                multigraded[(size - 1, a)] = h
    return BettiTable(ideal.nvars, field, multigraded)


class _DivisorBox:
    """The compressed divisor box of an ideal, held as bit planes.

    Axis i keeps only the generator exponents in x_i, plus 0, and a cell
    stands for the exponent vector of its grid values.  Cells are numbered
    row-major (the last axis has stride 1), so index order is lexicographic.
    A plane is an int whose bit idx stands for cell idx: ``gens`` holds the
    generators, ``up[i]`` the cells off position 0 of axis i, and ``member``
    the cells in the ideal: ``gens`` swept up every axis, as a generator
    divides a cell's monomial iff it is at or below it on every axis.
    """

    __slots__ = ("size", "values", "strides", "offsets", "up", "gens", "member")

    def __init__(self, ideal: MonomialIdeal):
        exps = [g.exponents for g in ideal.generators]
        self.values = values = [sorted({0, *c}) for c in zip(*exps)] or [[0]] * ideal.nvars
        lengths = [len(v) for v in values]
        self.size = size = prod(lengths)
        if size > BOX_CAP:
            raise CapacityError(
                f"the compressed divisor box has {size} cells, beyond the "
                f"lcm-lattice engine's cap {BOX_CAP}"
            )
        self.strides = strides = [prod(lengths[i + 1:]) for i in range(len(values))]
        # offsets[i][v]: index step to grid value v on axis i (v <= EXPONENT_CAP)
        self.offsets = [[bisect_left(vs, v) * s for v in range(vs[-1] + 1)]
                        for vs, s in zip(values, strides)]
        # axis i repeats blocks of length * stride cells whose first stride
        # cells sit at position 0; one block is doubled until it spans the box
        self.up = []
        for s, l in zip(strides, lengths):
            up, width = (1 << s * l) - (1 << s), s * l
            while width < size:
                up, width = up | up << width, 2 * width
            self.up.append(up & (1 << size) - 1)
        bits = bytearray(size + 7 >> 3)  # read little-endian, bit idx is cell idx
        for idx in map(self.index, exps):
            bits[idx >> 3] |= 1 << (idx & 7)
        self.gens = int.from_bytes(bits, "little")
        self.member = self.sweep(self.gens, range(len(values)))

    def index(self, exps: Sequence[int]) -> int:
        """Index of the cell of an exponent vector made of grid values."""
        return sum(map(getitem, self.offsets, exps))

    def sweep(self, plane: int, axes: Iterable[int]) -> int:
        """Close a plane upward along the given axes.  A shift by axis i's
        stride moves every cell one step up that axis; ``up[i]`` drops the
        cells that wrapped round to position 0."""
        for i in axes:
            s, up = self.strides[i], self.up[i]
            for _ in range(len(self.values[i]) - 1):
                plane |= (plane << s) & up
        return plane

    def flags(self, plane: int) -> bytes:
        """One byte per cell: 1 where the plane holds the cell, else 0."""
        bits = format(plane, f"0{self.size}b")[::-1].encode()
        return bits.translate(bytes.maketrans(b"01", b"\0\1"))


def lcm_lattice(ideal: MonomialIdeal, *,
                box: Optional[_DivisorBox] = None) -> list[tuple[int, ...]]:
    """All lcms of non-empty generator subsets (the only multidegrees where
    Betti numbers can live), sorted: the cells of the divisor box (``box``,
    if the caller built it) that, on each axis i of their support, lie in
    ``gens`` swept up every axis but i (the cells some generator dividing
    them attains on axis i); ``prefix`` holds the sweep of the axes before i."""
    box = _DivisorBox(ideal) if box is None else box
    lattice, prefix = box.member, box.gens
    for i in range(len(box.values)):
        lattice &= box.sweep(prefix, range(i + 1, len(box.values))) | ~box.up[i]
        prefix = box.sweep(prefix, (i,))
    # index order is row-major, the order in which product walks the grid
    return list(compress(product(*box.values), box.flags(lattice)))


def koszul_betti(
    ideal: MonomialIdeal, field: FieldChoice = RATIONALS
) -> BettiTable:
    """Multigraded Betti numbers from upper Koszul complexes at the
    lcm-lattice multidegrees; scales with 2^n rather than 2^(number of
    generators).

    beta_{i,a} is the reduced homology in dimension i-1 of the complex
    {b <= support(a) : x^(a-b) in I} (Miller-Sturmfels, Combinatorial
    Commutative Algebra, Thm 1.34).  As exponents are grid values, x^(a-b)
    is in I iff the divisor-box cell one step down every axis of b is in
    the membership plane; the same box gives ``lcm_lattice`` its planes.

    Variables x_i and x_j are twins when swapping them maps the minimal
    generators onto themselves (``_twin_classes``).  Such a swap fixes I, so
    it maps the complex at a onto the complex at the swapped point, with the
    vertices renamed, and the two carry the same Betti numbers; the swaps
    generate the product of the symmetric groups on the twin classes.  Twin
    axes have the same grid values, so each orbit of lattice points holds
    exactly one point whose values do not decrease along every class, and
    complexes are built at these only.  Where the nondecreasing words over
    each class's grid values are fewer than the lattice points, they are
    built and looked up (``_built_representatives``: 252 words keep 86 of
    2,228 points of J_{K_5}(3) in degree 12); else consecutive twins'
    columns are compared at every point.

    The representatives are grouped by support.  In a support, face pattern
    k (a vertex set on the support axes) lies one step down each of its
    axes, a fixed index distance ``steps[k]`` below the point in the box, so
    one ``itemgetter`` over the membership flags reads pattern k's bit for
    every point of the support at once.  A point's bits form its complex's
    face bitset (bit k for pattern k), and each distinct bitset is handled
    once per call.  Such a complex K holds the empty face, as the point is
    in I, so the star of a vertex v of K is a cone, hence acyclic, and the
    reduced homology of K is that of the pair (K, star): the faces lacking
    v whose union with v is no face, the boundary restricted to them (the
    critical faces of the Morse matching of each other face with its union
    with v; Forman, Adv. Math. 134, 1998).  Only those, for the v leaving
    fewest (``_critical_faces``), reach ``_homology``; none means a cone.

    The table keeps each representative that carries a Betti number with
    its ranks; coarse entries weigh them by orbit size, all a linearity
    verdict reads, and the rest of each orbit, reached by swapping
    consecutive twins (``_twin_orbit``), is built only when the multigraded
    entries are read.

    Raises CapacityError, before allocating, past ``BOX_CAP`` cells.
    """
    box = _DivisorBox(ideal)
    member = memoryview(box.flags(box.member))
    points = lcm_lattice(ideal, box=box)
    classes = _twin_classes(ideal)
    twins = [(i, j) for cls in classes for i, j in zip(cls, cls[1:])]
    grids = [box.values[cls[0]] for cls in classes]  # twins share grid values
    if prod(comb(len(v) + len(c) - 1, len(c)) for v, c in zip(grids, classes)) < len(points):
        kept = _built_representatives(points, classes, grids)
    else:
        # each value at most the next twin's; without twins, keep every point
        ordered = zip(*(
            map(le, map(itemgetter(i), points), map(itemgetter(j), points)) for i, j in twins
        ), repeat(True))
        kept = compress(points, map(all, ordered))
    by_support: dict[tuple[bool, ...], list[tuple]] = defaultdict(list)
    for a in kept:
        by_support[tuple(map(bool, a))].append(a)
    homology: dict[int, tuple[tuple[int, int], ...]] = {}  # face bitset -> nonzero ranks
    known: dict[tuple, tuple[tuple[int, int], ...]] = {}  # the same by the bits as read
    digits = bytes.maketrans(b"\0\1", b"01")
    orbits = defaultdict(list)  # (representative, ranks) by equal twins
    for support, reps in by_support.items():
        # steps[k]: index distance one step down every support axis in pattern k
        steps = [0]
        for s in compress(box.strides, support):
            steps += [d + s for d in steps]
        low = steps[-1]  # to the lowest cell any face reads
        without = _pattern_masks(sum(support))
        gather = itemgetter(*[box.index(a) - low for a in reps])
        bits = [gather(member[low - d:]) for d in steps]
        # itemgetter of one index returns the bare item, not a 1-tuple
        for a, key in zip(reps, zip(*bits) if reps[1:] else [tuple(bits)]):
            ranks = known.get(key)
            if ranks is None:
                faces = int(bytes(key)[::-1].translate(digits), 2)  # bit k: pattern k
                if faces not in homology:
                    critical = _critical_faces(faces, without)
                    patterns = [k for k in range(critical.bit_length()) if critical >> k & 1]
                    found = _homology(patterns, field) if critical else {}  # none: a cone
                    homology[faces] = tuple((i, r) for i, r in found.items() if r)
                ranks = known[key] = homology[faces]
            if ranks:
                # faces of size i span reduced homology in dimension i-1 = beta_{i,a}
                orbits[tuple(a[i] == a[j] for i, j in twins)].append((a, ranks))
    return BettiTable._of_orbits(ideal.nvars, field, classes, twins, orbits)


def _built_representatives(points: list, classes: list, grids: list) -> list[tuple]:
    """The points of a sorted non-empty lattice whose values do not decrease
    along each twin class: the nondecreasing words over each class's grid
    values, put in variable order, kept where bisection finds them."""
    words = product(*map(combinations_with_replacement, grids, map(len, classes)))
    reps = (sum(w, ()) for w in words)
    order = [i for cls in classes for i in cls]
    if order != sorted(order):
        reps = map(itemgetter(*map(order.index, range(len(order)))), reps)
    last = len(points) - 1
    return [a for a in reps if points[bisect_left(points, a, 0, last)] == a]


def _twin_classes(ideal: MonomialIdeal) -> list[list[int]]:
    """The variables split into twin classes, each ascending: x_i and x_j
    are twins when swapping their exponents maps the minimal generators
    onto themselves.  A swap is tried only between exponent columns that
    hold the same values, and only against the first member of a class, as
    twinness is transitive ((i k) = (i j)(j k)(i j))."""
    n = ideal.nvars
    exps = [g.exponents for g in ideal.generators]
    gens = set(exps)
    columns = list(map(sorted, zip(*exps))) or [[]] * n
    classes: list[list[int]] = []
    for j, column in enumerate(columns):
        for cls in classes:
            i = cls[0]
            if column != columns[i]:
                continue
            swap = list(range(n))
            swap[i], swap[j] = j, i
            if gens.issuperset(map(itemgetter(*swap), exps)):
                cls.append(j)
                break
        else:
            classes.append([j])
    return classes


def _twin_orbit(a: tuple, twins: list[tuple[int, int]]) -> set[tuple]:
    """The points reached from ``a`` by swapping the values of consecutive
    twins (i, j).  Swaps of neighbours generate the symmetric group on each
    class, so these are a's distinct rearrangements within the classes."""
    swaps = [itemgetter(*[j if k == i else i if k == j else k for k in range(len(a))])
             for i, j in twins]
    orbit, todo = {a}, [a]
    for b in todo:  # todo grows as points are found
        for swap in swaps:
            c = swap(b)
            if c not in orbit:
                orbit.add(c)
                todo.append(c)
    return orbit


def _pattern_masks(m: int) -> list[int]:
    """Sets of face patterns (vertex sets) on m vertices, with bit k for
    pattern k: ``without[v]`` lacks vertex v."""
    return [int(("0" * (1 << v) + "1" * (1 << v)) * (1 << (m - v - 1)), 2) for v in range(m)]


def _critical_faces(faces: int, without: list[int]) -> int:
    """The faces of the simplicial complex ``faces`` (a pattern bitset) that
    lack v and whose union with v (a shift down by 1 << v) is no face, for
    the vertex v that leaves fewest; every face on no vertex."""
    return min((faces & w & ~(faces >> (1 << v)) for v, w in enumerate(without)),
               key=int.bit_count, default=faces)


def betti_table(
    ideal: MonomialIdeal,
    field: FieldChoice = RATIONALS,
    engine: str = "auto",
) -> BettiTable:
    if engine == "taylor":
        return taylor_strand_betti(ideal, field)
    if engine == "koszul":
        return koszul_betti(ideal, field)
    if engine == "auto":
        if len(ideal.generators) <= TAYLOR_CAP:
            return taylor_strand_betti(ideal, field)
        return koszul_betti(ideal, field)
    raise ValueError(f"unknown engine {engine!r}")


# ---------------------------------------------------------------------------
# linearity


def has_linear_resolution(
    ideal: MonomialIdeal,
    field: FieldChoice = RATIONALS,
    engine: str = "auto",
) -> tuple[bool, Optional[tuple[int, int]]]:
    """For an ideal generated in a single degree d: is every nonzero coarse
    Betti entry at (i, i+d)?  Returns (verdict, offending (i, j) or None)."""
    if ideal.is_zero():
        return True, None
    if not ideal.is_equigenerated():
        raise NotEquigeneratedError(
            f"generator degrees {sorted(set(ideal.degrees()))} are not equal"
        )
    d = ideal.min_degree()
    table = betti_table(ideal, field, engine)
    for i, j, _ in table.coarse_entries():
        if j != i + d:
            return False, (i, j)
    return True, None


class DegreeVerdict(namedtuple("DegreeVerdict", "degree status offending", defaults=(None,))):
    """``status`` is "linear" or "not linear"; ``offending`` is the first
    coarse Betti entry (i, j) off the linear strand, or None."""

    __slots__ = ()


class CwlReport(namedtuple(
    "CwlReport", "field verdicts overall vacuous", defaults=(False,)
)):
    """Per-degree linearity verdicts plus the overall decision.

    ``verdicts`` is a tuple of ``DegreeVerdict`` in ascending degree, up
    to the highest generator degree, or up to the first non-linear degree
    when ``is_componentwise_linear`` was asked to stop at a failure;
    ``vacuous`` marks the zero ideal, which passes with no degree checked.
    A linear-quotients certificate, which settles the verdict without any
    Betti number, is ``find_linear_quotient_order``'s to find.
    """

    __slots__ = ()

    def failing_degree(self) -> Optional[int]:
        for v in self.verdicts:
            if v.status == "not linear":
                return v.degree
        return None

    def to_json_dict(self) -> dict:
        per_degree = []
        for v in self.verdicts:
            entry: dict = {"degree": v.degree, "verdict": v.status}
            if v.offending is not None:
                entry["offending"] = list(v.offending)
            per_degree.append(entry)
        return {
            "field": self.field.label,
            "overall": self.overall,
            "vacuous": self.vacuous,
            "per_degree": per_degree,
        }


def is_componentwise_linear(
    ideal: MonomialIdeal,
    field: FieldChoice = RATIONALS,
    engine: str = "auto",
    budget: int = 0,
    *,
    stop_at_failure: bool = False,
) -> CwlReport:
    """Check a linear resolution for every degree component of the ideal.

    In a degree d where the ideal has no minimal generator, the component
    is the maximal-ideal multiple of the degree-(d-1) one, and that
    preserves having a linear resolution over any field (Eisenbud-Goto,
    J. Algebra 1984).  So degrees from the smallest to the largest
    minimal-generator degree suffice (Herzog-Hibi, Nagoya Math. J. 1999),
    and within them a gap degree that follows a linear one is linear
    without a Betti table.  A gap degree after a non-linear one is still
    computed, unless ``stop_at_failure`` is set: then the report ends at the
    first non-linear degree, which already settles ``overall``, and no
    later degree gets a Betti table.

    ``budget`` caps the generators summed over the degree components (0
    means no cap), gap degrees included.  Every component is enumerated and
    counted before any Betti table, so an ideal past the budget raises
    ``CapacityError`` having computed none, whether or not the report would
    stop at a failure.  The sum depends on the ideal alone, so the same
    ideals are refused on every host and thread.  The ideal's exponents were
    checked when it was built; a component's are not checked again, bar the
    exponent cap, which ``component`` enforces.
    """
    budget = operator.index(budget)
    if budget < 0:
        raise ValueError("budget must be >= 0 (0 means no budget)")
    if ideal.is_zero():
        return CwlReport(field, (), True, vacuous=True)
    lo, hi = ideal.min_degree(), ideal.max_degree()
    components = []
    built = 0
    for d in range(lo, hi + 1):
        components.append(ideal.component(d))
        built += len(components[-1].generators)
        if budget and built > budget:
            raise CapacityError(
                f"the degree-{lo}..{d} components have {built} generators; "
                f"beyond the row budget of {budget}"
            )
    generated = set(ideal.degrees())
    verdicts = []
    for d, comp in enumerate(components, start=lo):
        if d not in generated and verdicts[-1].status == "linear":
            verdicts.append(DegreeVerdict(d, "linear"))
            continue
        ok, offending = has_linear_resolution(comp, field, engine)
        verdicts.append(DegreeVerdict(d, "linear" if ok else "not linear", offending))
        if stop_at_failure and not ok:
            break
    overall = all(v.status != "not linear" for v in verdicts)
    return CwlReport(field, tuple(verdicts), overall)


# ---------------------------------------------------------------------------
# linear quotients


class QuotientsResult(namedtuple(
    "QuotientsResult", "ok steps failing_index offending", defaults=(None, None)
)):
    """``steps`` holds the colon generators per step k = 2..r (step k at
    index k-2); on failure ``failing_index`` is the 1-based position of the
    bad f_k and ``offending`` a colon generator of degree != 1."""

    __slots__ = ()


def linear_quotients_check(gens: Sequence[Monomial]) -> QuotientsResult:
    """Do the successive colon ideals of this exact listing stay generated
    by single variables?  Stops at the first failing step."""
    if not gens:
        raise ValueError("empty generator list")
    if len(set(gens)) != len(gens):
        raise ValueError("generator list has duplicates")
    for f, h in combinations(gens, 2):
        if f.divides(h) or h.divides(f):
            raise ValueError(f"{f} and {h} are not both minimal generators")
    steps: list[tuple[Monomial, ...]] = []
    for k in range(2, len(gens) + 1):
        colon = _colon(gens[: k - 1], gens[k - 1])
        steps.append(colon)
        bad = next((m for m in colon if m.degree != 1), None)
        if bad is not None:
            return QuotientsResult(False, tuple(steps), k, bad)
    return QuotientsResult(True, tuple(steps))


def find_linear_quotient_order(
    ideal: MonomialIdeal, strategy: str = "deglex"
) -> Optional[list[Monomial]]:
    """Search for a generator listing with linear quotients.

    ``deglex`` tests the stored deglex listing; ``backtracking`` explores every
    degree-nondecreasing listing with failed-prefix memoization, and raises
    CapacityError past ``BACKTRACKING_CAP`` (20) generators.  Either way a
    returned order passes ``linear_quotients_check``; None means the search
    failed.
    """
    if strategy not in ("deglex", "backtracking"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if ideal.is_zero():
        raise ValueError("zero ideal has no generator ordering")
    gens = list(ideal.generators)
    if strategy == "deglex":
        # an ideal's generators are distinct and minimal, so only the colon
        # ideals are left to check
        ok = all(m.degree == 1
                 for k in range(1, len(gens)) for m in _colon(gens[:k], gens[k]))
        return gens if ok else None
    if len(gens) > BACKTRACKING_CAP:
        raise CapacityError(
            f"backtracking over {len(gens)} generators exceeds the cap "
            f"{BACKTRACKING_CAP}"
        )
    failed: set[frozenset] = set()
    chosen: list[Monomial] = []

    def search(remaining: list[Monomial]) -> bool:
        if not remaining:
            return True
        state = frozenset(chosen)
        if state in failed:
            return False
        min_deg = min(m.degree for m in remaining)
        for f in remaining:  # remaining stays deglex-sorted
            if f.degree != min_deg:
                break  # degree-nondecreasing orders only
            if chosen and any(m.degree != 1 for m in _colon(chosen, f)):
                continue
            chosen.append(f)
            rest = [m for m in remaining if m is not f]
            if search(rest):
                return True
            chosen.pop()
        failed.add(state)
        return False

    if search(gens):
        return chosen
    return None


# ---------------------------------------------------------------------------
# polymatroidal exchange


def polymatroidal_check(
    ideal: MonomialIdeal,
) -> tuple[bool, Optional[tuple[Monomial, Monomial, int]]]:
    """Exchange condition on an equigenerated ideal: whenever u has a larger
    exponent than v at position i, some j with a smaller exponent makes
    x_j * u / x_i a generator again.  Returns (verdict, witness (u, v, i)
    with i 1-based) on failure."""
    if not ideal.is_equigenerated():
        raise NotEquigeneratedError(
            f"generator degrees {sorted(set(ideal.degrees()))} are not equal"
        )
    gens = ideal.generators
    gen_set = {g.exponents for g in gens}
    n = ideal.nvars
    for u in gens:
        for v in gens:
            if u is v:
                continue
            ue, ve = u.exponents, v.exponents
            for i in range(n):
                if ue[i] <= ve[i]:
                    continue
                found = False
                for j in range(n):
                    if ue[j] >= ve[j]:
                        continue
                    swapped = list(ue)
                    swapped[i] -= 1
                    swapped[j] += 1
                    if tuple(swapped) in gen_set:
                        found = True
                        break
                if not found:
                    return False, (u, v, i + 1)
    return True, None
