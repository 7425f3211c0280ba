"""Simple graphs, chordality, vertex covers of all orders, and the monomial
ideals attached to them.

A graph on n vertices (labelled 1..n) turns into ideals of k[x1..xn]:

* the order-t cover ideal, the intersection of <x_i, x_j>^t over all edges,
  whose minimal generators are exactly the minimal t-covers of the graph;
* for complete graphs, a closed-form generator list together with the
  degree-ordered listing whose successive colon ideals are variable-generated.
"""

from __future__ import annotations

import operator
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

from .errors import CapacityError
from .monomials import EXPONENT_CAP, Monomial, MonomialIdeal, _minimal_exponents, minimalize

SCAN_STATES_CAP = 50_000_000


class SimpleGraph:
    """Undirected simple graph; vertices are 1..n, edges unordered pairs."""

    __slots__ = ("nvertices", "edges")

    def __init__(self, nvertices: int, edges: Iterable[Sequence[int]] = ()):
        nvertices = operator.index(nvertices)
        if nvertices < 1:
            raise ValueError("need at least one vertex")
        norm = set()
        for e in edges:
            u, v = operator.index(e[0]), operator.index(e[1])
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (1 <= u <= nvertices and 1 <= v <= nvertices):
                raise ValueError(f"edge ({u},{v}) out of range 1..{nvertices}")
            norm.add((min(u, v), max(u, v)))
        self.nvertices = nvertices
        self.edges = frozenset(norm)

    def edge_list(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {v: set() for v in range(1, self.nvertices + 1)}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def is_connected(self) -> bool:
        if self.nvertices == 1:
            return True
        adj = self.adjacency()
        seen = {1}
        stack = [1]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.nvertices

    def is_chordal(self) -> tuple[bool, Optional[list[int]]]:
        """Chordality test via maximum-cardinality search.

        Returns (True, order) where order is a perfect elimination order
        (each vertex's later neighbors form a clique), or (False, None).
        The clique verification, not the search heuristic, decides.
        """
        n = self.nvertices
        adj = self.adjacency()
        weight = {v: 0 for v in range(1, n + 1)}
        unnumbered = set(range(1, n + 1))
        mcs: list[int] = []
        while unnumbered:
            v = min(unnumbered, key=lambda u: (-weight[u], u))
            unnumbered.remove(v)
            mcs.append(v)
            for w in adj[v]:
                if w in unnumbered:
                    weight[w] += 1
        peo = list(reversed(mcs))
        pos = {v: i for i, v in enumerate(peo)}
        for v in peo:
            later = [w for w in adj[v] if pos[w] > pos[v]]
            for a, b in combinations(later, 2):
                if b not in adj[a]:
                    return False, None
        return True, peo

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.nvertices == other.nvertices
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.nvertices, self.edges))

    def __repr__(self) -> str:
        return f"SimpleGraph({self.nvertices}, {self.edge_list()})"


def complete_graph(n: int) -> SimpleGraph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return SimpleGraph(n, combinations(range(1, n + 1), 2))


def counterexample_graph() -> SimpleGraph:
    """The 4-vertex chordal graph whose cover ideals stop being
    componentwise linear for every order t > 1.

    Vertices a,b,c,d are x1..x4; edges ab, ac, bc, bd, cd (the triangle abc
    with d joined to b and c).
    """
    return SimpleGraph(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])


def minimal_t_covers(G: SimpleGraph, t: int) -> list[tuple[int, ...]]:
    """All componentwise-minimal vectors a with a_i + a_j >= t on every edge;
    at t = 1 these are the minimal vertex covers, as 0/1 vectors.

    Entries are capped at t, which loses nothing: min(a, t) is a t-cover
    dividing a.  The vectors come from an exhaustive pruned scan of
    {0..t}^n (fine up to n ~ 8), independent of ``cover_ideal``, which
    tests compare it against.
    """
    if t < 1:
        raise ValueError("cover order t must be >= 1")
    n = G.nvertices
    if not G.edges:
        return [(0,) * n]
    if (t + 1) ** n > SCAN_STATES_CAP:
        raise CapacityError(
            f"scanning {{0..{t}}}^{n} is past the cap; use cover_ideal"
        )
    lower_edges: list[list[int]] = [[] for _ in range(n + 1)]
    for u, v in G.edges:
        lower_edges[v].append(u)
    covers: list[tuple[int, ...]] = []
    vec = [0] * (n + 1)  # 1-based

    def extend(k: int) -> None:
        if k > n:
            covers.append(tuple(vec[1:]))
            return
        lo = 0
        for u in lower_edges[k]:
            need = t - vec[u]
            if need > lo:
                lo = need
        for value in range(lo, t + 1):
            vec[k] = value
            extend(k + 1)

    extend(1)
    adj = G.adjacency()
    minimal = []
    for cov in covers:
        # a cover is minimal iff no single positive entry can be decremented
        ok = True
        for v in range(1, n + 1):
            a = cov[v - 1]
            if a == 0:
                continue
            if all(a - 1 + cov[w - 1] >= t for w in adj[v]):
                ok = False
                break
        if ok:
            minimal.append(cov)
    return sorted(minimal)


def _edge_step(gens: list[tuple[int, ...]], u: int, v: int, t: int) -> Iterator[tuple[int, ...]]:
    """Generators of (gens) intersected with <x_u, x_v>^t, 0-based u and v,
    not yet minimal.  The lcm of e with x_u^s x_v^(t-s) is e itself when
    e_u + e_v >= t; otherwise it is divisible by the lcm at s = e_u (for
    s < e_u) or at s = t - e_v (for s > t - e_v), and in between it is e
    with (e_u, e_v) replaced by (s, t - s)."""
    for e in gens:
        eu, ev = e[u], e[v]
        if eu + ev >= t:
            yield e
            continue
        for s in range(eu, t - ev + 1):
            f = list(e)
            f[u], f[v] = s, t - s
            yield tuple(f)


def cover_ideal(G: SimpleGraph, t: int) -> MonomialIdeal:
    """The intersection of <x_i, x_j>^t over all edges of G.

    Its minimal generators are the minimal t-covers.  The intersection is
    iterated edge by edge on exponent tuples (``_edge_step``), merging edges
    that share high-numbered vertices last, which scales past the t-cover
    scan's n <= 8 comfort zone.  Each step is reduced to its minimal
    vectors once; ``Monomial`` objects, unchecked as t is at most the cap,
    are built for the last step's candidates only, which ``minimalize`` reduces.
    """
    if t < 1:
        raise ValueError("cover order t must be >= 1")
    n = G.nvertices
    if not G.edges:
        return MonomialIdeal.unit(n)
    if t > EXPONENT_CAP:  # before any step, which makes up to t + 1 vectors a generator
        raise CapacityError(f"exponent {t} exceeds the cap {EXPONENT_CAP}")
    *edges, (u, v) = sorted(G.edges, key=lambda e: (e[1], e[0]))
    gens = [(0,) * n]
    for a, b in edges:
        gens = _minimal_exponents(_edge_step(gens, a - 1, b - 1, t))
    return minimalize(n, map(Monomial._of, _edge_step(gens, u - 1, v - 1, t)))


def knt_closed_form(n: int, t: int) -> MonomialIdeal:
    """Minimal generators of the order-t cover ideal of the complete graph,
    by the closed form.

    Odd t = 2m+1: the families x_j^(m-s) * prod_{i != j} x_i^(m+1+s) for
    0 <= s <= m, giving n(m+1) generators.  Even t = 2m: prod x_i^m plus the
    families x_j^(m-1-s) * prod_{i != j} x_i^(m+1+s) for 0 <= s <= m-1,
    giving 1 + nm generators.
    """
    return MonomialIdeal(n, theorem_order(n, t))


def theorem_order(n: int, t: int) -> list[Monomial]:
    """The closed-form generators in their quotient-friendly listing: rows of
    ascending total degree, j = 1..n inside each row, the all-variables
    monomial first when t is even.  Successive colon ideals along this order
    are generated by single variables."""
    if n < 3:
        raise ValueError("closed form needs a complete graph on n >= 3 vertices")
    if t < 1:
        raise ValueError("cover order t must be >= 1")
    order: list[Monomial] = []
    m, odd = divmod(t, 2)
    if odd:
        deficiencies = range(m, -1, -1)  # x_j exponent m, m-1, ..., 0
    else:
        order.append(Monomial((m,) * n))
        deficiencies = range(m - 1, -1, -1)
    high = m + 1
    for deficiency in deficiencies:
        for j in range(1, n + 1):
            exps = [high] * n
            exps[j - 1] = deficiency
            order.append(Monomial(exps))
        high += 1
    return order


def parse_graph(text: str) -> SimpleGraph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("graph"):
        raise ValueError("graph file must start with a 'graph <n>' line")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad graph header {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        try:
            u, v = map(int, ln.split())
        except ValueError:
            raise ValueError(f"bad edge line {ln!r}") from None
        edges.append((u, v))
    return SimpleGraph(n, edges)


def load_graph(path) -> SimpleGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())
