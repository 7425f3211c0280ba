"""The benchmark's three workloads and the references that check them.

Every reference here is computed by this file from first principles, never
by the ``coverideals`` code whose speed is measured:

* ``complete_cwl`` checks the certificate of K_5, t=3 with its own colon-ideal
  test and compares its generator set with a brute-force list of minimal
  3-covers of K_5.
* ``chordal_sweep`` compares the sweep output byte for byte with a committed
  file (``expected/chordal_sweep.jsonl``, written by ``make_expected.py``
  after an engine cross-check) and recomputes which labelled graphs must
  fail: exactly the relabellings of the 4-vertex counterexample, at degree 4.
* ``random_betti`` compares every multigraded table with an independent
  GF(2) Betti computation over the lcm lattice (``reference_betti_f2``).

A workload's ``layers`` are the traced layers that must fire on it; a traced
run fails when one of them records no call, which catches a refactor that
bypasses a wrapper.  ``idle`` lists the layers that must stay silent.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations, combinations_with_replacement, permutations, product
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_SWEEP = HERE / "expected" / "chordal_sweep.jsonl"

_ALWAYS = {"cli.main", "linalg.matrix_rank", "monomials.minimalize",
           "resolution.koszul_betti", "resolution.lcm_lattice",
           "resolution.taylor_strand_betti"}
_CWL = {"resolution.is_componentwise_linear", "resolution.has_linear_resolution",
        "graphs.cover_ideal", "monomials.component"}
_SEARCH = {"search.sweep", "search.canonical_edge_mask", "graphs.is_chordal"}
_CERT = {"resolution.find_linear_quotient_order"}


class Workload:
    """One pass of a workload is a list of CLI argument vectors, run in
    order through ``cli.main``.  ``exit_code`` is the status every item must
    return."""

    name = ""
    exit_code = 0
    layers: frozenset = frozenset()
    idle: frozenset = frozenset()

    def build(self, seed: int, workdir: Path) -> list[list[str]]:
        """The argument vectors of one pass.  Input files they name under
        ``workdir`` are written by ``write_inputs``, not here, so that the
        timed set-up holds no file system writes."""
        raise NotImplementedError

    def write_inputs(self) -> None:
        """Write the input files named by the last ``build``."""

    def digest(self, items: list[list[str]]) -> str:
        return hashlib.sha256(json.dumps(items).encode()).hexdigest()[:16]

    def check(self, items: list[list[str]], outputs: list[str]) -> dict[int, str]:
        """{item index: message} for every item whose output is wrong."""
        errors = {}
        for k, out in enumerate(outputs):
            try:
                message = self.check_item(k, out)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                message = f"malformed output ({type(exc).__name__}: {exc})"
            if message:
                errors[k] = message
        return errors

    def check_item(self, k: int, out: str) -> str | None:
        """Why the k-th item's output is wrong, or None when it is right."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# complete_cwl: one large CWL ideal, the Koszul path end to end


def minimal_t_covers(n: int, edges, t: int) -> set[tuple[int, ...]]:
    """Minimal vectors c in {0..t}^n with c_u + c_v >= t on every edge."""
    covers = [
        c for c in product(range(t + 1), repeat=n)
        if all(c[u - 1] + c[v - 1] >= t for u, v in edges)
    ]
    return {
        c for c in covers
        if not any(d != c and all(x <= y for x, y in zip(d, c)) for d in covers)
    }


def linear_quotients_ok(order: list[tuple[int, ...]]) -> bool:
    """Is every colon ideal (f_1..f_{k-1}) : f_k generated by variables?"""
    for k in range(1, len(order)):
        fk = order[k]
        colon = {tuple(max(a - b, 0) for a, b in zip(order[j], fk)) for j in range(k)}
        minimal = [
            m for m in colon
            if not any(o != m and all(x <= y for x, y in zip(o, m)) for o in colon)
        ]
        if any(sum(m) != 1 for m in minimal):
            return False
    return True


def parse_monomial(text: str, nvars: int) -> tuple[int, ...]:
    exps = [0] * nvars
    if text != "1":
        for factor in text.split("*"):
            var, _, power = factor.partition("^")
            exps[int(var[1:]) - 1] += int(power or 1)
    return tuple(exps)


class CompleteCwl(Workload):
    name = "complete_cwl"
    N, T = 5, 3
    layers = frozenset(_ALWAYS | _CWL | _CERT)
    idle = frozenset(_SEARCH)

    def build(self, seed, workdir):
        return [["check-cwl", "--complete", str(self.N), "--t", str(self.T),
                 "--format", "json"]]

    def check_item(self, k, out):
        edges = list(combinations(range(1, self.N + 1), 2))
        covers = minimal_t_covers(self.N, edges, self.T)
        degrees = list(range(min(map(sum, covers)), max(map(sum, covers)) + 1))
        report = json.loads(out)
        cert = [parse_monomial(m, self.N) for m in report["certificate"] or []]
        problems = [
            (report["overall"] is True, "overall verdict is not true"),
            ([v["degree"] for v in report["per_degree"]] == degrees,
             "degrees checked differ from the generator degree range"),
            (all(v["verdict"] == "linear" for v in report["per_degree"]),
             "a degree is not linear"),
            (set(cert) == covers and len(cert) == len(covers),
             "certificate is not the set of minimal 3-covers of K5"),
            (linear_quotients_ok(cert), "certificate has a non-linear quotient"),
        ]
        return next((msg for ok, msg in problems if not ok), None)


# ---------------------------------------------------------------------------
# chordal_sweep: every labelled chordal graph on 4 vertices at t=2


class ChordalSweep(Workload):
    name = "chordal_sweep"
    exit_code = 1  # the sweep finds failing graphs
    layers = frozenset(_ALWAYS | _CWL | _SEARCH)
    idle = frozenset(_CERT)
    # the chordal counterexample: edges ab, ac, bc, bd, cd
    COUNTEREXAMPLE = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4))
    ARGV = ["search", "--n", "4", "--t", "2", "--chordal-only", "--no-timing"]

    def build(self, seed, workdir):
        self.reference = EXPECTED_SWEEP.read_text()
        return [self.ARGV]

    def check_item(self, k, out):
        relabelled = {
            tuple(sorted(tuple(sorted((p[u - 1], p[v - 1]))) for u, v in self.COUNTEREXAMPLE))
            for p in permutations(range(1, 5))
        }
        rows = [json.loads(line) for line in out.splitlines()[:-1]]
        failing = {tuple(tuple(e) for e in r["edges"]) for r in rows if r["cwl"] is False}
        if out != self.reference:
            return "sweep output differs from expected/chordal_sweep.jsonl"
        if failing != relabelled or len(relabelled) != 6:
            return "failing graphs are not the 6 counterexample labellings"
        if any(r["failing_degree"] != 4 for r in rows if r["cwl"] is False):
            return "a counterexample labelling fails outside degree 4"
        if any(r["status"] != "ok" for r in rows):
            return "a sweep row was skipped"
        return None


# ---------------------------------------------------------------------------
# random_betti: seeded random equigenerated ideals, Betti tables over GF(2)


def reference_betti_f2(gens: list[tuple[int, ...]]) -> dict:
    """Multigraded Betti numbers over GF(2): beta_{i,a} is the rank of
    reduced homology in dimension i-1 of the upper Koszul complex
    {F subset of supp(a) : x^(a-F) in I}, at each lcm-lattice point a."""
    lattice: set = set()
    for g in gens:
        lattice |= {tuple(map(max, g, a)) for a in lattice}
        lattice.add(g)
    member: dict = {}

    def in_ideal(c):
        hit = member.get(c)
        if hit is None:
            hit = member[c] = any(all(x <= y for x, y in zip(g, c)) for g in gens)
        return hit

    table = {}
    for a in lattice:
        support = [i for i, e in enumerate(a) if e]
        faces_by_size: dict = {}
        for mask in range(1 << len(support)):
            c = list(a)
            for bit, i in enumerate(support):
                if mask >> bit & 1:
                    c[i] -= 1
            if in_ideal(tuple(c)):
                faces_by_size.setdefault(bin(mask).count("1"), []).append(mask)
        ranks = {}
        for size, faces in faces_by_size.items():
            if size == 0:
                continue
            row = {f: k for k, f in enumerate(faces_by_size[size - 1])}
            pivots: dict = {}
            for f in faces:
                col = 0
                for bit in range(len(support)):
                    if f >> bit & 1:
                        col ^= 1 << row[f ^ (1 << bit)]
                while col:
                    top = col.bit_length()
                    if top not in pivots:
                        pivots[top] = col
                        break
                    col ^= pivots[top]
            ranks[size] = len(pivots)
        for size, faces in faces_by_size.items():
            beta = len(faces) - ranks.get(size, 0) - ranks.get(size + 1, 0)
            if beta:
                table[(size, a)] = beta
    return table


def format_monomial(exps: tuple[int, ...]) -> str:
    return "*".join(
        f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e
    ) or "1"


class RandomBetti(Workload):
    name = "random_betti"
    layers = frozenset(_ALWAYS)
    idle = frozenset(_CWL | _SEARCH | _CERT)
    COUNT = 210
    # one cycle of generator counts; its length, 7, is prime to the 6
    # (variables, degree) pairs, so 42 ideals hold every combination once
    GENERATORS = (11, 12, 12, 12, 13, 14, 15)

    def __init__(self, count: int = COUNT):
        self.count = count

    @classmethod
    def shape(cls, k: int) -> tuple[int, int, int]:
        """(variables, degree, generators) of the k-th ideal.  Shapes follow a
        fixed cycle, so every seed gets the same mix of sizes and only the
        monomials vary.  ``auto`` runs Taylor up to 14 generators, whose time
        doubles with each generator, and Koszul at 15.  Three of the seven
        slots hold 12 generators, so the median item falls inside that class
        rather than on the jump between two classes, where it moved by a
        sixth from seed to seed.  Koszul on 15 generators in 6 variables
        varied by a factor of 4 between seeds and made most of the pass
        time's seed-to-seed spread, so the ideals have 4 or 5 variables."""
        return 4 + k % 2, 3 + k // 2 % 3, cls.GENERATORS[k % len(cls.GENERATORS)]

    def ideals(self, seed: int) -> list[tuple[int, list[tuple[int, ...]]]]:
        rng = random.Random(seed)
        pools: dict = {}
        out = []
        for k in range(self.count):
            n, d, g = self.shape(k)
            if (n, d) not in pools:
                pools[n, d] = sorted(
                    tuple(c.count(v) for v in range(n))
                    for c in combinations_with_replacement(range(n), d)
                )
            out.append((n, sorted(rng.sample(pools[n, d], g))))
        return out

    def build(self, seed, workdir):
        self.gens, self.files, items = [], {}, []
        for k, (n, gens) in enumerate(self.ideals(seed)):
            path = workdir / f"ideal_{k:03d}.txt"
            self.files[path] = "\n".join([f"vars {n}"] + [format_monomial(g) for g in gens]) + "\n"
            self.gens.append(gens)
            items.append(["betti", "--ideal", str(path), "--field", "2",
                          "--multigraded", "--format", "json"])
        return items

    def write_inputs(self):
        for path, text in self.files.items():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)

    def digest(self, items):
        return hashlib.sha256(json.dumps(self.gens).encode()).hexdigest()[:16]

    def check_item(self, k, out):
        data = json.loads(out)
        got = {(i, tuple(a)): r for i, a, r in data["multigraded"]}
        coarse: dict = {}
        for (i, a), r in got.items():
            coarse[(i, sum(a))] = coarse.get((i, sum(a)), 0) + r
        if data["field"] != "F2":
            return f"table is over {data['field']}, not F2"
        if got != reference_betti_f2(self.gens[k]):
            return "multigraded table differs from the reference"
        if coarse != {(i, j): r for i, j, r in data["coarse"]}:
            return "coarse table is not the multigraded sum"
        return None


WORKLOADS = {w.name: w for w in (CompleteCwl(), ChordalSweep(), RandomBetti())}
