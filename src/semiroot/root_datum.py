"""Root data on a free character lattice, with Weyl orbit machinery.

A datum is stored in coordinates: the character lattice is Z^rank with the
standard dot pairing against the cocharacter lattice, simple roots are weight
vectors and simple coroots are coweight vectors.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from operator import add, mul
from pathlib import Path

from . import linalg
from .linalg import Vec, dot, vec_sub

# the shipped data; read as files next to this module, not through importlib.resources,
# which loads inspect on Python 3.12 and later
FIXTURES = Path(__file__).with_name("fixtures")

Matrix = tuple[tuple[int, ...], ...]


class RootDatumError(ValueError):
    """A root datum axiom failed; the message names the axiom."""


class RootDatum:
    """A root datum in coordinates, with its derived Weyl data.

    The fields are `rank`, `simple_roots`, `simple_coroots` and `name`.  A
    datum is immutable, and equal data (same fields, the name included) hash
    alike.  It is a plain class, so importing the library loads no
    `dataclasses`.

    Derived data live on the datum: each is a cached property, built on first
    use and kept for the datum's lifetime, and none takes part in equality.
    They are the Cartan matrix and its columns and adjugate, the positive
    roots with their coroots, each positive root's pairings (`root_pairings`,
    `form_rows`), 2rho and its coroot pairings with their product
    (`rho2_pairings`, `weyl_denominator`), |W|, the dual datum, the hull
    normals and the coordinate matrix.  The plain dicts `orbits`,
    `dominant_mults` and `dimensions`, made with the datum, are memos keyed
    by weight: `paired_orbit` fills the first, the char engine the others.
    An `orbits` entry holds the W-orbit of its key, descending, the
    simple-coroot pairings of each point, and one (weight, pairings, least
    pairing) record per point (`orbit_records`).
    `chamber_walk` is the one walk to the dominant chamber, and the dict
    `chamber_walks` is the char engine's memo of its rho-shifted walks,
    keyed by the simple-coroot pairings of the weight plus rho.  Nothing is
    shared between data, so an equal or renamed copy builds its own.
    """

    def __init__(self, rank: int, simple_roots, simple_coroots, name: str = ""):
        # __setattr__ refuses every assignment, so the fields and memos go into
        # __dict__ directly, as the cached properties do
        self.__dict__.update(
            rank=rank,
            simple_roots=tuple(tuple(r) for r in simple_roots),
            simple_coroots=tuple(tuple(c) for c in simple_coroots),
            name=name,
            orbits={},
            dominant_mults={},
            dimensions={},
            chamber_walks={},
        )

    def __setattr__(self, attr, value):
        raise AttributeError(f"cannot assign to {attr}: a RootDatum is immutable")

    def _fields(self) -> tuple:
        return self.rank, self.simple_roots, self.simple_coroots, self.name

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "RootDatum(rank={!r}, simple_roots={!r}, simple_coroots={!r}, name={!r})".format(
            *self._fields()
        )

    @property
    def semisimple_rank(self) -> int:
        return len(self.simple_roots)

    def pairing(self, x: Vec) -> Vec:
        """Pairings of x against every simple coroot."""
        if len(x) != self.rank:
            raise ValueError(f"length mismatch: {len(x)} and {self.rank}")
        return tuple([sum(map(mul, c, x)) for c in self.simple_coroots])

    @functools.cached_property
    def cartan(self) -> Matrix:
        """Row i holds <coroot_i, root_j> over j."""
        return tuple(tuple(dot(c, a) for a in self.simple_roots) for c in self.simple_coroots)

    @functools.cached_property
    def positive_roots(self) -> tuple[tuple[Vec, Vec], ...]:
        """Positive (root, coroot) pairs, sorted by root.

        Breadth-first closure of the simple (root, coroot) pairs under the
        simple reflections, in lattice coordinates: s_j moves a root b by
        -<b, coroot_j> root_j and its coroot b^v by -<root_j, b^v> coroot_j.
        s_j permutes the positive roots other than root_j (Humphreys,
        Lemma 10.2B), so the walk skips b = root_j and meets no negative
        root, and every positive root is reached from one of lower height.
        A datum of finite type has at most 2k^2 positive roots, k the
        semisimple rank (E8: 120 <= 128), and any other has infinitely many,
        so a walk that finds more raises RootDatumError.
        """
        roots, coroots = self.simple_roots, self.simple_coroots
        cap = 2 * len(roots) ** 2
        seen = dict(zip(roots, coroots))
        frontier = list(seen.items())
        while frontier:
            nxt = []
            for b, bv in frontier:
                for a, av in zip(roots, coroots):
                    if b == a:
                        continue
                    c = dot(av, b)
                    r = tuple([x - c * y for x, y in zip(b, a)])
                    if r not in seen:
                        cv = dot(a, bv)
                        seen[r] = tuple([x - cv * y for x, y in zip(bv, av)])
                        nxt.append((r, seen[r]))
            if len(seen) > cap:
                raise RootDatumError(f"finite type: more than {cap} positive roots")
            frontier = nxt
        return tuple(sorted(seen.items()))

    def coroot_pairings(self, x: Vec) -> Vec:
        """<x, b^v> over the positive coroots b, in `positive_roots` order."""
        return tuple([sum(map(mul, cov, x)) for _, cov in self.positive_roots])

    @functools.cached_property
    def root_pairings(self) -> tuple[tuple[Vec, Vec], ...]:
        """Each positive root with its simple-coroot pairings, in `positive_roots` order."""
        return tuple((a, self.pairing(a)) for a, _ in self.positive_roots)

    @functools.cached_property
    def form_rows(self) -> tuple[tuple[Vec, Vec, int], ...]:
        """Freudenthal's rows: per positive root a, its simple-coroot pairings,
        `coroot_pairings(a)` and B(a, a), B(x, y) the dot product of the
        coroot pairings of x and y."""
        rows = []
        for a, p in self.root_pairings:
            f = self.coroot_pairings(a)
            rows.append((p, f, sum(map(mul, f, f))))
        return tuple(rows)

    @functools.cached_property
    def rho2_pairings(self) -> Vec:
        """`coroot_pairings(rho2)`: Freudenthal's shift and the factors of Weyl's denominator."""
        return self.coroot_pairings(self.rho2)

    @functools.cached_property
    def weyl_denominator(self) -> int:
        """The product of `rho2_pairings`."""
        return math.prod(self.rho2_pairings)

    def paired_orbit(self, x: Vec) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
        """W-orbit of x, descending, and the simple-coroot pairings of each weight.

        The only orbit search of W.  It carries the pairings: s_i moves a
        weight by -c times root i and its pairings by -c times column i of
        the Cartan matrix, c its pairing with coroot i, so no pairing is
        recomputed.  The walk fills the datum's `orbits` entry of x: the
        orbit, the pairings, and the `orbit_records` that `tensor_decompose`
        reads, one (weight, pairings, least pairing) per point.
        """
        got = self.orbits.get(x)
        if got is None:
            roots, columns = self.simple_roots, self.columns
            seen = {x: self.pairing(x)}
            frontier = [x]
            while frontier:
                nxt = []
                for v in frontier:
                    p = seen[v]
                    for i, c in enumerate(p):
                        if c:
                            r = tuple([a - c * b for a, b in zip(v, roots[i])])
                            if r not in seen:
                                seen[r] = tuple([a - c * b for a, b in zip(p, columns[i])])
                                nxt.append(r)
                frontier = nxt
            orb = tuple(sorted(seen, reverse=True))
            pairs = tuple([seen[w] for w in orb])
            records = tuple([(w, p, min(p, default=0)) for w, p in zip(orb, pairs)])
            got = self.orbits[x] = (orb, pairs, records)
        return got[:2]

    def orbit_records(self, x: Vec) -> tuple[tuple[Vec, Vec, int], ...]:
        """(weight, pairings, least pairing) per point of the W-orbit of x, in `paired_orbit` order.

        Read from the `orbits` entry that `paired_orbit` fills.  The least
        pairing of a datum with no simple coroots is 0.
        """
        got = self.orbits.get(x)
        if got is None:
            self.paired_orbit(x)
            got = self.orbits[x]
        return got[2]

    def chamber_walk(self, q: Vec) -> Vec:
        """Walk the simple-coroot pairings q to the dominant chamber, as one flat tuple.

        Reflects at the first negative entry c and starts the scan over,
        until no entry is negative.  The step moves q by -c times a column of
        the Cartan matrix and the weight by -c times a simple root.  Returns
        the weight displacement, the sum of those moves, followed by the sign
        of the word, or by 0 when the final pairings hold a 0 (a wall).  Each
        step removes one inversion, so a datum of finite type takes at most
        |positive roots| steps, within the bound 2k^2 of the `positive_roots`
        walk; a walk that needs more raises RootDatumError.
        """
        columns, roots = self.columns, self.simple_roots
        n = len(q)
        cap = 2 * n * n
        shift, sign, steps, i = (0,) * self.rank, 1, 0, 0
        while i < n:
            c = q[i]
            if c >= 0:
                i += 1
                continue
            if steps == cap:
                raise RootDatumError(f"finite type: no dominant chamber within {cap} reflections")
            shift = tuple([x - c * a for x, a in zip(shift, roots[i])])
            q = tuple([x - c * a for x, a in zip(q, columns[i])])
            sign, steps, i = -sign, steps + 1, 0
        return (*shift, sign if all(q) else 0)

    @functools.cached_property
    def dual(self) -> RootDatum:
        """Simple roots and coroots swapped: its weight orbits are this datum's coweight orbits."""
        return RootDatum(self.rank, self.simple_coroots, self.simple_roots)

    @functools.cached_property
    def weyl_order(self) -> int:
        """|W|, the product of (ht b + 1) / ht b over the positive roots b (Macdonald).

        ht b = <b, rho^v>, 2 rho^v the sum of the positive coroots; each
        factor is taken as (2 ht b + 2) / (2 ht b).
        """
        rho2v = [sum(col) for col in zip(*(cv for _, cv in self.positive_roots))]
        twice = [dot(b, rho2v) for b, _ in self.positive_roots]
        return math.prod(h + 2 for h in twice) // math.prod(twice)

    @functools.cached_property
    def hull_normals(self) -> tuple[tuple[Vec, tuple[Vec, ...]], ...]:
        """Each Y_i = sum_j adj(Cartan)_ij coroot_j with its coweight orbit W.Y_i.

        Y_i is det(Cartan) times the i-th fundamental coweight.
        """
        out = []
        for row in self.cartan_adjugate[0]:
            y = tuple(
                sum(c * cv[r] for c, cv in zip(row, self.simple_coroots))
                for r in range(self.rank)
            )
            out.append((y, orbit(self.dual, y)))
        return tuple(out)

    @functools.cached_property
    def rho2(self) -> Vec:
        total = (0,) * self.rank
        for a, _ in self.positive_roots:
            total = linalg.vec_add(total, a)
        return total

    @functools.cached_property
    def columns(self) -> Matrix:
        """Columns of the Cartan matrix: column i holds <coroot_j, root_i> over j."""
        return tuple(zip(*self.cartan))

    @functools.cached_property
    def cartan_adjugate(self) -> tuple[Matrix, int]:
        adj, det = linalg.adjugate(self.cartan)
        return tuple(map(tuple, adj)), det

    @functools.cached_property
    def coordinates(self) -> tuple[Matrix, Matrix, int]:
        """(F, adj F, det F), F the simple coroots stacked over the torus-quotient matrix.

        F x lists the pairings of x with the simple coroots, then its
        torus-quotient coordinates.
        """
        f = self.simple_coroots + quotient_matrix(self)
        adj, det = linalg.adjugate(f)
        return f, tuple(map(tuple, adj)), det

    def weight_at(self, y: Vec) -> Vec | None:
        """The weight x with F x = y, F the coordinate matrix, or None when there is none.

        x is adj(F) y / det(F), a weight exactly when det(F) divides every entry.
        """
        _, adj, det = self.coordinates
        x = [sum(map(mul, row, y)) for row in adj]
        if any(c % det for c in x):
            return None
        return tuple(c // det for c in x)

    def root_numerators(self, v: Vec) -> Vec | None:
        """det(Cartan) times v's coefficients over the simple roots, or None off their span.

        v lies in the span when the torus rows of the coordinate matrix vanish
        on it; its pairings are then the Cartan matrix applied to the
        coefficients, so the integer adjugate inverts them.  det(Cartan) is
        positive for a datum of finite type.
        """
        if any(dot(row, v) for row in self.coordinates[0][self.semisimple_rank :]):
            return None
        p = self.pairing(v)
        return tuple(dot(row, p) for row in self.cartan_adjugate[0])

    def root_coefficients(self, v: Vec) -> Vec | None:
        """Integer coefficients of v over the simple roots, or None off the root lattice."""
        scaled = self.root_numerators(v)
        det = self.cartan_adjugate[1]
        if scaled is None or any(c % det for c in scaled):
            return None
        return tuple(c // det for c in scaled)


def validate_root_datum(d: RootDatum) -> None:
    """Raise RootDatumError naming the first violated axiom.

    Finite type is decided last, by the `positive_roots` walk: the Weyl
    group is finite exactly when the positive roots are, and the walk stops
    past 2k^2 of them.
    """
    if not _is_int(d.rank):
        raise RootDatumError("shape: rank must be an integer")
    if d.rank < 0:
        raise RootDatumError("shape: negative rank")
    if len(d.simple_roots) != len(d.simple_coroots):
        raise RootDatumError("shape: root/coroot count mismatch")
    for v in itertools.chain(d.simple_roots, d.simple_coroots):
        if len(v) != d.rank or not all(map(_is_int, v)):
            raise RootDatumError("shape: vectors must be integer and of length rank")
    k = d.semisimple_rank
    if k > d.rank:
        raise RootDatumError("shape: more simple roots than rank")
    if len(set(d.simple_roots)) != k:
        raise RootDatumError("shape: duplicate simple roots")
    a = d.cartan
    for i in range(k):
        if a[i][i] != 2:
            raise RootDatumError(f"pairing normalization: <coroot {i}, root {i}> != 2")
        for j in range(k):
            if i == j:
                continue
            if a[i][j] > 0:
                raise RootDatumError(f"Cartan sign: positive off-diagonal entry at ({i},{j})")
            if (a[i][j] == 0) != (a[j][i] == 0):
                raise RootDatumError(f"Cartan sign: zero pattern asymmetric at ({i},{j})")
    if linalg.rank(d.simple_roots) != k:
        raise RootDatumError("independence: simple roots are dependent")
    if linalg.rank(d.simple_coroots) != k:
        raise RootDatumError("independence: simple coroots are dependent")
    # finite type: the walk over the positive roots ends within its bound
    positive_roots(d)


def _is_int(x) -> bool:
    """An int and not a bool, which JSON `true` would otherwise pass for 1."""
    return isinstance(x, int) and not isinstance(x, bool)


def weyl_order(d: RootDatum) -> int:
    """|W| of a valid datum, by `RootDatum.weyl_order`."""
    return d.weyl_order


def orbit(d: RootDatum, x: Vec) -> tuple[Vec, ...]:
    """W-orbit of a weight, as a sorted tuple (descending).

    A coweight orbit is the orbit in the dual datum.
    """
    return d.paired_orbit(tuple(x))[0]


def is_dominant(d: RootDatum, x: Vec) -> bool:
    return all(p >= 0 for p in d.pairing(x))


def dominant_representative(d: RootDatum, x: Vec) -> Vec:
    """The unique dominant weight in the W-orbit of x, moved there by `RootDatum.chamber_walk`.

    `map` stops at x's length, so the walk's sign is not added.
    """
    x = tuple(x)
    return tuple(map(add, x, d.chamber_walk(d.pairing(x))))


def dominance_leq(d: RootDatum, mu: Vec, lam: Vec) -> bool:
    """Whether lam - mu is a nonnegative integer combination of simple roots."""
    coeffs = d.root_coefficients(vec_sub(lam, mu))
    return coeffs is not None and all(c >= 0 for c in coeffs)


def positive_roots(d: RootDatum) -> tuple[tuple[Vec, Vec], ...]:
    """All positive roots as (root, coroot) pairs, sorted by root: `RootDatum.positive_roots`."""
    return d.positive_roots


def quotient_matrix(d: RootDatum) -> tuple[tuple[int, ...], ...]:
    """Integer matrix Q with kernel the saturated root span; Q maps onto Z^(rank-k).

    Coordinates of the torus quotient X* / sat(span of roots).
    """
    cols = [[a[r] for a in d.simple_roots] for r in range(d.rank)]
    _, u = linalg.smith_normal_form(cols)
    return tuple(tuple(row) for row in u[d.semisimple_rank :])


def root_data_isomorphic(d1: RootDatum, d2: RootDatum) -> Matrix | None:
    """A unimodular lattice map carrying d1 to d2, or None; the answer is exact.

    The map M satisfies M @ root1_i = root2_sigma(i) and pulls coroots back
    correspondingly, for some permutation sigma of the simple roots.  In the
    data's coordinate matrices these maps are exactly the integral
    M = F2^-1 diag(P_sigma, h) F1, sigma matching the Cartan matrices and h in
    GL_(rank-k)(Z) acting on the torus quotient.  Integral M needs
    |det F1| = |det F2|, and is then unimodular.  It is integral exactly when
    diag(P_sigma, h) F1 Z^n lies in F2 Z^n, which holds e Z^n for e the
    exponent of Z^n / F2 Z^n, so h only matters mod e.
    Both data must be valid: dependent simple roots make F singular.
    """
    if d1.rank != d2.rank or d1.semisimple_rank != d2.semisimple_rank:
        return None
    n, k = d1.rank, d1.semisimple_rank
    f1, _, det1 = d1.coordinates
    f2, adj2, det2 = d2.coordinates
    if abs(det1) != abs(det2):
        return None
    a1, a2 = d1.cartan, d2.cartan
    # F2's last invariant factor: the least e with e F2^-1 = e adj F2 / det F2 integral
    exponent = abs(det2) // math.gcd(det2, *(x for row in adj2 for x in row))
    lifts = _unimodular_lifts(n - k, exponent)
    for sigma in itertools.permutations(range(k)):
        if any(a1[i][j] != a2[sigma[i]][sigma[j]] for i in range(k) for j in range(k)):
            continue
        top = [f1[sigma.index(j)] for j in range(k)]
        for h in lifts:
            scaled = linalg.mat_mul(adj2, top + linalg.mat_mul(h, f1[k:]))
            if all(x % det2 == 0 for row in scaled for x in row):
                return tuple(tuple(x // det2 for x in row) for row in scaled)
    return None


def _unimodular_lifts(r: int, modulus: int) -> list[Matrix]:
    """One matrix of GL_r(Z) over each residue class of that group mod `modulus`.

    The elementary matrices and diag(-1, 1, ...) generate the group's image
    mod N, so a breadth-first closure under their row operations, keyed by
    the product mod N, reaches every class; each class keeps the first
    integer product that reached it.
    """

    def residue(m: Matrix) -> Matrix:
        return tuple(tuple(x % modulus for x in row) for row in m)

    ident = tuple(tuple(int(a == b) for b in range(r)) for a in range(r))
    lifts = {residue(ident): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            flip = tuple(tuple(-x for x in row) if i == 0 else row for i, row in enumerate(m))
            adds = (
                m[:i] + (linalg.vec_add(m[i], m[j]),) + m[i + 1 :]
                for i, j in itertools.permutations(range(r), 2)
            )
            for gm in (flip, *adds):
                key = residue(gm)
                if key not in lifts:
                    lifts[key] = gm
                    nxt.append(gm)
        frontier = nxt
    return list(lifts.values())


def load_datum(path: str | Path) -> RootDatum:
    """Read a datum JSON file; its name defaults to the file's stem."""
    path = Path(path)
    data = json.loads(path.read_text())
    return RootDatum(
        rank=data["rank"],
        simple_roots=data["simple_roots"],
        simple_coroots=data["simple_coroots"],
        name=data.get("name", path.stem),
    )


def fixture(name: str) -> RootDatum:
    """Load a named datum shipped with the package."""
    return load_datum(FIXTURES / f"{name}.json")


def fixture_names() -> tuple[str, ...]:
    return tuple(sorted(p.stem for p in FIXTURES.glob("*.json")))
