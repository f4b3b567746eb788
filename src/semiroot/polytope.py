"""Exact convex geometry for Weyl orbits.

All computations are over the rationals: feasibility by Fourier-Motzkin
elimination, hulls by vertex/facet enumeration at small rank, norms compared
through their squares so no irrational number is ever materialized.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg, root_datum
from .linalg import Vec, dot, vec_add, vec_sub
from .root_datum import RootDatum

# a constraint is (coeffs, rhs) meaning coeffs . x <= rhs
Constraint = tuple[tuple[Fraction, ...], Fraction]


def fm_feasible(
    constraints: list[Constraint], nvars: int
) -> tuple[Fraction, ...] | None:
    """A rational point satisfying every constraint, or None.

    Fourier-Motzkin elimination back to front; fine for a few variables.
    """
    if nvars == 0:
        ok = all(b >= 0 for a, b in constraints)
        return () if ok else None
    lows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    ups: list[tuple[tuple[Fraction, ...], Fraction]] = []
    rest: list[Constraint] = []
    k = nvars - 1
    for a, b in constraints:
        c = a[k]
        head = a[:k]
        if c == 0:
            rest.append((head, b))
        elif c > 0:  # x_k <= (b - head.x)/c
            ups.append((tuple(-h / c for h in head), b / c))
        else:  # x_k >= (b - head.x)/c with c < 0
            lows.append((tuple(-h / c for h in head), b / c))
    for (la, lb), (ua, ub) in itertools.product(lows, ups):
        # lower bound <= upper bound
        rest.append((tuple(x - y for x, y in zip(la, ua)), ub - lb))
    inner = fm_feasible(_dedupe(rest), k)
    if inner is None:
        return None
    lo = max((lb + dot_f(la, inner) for la, lb in lows), default=None)
    hi = min((ub + dot_f(ua, inner) for ua, ub in ups), default=None)
    if lo is None and hi is None:
        val = Fraction(0)
    elif lo is None:
        val = hi
    elif hi is None:
        val = lo
    else:
        val = (lo + hi) / 2
    return inner + (val,)


def dot_f(a, b) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(a, b)), Fraction(0))


def _dedupe(constraints: list[Constraint]) -> list[Constraint]:
    seen: dict[tuple, Fraction] = {}
    for a, b in constraints:
        if all(x == 0 for x in a):
            if b < 0:
                return [(a, b)]  # infeasible marker survives
            continue
        key = a
        if key not in seen or b < seen[key]:
            seen[key] = b
    return [(a, b) for a, b in seen.items()]


def positive_functional(vectors) -> tuple[Fraction, ...] | None:
    """A rational functional phi with phi(v) >= 1 for every v, if one exists.

    Exists exactly when the vectors span a pointed cone missing the origin,
    e.g. nonzero nonnegative combinations of a root basis.
    """
    vectors = list(vectors)
    if not vectors:
        return None
    n = len(vectors[0])
    cons: list[Constraint] = [
        (tuple(Fraction(-x) for x in v), Fraction(-1)) for v in vectors
    ]
    return fm_feasible(cons, n)


def norm_sq(v) -> Fraction:
    return sum((Fraction(x) * x for x in v), Fraction(0))


@dataclass(frozen=True)
class OrbitHull:
    vertices: tuple[Vec, ...]
    facets: tuple[Constraint, ...]

    def contains(self, point) -> bool:
        if not self.facets:
            return tuple(point) in self.vertices
        return all(dot_f(a, point) <= b for a, b in self.facets)


def convex_hull_2d(points: list[Vec]) -> list[Vec]:
    """Counterclockwise hull of 2-d integer points (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[Vec] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Vec] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _facets_of(points: list[Vec]) -> tuple[Constraint, ...]:
    """Facet inequalities for full-dimensional hulls of rank <= 2 point sets.

    Degenerate hulls (a point, or a segment inside a larger space) get no
    facet list; membership falls back to vertex identity in OrbitHull.
    """
    if not points:
        return ()
    n = len(points[0])
    if n == 1:
        lo = min(p[0] for p in points)
        hi = max(p[0] for p in points)
        if lo == hi:
            return ()
        return (
            ((Fraction(1),), Fraction(hi)),
            ((Fraction(-1),), Fraction(-lo)),
        )
    if n == 2:
        hull = convex_hull_2d(points)
        if len(hull) <= 2:
            return ()
        out: list[Constraint] = []
        for p, q in zip(hull, hull[1:] + hull[:1]):
            # outward normal for ccw edge p -> q
            a = (Fraction(q[1] - p[1]), Fraction(p[0] - q[0]))
            out.append((a, dot_f(a, p)))
        return tuple(out)
    return ()


def orbit_hull(d: RootDatum, lam: Vec) -> OrbitHull:
    verts = root_datum.orbit(d, lam)
    return OrbitHull(vertices=verts, facets=_facets_of(list(verts)))


def hull_contains_orbit(d: RootDatum, mu: Vec, lam: Vec) -> bool:
    """Whether the hull of the orbit of mu sits inside the hull for lam.

    Each orbit point must be reachable from lam by subtracting nonnegative
    rational multiples of the simple roots; that single reduction also pins
    the non-semisimple directions, since the roots span nothing there.
    """
    lam = root_datum.dominant_representative(d, lam)
    return all(
        root_datum.dominance_leq_rational(d, v, lam) for v in root_datum.orbit(d, mu)
    )


@dataclass(frozen=True)
class CriteriaTriple:
    dominance: bool
    hull: bool
    tensor: bool
    tensor_witness: int | None
    radius_sq: int
    decompositions: tuple[tuple[Vec, ...], ...]

    def __iter__(self):
        return iter((self.dominance, self.hull, self.tensor))


def tensor_radius_sq(d: RootDatum, lam: Vec) -> int:
    """Squared radius of the certificate ball: (2m max|x|)^2 over the orbit."""
    orb = root_datum.orbit(d, lam)
    m = len(orb)
    top = max(sum(x * x for x in v) for v in orb)
    return 4 * m * m * top


def certificate_support(d: RootDatum, lam: Vec) -> tuple[Vec, ...]:
    """Dominant representatives of all lattice points in the certificate ball."""
    r2 = tensor_radius_sq(d, lam)
    r = math.isqrt(r2)
    out: set[Vec] = set()
    for point in itertools.product(range(-r, r + 1), repeat=d.rank):
        if sum(x * x for x in point) <= r2:
            out.add(root_datum.dominant_representative(d, point))
    return tuple(sorted(out, reverse=True))


def _orbit_stretch(d: RootDatum) -> int:
    """Max row sum of |entries| over Weyl group matrices (infinity operator norm)."""
    best = 1
    for w in root_datum.weyl_group(d):
        for row in w:
            best = max(best, sum(abs(x) for x in row))
    return best


def order_criteria_agree(
    d: RootDatum, mu: Vec, lam: Vec, n_max: int = 3
) -> CriteriaTriple:
    """Evaluate the three faces of the containment order on a same-coset pair.

    Dominance and hull containment are computed directly.  The tensor face is
    decided with certificates valid for every power, not just the probed ones:
    positively by exhibiting, for each n <= n_max, an orbit-sum decomposition
    n*mu = sum of orbit points of lam plus a remainder inside the certificate
    ball (such a factor exists in the n-fold product against the ball
    certificate); negatively by a witness power at which n*mu escapes the
    Minkowski sum of the dilated hull with a box certainly containing the
    certificate's weights.  A sharp bounded probe alone would claim
    containment for pairs that only separate at higher powers.
    """
    mu = tuple(mu)
    lam = tuple(lam)
    a_dom = root_datum.dominance_leq(d, mu, lam)
    b_hull = hull_contains_orbit(d, mu, lam)
    r2 = tensor_radius_sq(d, lam)
    orb = root_datum.orbit(d, lam)

    witness = _escape_witness(d, mu, lam, r2)
    if witness is not None:
        return CriteriaTriple(a_dom, b_hull, False, witness, r2, ())

    decomps: list[tuple[Vec, ...]] = []
    greedy = sorted(orb, key=lambda v: -dot(v, mu))
    for n in range(1, n_max + 1):
        target = linalg.vec_scale(n, mu)
        found = None
        for combo in itertools.combinations_with_replacement(greedy, n):
            y = target
            for v in combo:
                y = vec_sub(y, v)
            if norm_sq(y) <= r2:
                found = combo + (tuple(y),)
                break
        if found is None:
            raise ArithmeticError(
                f"tensor face undecided for {mu} vs {lam}: no decomposition at n={n}"
            )
        decomps.append(found)
    return CriteriaTriple(a_dom, b_hull, True, None, r2, tuple(decomps))


def _escape_witness(d: RootDatum, mu: Vec, lam: Vec, r2: int) -> int | None:
    """A power n at which n*mu leaves n*Conv(orbit lam) + certificate box.

    Every weight of the n-th tensor power against the ball certificate stays
    inside that Minkowski sum, so escaping it refutes containment for good.
    Separation is found on a facet of the orbit hull and the witness is read
    off the margin growth, then verified exactly.
    """
    orb = root_datum.orbit(d, lam)
    box_half = _orbit_stretch(d) * (math.isqrt(r2) + 1)
    facets = _facets_of(list(orb))
    if not facets:
        # degenerate hull: only the single-point case is refuted here
        if tuple(mu) in orb or len(set(orb)) > 1:
            return None
        v = orb[0]
        for i in range(d.rank):
            if mu[i] != v[i]:
                n = box_half // abs(mu[i] - v[i]) + 1
                if _outside_minkowski(orb, box_half, mu, n):
                    return n
        return None
    for a, b in facets:
        margin = dot_f(a, mu) - b
        if margin > 0:
            width = sum(abs(x) for x in a) * box_half
            n = int(width / margin) + 1
            if _outside_minkowski(orb, box_half, mu, n):
                return n
    return None


def _outside_minkowski(orb, box_half: int, mu, n: int) -> bool:
    rank = len(mu)
    corners = list(itertools.product((-box_half, box_half), repeat=rank))
    points = [
        tuple(n * v[i] + c[i] for i in range(rank)) for v in orb for c in corners
    ]
    target = linalg.vec_scale(n, mu)
    if rank == 1:
        return not (min(p[0] for p in points) <= target[0] <= max(p[0] for p in points))
    if rank == 2:
        facets = _facets_of(points)
        if facets:
            return any(dot_f(a, target) > b for a, b in facets)
    hull = OrbitHull(vertices=tuple(points), facets=_facets_of(points))
    if hull.facets:
        return not hull.contains(target)
    return not _in_hull_caratheodory(target, points)


def _in_hull_caratheodory(point, vertices) -> bool:
    """Exact convex-hull membership via small affinely independent subsets."""
    rank = len(point)
    verts = sorted(set(map(tuple, vertices)))
    for size in range(1, rank + 2):
        for subset in itertools.combinations(verts, size):
            rows = [[v[i] for v in subset] for i in range(rank)]
            rows.append([1] * size)
            sol = linalg.solve(rows, list(point) + [1])
            if sol is not None and all(c >= 0 for c in sol):
                return True
    return False


@dataclass(frozen=True)
class CoverReport:
    verdict: str  # "ok", "failed", or "skipped"
    radius_sq: int
    points_checked: int
    failures: tuple[Vec, ...] = ()

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"


def quantized_cover_check(
    X, n: int, point_budget: int = 200_000
) -> CoverReport:
    """Every lattice point of n*Conv(X) must be an n-fold sum of X up to radius R.

    R = 2 |X| max|x| compared through squares.  Lattice points are enumerated
    over the bounding box of the dilated hull; each needs some n-fold sum of X
    within squared distance R^2.  A box larger than the point budget yields a
    skipped verdict rather than a failure.
    """
    pts = sorted(set(map(tuple, X)))
    if not pts:
        raise ValueError("empty point set")
    rank = len(pts[0])
    m = len(pts)
    top = max(sum(x * x for x in v) for v in pts)
    r2 = 4 * m * m * top
    scaled = [linalg.vec_scale(n, v) for v in pts]
    los = [min(v[i] for v in scaled) for i in range(rank)]
    his = [max(v[i] for v in scaled) for i in range(rank)]
    count = 1
    for lo, hi in zip(los, his):
        count *= hi - lo + 1
    if count > point_budget:
        return CoverReport(verdict="skipped", radius_sq=r2, points_checked=0)

    sums: set[Vec] = {(0,) * rank}
    for _ in range(n):
        sums = {vec_add(s, v) for s in sums for v in pts}
    facets = _facets_of(scaled)
    degenerate = not facets and len(set(scaled)) > 1

    checked = 0
    failures: list[Vec] = []
    for z in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
        if facets:
            if any(dot_f(a, z) > b for a, b in facets):
                continue
        elif degenerate:
            if not _in_hull_caratheodory(z, scaled):
                continue
        elif z != scaled[0]:
            continue
        checked += 1
        if not any(norm_sq(vec_sub(z, s)) <= r2 for s in sums):
            failures.append(z)
    verdict = "ok" if not failures else "failed"
    return CoverReport(
        verdict=verdict, radius_sq=r2, points_checked=checked, failures=tuple(failures)
    )
