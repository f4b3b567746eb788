"""Exact convex geometry for Weyl orbits.

All computations are exact: an integer functional positive on a set of vectors
by Phase I of the simplex method, the least generating set of the monoid they
span, Weyl orbit hulls by integer inequalities read off the datum, norms
compared through their squares so no irrational number is ever materialized.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, NamedTuple

from . import char_engine, linalg, root_datum
from .linalg import Vec, dot, vec_add, vec_sub
from .root_datum import RootDatum


def positive_functional(vectors) -> tuple[int, ...] | None:
    """An integer functional phi with phi(v) >= 1 for every v, or None.

    None exactly when 0 lies in the convex hull of the vectors, which covers
    an empty list and a zero vector.  Each vector is cut to its primitive
    ray p first, since phi.p >= 1 gives phi.(k p) >= 1 for every k >= 1.  By
    Farkas' lemma phi exists exactly when A y = e, y >= 0 has no solution,
    where A is the rays as columns over a row of ones and e is the last unit
    vector.  Phase I of the revised simplex method with Bland's rule decides
    that system on its n + 1 rows, in integers: the basis inverse is kept
    over one denominator and updated by fraction-free (Bareiss) steps.  At a positive optimum the simplex
    multipliers pi, scaled to integers, satisfy pi.A_j <= 0 < pi.e = pi[n], so
    phi = -pi[:n] gives phi.p >= pi[n] >= 1 on every ray p.
    """
    rays: set[Vec] = set()
    for v in vectors:
        g = math.gcd(*v)
        if g == 0:
            return None
        rays.add(tuple(x // g for x in v))
    if not rays:
        return None
    cols = [(*p, 1) for p in sorted(rays)]
    k, n = len(cols), len(cols[0]) - 1
    # the inverse of the basis matrix is binv / den, all integers: den is the
    # basis determinant, positive as each pivot is; artificial variable i is
    # number k + i
    binv = linalg.identity(n + 1)
    den = 1
    basis = list(range(k, k + n + 1))
    while True:
        # multipliers of the sum of the artificials, over the least denominator
        # that makes them integers; pi.e = pi[n] is that sum at the current basis
        pi = [sum(r[m] for r, b in zip(binv, basis) if b >= k) for m in range(n + 1)]
        g = math.gcd(den, *pi)
        pi = [x // g for x in pi]
        if pi[n] == 0:
            return None
        # Bland: the first column with reduced cost -pi.A_j < 0 enters
        j = next((j for j, c in enumerate(cols) if dot(pi, c) > 0), None)
        if j is None:
            return tuple(-x for x in pi[:n])
        u = [dot(r, cols[j]) for r in binv]
        # ratio test on x_B = binv e / den over a common multiple of the u[i],
        # ties to the lowest-numbered variable
        rows = [i for i in range(n + 1) if u[i] > 0]
        scale = math.lcm(*(u[i] for i in rows))
        i = min(rows, key=lambda i: (binv[i][n] * (scale // u[i]), basis[i]))
        # the Bareiss step: keep the pivot row, and the pivot is the new determinant
        top = binv[i]
        binv = [
            r if s == i else [(u[i] * x - u[s] * y) // den for x, y in zip(r, top)]
            for s, r in enumerate(binv)
        ]
        den = u[i]
        basis[i] = j


def indecomposables(vectors) -> tuple[Vec, ...] | None:
    """The vectors that are no sum of two or more of them (repeats allowed), descending.

    None exactly when `positive_functional` is.  A sweep in increasing phi
    keeps each vector that the kept ones do not generate.  Every summand of
    v weighs less than v, so by induction on phi the kept vectors generate
    all of them: they are the Hilbert basis of the monoid the vectors span.
    """
    vecs = set(map(tuple, vectors))
    phi = positive_functional(vecs)
    if phi is None:
        return None
    weight = {v: dot(phi, v) for v in vecs}
    kept: list[Vec] = []

    @functools.cache
    def generated(v: Vec, fv: int) -> bool:
        """Whether v, of weight fv, is a nonempty sum of kept vectors."""
        return any(
            not any(rest := vec_sub(v, c)) or generated(rest, fv - weight[c])
            for c in kept
            if weight[c] <= fv
        )

    for v in sorted(vecs, key=weight.__getitem__):
        if not generated(v, weight[v]):
            kept.append(v)
            generated.cache_clear()
    return tuple(sorted(kept, reverse=True))


def fundamental_monoid_generators(d: RootDatum) -> tuple[Vec, ...]:
    """Minimal generating set of the monoid of dominant weights.

    Only defined when the datum is semisimple; a central torus makes the
    monoid infinitely generated.  Sorted by descending pairing vector, so for
    a simply connected datum this is the fundamental weights in order.
    """
    if d.semisimple_rank != d.rank:
        raise ValueError("dominant monoid is finitely generated only for semisimple data")
    _, adj, det = d.coordinates
    # least positive multiple of each pairing axis that is a weight; every
    # minimal monoid element fits under the box they span
    axis_mult = [abs(det) // math.gcd(det, *col) for col in zip(*adj)]
    box = itertools.product(*(range(0, m + 1) for m in axis_mult))
    weight_of = {p: x for p in box if any(p) and (x := d.weight_at(p)) is not None}
    return tuple(weight_of[p] for p in indecomposables(weight_of) or ())


def norm_sq(v) -> int:
    return sum(x * x for x in v)


# an orbit-polytope inequality (a, b) means a . x <= b, all integers
Inequality = tuple[Vec, int]


class OrbitHull(NamedTuple):
    vertices: tuple[Vec, ...]
    inequalities: tuple[Inequality, ...]

    def contains(self, point) -> bool:
        return all(dot(a, point) <= b for a, b in self.inequalities)


def orbit_hull(d: RootDatum, lam: Vec) -> OrbitHull:
    """Conv(W.lam) as its vertices and a list of integer inequalities.

    Each torus-quotient row q of the datum's coordinate matrix vanishes on
    the roots, so q.x = q.lam holds on the hull; it enters as two
    inequalities.  With A the Cartan matrix, Y_i = sum_j adj(A)_ij coroot_j
    is det(A) times the i-th fundamental coweight, and every image w Y_i
    under the coweight action of W gives w Y_i . x <= Y_i . lam for lam
    dominant.  A point x meets all of them exactly when lam - dom(x) lies in
    the rational root span with nonnegative coefficients, which by Kostant's
    convexity theorem is membership in the hull.  The normals are the
    datum's `hull_normals`, so only their right-hand sides depend on lam.
    """
    lam = root_datum.dominant_representative(d, lam)
    ineqs: list[Inequality] = []
    for q in d.coordinates[0][d.semisimple_rank :]:
        ineqs += [(q, dot(q, lam)), (tuple(-c for c in q), -dot(q, lam))]
    for y, images in d.hull_normals:
        ineqs += [(wy, dot(y, lam)) for wy in images]
    return OrbitHull(vertices=d.paired_orbit(lam)[0], inequalities=tuple(ineqs))


class CriteriaTriple(NamedTuple):
    dominance: bool
    hull: bool
    tensor: bool


def tensor_radius_sq(d: RootDatum, lam: Vec) -> int:
    """Criterion 5's covering radius squared: (2m max|x|)^2, m the orbit size."""
    orb = d.paired_orbit(tuple(lam))[0]
    m = len(orb)
    top = max(norm_sq(v) for v in orb)
    return 4 * m * m * top


def order_criteria(d: RootDatum, lam: Vec) -> Callable[[Vec], CriteriaTriple]:
    """The three faces of the containment order below lam, as a function of mu.

    Each call takes a dominant mu in lam's root coset.  Dominance is read off
    the root coefficients of lam - mu, hull containment off the inequalities
    of the hull of the orbit of lam, and the tensor face off one tensor
    product: whether V(mu + nu) occurs in V(lam) x V(nu) for
    nu = c * 2rho, c = ceil(max <lam, b> / 2) over the positive coroots b
    (0 on a torus).  This is the stable range of the Brauer-Klimyk formula.
    nu pairs to 2c with each simple coroot a.  Every weight m of V(lam) lies
    in the hull of W.lam, and <w lam, a> = <lam, w^-1 a> >= -2c since w^-1 a
    is a coroot, so nu + m + rho pairs to at least 1 with each a: it is
    regular dominant, and no term of the formula reflects or cancels.  The
    product is the sum of V(nu + m) over the weights m of V(lam) with their
    multiplicities, so V(nu + mu) occurs dim V(lam)_mu times, which is
    positive exactly when mu <= lam.  The hull and the product depend on lam
    alone, so they are built once, here.
    """
    lam = tuple(lam)
    c = (max(d.coroot_pairings(lam), default=0) + 1) // 2
    nu = linalg.vec_scale(c, d.rho2)
    hull = orbit_hull(d, lam)
    product = char_engine.tensor_decompose(d, lam, nu)

    def agree(mu: Vec) -> CriteriaTriple:
        mu = tuple(mu)
        return CriteriaTriple(
            root_datum.dominance_leq(d, mu, lam), hull.contains(mu), vec_add(mu, nu) in product
        )

    return agree


def order_criteria_agree(d: RootDatum, mu: Vec, lam: Vec) -> CriteriaTriple:
    """The three faces of `order_criteria` on one dominant same-coset pair."""
    return order_criteria(d, lam)(mu)


# the most lattice points a covering check enumerates before it skips
COVER_POINT_BUDGET = 200_000


class CoverReport(NamedTuple):
    verdict: str  # "ok", "failed", or "skipped"
    radius_sq: int
    points_checked: int
    failures: tuple[Vec, ...] = ()

    @property
    def ok(self) -> bool:
        return self.verdict == "ok"


def quantized_cover_check(d: RootDatum, lam: Vec, n: int) -> CoverReport:
    """Every lattice point of n*Conv(W.lam) must be near an n-fold sum of orbit points.

    Near means within radius R = 2 |orbit| max|x|, compared through
    squares.  Lattice points are enumerated over the bounding box of the
    dilated orbit and kept when they meet the hull inequalities a.z <= n*b.
    A box of more than COVER_POINT_BUDGET points yields a skipped verdict
    rather than a failure.
    """
    hull = orbit_hull(d, lam)
    pts = hull.vertices
    r2 = tensor_radius_sq(d, lam)
    scaled = [linalg.vec_scale(n, v) for v in pts]
    los = [min(v[i] for v in scaled) for i in range(d.rank)]
    his = [max(v[i] for v in scaled) for i in range(d.rank)]
    count = 1
    for lo, hi in zip(los, his):
        count *= hi - lo + 1
    if count > COVER_POINT_BUDGET:
        return CoverReport(verdict="skipped", radius_sq=r2, points_checked=0)

    sums: set[Vec] = {(0,) * d.rank}
    for _ in range(n):
        sums = {vec_add(s, v) for s in sums for v in pts}

    checked = 0
    failures: list[Vec] = []
    for z in itertools.product(*(range(lo, hi + 1) for lo, hi in zip(los, his))):
        if any(dot(a, z) > n * b for a, b in hull.inequalities):
            continue
        checked += 1
        if not any(norm_sq(vec_sub(z, s)) <= r2 for s in sums):
            failures.append(z)
    verdict = "ok" if not failures else "failed"
    return CoverReport(
        verdict=verdict, radius_sq=r2, points_checked=checked, failures=tuple(failures)
    )
