"""Characters, dimensions, and the decomposition of tensor products.

Weight multiplicities come from the Freudenthal recursion, tensor products
from the reflection-based expansion over the weights of the smaller factor
(Brauer-Klimyk).
Derived Weyl data and the memos live on the datum (`root_datum.RootDatum`).
All arithmetic is exact; every quotient is checked back to a positive
integer, and a failed check raises ArithmeticError, under `python -O` too.
"""

from __future__ import annotations

import math
from operator import add, mul, sub
from typing import Iterable

from . import root_datum
from .linalg import Vec, vec_add
from .root_datum import RootDatum

Decomposition = dict[Vec, int]


def _require_dominant(d: RootDatum, x: Vec, what: str) -> Vec:
    x = tuple(x)
    if len(x) != d.rank:
        raise ValueError(f"{what} has wrong length")
    if not root_datum.is_dominant(d, x):
        raise ValueError(f"{what} {x} is not dominant")
    return x


def dominant_closure(
    d: RootDatum, tops: Iterable[Vec], closed: Iterable[Vec] = ()
) -> tuple[Vec, ...]:
    """All dominant weights below some dominant weight in tops or in closed, descending.

    Breadth-first from tops, subtracting one positive root at a time; every
    dominant weight under a top is reachable this way through dominant stops.
    Pairings with the simple coroots are carried along, so the dominance test
    is a subtraction; the roots' own pairings are the datum's `root_pairings`.
    The closure of a union is the union of the closures, so `closed`, a set
    of dominant weights already closed downward, is not walked: a walk stops
    at its weights.  `d.pairing` checks the length of every top not in
    `closed`, so the sums skip that check.
    """
    steps = d.root_pairings
    seen = set(closed)
    frontier = [(v, d.pairing(v)) for v in set(tops) - seen]
    seen.update(v for v, _ in frontier)
    while frontier:
        nxt = []
        for v, p in frontier:
            for a, pa in steps:
                q = tuple(map(sub, p, pa))
                if min(q) < 0:
                    continue
                w = tuple(map(sub, v, a))
                if w not in seen:
                    seen.add(w)
                    nxt.append((w, q))
        frontier = nxt
    return tuple(sorted(seen, reverse=True))


def dominant_weight_multiplicities(d: RootDatum, lam: Vec) -> dict[Vec, int]:
    """Multiplicity of each dominant weight of the irreducible with highest weight lam.

    Freudenthal's recursion on the integer invariant form, run on pairing vectors.
    B(x, y) = sum over positive roots b of <x, b^v><y, b^v> is integral and
    W-invariant, since W permutes the coroots up to sign, and Freudenthal's
    formula holds for any invariant form.  With t_b = <2 lam + 2 rho, b^v>
    and s_b the same for mu it reads
        m(mu) = 8 sum_{a > 0} sum_{k >= 1} m(mu + k a) (B(mu, a) + k B(a, a))
                / sum_{b > 0} (t_b^2 - s_b^2).
    Weights come in decreasing sum_b <mu, b^v>, which is a constant less
    twice the height of lam - mu, so every weight above mu is known at its
    turn.  Weights of one irreducible differ by root lattice elements, on
    which the pairings are injective, so a weight is known by its pairings.
    Each multiplicity is stored under the pairings of every weight in its
    W-orbit (`paired_orbit`, whose orbits `tensor_decompose` and
    `irreducible_character` walk anyway), so the multiplicity of mu + k a is
    one lookup of its pairings, with no walk to the dominant chamber.  The
    pairings <a, b^v>, the B(a, a) and the pairings of 2 rho are the datum's
    `form_rows` and `rho2_pairings`, built once per datum.

    The datum's memo is read before lam is checked.  This function is the
    memo's only writer, and it writes only checked weights, so a hit needs no
    check and every weight of the wrong length or not dominant misses.
    """
    lam = tuple(lam)
    cached = d.dominant_mults.get(lam)
    if cached is not None:
        return cached
    _require_dominant(d, lam, "highest weight")
    roots, shift = d.form_rows, d.rho2_pairings

    def squares(fx: Vec) -> int:
        return sum((2 * p + r) ** 2 for p, r in zip(fx, shift))

    fulls = {mu: d.coroot_pairings(mu) for mu in dominant_closure(d, [lam])}
    t_squares = squares(fulls[lam])
    found: dict[Vec, int] = {}  # pairings of every weight of an orbit -> multiplicity
    mults: dict[Vec, int] = {}
    for mu in sorted(fulls, key=lambda w: -sum(fulls[w])):
        value = 1
        if mu != lam:
            fmu, pmu = fulls[mu], d.pairing(mu)
            num = 0
            for pa, fa, baa in roots:
                b = sum(map(mul, fmu, fa)) + baa  # B(mu + k a, a) at k = 1
                q = tuple(map(add, pmu, pa))
                while (m := found.get(q)) is not None:  # weight strings have no gaps
                    num += m * b
                    b += baa
                    q = tuple(map(add, q, pa))
            denom = t_squares - squares(fmu)
            value, rem = divmod(8 * num, denom)
            if rem or value <= 0:
                raise ArithmeticError((lam, mu, 8 * num, denom))
        found.update(dict.fromkeys(d.paired_orbit(mu)[1], value))
        mults[mu] = value
    d.dominant_mults[lam] = mults
    return mults


def irreducible_character(d: RootDatum, lam: Vec) -> dict[Vec, int]:
    """Full weight multiset of the irreducible, as weight -> multiplicity."""
    out: dict[Vec, int] = {}
    for mu, m in dominant_weight_multiplicities(d, lam).items():
        for w in d.paired_orbit(mu)[0]:
            out[w] = m
    return out


def dimension(d: RootDatum, lam: Vec) -> int:
    """Dimension of the irreducible with highest weight lam, by Weyl's formula.

    It is the product of <2 lam + 2 rho, b^v> over the positive coroots b,
    over the datum's `weyl_denominator`, the same product at lam = 0.

    The datum's memo is read before lam is checked, on the same rule as
    `dominant_weight_multiplicities`: this function is its only writer.
    """
    lam = tuple(lam)
    cached = d.dimensions.get(lam)
    if cached is not None:
        return cached
    _require_dominant(d, lam, "highest weight")
    num = math.prod(2 * p + r for p, r in zip(d.coroot_pairings(lam), d.rho2_pairings))
    value, rem = divmod(num, d.weyl_denominator)
    if rem or value <= 0:
        raise ArithmeticError((lam, num, d.weyl_denominator))
    d.dimensions[lam] = value
    return value


def tensor_decompose(d: RootDatum, lam: Vec, mu: Vec) -> Decomposition:
    """Decompose the tensor product of two irreducibles into irreducibles.

    Iterates over the weights w of the smaller factor and moves lam + w to
    the dominant chamber by the rho-shifted action, with the sign of the
    word; terms whose shift by rho lies on a wall drop out (Brauer-Klimyk).
    The walk is `RootDatum.chamber_walk` of the pairings q of lam + rho + w:
    each step moves q by a column of the Cartan matrix and the weight by a
    simple root, both chosen by q alone, so the wall, the sign and the
    displacement are functions of q.  A q with every entry positive needs no
    step, and one whose first non-positive entry is zero lies on a wall, as
    does every point of its orbit, so its walk ends on one; every other q is
    walked once per datum into the datum's `chamber_walks` memo.

    The weights come as `RootDatum.orbit_records`, each with its least
    pairing.  Since q_i = <lam, a_i^v> + 1 + <w, a_i^v>, every entry of q is
    positive when the least pairing of w is at least minus the least pairing
    of lam, so such a term goes to lam + w with no q built; only the rest are
    scanned.  The multiplicities found are checked positive, and a failed
    check raises ArithmeticError.

    The first step compares the factors' `dimension`s, which raises
    ValueError on either weight if it is not dominant or has the wrong
    length.  The checked lengths let the sums skip the length checks.
    """
    lam, mu = tuple(lam), tuple(mu)
    if dimension(d, mu) > dimension(d, lam):
        lam, mu = mu, lam
    walks = d.chamber_walks
    pl = d.pairing(lam)
    floor = -min(pl, default=0)
    shifted = tuple(x + 1 for x in pl)  # pairings of lam + rho
    acc: dict[Vec, int] = {}
    for delta, m in dominant_weight_multiplicities(d, mu).items():
        for w, pw, least in d.orbit_records(delta):
            if least >= floor:  # lam + rho + w clears every wall of the chamber
                y = tuple(map(add, lam, w))
                acc[y] = acc.get(y, 0) + m
                continue
            q = tuple(map(add, shifted, pw))
            for c in q:
                if c <= 0:
                    break
            else:
                y = tuple(map(add, lam, w))
                acc[y] = acc.get(y, 0) + m
                continue
            if c == 0:
                continue  # on a wall
            walk = walks.get(q)
            if walk is None:
                walk = walks[q] = d.chamber_walk(q)
            sign = walk[-1]
            if sign:  # map stops at the weight's length, so the sign is not added
                y = tuple(map(add, map(add, lam, w), walk))
                acc[y] = acc.get(y, 0) + sign * m
    out = {k: v for k, v in acc.items() if v != 0}
    if min(out.values(), default=1) < 0:
        raise ArithmeticError((lam, mu, out))
    return out


def prv_components(d: RootDatum, lam: Vec, mu: Vec) -> tuple[Vec, ...]:
    """Dominant representatives of lam + w(mu) over the Weyl group.

    Each is the highest weight of a factor of the tensor product (Kumar).
    """
    lam = _require_dominant(d, lam, "left weight")
    mu = _require_dominant(d, mu, "right weight")
    found = {
        root_datum.dominant_representative(d, vec_add(lam, w))
        for w in d.paired_orbit(mu)[0]
    }
    return tuple(sorted(found, reverse=True))
