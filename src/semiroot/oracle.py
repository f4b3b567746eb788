"""Opaque-label oracle tables for the representation semiring on a window.

A table holds fresh random labels for the dominant weights in a bounded
window, the unit and duality involution, and the product decomposition of
every label pair whose Cartan component stays inside the window; other pairs
are marked out of window.  The window is closed downward under dominance, so
every component of an in-window product is itself a label.
"""

from __future__ import annotations

import functools
import itertools
import random
from operator import add, mul, sub
from typing import Iterable

from . import char_engine, root_datum
from .linalg import Vec
from .root_datum import RootDatum


class OracleError(ValueError):
    """Semiring axiom violation; the message names the axiom."""


class OracleFormatError(ValueError):
    """Malformed oracle text; the message carries the line number."""


class OracleTable:
    """Labels, the unit, the duality and the product cell of every unordered pair.

    `products` is the one cell store, keyed by `pair_key`; a cell is None
    when the pair is out of window.  `partners`, each label's in-window
    partners, is the one index, built from it on first read; a table is not
    mutated after construction, so it does not go stale.  Tables compare
    equal when all four fields do; the index takes no part.
    """

    def __init__(
        self,
        labels: tuple[str, ...],
        unit: str,
        dual: dict[str, str],
        products: dict[tuple[str, str], dict[str, int] | None],
    ):
        self.labels, self.unit, self.dual, self.products = labels, unit, dual, products

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.labels, self.unit, self.dual, self.products) == (
            other.labels, other.unit, other.dual, other.products
        )

    def __repr__(self):
        return f"OracleTable(labels={self.labels!r}, unit={self.unit!r}, dual={self.dual!r})"

    @staticmethod
    def pair_key(x: str, y: str) -> tuple[str, str]:
        return (x, y) if x <= y else (y, x)

    @functools.cached_property
    def partners(self) -> dict[str, frozenset[str]]:
        """partners[x] is the set of labels whose cell with x is in window."""
        out: dict[str, set[str]] = {x: set() for x in self.labels}
        for (x, y), val in self.products.items():
            if val is not None:
                out[x].add(y)
                out[y].add(x)
        return {x: frozenset(ys) for x, ys in out.items()}


def table_isomorphism(t: OracleTable, u: OracleTable, partial: dict) -> dict | None:
    """A bijection from t's labels onto u's that extends `partial` and carries
    t's unit, duals and cells onto u's, or None.  None too when the label
    counts differ or `partial` is not an injective map from t's labels into u's.

    Free labels are placed in sorted order, each trying, in u's order, the
    unused labels of u with as many in-window partners.  A cell is
    compared once both of its factors are placed: it is in window exactly
    when its image is, has as many components, and gives each placed
    component its multiplicity.  So a complete map carries every cell onto
    u's, and a placed cell's components go into its image's.  Image cells
    are read from `u.products`, so when `partial` places every label no
    index of u is built.
    """
    bij, used = dict(partial), set(partial.values())
    if len(t.labels) != len(u.labels) or len(used) != len(bij):
        return None
    if not bij.keys() <= set(t.labels) or not used <= set(u.labels):
        return None

    def agrees(placed: Iterable, cells: Iterable[tuple[tuple, dict | None]]) -> bool:
        for x in placed:
            if (x == t.unit) != (bij[x] == u.unit):
                return False
            if t.dual[x] in bij and bij[t.dual[x]] != u.dual[bij[x]]:
                return False
        for (x, y), val in cells:
            if x not in bij or y not in bij:
                continue
            a, b = bij[x], bij[y]
            image = u.products[(a, b) if a <= b else (b, a)]
            if val is None or image is None or len(val) != len(image):
                if val is not image:  # only two out-of-window cells pass
                    return False
                continue
            for z, m in val.items():
                if z in bij and image.get(bij[z]) != m:
                    return False
        return True

    if not agrees(partial, t.products.items()):
        return None
    free = sorted(set(t.labels) - bij.keys())
    if not free:
        return bij
    cells: dict = {x: [] for x in free}
    for key, val in t.products.items():
        for x in cells.keys() & {*key, *(val or ())}:
            cells[x].append((key, val))

    # a bijection that carries every cell keeps each label's number of
    # in-window partners, so x only tries the images with its number, in u's order
    images: dict[int, list] = {}
    for w in u.labels:
        images.setdefault(len(u.partners[w]), []).append(w)

    def assign(i: int) -> bool:
        if i == len(free):
            return True
        x = free[i]
        for w in [w for w in images.get(len(t.partners[x]), ()) if w not in used]:
            bij[x] = w
            used.add(w)
            if agrees((x,), cells[x]) and assign(i + 1):
                return True
            used.discard(bij.pop(x))
        return False

    return bij if assign(0) else None


def window_weights(d: RootDatum, bound: int) -> tuple[Vec, ...]:
    """Dominant weights of the window: the coordinate box, closed under dominance.

    The box keeps every simple-coroot pairing at most `bound` and every
    torus-quotient coordinate at most `bound` in absolute value; downward
    dominance closure then adds the weights below the box.
    """
    return char_engine.dominant_closure(d, window_box(d, bound))


def window_box(d: RootDatum, bound: int) -> list[Vec]:
    """The dominant weights of the window's coordinate box, before closure, sorted.

    With F the simple coroots stacked over the torus-quotient matrix, the box
    is every integral x with F x in [0, bound]^k x [-bound, bound]^(rank-k).
    It is enumerated in those coordinates, keeping each y that is F x for a
    weight x, so its cost does not grow with how skewed the basis of the
    character lattice is.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    k = d.semisimple_rank
    ranges = [range(bound + 1)] * k + [range(-bound, bound + 1)] * (d.rank - k)
    box = (d.weight_at(y) for y in itertools.product(*ranges))
    return sorted(x for x in box if x is not None)


def _fresh_labels(count: int, rng: random.Random) -> list[str]:
    out: list[str] = []
    seen: set[str] = set()
    while len(out) < count:
        cand = f"{rng.randrange(16 ** 6):06x}"
        if cand not in seen:
            seen.add(cand)
            out.append(cand)
    return out


def window_table(
    d: RootDatum, weights: tuple[Vec, ...], names: dict[Vec, str] | None = None
) -> OracleTable:
    """The unit, the duals and the products of a window, each weight w labelled names[w].

    Without `names` a weight labels itself.  Labels follow the order of
    `weights`, and each cell is keyed by `OracleTable.pair_key` of its labels.
    A pair is in window when its Cartan component is a window weight; the
    window is closed downward, so every component of its product is one too.
    With `names`, the unit and each weight's dual must be named as well,
    which they are on a window.  Raises ValueError on a weight that is not
    dominant.

    Each product is decomposed once per PRV shape.  With mu the factor of
    smaller dimension (the one `tensor_decompose` expands) and lam the
    other, the PRV theorem (Parthasarathy, Ranga Rao and Varadarajan; Kumar)
    counts V(lam + b) in V(lam) x V(mu) as the v in V(mu)_b with
    e_i^(<lam, a_i^> + 1) v = 0 for every i.  As e_i^k vanishes on V(mu) for
    k above c_i(mu), the largest <w mu, a_i^> over W, the factors written as
    offsets from lam + mu depend only on the shape: mu's pairings (a central
    shift of mu only shifts them) and min(<lam, a_i^>, c_i(mu)).  The first
    in-window pair of a shape is decomposed, and every later one gets that
    cell shifted.  Pairs are looked up first by both pairing vectors, which
    on a torus never change.  The memos live for this call only.  Each
    weight is paired once, for the dominance check and its pairing id; its
    dual label is -w0 applied to it.
    """
    name = (lambda w: w) if names is None else names.__getitem__
    minus_w0 = d.minus_w0
    dual: dict = {}
    wset = set(weights)
    ids: dict[Vec, int] = {}  # pairing vector -> its id
    dims: list[int] = []  # Weyl's formula reads the pairings alone, so one dimension per id
    pid = []
    for w in weights:
        p = d.pairing(w)
        if min(p, default=0) < 0:
            raise ValueError(f"highest weight {w} is not dominant")
        dual[name(w)] = name(tuple([sum(map(mul, row, w)) for row in minus_w0]))
        if p not in ids:
            ids[p] = len(ids)
            dims.append(char_engine.dimension(d, w))
        pid.append(ids[p])
    pairings = list(ids)
    ceiling: dict[int, Vec] = {}
    by_shape: dict[tuple[int, Vec], tuple[Vec, dict[Vec, int]]] = {}

    def first_of_shape(w1: Vec, p1: int, w2: Vec, p2: int, top: Vec) -> tuple[Vec, dict]:
        """The first pair of the shape of w1 and w2 (pairing ids p1, p2): its top and cell."""
        (lam, a), (mu, b) = (w1, p1), (w2, p2)
        if dims[b] > dims[a]:
            (lam, a), (mu, b) = (mu, b), (lam, a)
        c = ceiling.get(b)
        if c is None:
            c = ceiling[b] = tuple(map(max, zip(*d.paired_orbit(mu)[1])))
        shape = (b, tuple(map(min, pairings[a], c)))
        got = by_shape.get(shape)
        if got is None:
            got = by_shape[shape] = (top, char_engine.tensor_decompose(d, lam, mu))
        return got

    by_pair: dict[tuple[int, int], tuple[Vec, dict[Vec, int]]] = {}
    products: dict = {}
    labels = tuple(map(name, weights))
    for i, (w1, p1, x) in enumerate(zip(weights, pid, labels)):
        for w2, p2, y in zip(weights[i:], pid[i:], labels[i:]):
            top = tuple(map(add, w1, w2))
            cell = None
            if top in wset:
                seen = by_pair.get((p1, p2))
                if seen is None:
                    seen = by_pair[(p1, p2)] = first_of_shape(w1, p1, w2, p2, top)
                if len(seen[1]) == 1:
                    cell = {name(top): 1}  # a lone factor is the Cartan component
                else:
                    shift = tuple(map(sub, top, seen[0]))
                    cell = {name(tuple(map(add, nu, shift))): m for nu, m in seen[1].items()}
            products[(x, y) if x <= y else (y, x)] = cell
    return OracleTable(labels=labels, unit=name((0,) * d.rank), dual=dual, products=products)


def materialize_oracle(
    d: RootDatum, bound: int, seed: int = 0
) -> tuple[OracleTable, dict[str, Vec]]:
    """The window table of a datum under fresh labels, with label -> weight provenance.

    The fresh labels are drawn in window order and `window_table` writes
    every cell under them directly; the table lists its labels sorted.  The
    provenance map is for harnesses and tests only; reconstruction must
    never see it.
    """
    root_datum.validate_root_datum(d)
    weights = window_weights(d, bound)
    label_of = dict(zip(weights, _fresh_labels(len(weights), random.Random(seed))))
    t = window_table(d, weights, label_of)
    table = OracleTable(tuple(sorted(t.labels)), t.unit, t.dual, t.products)
    return table, {x: w for w, x in label_of.items()}


def format_oracle(t: OracleTable) -> str:
    lines = ["labels: " + " ".join(t.labels), "unit: " + t.unit]
    for x in t.labels:
        y = t.dual[x]
        if x <= y:
            lines.append(f"dual: {x} {y}")
    for x, y in sorted(t.products):
        val = t.products[(x, y)]
        if val is None:
            lines.append(f"prod {x} {y} : ?")
        else:
            body = " ".join(f"{z}*{m}" for z, m in sorted(val.items()))
            lines.append(f"prod {x} {y} : {body}")
    return "\n".join(lines) + "\n"


def parse_oracle(text: str) -> OracleTable:
    labels: tuple[str, ...] | None = None
    unit: str | None = None
    dual: dict[str, str] = {}
    products: dict[tuple[str, str], dict[str, int] | None] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        # prod lines are all but a handful, so they are tested for first
        if line.startswith("prod "):
            try:
                head, body = line.split(":", 1)
            except ValueError:
                raise OracleFormatError(f"line {lineno}: missing ':'") from None
            parts = head.split()
            if len(parts) != 3:
                raise OracleFormatError(f"line {lineno}: prod wants two labels")
            _, x, y = parts
            key = (x, y) if x <= y else (y, x)  # OracleTable.pair_key, inlined for the hot loop
            if key in products:
                raise OracleFormatError(f"line {lineno}: product {' '.join(key)} given twice")
            body = body.strip()
            if body == "?":
                products[key] = None
                continue
            val: dict[str, int] = {}
            for item in body.split():
                try:
                    z, m = item.rsplit("*", 1)
                    mult = int(m)
                except ValueError:
                    raise OracleFormatError(
                        f"line {lineno}: bad component {item!r}"
                    ) from None
                if mult < 1 or z in val:
                    raise OracleFormatError(f"line {lineno}: bad component {item!r}")
                val[z] = mult
            if not val:
                raise OracleFormatError(f"line {lineno}: empty product")
            products[key] = val
        elif line.startswith("labels:"):
            if labels is not None:
                raise OracleFormatError(f"line {lineno}: second labels: line")
            labels = tuple(line[len("labels:") :].split())
            bad = next((x for x in labels if ":" in x), None)
            if bad is not None:
                raise OracleFormatError(f"line {lineno}: label {bad!r} contains ':'")
        elif line.startswith("unit:"):
            if unit is not None:
                raise OracleFormatError(f"line {lineno}: second unit: line")
            parts = line[len("unit:") :].split()
            if len(parts) != 1:
                raise OracleFormatError(f"line {lineno}: unit wants one label")
            unit = parts[0]
        elif line.startswith("dual:"):
            parts = line[len("dual:") :].split()
            if len(parts) != 2:
                raise OracleFormatError(f"line {lineno}: dual wants two labels")
            twice = [x for x in parts if x in dual]
            if twice:
                raise OracleFormatError(f"line {lineno}: dual of {twice[0]} given twice")
            dual[parts[0]] = parts[1]
            dual[parts[1]] = parts[0]
        else:
            raise OracleFormatError(f"line {lineno}: unrecognized line {line[:40]!r}")
    if labels is None or unit is None:
        raise OracleFormatError("missing labels: or unit: header")
    return OracleTable(labels=labels, unit=unit, dual=dual, products=products)


ASSOC_BUDGET = 5000


def validate_oracle(t: OracleTable) -> int:
    """Check table well-formedness and the semiring axioms on the window.

    Runs `check_structure`, then `check_associativity`, and returns the
    number of associativity triples checked; raises OracleError naming the
    first failed axiom.  `reconstruction.recover_datum` runs the structure
    check first and this only on a table that does not certify: a certified
    table matches a genuine window exactly, and a genuine window passes.
    """
    check_structure(t)
    return check_associativity(t)


def check_structure(t: OracleTable) -> None:
    """Check the labels, the unit, the duality, closure and the unit and dual cells.

    Raises OracleError naming the first failed axiom.  After it passes,
    every product cell is present, and every component is a label.
    """
    lset = set(t.labels)
    if len(t.labels) != len(lset) or not t.labels:
        raise OracleError("labels: empty or duplicated")
    for x in t.labels:
        if x.split() != [x] or ":" in x:
            raise OracleError(f"labels: {x!r} is empty or holds ':' or whitespace")
    if t.unit not in lset:
        raise OracleError("unit: not a label")
    for x in t.dual:
        if x not in lset:
            raise OracleError(f"duality: unknown label {x}")
    for x in t.labels:
        y = t.dual.get(x)
        if y is None or y not in lset:
            raise OracleError(f"duality: no dual for {x}")
        if t.dual.get(y) != x:
            raise OracleError(f"duality: not an involution at {x}")
    if t.dual[t.unit] != t.unit:
        raise OracleError("duality: unit must be self-dual")
    # n(n+1)/2 distinct canonical keys of known labels are exactly the pairs
    # x <= y, so the pair scan and the key label test run only when this fails
    n = len(t.labels)
    complete = len(t.products) == n * (n + 1) // 2 and all(
        x <= y and x in lset and y in lset for x, y in t.products
    )
    if not complete:
        for x in t.labels:
            for y in t.labels:
                if x <= y and (x, y) not in t.products:
                    raise OracleError(f"closure: missing product {x} {y}")
    for key, val in t.products.items():
        if not complete:
            for x in key:
                if x not in lset:
                    raise OracleError(f"closure: unknown label {x} in {key}")
        if val is None:
            continue
        for z, m in val.items():
            if z not in lset:
                raise OracleError(f"closure: unknown component {z} in {key}")
            if m < 1:
                raise OracleError(f"closure: nonpositive multiplicity in {key}")
    cells, key = t.products, t.pair_key
    for x in t.labels:
        if cells[key(t.unit, x)] != {x: 1}:
            raise OracleError(f"unit: product with {x} must be that label alone")
    for x in t.labels:
        if cells[(x, x)] == {x: 1} and x != t.unit:
            raise OracleError(f"unit: {x} behaves like a second unit")
        pairing = cells[key(x, t.dual[x])]
        if pairing is not None and pairing.get(t.unit) != 1:
            raise OracleError(f"duality: unit multiplicity in {x} times its dual")


def check_associativity(t: OracleTable) -> int:
    """Walk associativity on a table that passed `check_structure`.

    Raises OracleError on the first triple whose two sides differ, and
    otherwise returns the number of triples checked.  Associativity is
    checked on the triples x, y, z at label positions i <= j <= k whose
    cells x*y and y*z are in window and whose expansions stay fully in
    window, up to ASSOC_BUDGET of them, in the order of
    `itertools.combinations_with_replacement(t.labels, 3)`.  Only those
    triples are walked: for each x its in-window partners y from x on, for
    each y its in-window partners z from y on.  The walk reads whole rows, so
    it builds its own symmetric row view of `products`.
    """
    rows: dict[str, dict[str, dict[str, int] | None]] = {x: {} for x in t.labels}
    for (x, y), val in t.products.items():
        rows[x][y] = rows[y][x] = val

    def expand(left: dict[str, int], row: dict) -> dict[str, int] | None:
        """The product of a formal sum with the label of `row`; None when it leaves the window."""
        acc: dict[str, int] = {}
        for nu, c in left.items():
            cell = row[nu]
            if cell is None:
                return None
            for w, m in cell.items():
                acc[w] = acc.get(w, 0) + c * m
        return acc

    labels = t.labels
    # partners[i]: the positions j >= i whose cell with label i is in window
    partners = [
        [j for j in range(i, len(labels)) if rows[x][labels[j]] is not None]
        for i, x in enumerate(labels)
    ]
    checked = 0
    for i, x in enumerate(labels):
        row_x = rows[x]
        for j in partners[i]:
            y = labels[j]
            xy, row_y = row_x[y], rows[y]
            for k in partners[j]:
                z = labels[k]
                lhs = expand(xy, rows[z])
                if lhs is None:
                    continue
                rhs = expand(row_y[z], row_x)
                if rhs is None:
                    continue
                if lhs != rhs:
                    raise OracleError(f"associativity: ({x} {y}) {z} differs from {x} ({y} {z})")
                checked += 1
                if checked >= ASSOC_BUDGET:
                    return checked
    return checked
