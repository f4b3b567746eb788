"""Recovering a root datum from an opaque oracle table.

The pipeline walks the window in stages: Cartan components of each in-window
product, group completion of the resulting partial monoid, simple roots as
minimal candidates from squares, simple coroots from dominance scans, and
finally a reproduction check that re-materializes the window from the
recovered datum and demands an exact match against the input table.  When the
roots leave two or more coordinates to the torus quotient, the completion is
rebased before the coroot scans so that the labels' torus coordinates fill a
box, as those of a window do.  Certification has that one path: a certified
report names the bound of the window that reproduces the table.  A bounded
certificate search for the dominance order on labels still runs after
validation and is kept on the report, but no later stage reads it.

Everything downstream of the table treats labels as opaque strings; weight
coordinates only appear after the group completion invents them.
"""

from __future__ import annotations

import collections
import itertools
from dataclasses import dataclass, field
from operator import sub
from typing import Callable, Iterable

from . import linalg, oracle, polytope, root_datum
from .linalg import Vec, dot, vec_sub
from .oracle import OracleTable
from .root_datum import RootDatum

Sem = dict[str, int]


class StageFailure(Exception):
    def __init__(self, stage: str, reason: str):
        super().__init__(f"{stage}: {reason}")
        self.stage = stage
        self.reason = reason


@dataclass
class OrderCertificate:
    theta: Sem
    strict_ns: tuple[int, ...]
    lenient_ns: tuple[int, ...]


@dataclass
class RecoveredOrder:
    labels: tuple[str, ...]
    classes: dict[str, int]
    decided: dict[tuple[str, str], OrderCertificate]
    closure: set[tuple[str, str]] = field(repr=False, default_factory=set)

    def leq(self, x: str, y: str) -> bool | None:
        """True/False when decidable, None when the window cannot tell."""
        if x == y:
            return True
        if (x, y) in self.closure:
            return True
        if self.classes[x] != self.classes[y]:
            return False
        return None


@dataclass
class RecoveredMonoid:
    add: dict[tuple[str, str], str]
    undefined: tuple[tuple[str, str], ...]


@dataclass
class ReconstructionReport:
    verdict: str
    stage: str | None = None
    reason: str | None = None
    order: RecoveredOrder | None = None
    monoid: RecoveredMonoid | None = None
    lattice_rank: int | None = None
    embedding: dict[str, Vec] | None = None
    simple_roots: tuple[Vec, ...] = ()
    datum: RootDatum | None = None
    bijection: dict[str, Vec] | None = None
    inferred_bound: int | None = None

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


class _PowerCache:
    """Supports of bounded label powers and of their products, as int bitmasks.

    Bit i stands for label i of the table.  A product's known part sums its
    in-window cells with positive coefficients, so the labels it holds are
    the union of those cells' labels: the supports of the factors fix it.
    Every mask is built on first use, for one table.
    """

    def __init__(self, t: OracleTable, n_max: int):
        self.t = t
        self.n_max = n_max
        self.bits = {x: 1 << i for i, x in enumerate(t.labels)}
        self._powers: dict[str, list[tuple[int, bool]]] = {}
        self._depth: dict[str, int] = {}
        self._reach: dict[tuple[str, int], _Reach] = {}

    def _union(self, cells: list[dict[str, int] | None]) -> tuple[int, bool]:
        """The labels of the in-window cells, and whether a cell is out of window."""
        bits, out = self.bits, 0
        for cell in cells:
            if cell is not None:
                for w in cell:
                    out |= bits[w]
        return out, None in cells

    def _members(self, mask: int) -> list[str]:
        out = []
        while mask:
            low = mask & -mask
            mask ^= low
            out.append(self.t.labels[low.bit_length() - 1])
        return out

    def powers(self, x: str) -> list[tuple[int, bool]]:
        """(support of x^n, whether any of x^1 .. x^n left the window) for n = 1 .. n_max."""
        got = self._powers.get(x)
        if got is None:
            row = self.t.rows[x]
            got = [(self.bits[x], False)]
            for _ in range(self.n_max - 1):
                mask, unknown = got[-1]
                step, left = self._union([row[y] for y in self._members(mask)])
                got.append((step, unknown or left))
            self._powers[x] = got
        return got

    def reach(self, lam: str, n: int) -> dict[str, tuple[int, bool]]:
        """For each label y, the support of the known part of lam^n * y and
        whether a cell of it left the window; each y is filled on first lookup."""
        got = self._reach.get((lam, n))
        if got is None:
            rows = [self.t.rows[x] for x in self._members(self.powers(lam)[n - 1][0])]
            got = self._reach[(lam, n)] = _Reach(self._union, rows)
        return got

    def known_depth(self, x: str) -> int:
        """The largest n such that x^1 .. x^n are all fully known."""
        got = self._depth.get(x)
        if got is None:
            pows = self.powers(x)
            got = self._depth[x] = next((n for n in range(self.n_max) if pows[n][1]), self.n_max)
        return got


class _Reach(dict):
    """y -> union(the cells of y with each of rows), computed on first lookup."""

    def __init__(self, union: Callable[[list], tuple[int, bool]], rows: list[dict]):
        super().__init__()
        self.union = union
        self.rows = rows

    def __missing__(self, y: str) -> tuple[int, bool]:
        got = self[y] = self.union([row[y] for row in self.rows])
        return got


def check_certificate(
    t: OracleTable,
    mu: str,
    lam: str,
    theta: Sem,
    n_max: int,
    powers: _PowerCache | None = None,
) -> OrderCertificate | None:
    """Try one certificate for mu <= lam over the window.

    For each n up to the horizon where the powers of mu are fully known, every
    factor of mu^n must appear in the known part of lam^n * theta.  The known
    part undercounts when the expansion hit the window edge, so such levels
    are only recorded as lenient rather than strict; but a missing factor
    rejects the certificate either way, otherwise clipped expansions would
    vouch for arbitrary pairs.  Every coefficient is positive, so the test
    reads supports only: the labels of lam^n * theta are the union over
    theta's labels y of those of lam^n * y.  Returns the certificate on
    acceptance, None on a miss.
    """
    powers = powers or _PowerCache(t, n_max)
    horizon = powers.known_depth(mu)
    if horizon < min(2, n_max):
        return None  # too little of mu's powers visible to commit
    # when mu <= lam holds, saturation keeps mu's powers computable at least
    # as deep as lam's, so a shallower mu is disqualified outright
    if horizon < powers.known_depth(lam):
        return None
    mu_pows, lam_pows = powers.powers(mu), powers.powers(lam)
    strict: list[int] = []
    lenient: list[int] = []
    for n in range(1, horizon + 1):
        reach = powers.reach(lam, n)
        target, fuzzy = 0, lam_pows[n - 1][1]
        for y in theta:
            mask, unknown = reach[y]
            target |= mask
            fuzzy = fuzzy or unknown
        if mu_pows[n - 1][0] & ~target:
            return None
        (lenient if fuzzy else strict).append(n)
    if not strict and not lenient:
        return None
    return OrderCertificate(theta=dict(theta), strict_ns=tuple(strict), lenient_ns=tuple(lenient))


def _co_occurrence_classes(t: OracleTable) -> dict[str, int]:
    parent = {x: x for x in t.labels}

    def find(a: str) -> str:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for val in t.products.values():
        if not val:
            continue
        comps = list(val)
        for other in comps[1:]:
            union(comps[0], other)
    roots_sorted = sorted({find(x) for x in t.labels})
    index = {r: i for i, r in enumerate(roots_sorted)}
    return {x: index[find(x)] for x in t.labels}


def recover_order(
    t: OracleTable, n_max: int = 3, validated: bool = False
) -> RecoveredOrder:
    """Step 1: bounded certificate search for the dominance order on labels.

    Positive decisions carry checked certificates; negative decisions come
    only from the congruence classes (labels never mixing in any product
    cannot be comparable).  Everything else stays unknown.  Accepted pairs are
    pruned for antisymmetry and cycles before the transitive closure is built,
    so the result is always a partial order.  The candidate certificates theta
    are single labels, pairs of labels and the table's product expansions,
    tried in that order until one is accepted.

    Only candidates that can pass are built, lazily and in that order.  The
    certificate's horizon gate reads the pair alone, so it is tested once per
    pair.  At level 1 the obligation is mu and the target sums, with positive
    coefficients, the known cells of lam with theta's labels; so theta passes
    level 1 exactly when it holds a hit, a label x whose cell with lam
    contains mu.
    """
    if not validated:
        oracle.validate_oracle(t)
    classes = _co_occurrence_classes(t)
    powers = _PowerCache(t, n_max)
    labels = t.labels
    ordered = sorted(labels)

    expansions: list[Sem] = []
    seen_exp: set[tuple] = set()
    for key in sorted(t.products):
        val = t.products[key]
        if val and len(val) > 1:
            sig = tuple(sorted(val.items()))
            if sig not in seen_exp:
                seen_exp.add(sig)
                expansions.append(val)
    containing: dict[str, list[int]] = {}
    for i, val in enumerate(expansions):
        for z in val:
            containing.setdefault(z, []).append(i)

    def candidates(hits: list[str]) -> Iterable[Sem]:
        hit_set = set(hits)
        for x in hits:
            yield {x: 1}
        # the pairs x <= y of sorted labels that touch a hit
        for i, x in enumerate(ordered):
            partners = ordered[i:] if x in hit_set else [y for y in hits if y > x]
            for y in partners:
                yield {x: 1, y: 1} if x != y else {x: 2}
        for i in sorted({i for x in hits for i in containing.get(x, ())}):
            yield expansions[i]

    decided: dict[tuple[str, str], OrderCertificate] = {}
    for mu in labels:
        for lam in labels:
            if mu == lam or classes[mu] != classes[lam]:
                continue
            horizon = powers.known_depth(mu)
            if horizon < min(2, n_max) or horizon < powers.known_depth(lam):
                continue  # check_certificate's horizon gate, whatever theta is
            hits = sorted(x for x, cell in t.rows[lam].items() if cell is not None and mu in cell)
            for theta in candidates(hits):
                cert = check_certificate(t, mu, lam, theta, n_max, powers)
                if cert is not None:
                    decided[(mu, lam)] = cert
                    break
    return _partial_order(t, classes, decided)


def _partial_order(
    t: OracleTable, classes: dict[str, int], decided: dict[tuple[str, str], OrderCertificate]
) -> RecoveredOrder:
    """The order from the accepted pairs: pruned for antisymmetry and cycles, then closed."""
    labels = t.labels
    # antisymmetry and duality consistency, then cycle removal
    for mu, lam in list(decided):
        if (lam, mu) in decided and (mu, lam) in decided:
            del decided[(mu, lam)]
            del decided[(lam, mu)]
    for mu, lam in list(decided):
        rev_dual = (t.dual[lam], t.dual[mu])
        if rev_dual in decided and (mu, lam) in decided:
            del decided[(mu, lam)]
            if rev_dual != (mu, lam) and rev_dual in decided:
                del decided[rev_dual]

    adj: dict[str, set[str]] = {x: set() for x in labels}
    for mu, lam in decided:
        adj[mu].add(lam)
    cycle_edges = _edges_in_cycles(labels, adj)
    for edge in cycle_edges:
        decided.pop(edge, None)
        adj[edge[0]].discard(edge[1])

    closure: set[tuple[str, str]] = set()
    for start in labels:
        stack = list(adj[start])
        seen: set[str] = set()
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            closure.add((start, cur))
            stack.extend(adj[cur])
    return RecoveredOrder(labels=labels, classes=classes, decided=decided, closure=closure)


def _edges_in_cycles(
    labels: Iterable[str], adj: dict[str, set[str]]
) -> set[tuple[str, str]]:
    """Edges inside strongly connected components (conservatively dropped)."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    comp: dict[str, int] = {}
    counter = itertools.count()
    comp_counter = itertools.count()

    def strongconnect(v: str) -> None:
        work = [(v, iter(sorted(adj[v])))]
        index[v] = low[v] = next(counter)
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = next(counter)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(sorted(adj[w]))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                cid = next(comp_counter)
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp[w] = cid
                    if w == node:
                        break

    for v in sorted(adj):
        if v not in index:
            strongconnect(v)
    sizes: dict[int, int] = {}
    for cid in comp.values():
        sizes[cid] = sizes.get(cid, 0) + 1
    return {
        (a, b)
        for a, outs in adj.items()
        for b in outs
        if comp[a] == comp[b] and sizes[comp[a]] > 1
    }


def recover_addition(t: OracleTable) -> RecoveredMonoid:
    """Step 2: the Cartan component of each in-window product.

    The top factor is found by comparing how labels compose with the rest of
    the window: adding a strictly larger weight leaves the window no later,
    so the Cartan component's in-window partners (`t.partners`) are a subset
    of every other factor's.  Multiplicity one is required.  Cells with
    several such factors (at the window ceiling the partner sets flatten out)
    are recorded as undefined rather than guessed; reconstruction fails later
    if it truly needs one of them.
    """
    partners = t.partners
    add: dict[tuple[str, str], str] = {}
    undefined: list[tuple[str, str]] = []
    for key in sorted(t.products):
        val = t.products[key]
        if val is None:
            continue
        if len(val) == 1:
            # a lone factor is trivially minimal
            cands = [nu for nu, m in val.items() if m == 1]
        else:
            cands = [
                nu
                for nu, m in val.items()
                if m == 1 and all(partners[nu] <= partners[other] for other in val)
            ]
        if len(cands) == 1:
            add[key] = cands[0]
        else:
            undefined.append(key)
    return RecoveredMonoid(add=add, undefined=tuple(undefined))


def recover_lattice(m: RecoveredMonoid) -> tuple[int, dict[str, Vec]]:
    """Step 3: group completion of the partial monoid.

    Every addition identity x + y = z is a relation x + y - z on the labels.
    The relations are eliminated in sorted order (Tietze elimination, as in
    Havas, Majewski and Matthews): once the labels eliminated so far are
    substituted, a relation that vanishes is dropped, one with a +-1
    coefficient solves for one such label, and any other is kept as a
    residual relation.  The Smith normal form of the residual relations over
    the labels left free gives their coordinates in the free quotient, and
    each eliminated label takes the value of its expression.  Torsion in the
    completion means the table was inconsistent.  Labels appearing in no
    relation are not embedded.  Every relation holds in the embedding by
    construction: each solved label takes its expression, and the rows of
    the Smith transform that give the coordinates vanish on the residual
    relations.  Returns (rank, embedding).
    """
    if not m.add:
        raise StageFailure("lattice", "no addition identities to complete")
    # expr holds each eliminated label over the free labels only, so a newly
    # eliminated label is substituted into every expression in one scan
    expr: dict[str, dict[str, int]] = {}
    residual: list[dict[str, int]] = []
    constrained: set[str] = set()
    for (x, y), z in sorted(m.add.items()):
        # the coefficients sum to 1, so no relation vanishes before substitution
        rel = {x: 1}
        rel[y] = rel.get(y, 0) + 1
        c = rel.get(z, 0) - 1
        if c:
            rel[z] = c
        else:
            del rel[z]
        constrained.update(rel)
        rel = _substitute(rel, expr)
        if not rel:
            continue
        units = [lbl for lbl, c in rel.items() if abs(c) == 1]
        if not units:
            residual.append(rel)
            continue
        pivot = min(units)  # a fixed rule: the completion is the same in every run
        c = rel.pop(pivot)
        solved = {lbl: -c * v for lbl, v in rel.items()}
        for e in expr.values():
            if pivot in e:
                k = e.pop(pivot)
                for lbl, v in solved.items():
                    total = e.get(lbl, 0) + k * v
                    if total:
                        e[lbl] = total
                    else:
                        del e[lbl]
        expr[pivot] = solved
    labels = sorted(constrained)
    free = [lbl for lbl in labels if lbl not in expr]
    residual = [rel for rel in (_substitute(r, expr) for r in residual) if rel]
    row = {lbl: i for i, lbl in enumerate(free)}
    mat = [[0] * len(residual) for _ in free]
    for j, rel in enumerate(residual):
        for lbl, c in rel.items():
            mat[row[lbl]][j] = c
    d, u = linalg.smith_normal_form(mat)
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    r = sum(1 for x in diag if x != 0)
    if any(x > 1 for x in diag[:r]):
        raise StageFailure(
            "lattice", "torsion in the group completion: inconsistent oracle"
        )
    rank = len(free) - r
    basis = {lbl: tuple(u[i][row[lbl]] for i in range(r, len(free))) for lbl in free}
    embedding = {
        lbl: tuple(
            sum(c * basis[f][i] for f, c in expr.get(lbl, {lbl: 1}).items())
            for i in range(rank)
        )
        for lbl in labels
    }
    return rank, embedding


def _substitute(rel: dict[str, int], expr: dict[str, dict[str, int]]) -> dict[str, int]:
    """The relation with every eliminated label replaced by its expression.

    Most relations vanish, and that is decided before the nonzero
    coefficients are collected.
    """
    out: dict[str, int] = {}
    for lbl, c in rel.items():
        e = expr.get(lbl)
        if e is None:
            out[lbl] = out.get(lbl, 0) + c
            continue
        for f, v in e.items():
            out[f] = out.get(f, 0) + c * v
    if not any(out.values()):
        return {}
    return {f: v for f, v in out.items() if v != 0}


def recover_simple_roots(t: OracleTable, embedding: dict[str, Vec]) -> tuple[Vec, ...]:
    """Step 4: minimal nonzero differences 2*lam - kappa over squares.

    Candidates come from every embedded square cell; those that are a sum of
    two or more candidates are dropped, and the rest must be linearly
    independent.  For a torus there are no candidates and no roots; a torus
    has no nonzero self-dual character, so a self-dual label other than the
    unit with no candidate fails here.
    """
    cands: set[Vec] = set()
    for lam, lv in embedding.items():
        val = t.rows[lam][lam]
        if val is None:
            continue
        double = linalg.vec_scale(2, lv)
        for kappa in val:
            kv = embedding.get(kappa)
            if kv is None:
                continue
            diff = vec_sub(double, kv)
            if any(x != 0 for x in diff):
                cands.add(tuple(diff))
    if not cands:
        selfdual = next((x for x in t.labels if x != t.unit and t.dual[x] == x), None)
        if selfdual is not None:
            raise StageFailure(
                "roots",
                f"label {selfdual} is self-dual but not the unit, so the group has "
                "roots, yet no square in the window shows one",
            )
        return ()
    roots = polytope.indecomposables(cands)
    if roots is None:
        raise StageFailure("roots", "the root candidates lie in no open half-space")
    if linalg.rank(roots) < len(roots):
        raise StageFailure(
            "roots",
            f"{len(roots)} minimal root candidates in a lattice of rank "
            f"{len(roots[0])} are linearly dependent",
        )
    return roots


def recover_simple_coroots(
    t: OracleTable, embedding: dict[str, Vec], roots: tuple[Vec, ...]
) -> tuple[Vec, ...]:
    """Step 5: each coroot as the integer form measured by dominance scans.

    For an embedded label mu whose square is in the window, walking
    2*mu - k*root through the embedded weights counts exactly the pairing of
    mu with the coroot; enough independent scans pin the form down.  The
    solve must be exact, integral, and uniquely determined, and the form must
    be nonnegative on the whole window.
    """
    if not roots:
        return ()
    values = set(embedding.values())
    rank = len(next(iter(values)))
    # scans near the window ceiling can stop a step early when the weight
    # above fell out of the embedding, so interior labels (the most in-window
    # partners) are trusted first and ceiling equations get dropped on inconsistency
    usable = sorted(
        (-len(t.partners[mu]), mu, mv)
        for mu, mv in embedding.items()
        if t.rows[mu][mu] is not None
    )
    out: list[Vec] = []
    for a in roots:
        eqs: list[tuple[Vec, int]] = []
        for _, mu, mv in usable:
            v = linalg.vec_scale(2, mv)
            m = 0
            while vec_sub(v, linalg.vec_scale(m + 1, a)) in values:
                m += 1
            eqs.append((mv, m))
        # one elimination of [scans; root | pairings; 2] gives both the rank of
        # the scans, its pivots left of the last column, and their consistency
        for keep in range(len(eqs), 0, -1):
            red, pivots, p, _ = linalg.eliminate([[*mv, k] for mv, k in eqs[:keep]] + [[*a, 2]])
            if len(pivots) - (rank in pivots) < rank:
                raise StageFailure(
                    "coroots", f"window too small to pin down the coroot for root {a}"
                )
            if rank not in pivots:
                break
        else:
            raise StageFailure("coroots", f"inconsistent dominance scans for root {a}")
        # the form is unique, so pivot row i reads p x_i = red[i][rank]
        if any(row[rank] % p for row in red[:rank]):
            raise StageFailure("coroots", f"non-integral coroot for root {a}")
        cov = tuple(row[rank] // p for row in red[:rank])
        bad = next((v for v in values if dot(cov, v) < 0), None)
        if bad is not None:
            raise StageFailure(
                "coroots", f"recovered form for root {a} is negative on {bad}"
            )
        out.append(cov)
    return tuple(out)


def recover_datum(t: OracleTable) -> ReconstructionReport:
    """Run the full pipeline and certify by reproducing the table exactly."""
    report = ReconstructionReport(verdict="failed")
    try:
        oracle.validate_oracle(t)
    except oracle.OracleError as e:
        report.stage, report.reason = "validate", str(e)
        return report
    try:
        report.order = recover_order(t, validated=True)
        monoid = recover_addition(t)
        report.monoid = monoid
        rank, embedding = recover_lattice(monoid)
        report.lattice_rank, report.embedding = rank, embedding
        roots = recover_simple_roots(t, embedding)
        if rank - len(roots) >= 2:
            embedding, roots = _box_coordinates(embedding, roots)
            report.embedding = embedding
        report.simple_roots = roots
        coroots = recover_simple_coroots(t, embedding, roots)
        datum = RootDatum(
            rank=rank, simple_roots=roots, simple_coroots=coroots, name="recovered"
        )
        try:
            root_datum.validate_root_datum(datum)
        except root_datum.RootDatumError as e:
            raise StageFailure("assembly", str(e)) from None
        report.datum = datum
        bound, bijection = _certify(t, datum, embedding)
        report.inferred_bound = bound
        report.bijection = bijection
        report.verdict = "certified"
        return report
    except StageFailure as e:
        report.stage, report.reason = e.stage, e.reason
        return report


def _box_coordinates(
    embedding: dict[str, Vec], roots: tuple[Vec, ...]
) -> tuple[dict[str, Vec], tuple[Vec, ...]]:
    """Rebase the completion so the labels' torus coordinates fill a box.

    The left transform u of the roots' Smith form moves the roots into the
    first k coordinates, so the last m = rank - k are torus-quotient
    coordinates, fixed only up to some h in GL(m, Z).  A window's fill the
    box [-bound, bound]^m, whose edges are the differences shared by the most
    pairs of its points; with those differences of the labels' coordinates
    as the columns of h, h^-1 turns the image back into the box.  At m <= 1
    there is nothing to choose, since GL(1, Z) = {1, -1}.
    """
    rank, k = len(next(iter(embedding.values()))), len(roots)
    _, u = linalg.smith_normal_form([[a[r] for a in roots] for r in range(rank)])
    moved = {x: linalg.mat_vec(u, v) for x, v in embedding.items()}
    points = sorted({v[k:] for v in moved.values()})
    # points are sorted, so each difference has a positive leading entry
    shared = collections.Counter(
        tuple(map(sub, q, p)) for p, q in itertools.combinations(points, 2)
    )
    m = rank - k
    # most shared first, ties in descending order, so an aligned box keeps its basis
    ranked = sorted(shared, key=lambda v: (-shared[v], linalg.vec_scale(-1, v)))
    h = linalg.transpose(ranked[:m])
    # a box's m edges are each shared by more pairs than any other difference
    tied = len(ranked) > m and shared[ranked[m - 1]] == shared[ranked[m]]
    if len(ranked) < m or tied or abs(linalg.det(h)) != 1:
        raise StageFailure("certification", "the torus coordinates of the labels form no box")
    adj, det = linalg.adjugate(h)
    to_box = [[x * det for x in row] for row in adj]  # h^-1, as det(h) = +-1
    rebased = {x: v[:k] + linalg.mat_vec(to_box, v[k:]) for x, v in moved.items()}
    return rebased, tuple(linalg.mat_vec(u, a) for a in roots)


def _certify(
    t: OracleTable, datum: RootDatum, embedding: dict[str, Vec]
) -> tuple[int, dict[str, Vec]]:
    """Re-materialize the window from the recovered datum and match the table.

    Window size grows with the bound, so scanning upward finds the unique
    size that fits the label count; `oracle.table_isomorphism` then extends
    the embedding to a bijection onto that window's table.  There is no other
    way to certify: a certified report always names its bound.
    """
    if len(set(embedding.values())) != len(embedding):
        raise StageFailure("certification", "embedding is not injective")
    for bound in range(1, 201):
        window = oracle.window_weights(datum, bound)
        if len(window) >= len(t.labels):
            break
    if len(window) == len(t.labels):
        bijection = oracle.table_isomorphism(t, oracle.window_table(datum, window), embedding)
        if bijection is not None:
            return bound, bijection
    raise StageFailure(
        "certification", "no window of the recovered datum reproduces the table"
    )
