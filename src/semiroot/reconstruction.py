"""Recovering a root datum from an opaque oracle table.

The pipeline walks the window in stages: Cartan components of each in-window
product, group completion of the resulting partial monoid, simple roots as
minimal candidates from squares, simple coroots from dominance scans, and
finally a reproduction check that re-materializes the window from the
recovered datum and demands an exact match against the input table.  When
the embedding names every label, the window is built under those labels and
matched by dict equality; otherwise a search places the labels it leaves
free (`oracle.table_isomorphism`).  When the roots leave two or more
coordinates to the torus quotient, the completion is rebased before the
coroot scans so that the labels' torus coordinates fill a box, as those of a
window do.  Certification is the one way to a certificate: a certified report
names the bound of the window that reproduces the table.

Validation is split around the stages: the table's structure is checked
before them, and the associativity walk runs only on a table that does not
certify.  A certified table matches a genuine window cell by cell, and a
genuine window passes the walk, so every report is the one it would be with
the walk first.  A table that fails validation is reported with the verdict
`rejected` at stage `validation`.

Everything downstream of the table treats labels as opaque strings; weight
coordinates only appear after the group completion invents them.
"""

from __future__ import annotations

import collections
import itertools
from typing import NamedTuple

from . import linalg, oracle, polytope, root_datum
from .linalg import Vec, dot, vec_sub
from .oracle import OracleTable
from .root_datum import RootDatum


class StageFailure(Exception):
    def __init__(self, stage: str, reason: str):
        super().__init__(f"{stage}: {reason}")
        self.stage = stage
        self.reason = reason


class RecoveredMonoid(NamedTuple):
    add: dict[tuple[str, str], str]
    undefined: tuple[tuple[str, str], ...]


class ReconstructionReport:
    """What `recover_datum` found, filled in stage by stage; reports compare by value."""

    def __init__(
        self,
        verdict: str,
        stage: str | None = None,
        reason: str | None = None,
        order: None = None,  # read by perfbench/worker.py:150 only; ROADMAP.md item 1 drops it
        monoid: RecoveredMonoid | None = None,
        lattice_rank: int | None = None,
        embedding: dict[str, Vec] | None = None,
        simple_roots: tuple[Vec, ...] = (),
        datum: RootDatum | None = None,
        bijection: dict[str, Vec] | None = None,
        inferred_bound: int | None = None,
    ):
        self.verdict, self.stage, self.reason, self.order = verdict, stage, reason, order
        self.monoid, self.lattice_rank, self.embedding = monoid, lattice_rank, embedding
        self.simple_roots, self.datum, self.bijection = simple_roots, datum, bijection
        self.inferred_bound = inferred_bound

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"ReconstructionReport({fields})"

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


# nothing calls it; it stays only as a name in perfbench's spans.TRACED and
# STAGE_OF, and ROADMAP.md item 1 drops it
def recover_order(*args, **kwargs) -> None:
    return None


def recover_addition(t: OracleTable) -> RecoveredMonoid:
    """Step 1: the Cartan component of each in-window product.

    The top factor is found by comparing how labels compose with the rest of
    the window: adding a strictly larger weight leaves the window no later,
    so the Cartan component's in-window partners (`t.partners`) are a subset
    of every other factor's.  Multiplicity one is required.  Cells with
    several such factors (at the window ceiling the partner sets flatten out)
    are recorded as undefined rather than guessed; reconstruction fails later
    if it truly needs one of them.  Each cell is read once, and `t.partners`
    only for a cell with two or more components, so a table whose cells all
    have one component, a torus window's, never builds the index here.
    """
    add: dict[tuple[str, str], str] = {}
    undefined: list[tuple[str, str]] = []
    products = t.products
    for key in sorted(products):
        val = products[key]
        if val is None:
            continue
        if len(val) == 1:
            # a lone factor is trivially minimal
            [(nu, mult)] = val.items()
            if mult == 1:
                add[key] = nu
            else:
                undefined.append(key)
            continue
        partners = t.partners
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
    """Step 2: group completion of the partial monoid.

    Every addition identity x + y = z is a relation x + y - z on the labels.
    The relations are eliminated in sorted order (Tietze elimination, as in
    Havas, Majewski and Matthews): once the labels eliminated so far are
    substituted, a relation that vanishes is dropped, one with a +-1
    coefficient solves for one such label, and any other is kept as a
    residual relation.  A torus window repeats a few residual relations
    hundreds of times, so each is kept once, when it is found and again after
    the final substitution, first occurrences in order.  The Smith normal
    form of the distinct residual relations over the labels left free gives
    their coordinates in the free quotient, and
    each eliminated label takes the value of its expression.  Torsion in the
    completion means the table was inconsistent.  Labels appearing in no
    relation are not embedded: the support of x + y - z drops the label that
    cancels, z when it is exactly one of x and y.  Every relation holds in
    the embedding by construction: each solved label takes its expression,
    and the rows of the Smith transform that give the coordinates vanish on
    the residual relations.  Returns (rank, embedding).

    Almost every relation vanishes or repeats a kept one, and each of those
    costs one integer comparison.  Every label carries a code, its value over
    the free labels with the label at sorted position i standing for R**i,
    for R a power of two: R**i while the label is free, its expression at
    those powers once eliminated.  value[x] + value[y] - value[z] is then the
    code of the relation after substitution, whose coefficients are sums of
    three coefficients of the values.  While every coefficient written to an
    expression is below R/6 in absolute value, those sums are below R/2 and
    are the code's balanced base-R digits, so the code is zero exactly when
    the substituted relation vanishes and equals a kept relation's code
    exactly when it is that relation.  Only the relations that are neither
    go through `_substitute`, and only their supports are collected: each
    label of a skipped relation is eliminated, or held by an expression or
    by the kept relation it repeats, all of which come from relations that
    went through.  Before the largest coefficient written reaches R/6, R
    grows and every code, the kept relations' too, is computed again from
    the expressions, so a code never carries into its neighbour's digit.
    """
    if not m.add:
        raise StageFailure("lattice", "no addition identities to complete")
    # every label has a code, the cancelled ones too
    position = {
        lbl: i
        for i, lbl in enumerate(sorted({*itertools.chain.from_iterable(m.add), *m.add.values()}))
    }
    bits, top = 8, 1  # R = 2**bits; top is the largest |coefficient| written
    value = {lbl: 1 << bits * i for lbl, i in position.items()}
    # expr holds each eliminated label over the free labels only, so a newly
    # eliminated label is substituted into every expression in one scan
    expr: dict[str, dict[str, int]] = {}
    # each residual relation once, in order found, keyed by its code
    residual: dict[int, dict[str, int]] = {}
    constrained: set[str] = set()
    for (x, y), z in sorted(m.add.items()):
        code = value[x] + value[y] - value[z]
        if not code or code in residual:
            continue
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
        units = [lbl for lbl, c in rel.items() if abs(c) == 1]
        if not units:
            residual[code] = rel
            continue
        pivot = min(units)  # a fixed rule: the completion is the same in every run
        top = max(top, *map(abs, rel.values()))
        c = rel.pop(pivot)
        solved = {lbl: -c * v for lbl, v in rel.items()}
        # the pivot was free, and it becomes pivot - c * (relation) as c * c == 1
        shift = -c * code
        value[pivot] += shift
        for owner, e in expr.items():
            if pivot in e:
                k = e.pop(pivot)
                value[owner] += k * shift
                for lbl, v in solved.items():
                    total = e.get(lbl, 0) + k * v
                    if total:
                        e[lbl] = total
                        if total > top or -total > top:
                            top = abs(total)
                    else:
                        del e[lbl]
        expr[pivot] = solved
        if 6 * top >= 1 << bits:
            while 6 * top >= 1 << bits:
                bits *= 2
            value = {lbl: _encode(expr.get(lbl, {lbl: 1}), position, bits) for lbl in position}
            residual = {_encode(rel, position, bits): rel for rel in residual.values()}
    labels = sorted(constrained)
    free = [lbl for lbl in labels if lbl not in expr]
    distinct: dict[frozenset, dict[str, int]] = {}
    for rel in residual.values():
        rel = _substitute(rel, expr)
        if rel:
            distinct.setdefault(frozenset(rel.items()), rel)
    row = {lbl: i for i, lbl in enumerate(free)}
    mat = [[0] * len(distinct) for _ in free]
    for j, rel in enumerate(distinct.values()):
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


def _encode(rel: dict[str, int], position: dict[str, int], bits: int) -> int:
    """The relation's value at label l = 2**(bits * position[l])."""
    return sum(c << bits * position[lbl] for lbl, c in rel.items())


def _substitute(rel: dict[str, int], expr: dict[str, dict[str, int]]) -> dict[str, int]:
    """The relation with every eliminated label replaced by its expression,
    its zero coefficients dropped; empty when it vanishes."""
    out: dict[str, int] = {}
    for lbl, c in rel.items():
        e = expr.get(lbl)
        if e is None:
            out[lbl] = out.get(lbl, 0) + c
            continue
        for f, v in e.items():
            out[f] = out.get(f, 0) + c * v
    return {f: v for f, v in out.items() if v != 0}


def recover_simple_roots(t: OracleTable, embedding: dict[str, Vec]) -> tuple[Vec, ...]:
    """Step 3: minimal nonzero differences 2*lam - kappa over squares.

    Candidates come from every embedded square cell; those that are a sum of
    two or more candidates are dropped, and the rest must be linearly
    independent.  For a torus there are no candidates and no roots; a torus
    has no nonzero self-dual character, so a self-dual label other than the
    unit with no candidate fails here.
    """
    cands: set[Vec] = set()
    for lam, lv in embedding.items():
        val = t.products[(lam, lam)]
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
    """Step 4: each coroot as the integer form measured by dominance scans.

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
        if t.products[(mu, mu)] is not None
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
    """Run the full pipeline and certify by reproducing the table exactly.

    The table's structure (`oracle.check_structure`) is checked before the
    stages.  The associativity walk runs only when they end without a
    certificate, by a failed structure check, a `StageFailure` or any other
    exception: then the whole `oracle.validate_oracle` runs, and a table it
    rejects gets the verdict `rejected` at stage `validation` with nothing
    else filled, as though no stage had run; otherwise the stage's report
    is returned or its exception re-raised.  So every table gets the report
    it would get with the whole validation first.

    A certified table needs no walk.  Certification (`_certify`) matches
    every cell of the table, in window or not, exactly with the window table
    of the recovered datum, so the table is, up to relabeling, a window of a
    genuine representation semiring, where both sides of every walked triple
    are the same tensor product.
    """
    report = ReconstructionReport(verdict="failed")
    try:
        oracle.check_structure(t)
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
    except Exception as e:
        # the whole validation runs, not the walk alone: it raises a failed structure
        # check's message again, and a traced run shows it on every table that does not certify
        try:
            oracle.validate_oracle(t)
        except oracle.OracleError as bad:
            return ReconstructionReport(verdict="rejected", stage="validation", reason=str(bad))
        if not isinstance(e, StageFailure):
            raise
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

    The differences are counted as integers: with M the largest |coordinate|
    of the points, `oracle.encode` in the radix 4M + 1 is linear and tells
    apart the vectors with entries in [-2M, 2M], all pairwise differences
    among them, so q - p is one subtraction of codes, and only the distinct
    differences are decoded.
    """
    rank, k = len(next(iter(embedding.values()))), len(roots)
    _, u = linalg.smith_normal_form([[a[r] for a in roots] for r in range(rank)])
    moved = {x: linalg.mat_vec(u, v) for x, v in embedding.items()}
    points = sorted({v[k:] for v in moved.values()})
    m = rank - k
    # points are sorted, so each difference has a positive leading entry
    radix = oracle.coding_radix(points)
    codes = [oracle.encode(p, radix) for p in points]
    counts = collections.Counter(q - p for p, q in itertools.combinations(codes, 2))
    shared = {oracle.decode(c, radix, m): n for c, n in counts.items()}
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
    size that fits the label count.  The scan reads one window grown shell
    by shell (`oracle.growing_window`), so each box point and each window
    weight is visited once up to that bound.  When the embedding names
    every label, it is the only candidate bijection: the window is built
    under the inverse embedding, and the table certifies exactly when the
    embedded weights are the window and its unit, duals and cells equal the
    table's.
    That is plain dict equality, and exact, since `oracle.check_structure`
    has already required the table's n(n+1)/2 canonical cell keys.
    Otherwise `oracle.table_isomorphism` extends the embedding to a
    bijection onto the weight-labelled window.  There is no other way to
    certify: a certified report always names its bound.
    """
    if len(set(embedding.values())) != len(embedding):
        raise StageFailure("certification", "embedding is not injective")
    for bound, window in zip(range(1, 201), oracle.growing_window(datum)):
        if len(window) >= len(t.labels):
            break
    if len(window) == len(t.labels):
        if len(embedding) < len(t.labels):
            bijection = oracle.table_isomorphism(t, oracle.window_table(datum, window), embedding)
            if bijection is not None:
                return bound, bijection
        elif set(window) == set(embedding.values()):
            u = oracle.window_table(datum, window, {v: x for x, v in embedding.items()})
            if (u.unit, u.dual, u.products) == (t.unit, t.dual, t.products):
                return bound, dict(embedding)
    raise StageFailure(
        "certification", "no window of the recovered datum reproduces the table"
    )
