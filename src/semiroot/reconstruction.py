"""Recovering a root datum from an opaque oracle table.

The pipeline walks the window in stages: a bounded certificate search for the
dominance order, Cartan components of each in-window product, group
completion of the resulting partial monoid, simple roots as minimal
candidates from squares, simple coroots from dominance scans, and finally a
reproduction check that re-materializes the window from the recovered datum
and demands an exact match against the input table.  When the roots leave two
or more coordinates to the torus quotient, the completion is rebased before
the coroot scans so that the labels' torus coordinates fill a box, as those
of a window do.  Certification has that one path: a certified report names
the bound of the window that reproduces the table.

Everything downstream of the table treats labels as opaque strings; weight
coordinates only appear after the group completion invents them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable

from . import linalg, oracle, polytope, root_datum
from .linalg import Vec, dot, vec_add, vec_sub
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
    labels: tuple[str, ...]
    zero: str
    add: dict[tuple[str, str], str]
    undefined: tuple[tuple[str, str], ...]

    def sum_of(self, x: str, y: str) -> str | None:
        return self.add.get(OracleTable.pair_key(x, y))


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
    simple_coroots: tuple[Vec, ...] = ()
    weyl_order: int | None = None
    datum: RootDatum | None = None
    bijection: dict[str, Vec] | None = None
    inferred_bound: int | None = None

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


def _expand_known(
    t: OracleTable, sem: Sem, factor: str
) -> tuple[Sem, bool]:
    """Product of a formal sum with one label, keeping only in-window terms.

    Returns (known part, hit_unknown).  The known part is a subset of the true
    expansion; when hit_unknown is False it is exact.
    """
    acc: Sem = {}
    unknown = False
    for nu, c in sem.items():
        cell = t.product(nu, factor)
        if cell is None:
            unknown = True
            continue
        for w, m in cell.items():
            acc[w] = acc.get(w, 0) + c * m
    return acc, unknown


def _expand_known_sem(t: OracleTable, sem: Sem, other: Sem) -> tuple[Sem, bool]:
    acc: Sem = {}
    unknown = False
    for x, cx in sem.items():
        for y, cy in other.items():
            cell = t.product(x, y)
            if cell is None:
                unknown = True
                continue
            for w, m in cell.items():
                acc[w] = acc.get(w, 0) + cx * cy * m
    return acc, unknown


class _PowerCache:
    """Bounded powers of single labels with unknown-horizon flags."""

    def __init__(self, t: OracleTable, n_max: int):
        self.t = t
        self.n_max = n_max
        self._cache: dict[str, list[tuple[Sem, bool]]] = {}
        self._depth: dict[str, int] = {}

    def powers(self, x: str) -> list[tuple[Sem, bool]]:
        got = self._cache.get(x)
        if got is None:
            out: list[tuple[Sem, bool]] = [({x: 1}, False)]
            for _ in range(self.n_max - 1):
                sem, unk = out[-1]
                nxt, unk2 = _expand_known(self.t, sem, x)
                out.append((nxt, unk or unk2))
            got = self._cache[x] = out
        return got

    def known_depth(self, x: str) -> int:
        """The largest n such that x^1 .. x^n are all fully known."""
        got = self._depth.get(x)
        if got is None:
            pows = self.powers(x)
            got = next((n for n in range(self.n_max) if pows[n][1]), self.n_max)
            self._depth[x] = got
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
    vouch for arbitrary pairs.  Returns the certificate on acceptance, None
    on a miss.
    """
    powers = powers or _PowerCache(t, n_max)
    mu_pows = powers.powers(mu)
    lam_pows = powers.powers(lam)
    strict: list[int] = []
    lenient: list[int] = []

    horizon = powers.known_depth(mu)
    if horizon < min(2, n_max):
        return None  # too little of mu's powers visible to commit
    # when mu <= lam holds, saturation keeps mu's powers computable at least
    # as deep as lam's, so a shallower mu is disqualified outright
    if horizon < powers.known_depth(lam):
        return None
    for n in range(1, horizon + 1):
        oblig = mu_pows[n - 1][0]
        lam_sem, lam_unk = lam_pows[n - 1]
        target, t_unk = _expand_known_sem(t, lam_sem, theta)
        fuzzy = lam_unk or t_unk
        if any(nu not in target for nu in oblig):
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
    are single labels, pairs of labels and the table's product expansions.
    """
    if not validated:
        oracle.validate_oracle(t)
    classes = _co_occurrence_classes(t)
    powers = _PowerCache(t, n_max)
    labels = t.labels

    expansions: list[Sem] = []
    seen_exp: set[tuple] = set()
    for key in sorted(t.products):
        val = t.products[key]
        if val and len(val) > 1:
            sig = tuple(sorted(val.items()))
            if sig not in seen_exp:
                seen_exp.add(sig)
                expansions.append(val)

    decided: dict[tuple[str, str], OrderCertificate] = {}
    for mu in labels:
        for lam in labels:
            if mu == lam or classes[mu] != classes[lam]:
                continue
            # level-1 screen: theta can only work if some constituent already
            # reaches mu next to lam, or escapes the window
            hits: set[str] = set()
            open_edge: set[str] = set()
            for x in labels:
                cell = t.product(x, lam)
                if cell is None:
                    open_edge.add(x)
                elif mu in cell:
                    hits.add(x)
            candidates: list[Sem] = [{x: 1} for x in sorted(hits | open_edge)]
            for x, y in itertools.combinations_with_replacement(sorted(labels), 2):
                if x in hits or y in hits or x in open_edge or y in open_edge:
                    candidates.append({x: 1, y: 1} if x != y else {x: 2})
            for val in expansions:
                if any(z in hits or z in open_edge for z in val):
                    candidates.append(val)
            for theta in candidates:
                cert = check_certificate(t, mu, lam, theta, n_max, powers)
                if cert is not None:
                    decided[(mu, lam)] = cert
                    break

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


def recover_addition(t: OracleTable, order: RecoveredOrder) -> RecoveredMonoid:
    """Step 2: the Cartan component of each in-window product.

    The top factor is found by comparing how labels compose with the rest of
    the window: adding a strictly larger weight leaves the window no later,
    so the Cartan component has a minimal composability profile among the
    factors.  Multiplicity one is required, and the recovered order breaks
    what ties it can.  Cells whose top factor stays ambiguous (at the window
    ceiling the profiles flatten out) are recorded as undefined rather than
    guessed; reconstruction fails later if it truly needs one of them.
    """
    profile: dict[str, frozenset[str]] = {
        x: frozenset(y for y in t.labels if t.in_window(x, y)) for x in t.labels
    }
    add: dict[tuple[str, str], str] = {}
    undefined: list[tuple[str, str]] = []
    for key in sorted(t.products):
        val = t.products[key]
        if val is None:
            continue
        cands = [
            nu
            for nu, m in val.items()
            if m == 1 and all(profile[nu] <= profile[other] for other in val)
        ]
        if len(cands) > 1:
            cands = [
                nu
                for nu in cands
                if not any(
                    other != nu and order.leq(nu, other) is True for other in val
                )
            ]
        if len(cands) == 1:
            add[key] = cands[0]
        else:
            undefined.append(key)
    return RecoveredMonoid(
        labels=t.labels, zero=t.unit, add=add, undefined=tuple(undefined)
    )


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
    relation are not embedded.  Returns (rank, embedding).
    """
    relations: list[dict[str, int]] = []
    for (x, y), z in sorted(m.add.items()):
        rel: dict[str, int] = {}
        for lbl, c in ((x, 1), (y, 1), (z, -1)):
            rel[lbl] = rel.get(lbl, 0) + c
        rel = {k: v for k, v in rel.items() if v != 0}
        if rel:
            relations.append(rel)
    constrained = sorted({lbl for rel in relations for lbl in rel})
    if not constrained:
        raise StageFailure("lattice", "no addition identities to complete")
    # expr holds each eliminated label over the free labels only; users
    # indexes, for each free label, the expressions it appears in
    expr: dict[str, dict[str, int]] = {}
    users: dict[str, set[str]] = {}
    residual: list[dict[str, int]] = []
    for rel in relations:
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
        for user in users.pop(pivot, ()):
            e = expr[user]
            k = e.pop(pivot)
            for lbl, v in solved.items():
                total = e.get(lbl, 0) + k * v
                if total:
                    e[lbl] = total
                    users.setdefault(lbl, set()).add(user)
                else:
                    del e[lbl]
                    users[lbl].discard(user)
        expr[pivot] = solved
        for lbl in solved:
            users.setdefault(lbl, set()).add(pivot)
    free = [lbl for lbl in constrained if lbl not in expr]
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
        for lbl in constrained
    }
    for (x, y), z in m.add.items():
        if x in embedding and y in embedding and z in embedding:
            if vec_add(embedding[x], embedding[y]) != embedding[z]:
                raise StageFailure("lattice", f"completion broke identity {x}+{y}={z}")
    return rank, embedding


def _substitute(rel: dict[str, int], expr: dict[str, dict[str, int]]) -> dict[str, int]:
    """The relation with every eliminated label replaced by its expression."""
    out: dict[str, int] = {}
    for lbl, c in rel.items():
        for f, v in expr.get(lbl, {lbl: 1}).items():
            out[f] = out.get(f, 0) + c * v
    return {f: v for f, v in out.items() if v != 0}


def recover_simple_roots(t: OracleTable, embedding: dict[str, Vec]) -> tuple[Vec, ...]:
    """Step 4: minimal nonzero differences 2*lam - kappa over squares.

    Candidates come from every embedded square cell; a candidate is dropped
    when it exceeds another modulo nonnegative integer combinations of
    candidates.  For a torus there are no candidates and no roots.
    """
    cands: set[Vec] = set()
    for lam, lv in embedding.items():
        val = t.product(lam, lam)
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
        return ()
    clist = sorted(cands, reverse=True)
    phi = polytope.positive_functional(clist)
    if phi is None:
        raise StageFailure("roots", "the root candidates lie in no open half-space")
    weight = {c: polytope.dot_f(phi, c) for c in clist}
    memo: dict[Vec, bool] = {}

    def reachable(v: Vec) -> bool:
        """Whether v is a nonzero nonnegative integer combination of candidates."""
        got = memo.get(v)
        if got is not None:
            return got
        memo[v] = False
        fv = polytope.dot_f(phi, v)
        for c in clist:
            if weight[c] > fv:
                continue
            rest = vec_sub(v, c)
            if all(x == 0 for x in rest) or reachable(rest):
                memo[v] = True
                return True
        return False

    minimal = [
        c for c in clist if not any(o != c and reachable(vec_sub(c, o)) for o in clist)
    ]
    return tuple(sorted(minimal, reverse=True))


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
    # above fell out of the embedding, so interior labels (large profiles)
    # are trusted first and ceiling equations get dropped on inconsistency
    profile_size = {x: sum(1 for y in t.labels if t.in_window(x, y)) for x in t.labels}
    usable: list[tuple[int, str, Vec]] = []
    for mu, mv in sorted(embedding.items()):
        if t.product(mu, mu) is not None:
            usable.append((-profile_size[mu], mu, mv))
    usable.sort()
    out: list[Vec] = []
    for a in roots:
        eqs: list[tuple[Vec, int]] = []
        for _, mu, mv in usable:
            v = linalg.vec_scale(2, mv)
            m = 0
            while vec_sub(v, linalg.vec_scale(m + 1, a)) in values:
                m += 1
                if m > len(values) + 2:
                    raise StageFailure("coroots", f"runaway scan for root {a}")
            eqs.append((mv, m))
        sol = None
        keep = len(eqs)
        while keep >= 1:
            rows = [list(mv) for mv, _ in eqs[:keep]] + [list(a)]
            if linalg.nullspace(rows, rank):
                raise StageFailure(
                    "coroots", f"window too small to pin down the coroot for root {a}"
                )
            sol = linalg.solve(rows, [m for _, m in eqs[:keep]] + [2])
            if sol is not None:
                break
            keep -= 1
        if sol is None:
            raise StageFailure("coroots", f"inconsistent dominance scans for root {a}")
        if any(c.denominator != 1 for c in sol):
            raise StageFailure("coroots", f"non-integral coroot for root {a}")
        cov = tuple(int(c) for c in sol)
        bad = next((v for v in values if dot(cov, v) < 0), None)
        if bad is not None:
            raise StageFailure(
                "coroots", f"recovered form for root {a} is negative on {bad}"
            )
        out.append(cov)
    return tuple(out)


def recover_datum(t: OracleTable, n_max: int = 3) -> ReconstructionReport:
    """Run the full pipeline and certify by reproducing the table exactly."""
    report = ReconstructionReport(verdict="failed")
    try:
        oracle.validate_oracle(t)
    except oracle.OracleError as e:
        report.stage, report.reason = "validate", str(e)
        return report
    try:
        order = recover_order(t, n_max=n_max, validated=True)
        report.order = order
        monoid = recover_addition(t, order)
        report.monoid = monoid
        rank, embedding = recover_lattice(monoid)
        report.lattice_rank, report.embedding = rank, embedding
        roots = recover_simple_roots(t, embedding)
        if rank - len(roots) >= 2:
            embedding, roots = _box_coordinates(embedding, roots)
            report.embedding = embedding
        report.simple_roots = roots
        coroots = recover_simple_coroots(t, embedding, roots)
        report.simple_coroots = coroots
        datum = RootDatum(
            rank=rank, simple_roots=roots, simple_coroots=coroots, name="recovered"
        )
        try:
            root_datum.validate_root_datum(datum)
        except root_datum.RootDatumError as e:
            raise StageFailure("assembly", str(e)) from None
        report.datum = datum
        report.weyl_order = root_datum.weyl_order(datum)
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
    shared: dict[Vec, int] = {}
    for p, q in itertools.combinations(points, 2):
        # points are sorted, so each difference has a positive leading entry
        diff = vec_sub(q, p)
        shared[diff] = shared.get(diff, 0) + 1
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
    size that fits the label count (plateaus repeat the same window and are
    skipped).  The table of that window is built once, and the embedding is
    extended over the unembedded labels one label at a time.  Every partial
    bijection must agree with the window's table on the unit, on the dual
    pairs it names and on the product cells it names in full, so a complete
    one reproduces the table cell by cell.  There is no other way to
    certify: a certified report always names its bound.
    """
    values = set(embedding.values())
    if len(values) != len(embedding):
        raise StageFailure("certification", "embedding is not injective")
    last_size = -1
    for bound in range(1, 201):
        window = oracle.window_weights(datum, bound)
        if len(window) == last_size:
            continue
        last_size = len(window)
        if len(window) >= len(t.labels):
            break
    if len(window) == len(t.labels) and values <= set(window):
        bijection = _extend_bijection(t, oracle.window_table(datum, window), embedding)
        if bijection is not None:
            return bound, bijection
    raise StageFailure(
        "certification", "no window of the recovered datum reproduces the table"
    )


def _extend_bijection(
    t: OracleTable, window: OracleTable, embedding: dict[str, Vec]
) -> dict[str, Vec] | None:
    """A bijection from the labels onto the window's weights that extends the
    embedding and carries the table onto the window's table, or None."""
    bij = dict(embedding)

    def agrees(placed: Iterable[str], keys: Iterable[tuple[str, str]]) -> bool:
        """Whether bij matches the window on the placed labels' unit and dual
        pairs and on those of the given cells that name only placed labels."""
        for x in placed:
            if (x == t.unit) != (bij[x] == window.unit):
                return False
            if t.dual[x] in bij and bij[t.dual[x]] != window.dual[bij[x]]:
                return False
        for key in keys:
            val = t.products[key]
            if any(z not in bij for z in (*key, *(val or ()))):
                continue
            image = None if val is None else {bij[z]: m for z, m in val.items()}
            if image != window.product(bij[key[0]], bij[key[1]]):
                return False
        return True

    if not agrees(embedding, t.products):
        return None
    free = sorted(set(t.labels) - set(bij))
    spare = sorted(set(window.labels) - set(bij.values()), reverse=True)
    cells: dict[str, list[tuple[str, str]]] = {x: [] for x in free}
    for key, val in t.products.items():
        for x in cells.keys() & {*key, *(val or ())}:
            cells[x].append(key)

    def assign(i: int) -> dict[str, Vec] | None:
        if i == len(free):
            return dict(bij)
        for w in spare:
            if w in bij.values():
                continue
            bij[free[i]] = w
            if agrees((free[i],), cells[free[i]]):
                got = assign(i + 1)
                if got is not None:
                    return got
            del bij[free[i]]
        return None

    return assign(0)
