"""Ground-truth check of a certified reconstruction, independent of the library.

A certificate maps every opaque label to a weight of the recovered datum; the
table's provenance maps the same label to its true weight.  The reconstruction
is right exactly when the one linear map M sending each recovered weight to
the true weight of the same label is a unimodular integer map that carries
the recovered simple roots onto the source's simple roots and pulls the
source's simple coroots back onto the recovered ones.  Such an M is an
isomorphism of root data, so this check never depends on a search and never
calls isomorphic data non-isomorphic.
"""

from __future__ import annotations

from fractions import Fraction


def _independent(vectors, rank):
    """Indices of the first `rank` linearly independent vectors, or None."""
    reduced: list[tuple[int, list[Fraction]]] = []  # (pivot column, row)
    picked = []
    for idx, v in enumerate(vectors):
        row = [Fraction(x) for x in v]
        for col, basis in reduced:
            if row[col]:
                f = row[col] / basis[col]
                row = [a - f * b for a, b in zip(row, basis)]
        col = next((c for c, x in enumerate(row) if x), None)
        if col is not None:
            reduced.append((col, row))
            picked.append(idx)
            if len(picked) == rank:
                return picked
    return None


def _inverse(m):
    n = len(m)
    a = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(m)
    ]
    for c in range(n):
        p = next(r for r in range(c, n) if a[r][c])
        a[c], a[p] = a[p], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


def _det(m) -> Fraction:
    a = [[Fraction(x) for x in row] for row in m]
    n, det = len(a), Fraction(1)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _apply(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def certified_map_is_isomorphism(bijection, provenance, recovered, source) -> bool:
    """Whether the certificate's label map is induced by a root-datum isomorphism."""
    n = source.rank
    if recovered.rank != n or len(recovered.simple_roots) != len(source.simple_roots):
        return False
    labels = sorted(provenance)
    if set(bijection) != set(labels):
        return False
    rec = [bijection[x] for x in labels]
    basis = _independent(rec, n) if n else []
    if basis is None:
        return False
    # M = T R^-1, with the basis weights as the columns of R and their true weights in T
    r_inv = _inverse([[rec[i][k] for i in basis] for k in range(n)]) if n else []
    t = [[provenance[labels[i]][k] for i in basis] for k in range(n)]
    m = [[sum(t[k][j] * r_inv[j][c] for j in range(n)) for c in range(n)] for k in range(n)]
    if any(x.denominator != 1 for row in m for x in row) or abs(_det(m)) != 1:
        return False
    if any(_apply(m, rec[i]) != tuple(provenance[x]) for i, x in enumerate(labels)):
        return False
    index = {root: j for j, root in enumerate(source.simple_roots)}
    seen = set()
    for root, coroot in zip(recovered.simple_roots, recovered.simple_coroots):
        j = index.get(_apply(m, root))
        if j is None or j in seen:
            return False
        seen.add(j)
        pulled_back = tuple(
            sum(m[k][c] * source.simple_coroots[j][k] for k in range(n)) for c in range(n)
        )
        if pulled_back != tuple(coroot):
            return False
    return True
