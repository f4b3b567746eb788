from fractions import Fraction
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiroot import linalg, oracle, reconstruction, root_datum

small_matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=1, max_size=4
    )
)


def reference_gauss_jordan(rows):
    """The rational Gauss-Jordan elimination the library used before its
    fraction-free one: (reduced matrix, pivot columns, pivot values before
    scaling, sign of the row swaps)."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return [], [], [], 1
    nrows, ncols = len(m), len(m[0])
    pivots, values = [], []
    sign, r = 1, 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != r:
            sign = -sign
        m[r], m[pivot] = m[pivot], m[r]
        values.append(m[r][c])
        inv = 1 / m[r][c]
        m[r] = [inv * x for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots, values, sign


def reference_solve(rows, rhs):
    if not rows:
        return () if all(x == 0 for x in rhs) else None
    ncols = len(rows[0])
    m, pivots, _, _ = reference_gauss_jordan([list(row) + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = m[r][ncols]
    return tuple(x)


def reference_inverse(m):
    """(inverse, det) of a square matrix from one rational elimination of [m | I],
    or None when m is singular."""
    n = len(m)
    aug = [list(row) + linalg.identity(n)[i] for i, row in enumerate(m)]
    red, pivots, values, sign = reference_gauss_jordan(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in red], prod(values, start=Fraction(sign))


def test_rref_pivots():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    m, pivots, p, _ = linalg.eliminate(rows)
    assert pivots == [0, 1]
    assert m == [[p * x for x in row] for row in reference_gauss_jordan(rows)[0]]
    assert linalg.rank(rows) == 2


def test_solve_unique():
    assert linalg.solve([[2, -1], [-1, 2]], [1, 1]) == (1, 1)


def test_solve_inconsistent():
    assert linalg.solve([[1, 1], [1, 1]], [0, 1]) is None


def test_solve_underdetermined_picks_particular():
    sol = linalg.solve([[1, 1]], [3])
    assert sol is not None
    assert sol[0] + sol[1] == 3


def test_det_and_invert():
    m = [[2, 1], [1, 1]]
    assert linalg.det(m) == 1
    adj, det = linalg.adjugate(m)
    assert det == 1 and linalg.mat_mul(m, adj) == [[1, 0], [0, 1]]
    assert linalg.adjugate([[2, 1], [1, 3]]) == ([[3, -1], [-1, 2]], 5)


@st.composite
def integer_systems(draw):
    """(A, b): A from 0x0 to 5x6 with small entries, some rows sums of
    others so that singular matrices are common; b is A x for an integer x
    (consistent) or drawn freely (often inconsistent when A is tall)."""
    nrows, ncols = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    entries = st.integers(-4, 4)
    a = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(2, nrows):
        if draw(st.booleans()):
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            a[i] = [x + y for x, y in zip(a[j], a[k])]
    if draw(st.booleans()):
        x = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        b = [linalg.dot(row, x) for row in a]
    else:
        b = draw(st.lists(entries, min_size=nrows, max_size=nrows))
    return a, b


@given(integer_systems())
def test_integer_kernels_match_rational_gauss_jordan(system):
    a, b = system
    _, pivots, _, _ = reference_gauss_jordan(a)
    assert linalg.rank(a) == len(pivots)
    assert linalg.solve(a, b) == reference_solve(a, b)
    # the square matrix on the leading rows and columns
    n = min(len(a), len(a[0]) if a else 0)
    square = [row[:n] for row in a[:n]]
    ref = reference_inverse(square)
    if ref is None:
        assert linalg.det(square) == 0
        with pytest.raises(ValueError, match="singular"):
            linalg.adjugate(square)
        return
    inverse, det = ref
    assert linalg.det(square) == det
    assert linalg.adjugate(square) == ([[x * det for x in row] for row in inverse], det)


square_matrix = st.integers(0, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def cofactor_det(m):
    """The determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * x * cofactor_det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j, x in enumerate(m[0])
    )


@given(square_matrix)
def test_det_and_adjugate_match_cofactor_expansion(m):
    expected = cofactor_det(m)
    assert linalg.det(m) == expected
    if expected == 0:
        with pytest.raises(ValueError, match="singular"):
            linalg.adjugate(m)
        return
    adj, det = linalg.adjugate(m)
    assert det == expected
    n = len(m)
    assert linalg.mat_mul(adj, m) == [[det * int(i == j) for j in range(n)] for i in range(n)]


def reference_smith_normal_form(mat):
    """The three-matrix Smith normal form the library used to compute: row
    storage, the right transform v formed, the fixup scan after every pivot."""
    a = [list(row) for row in mat]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    u = linalg.identity(nrows)
    v = linalg.identity(ncols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    t = 0
    while t < min(nrows, ncols):
        pos = next(
            ((i, j) for i in range(t, nrows) for j in range(t, ncols) if a[i][j] != 0),
            None,
        )
        if pos is None:
            break
        swap_rows(t, pos[0])
        swap_cols(t, pos[1])
        while True:
            reduced = False
            for i in range(t + 1, nrows):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                    reduced = True
            for j in range(t + 1, ncols):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                    reduced = True
            if not reduced:
                break
        fixup = next(
            (
                (i, j)
                for i in range(t + 1, nrows)
                for j in range(t + 1, ncols)
                if a[i][j] % a[t][t] != 0
            ),
            None,
        )
        if fixup is not None:
            add_row(fixup[0], t, 1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return a, u, v


def assert_matches_reference(rows):
    d, u = linalg.smith_normal_form(rows)
    ref_d, ref_u, ref_v = reference_smith_normal_form(rows)
    assert (d, u) == (ref_d, ref_u)
    assert linalg.mat_mul(linalg.mat_mul(u, rows), ref_v) == d
    return d, u


def test_snf_known():
    # pivot 2 is not a unit, so the divisibility fixup runs
    d, u = assert_matches_reference([[2, 4], [6, 8]])
    assert [d[0][0], d[1][1]] == [2, 4]


@given(small_matrix)
def test_snf_decomposition(rows):
    d, u = assert_matches_reference(rows)
    assert abs(linalg.det(u)) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    for a, b in zip(diag, diag[1:]):
        if b != 0:
            assert a != 0 and b % a == 0
    for i, row in enumerate(d):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0


def relation_matrix(monoid):
    """The monoid's constrained labels and its labels by relations matrix, one
    column x + y - z for each addition identity that does not cancel."""
    relations = []
    for (x, y), z in sorted(monoid.add.items()):
        rel = {}
        for lbl, c in ((x, 1), (y, 1), (z, -1)):
            rel[lbl] = rel.get(lbl, 0) + c
        rel = {k: v for k, v in rel.items() if v != 0}
        if rel:
            relations.append(rel)
    constrained = sorted({lbl for rel in relations for lbl in rel})
    row = {lbl: i for i, lbl in enumerate(constrained)}
    mat = [[0] * len(relations) for _ in constrained]
    for j, rel in enumerate(relations):
        for lbl, c in rel.items():
            mat[row[lbl]][j] = c
    return constrained, mat


def reference_recover_lattice(monoid):
    """The dense group completion the library used to compute: the Smith
    normal form of the whole relation matrix."""
    constrained, mat = relation_matrix(monoid)
    if not constrained:
        raise reconstruction.StageFailure("lattice", "no addition identities to complete")
    d, u = linalg.smith_normal_form(mat)
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    r = sum(1 for x in diag if x != 0)
    if any(x > 1 for x in diag[:r]):
        raise reconstruction.StageFailure(
            "lattice", "torsion in the group completion: inconsistent oracle"
        )
    embedding = {
        lbl: tuple(u[i][j] for i in range(r, len(constrained)))
        for j, lbl in enumerate(constrained)
    }
    return len(constrained) - r, embedding


@pytest.mark.parametrize("name,bound", [("gl2", 4), ("torus2", 3)])
def test_snf_relation_matrix_matches_reference(name, bound):
    """The dense completion's input: the relation matrix of a round trip."""
    table, _ = oracle.materialize_oracle(root_datum.fixture(name), bound, seed=7)
    monoid = reconstruction.recover_addition(table)
    _, mat = relation_matrix(monoid)
    assert len(mat) < len(mat[0])  # labels by relations: the wide shape
    assert_matches_reference(mat)


def completion(monoid, complete):
    try:
        return complete(monoid)
    except reconstruction.StageFailure as e:
        return e.reason


@pytest.mark.parametrize(
    "name,bound",
    [(name, bound) for name in root_datum.fixture_names() for bound in (2, 3, 4)],
)
def test_lattice_matches_dense_reference(name, bound):
    table, _ = oracle.materialize_oracle(root_datum.fixture(name), bound, seed=7)
    monoid = reconstruction.recover_addition(table)
    got = completion(monoid, reconstruction.recover_lattice)
    want = completion(monoid, reference_recover_lattice)
    assert type(got) is type(want)
    if isinstance(want, str):
        assert got == want
        return
    (rank, embedding), (ref_rank, ref_embedding) = got, want
    assert rank == ref_rank and embedding.keys() == ref_embedding.keys()
    # one M in GL(rank, Z) carries the dense coordinates of every label to the new
    labels = sorted(embedding)
    rows = [list(ref_embedding[x]) for x in labels]
    m = [linalg.solve(rows, [embedding[x][i] for x in labels]) for i in range(rank)]
    assert all(row is not None and all(c.denominator == 1 for c in row) for row in m)
    assert abs(linalg.det(m)) == 1


@given(small_matrix)
def test_rank_matches_rref(rows):
    _, pivots, _, _ = reference_gauss_jordan(rows)
    assert linalg.rank(rows) == len(pivots)


def test_snf_empty():
    assert linalg.smith_normal_form([]) == ([], [])
