from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiroot import linalg, oracle, reconstruction, root_datum

small_matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=1, max_size=4
    )
)


def test_rref_pivots():
    m, pivots = linalg.rref([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert pivots == [0, 1]
    assert linalg.rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2


def test_solve_unique():
    assert linalg.solve([[2, -1], [-1, 2]], [1, 1]) == (1, 1)


def test_solve_inconsistent():
    assert linalg.solve([[1, 1], [1, 1]], [0, 1]) is None


def test_solve_underdetermined_picks_particular():
    sol = linalg.solve([[1, 1]], [3])
    assert sol is not None
    assert sol[0] + sol[1] == 3


def test_nullspace():
    basis = linalg.nullspace([[1, 1, 0]], 3)
    assert len(basis) == 2
    for v in basis:
        assert v[0] + v[1] == 0


def test_solve_nonneg_int():
    assert linalg.solve_nonneg_int([[2, 0], [0, 3]], [4, 6]) == (2, 2)
    assert linalg.solve_nonneg_int([[2, 0], [0, 3]], [4, 7]) is None
    assert linalg.solve_nonneg_int([[1, 0], [0, 1]], [-1, 0]) is None


def test_det_and_invert():
    m = [[2, 1], [1, 1]]
    assert linalg.det(m) == 1
    inv = linalg.invert(m)
    assert linalg.mat_mul(m, inv) == [[1, 0], [0, 1]]
    assert linalg.adjugate([[2, 1], [1, 3]]) == ([[3, -1], [-1, 2]], 5)


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
    order = reconstruction.recover_order(table)
    monoid = reconstruction.recover_addition(table, order)
    _, mat = relation_matrix(monoid)
    assert len(mat) < len(mat[0])  # labels by relations: the wide shape
    assert_matches_reference(mat)


def undecided_order(table):
    """An order that decides no pair, so recover_addition breaks no ties."""
    return reconstruction.RecoveredOrder(
        labels=table.labels, classes=dict.fromkeys(table.labels, 0), decided={}
    )


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
    # the undecided order gives these tables the monoid recover_order does,
    # without the order search
    table, _ = oracle.materialize_oracle(root_datum.fixture(name), bound, seed=7)
    monoid = reconstruction.recover_addition(table, undecided_order(table))
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
    m, pivots = linalg.rref(rows)
    assert linalg.rank(rows) == len(pivots)


def test_snf_empty():
    assert linalg.smith_normal_form([]) == ([], [])
