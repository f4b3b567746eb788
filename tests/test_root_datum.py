import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiroot import root_datum
from semiroot.root_datum import RootDatum, RootDatumError

WEYL_ORDERS = {
    "sl2": 2,
    "pgl2": 2,
    "gl2": 2,
    "sl3": 6,
    "pgl3": 6,
    "sp4": 8,
    "so5": 8,
    "g2": 12,
    "sl2xpgl2": 4,
    "torus1": 1,
    "torus2": 1,
}


@pytest.mark.parametrize("name", root_datum.fixture_names())
def test_fixtures_validate(name):
    root_datum.validate_root_datum(root_datum.fixture(name))


def test_reject_cartan_diagonal():
    bad = RootDatum(rank=1, simple_roots=((3,),), simple_coroots=((1,),))
    with pytest.raises(RootDatumError, match="pairing"):
        root_datum.validate_root_datum(bad)


def test_reject_affine_type():
    bad = RootDatum(
        rank=3,
        simple_roots=((2, -2, 0), (-2, 2, 1)),
        simple_coroots=((1, 0, 0), (0, 1, 0)),
    )
    with pytest.raises(RootDatumError, match="finite"):
        root_datum.validate_root_datum(bad)


def test_reject_dependent_roots():
    bad = RootDatum(
        rank=2,
        simple_roots=((2, 0), (-2, 0)),
        simple_coroots=((1, 0), (-1, 0)),
    )
    with pytest.raises(RootDatumError):
        root_datum.validate_root_datum(bad)


def test_is_dominant():
    sl2 = root_datum.fixture("sl2")
    assert root_datum.is_dominant(sl2, (3,))
    assert not root_datum.is_dominant(sl2, (-1,))
    gl2 = root_datum.fixture("gl2")
    assert not root_datum.is_dominant(gl2, (2, 5))
    assert root_datum.is_dominant(gl2, (5, 2))


def test_dominance_leq():
    sl2 = root_datum.fixture("sl2")
    assert root_datum.dominance_leq(sl2, (1,), (3,))
    assert not root_datum.dominance_leq(sl2, (0,), (3,))
    sl3 = root_datum.fixture("sl3")
    assert root_datum.dominance_leq(sl3, (0, 0), (1, 1))
    assert not root_datum.dominance_leq(sl3, (1, 1), (0, 0))


def test_dominance_needs_integer_coefficients():
    sl3 = root_datum.fixture("sl3")
    # (1,0)-(0,1) solves rationally with thirds only
    assert not root_datum.dominance_leq(sl3, (0, 1), (1, 0))
    assert not root_datum.dominance_leq_rational(sl3, (0, 1), (1, 0))


@pytest.mark.parametrize("name,order", sorted(WEYL_ORDERS.items()))
def test_weyl_orders(name, order):
    assert root_datum.weyl_order(root_datum.fixture(name)) == order


@pytest.mark.parametrize("name", ["sl3", "sp4", "g2"])
def test_weyl_elements_permute_roots(name):
    d = root_datum.fixture(name)
    roots = {r for r, _, _ in root_datum.positive_roots(d)}
    roots |= {tuple(-c for c in r) for r in roots}
    for w in root_datum.weyl_group(d):
        image = {tuple(sum(row[j] * r[j] for j in range(d.rank)) for row in w) for r in roots}
        assert image == roots


def test_generators_are_involutions():
    d = root_datum.fixture("g2")
    from semiroot import linalg

    for i in range(len(d.simple_roots)):
        m = root_datum.reflection_matrix(d, i)
        assert linalg.mat_mul(m, m) == linalg.identity(d.rank)


def test_orbit():
    sl2 = root_datum.fixture("sl2")
    assert set(root_datum.orbit(sl2, (3,))) == {(3,), (-3,)}
    sl3 = root_datum.fixture("sl3")
    assert len(root_datum.orbit(sl3, (1, 0))) == 3
    assert root_datum.orbit(sl3, (0, 0)) == ((0, 0),)


@pytest.mark.parametrize("name", ["sl3", "sp4", "g2", "gl2"])
def test_orbit_size_divides_weyl_order(name):
    d = root_datum.fixture(name)
    w = root_datum.weyl_order(d)
    for lam in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        assert w % len(root_datum.orbit(d, lam)) == 0


def test_dominant_representative():
    sl2 = root_datum.fixture("sl2")
    assert root_datum.dominant_representative(sl2, (-3,)) == (3,)
    sl3 = root_datum.fixture("sl3")
    rep = root_datum.dominant_representative(sl3, (-1, 1))
    assert root_datum.is_dominant(sl3, rep)
    assert rep in root_datum.orbit(sl3, (-1, 1))
    assert root_datum.dominant_representative(sl3, (2, 1)) == (2, 1)


@pytest.mark.parametrize("name", ["sl2", "sl3", "sp4", "g2"])
def test_orbit_below_dominant(name):
    d = root_datum.fixture(name)
    for lam in [(2,) * d.rank, (3,) + (1,) * (d.rank - 1)]:
        for v in root_datum.orbit(d, lam):
            assert root_datum.dominance_leq(d, v, lam)


def test_isomorphic_identity():
    sl2 = root_datum.fixture("sl2")
    assert root_datum.root_data_isomorphic(sl2, sl2) is not None


def test_isogeny_types_distinguished():
    pairs = [("sl2", "pgl2"), ("sl3", "pgl3"), ("sp4", "so5")]
    for a, b in pairs:
        da, db = root_datum.fixture(a), root_datum.fixture(b)
        assert root_data_same_weyl(da, db)
        assert root_datum.root_data_isomorphic(da, db) is None


def root_data_same_weyl(da, db):
    return root_datum.weyl_order(da) == root_datum.weyl_order(db)


def test_isomorphic_under_diagram_flip():
    sl3 = root_datum.fixture("sl3")
    flipped = RootDatum(
        rank=2,
        simple_roots=(sl3.simple_roots[1], sl3.simple_roots[0]),
        simple_coroots=(sl3.simple_coroots[1], sl3.simple_coroots[0]),
        name="flipped",
    )
    assert root_datum.root_data_isomorphic(sl3, flipped) is not None


def test_isomorphic_torus():
    t2 = root_datum.fixture("torus2")
    assert root_datum.root_data_isomorphic(t2, t2) is not None
    t1 = root_datum.fixture("torus1")
    assert root_datum.root_data_isomorphic(t1, t2) is None


weights2 = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@given(weights2, weights2, weights2)
def test_dominance_is_a_partial_order(a, b, c):
    d = root_datum.fixture("sp4")
    assert root_datum.dominance_leq(d, a, a)
    if root_datum.dominance_leq(d, a, b) and root_datum.dominance_leq(d, b, a):
        assert a == b
    if root_datum.dominance_leq(d, a, b) and root_datum.dominance_leq(d, b, c):
        assert root_datum.dominance_leq(d, a, c)


def _cartan_columns(rows):
    """Simply connected datum of a Cartan matrix: coroots are the standard basis."""
    n = len(rows)
    roots = tuple(tuple(rows[j][i] for j in range(n)) for i in range(n))
    coroots = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return RootDatum(n, roots, coroots)


RANK3 = {
    "A3": (_cartan_columns([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]), 6),
    "B3": (_cartan_columns([[2, -1, 0], [-1, 2, -1], [0, -2, 2]]), 9),
    "C3": (_cartan_columns([[2, -1, 0], [-1, 2, -2], [0, -1, 2]]), 9),
    "A1xT2": (RootDatum(3, ((2, 0, 0),), ((1, 0, 0),)), 1),
}


def _reference_positive_roots(d):
    """Reflection closure of the simple roots, positivity by a rational solve."""
    from semiroot import linalg

    seen = {}
    frontier = [(a, c, i) for i, (a, c) in enumerate(zip(d.simple_roots, d.simple_coroots))]
    for a, c, i in frontier:
        seen[a] = (c, i)
    while frontier:
        nxt = []
        for a, c, i in frontier:
            for j in range(d.semisimple_rank):
                ra, rc = root_datum.reflect(d, j, a), root_datum.coreflect(d, j, c)
                if ra not in seen:
                    seen[ra] = (rc, i)
                    nxt.append((ra, rc, i))
        frontier = nxt
    out = []
    for a, (c, i) in seen.items():
        coeffs = linalg.solve(linalg.transpose(d.simple_roots), a)
        if all(x >= 0 for x in coeffs):
            out.append((a, c, i))
    return tuple(sorted(out))


@pytest.mark.parametrize(
    "d",
    [root_datum.fixture(n) for n in root_datum.fixture_names()] + [d for d, _ in RANK3.values()],
    ids=list(root_datum.fixture_names()) + list(RANK3),
)
def test_positive_roots_match_rational_reference(d):
    root_datum.validate_root_datum(d)
    assert root_datum.positive_roots(d) == _reference_positive_roots(d)


@pytest.mark.parametrize("name", sorted(RANK3))
def test_rank3_positive_root_counts(name):
    d, count = RANK3[name]
    assert len(root_datum.positive_roots(d)) == count


def test_renamed_datum_shares_context():
    sl3 = root_datum.fixture("sl3")
    renamed = RootDatum(sl3.rank, sl3.simple_roots, sl3.simple_coroots, name="recovered")
    assert root_datum.weyl_context(sl3) is root_datum.weyl_context(renamed)


def test_context_memo_is_bounded():
    size = root_datum.CONTEXT_CACHE_SIZE
    assert root_datum._weyl_context.cache_info().maxsize == size
    for n in range(size + 3):
        d = RootDatum(n + 1, ((2,) + (0,) * n,), ((1,) + (0,) * n,))
        assert len(root_datum.positive_roots(d)) == 1
        assert root_datum._weyl_context.cache_info().currsize <= size
