import itertools
import random
import time
from operator import add

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semiroot import linalg, oracle, reconstruction, root_datum
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


@pytest.mark.parametrize(
    "bad",
    [
        RootDatum(rank=True, simple_roots=((2,),), simple_coroots=((1,),)),
        RootDatum(rank=1, simple_roots=((2,),), simple_coroots=((True,),)),
    ],
)
def test_reject_bool_for_integer(bad):
    # JSON true loads as a bool, which Python would otherwise take for the integer 1
    with pytest.raises(RootDatumError, match="shape"):
        root_datum.validate_root_datum(bad)


@pytest.mark.parametrize(
    "bad,message",
    [
        (RootDatum(-1, (), ()), "shape: negative rank"),
        (RootDatum(1, ((2,),), ()), "shape: root/coroot count mismatch"),
        (RootDatum(1, ((2,), (1,)), ((1,), (1,))), "shape: more simple roots than rank"),
        (RootDatum(2, ((2, 0), (2, 0)), ((1, 0), (0, 1))), "shape: duplicate simple roots"),
        (
            RootDatum(2, ((2, 1), (1, 2)), ((1, 0), (0, 1))),
            "Cartan sign: positive off-diagonal entry at (0,1)",
        ),
        (
            RootDatum(2, ((2, 0), (-1, 2)), ((1, 0), (0, 1))),
            "Cartan sign: zero pattern asymmetric at (0,1)",
        ),
        # the affine A1 Cartan matrix passes the sign checks; its coroots are opposite
        (
            RootDatum(2, ((2, 0), (-2, 1)), ((1, 0), (-1, 0))),
            "independence: simple coroots are dependent",
        ),
        # a hyperbolic Cartan matrix: its positive roots never end
        (
            RootDatum(2, ((2, -3), (-3, 2)), ((1, 0), (0, 1))),
            "finite type: more than 8 positive roots",
        ),
    ],
)
def test_validate_messages(bad, message):
    with pytest.raises(RootDatumError) as err:
        root_datum.validate_root_datum(bad)
    assert str(err.value) == message


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


@pytest.mark.parametrize("name,order", sorted(WEYL_ORDERS.items()))
def test_weyl_orders(name, order):
    assert root_datum.weyl_order(root_datum.fixture(name)) == order


@pytest.mark.parametrize(
    "name,order", [("F4", 1152), ("E6", 51840), ("E7", 2903040), ("E8", 696729600)]
)
def test_weyl_orders_past_rank_4(name, order):
    d = PAST_RANK3[name]
    assert root_datum.weyl_order(d) == order
    assert d.orbits == {}  # read off the positive roots, with no orbit built


def _reflection_matrix(d, i):
    alpha, cov = d.simple_roots[i], d.simple_coroots[i]
    return [[int(a == b) - alpha[a] * cov[b] for b in range(d.rank)] for a in range(d.rank)]


def _reference_weyl_group(d):
    """All of W as integer matrices on weight coordinates: closure under the simple reflections."""
    gens = [_reflection_matrix(d, i) for i in range(d.semisimple_rank)]
    ident = tuple(map(tuple, linalg.identity(d.rank)))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                wg = tuple(map(tuple, linalg.mat_mul(g, w)))
                if wg not in seen:
                    seen.add(wg)
                    nxt.append(wg)
        frontier = nxt
    return seen


@pytest.mark.parametrize("name", ["sl3", "sp4", "g2"])
def test_weyl_elements_permute_roots(name):
    d = root_datum.fixture(name)
    roots = {r for r, _ in root_datum.positive_roots(d)}
    roots |= {tuple(-c for c in r) for r in roots}
    for w in _reference_weyl_group(d):
        image = {tuple(sum(row[j] * r[j] for j in range(d.rank)) for row in w) for r in roots}
        assert image == roots


def test_generators_are_involutions():
    d = root_datum.fixture("g2")
    for i in range(len(d.simple_roots)):
        m = _reflection_matrix(d, i)
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


def _dynkin(n, edges, double=None):
    """The Cartan matrix of a diagram: -1 at both ends of each edge, -2 at the cell `double`."""
    rows = [[2 if i == j else -int({i, j} in edges) for j in range(n)] for i in range(n)]
    if double:
        rows[double[0]][double[1]] = -2
    return rows


CHAIN4 = ({0, 1}, {1, 2}, {2, 3})
# E6, E7 and E8 in Bourbaki's numbering: the chain 1-3-4-5-6-7-8 with 2 on 4
E8_EDGES = ({0, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {1, 3})
PAST_RANK3 = {
    "B4": _cartan_columns(_dynkin(4, CHAIN4, (3, 2))),
    "C4": _cartan_columns(_dynkin(4, CHAIN4, (2, 3))),
    "D4": _cartan_columns(_dynkin(4, ({0, 1}, {1, 2}, {1, 3}))),
    "D5": _cartan_columns(_dynkin(5, ({0, 1}, {1, 2}, {2, 3}, {2, 4}))),
    "F4": _cartan_columns(_dynkin(4, CHAIN4, (2, 1))),
    **{f"E{n}": _cartan_columns(_dynkin(n, E8_EDGES)) for n in (6, 7, 8)},
}


def _base_change(d, u):
    """The datum d in the basis u: roots map by u, coroots by u^-T."""
    adj, det = linalg.adjugate(u)
    assert abs(det) == 1  # so u^-1 = det * adj is integral
    inv_t = [[det * x for x in col] for col in zip(*adj)]
    return RootDatum(
        d.rank,
        tuple(linalg.mat_vec(u, a) for a in d.simple_roots),
        tuple(linalg.mat_vec(inv_t, c) for c in d.simple_coroots),
        name=d.name,
    )


def _product(*data):
    """The direct product of data, as a block-diagonal datum."""
    rank = sum(d.rank for d in data)
    roots, coroots, offset = [], [], 0
    for d in data:
        before, after = (0,) * offset, (0,) * (rank - offset - d.rank)
        roots += [before + a + after for a in d.simple_roots]
        coroots += [before + c + after for c in d.simple_coroots]
        offset += d.rank
    return RootDatum(rank, tuple(roots), tuple(coroots))


# two data with a torus, in bases that mix the torus into the roots
REBASED = {
    f"{name}xT1": _base_change(_product(root_datum.fixture(name), root_datum.fixture("torus1")), u)
    for name, u in [
        ("sp4", [[1, 1, 0], [2, 3, 1], [1, 1, 1]]),
        ("g2", [[2, 1, 0], [1, 1, 0], [3, -1, 1]]),
    ]
}


def _reflect(d, i, x):
    c = linalg.dot(d.simple_coroots[i], x)
    return tuple(xa - c * aa for xa, aa in zip(x, d.simple_roots[i]))


def _coreflect(d, i, y):
    c = linalg.dot(y, d.simple_roots[i])
    return tuple(ya - c * ca for ya, ca in zip(y, d.simple_coroots[i]))


def _reference_positive_roots(d):
    """Reflection closure of the simple roots, positivity by a rational solve."""
    seen = dict(zip(d.simple_roots, d.simple_coroots))
    frontier = list(seen.items())
    while frontier:
        nxt = []
        for a, c in frontier:
            for j in range(d.semisimple_rank):
                ra, rc = _reflect(d, j, a), _coreflect(d, j, c)
                if ra not in seen:
                    seen[ra] = rc
                    nxt.append((ra, rc))
        frontier = nxt
    out = []
    for a, c in seen.items():
        coeffs = linalg.solve(linalg.transpose(d.simple_roots), a)
        if all(x >= 0 for x in coeffs):
            out.append((a, c))
    return tuple(sorted(out))


REFERENCE_ROOT_DATA = {
    **{n: root_datum.fixture(n) for n in root_datum.fixture_names()},
    **{n: d for n, (d, _) in RANK3.items()},
    **{n: PAST_RANK3[n] for n in ("B4", "C4", "D4", "D5", "F4", "E6")},
    **REBASED,
}


@pytest.mark.parametrize("d", REFERENCE_ROOT_DATA.values(), ids=list(REFERENCE_ROOT_DATA))
def test_positive_roots_match_rational_reference(d):
    root_datum.validate_root_datum(d)
    assert root_datum.positive_roots(d) == _reference_positive_roots(d)


@pytest.mark.parametrize("name", sorted(RANK3))
def test_rank3_positive_root_counts(name):
    d, count = RANK3[name]
    assert len(root_datum.positive_roots(d)) == count


def test_derived_data_are_kept_on_the_datum():
    sl3 = root_datum.fixture("sl3")
    renamed = RootDatum(sl3.rank, sl3.simple_roots, sl3.simple_coroots, name="recovered")
    roots = root_datum.positive_roots(sl3)
    assert root_datum.positive_roots(sl3) is roots
    # an equal copy derives its own data, and the kept data leave equality alone
    assert root_datum.positive_roots(renamed) == roots
    assert root_datum.positive_roots(renamed) is not roots
    fresh = root_datum.fixture("sl3")
    assert fresh == sl3 and hash(fresh) == hash(sl3)
    assert renamed != sl3
    # the memos are plain dicts made with each datum, so equal data share none
    for memo in ("orbits", "dominant_mults", "dimensions", "chamber_walks"):
        assert getattr(fresh, memo) == {} and getattr(fresh, memo) is not getattr(sl3, memo)


def _reference_root_coefficients(d, v):
    """Coefficients of v over the simple roots by a rational solve, or None off their span."""
    if not d.simple_roots:
        return () if not any(v) else None
    return linalg.solve(linalg.transpose(d.simple_roots), v)


SL2xT2 = RootDatum(3, ((2, 0, 0),), ((1, 0, 0),), name="sl2xT2")
GL2xT1 = RootDatum(3, ((1, -1, 0),), ((1, -1, 0),), name="gl2xT1")
SL4 = RANK3["A3"][0]
TORUS3 = RootDatum(3, (), (), name="torus3")
ALL_DATA = [root_datum.fixture(n) for n in root_datum.fixture_names()] + [SL4, SL2xT2, TORUS3]


@pytest.mark.parametrize("d", ALL_DATA + [GL2xT1], ids=lambda d: d.name or "A3")
def test_root_coefficients_match_rational_solve(d):
    box = range(-3, 4) if d.rank < 3 else range(-2, 3)
    for v in itertools.product(box, repeat=d.rank):
        ref = _reference_root_coefficients(d, v)
        if ref is None:
            assert d.root_numerators(v) is None and d.root_coefficients(v) is None
            continue
        det = d.cartan_adjugate[1]
        assert d.root_numerators(v) == tuple(c * det for c in ref)
        integral = all(c.denominator == 1 for c in ref)
        assert d.root_coefficients(v) == (tuple(map(int, ref)) if integral else None)


def _assert_isomorphism(m, d1, d2):
    """m is unimodular, maps the simple roots of d1 onto those of d2 and pulls coroots back."""
    assert m is not None
    assert abs(linalg.det(m)) == 1
    images = [tuple(linalg.mat_vec(m, a)) for a in d1.simple_roots]
    assert sorted(images) == sorted(d2.simple_roots)
    for a, c in zip(images, d1.simple_coroots):
        c2 = d2.simple_coroots[d2.simple_roots.index(a)]
        assert tuple(linalg.dot(c2, col) for col in zip(*m)) == c


def test_isomorphic_torus_base_changes():
    # both were missed by the bounded grid search the exact test replaced
    changed = _base_change(SL2xT2, [[1, 0, 2], [0, 1, 0], [2, 0, 5]])
    _assert_isomorphism(root_datum.root_data_isomorphic(SL2xT2, changed), SL2xT2, changed)
    changed = _base_change(GL2xT1, [[-3, 15, 10], [0, 2, 1], [-2, 9, 6]])
    _assert_isomorphism(root_datum.root_data_isomorphic(changed, GL2xT1), changed, GL2xT1)


@pytest.mark.parametrize(
    "name,bound,seed", [("sl2xT2", 2, 888598), ("sl2xT2", 2, 127605), ("gl2", 4, 230629)]
)
def test_recovered_torus_data_isomorphic(name, bound, seed):
    # relabelings whose certified recoveries the bounded grid search missed
    d = SL2xT2 if name == "sl2xT2" else root_datum.fixture(name)
    t, _ = oracle.materialize_oracle(d, bound, seed=seed)
    report = reconstruction.recover_datum(t)
    assert report.certified, (report.stage, report.reason)
    m = root_datum.root_data_isomorphic(report.datum, d)
    _assert_isomorphism(m, report.datum, d)


@st.composite
def unimodular(draw, n):
    """A product of elementary row operations and sign flips."""
    u = linalg.identity(n)
    for _ in range(draw(st.integers(0, 6))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            c = draw(st.integers(-3, 3))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    return u


@given(st.data())
def test_random_base_change_is_isomorphic(data):
    d = data.draw(st.sampled_from(ALL_DATA))
    changed = _base_change(d, data.draw(unimodular(d.rank)))
    _assert_isomorphism(root_datum.root_data_isomorphic(d, changed), d, changed)
    _assert_isomorphism(root_datum.root_data_isomorphic(changed, d), changed, d)


@given(st.data())
def test_isogeny_partners_stay_apart_under_base_change(data):
    a, b = data.draw(st.sampled_from([("sl2", "pgl2"), ("sl3", "pgl3"), ("sp4", "so5")]))
    da, db = root_datum.fixture(a), root_datum.fixture(b)
    changed = _base_change(da, data.draw(unimodular(da.rank)))
    assert root_datum.root_data_isomorphic(changed, db) is None
    assert root_datum.root_data_isomorphic(db, changed) is None


GL2 = root_datum.fixture("gl2")
GL2_CUBED = _product(GL2, GL2, GL2)
# PGL2 x T1 has |det F| = 2, as GL2 has, so the pair has |det F| = 8 on both sides
GL2_SQUARED_PGL2_T1 = _product(GL2, GL2, root_datum.fixture("pgl2"), root_datum.fixture("torus1"))


def test_torus_rank_three_searches_mod_the_exponent():
    # |det F| = 8, but Z^6 / F Z^6 = (Z/2)^3 has exponent 2: the search runs
    # over the 168 classes of GL_3(Z/2), not the 44,040,192 of GL_3(Z/8)
    assert abs(GL2_CUBED.coordinates[2]) == abs(GL2_SQUARED_PGL2_T1.coordinates[2]) == 8
    changed = _base_change(
        GL2_CUBED,
        [
            [1, 0, 2, 0, 0, 1],
            [0, 1, 0, 0, 1, 0],
            [1, 1, 3, 0, 1, 1],
            [0, 0, 0, 1, 0, 1],
            [2, 0, 4, 1, 1, 3],
            [0, 0, 0, 0, 0, 1],
        ],
    )
    _assert_isomorphism(root_datum.root_data_isomorphic(GL2_CUBED, GL2_CUBED), GL2_CUBED, GL2_CUBED)
    _assert_isomorphism(root_datum.root_data_isomorphic(GL2_CUBED, changed), GL2_CUBED, changed)
    _assert_isomorphism(root_datum.root_data_isomorphic(changed, GL2_CUBED), changed, GL2_CUBED)
    assert root_datum.root_data_isomorphic(GL2_CUBED, GL2_SQUARED_PGL2_T1) is None
    assert root_datum.root_data_isomorphic(GL2_SQUARED_PGL2_T1, GL2_CUBED) is None


SO4 = RootDatum(2, ((1, 1), (1, -1)), ((1, 1), (1, -1)), name="so4")
SP6 = RootDatum(3, ((2, -1, 0), (-1, 2, -1), (0, -2, 2)), linalg.identity(3), name="sp6")
SPIN7 = RootDatum(3, ((2, -1, 0), (-1, 2, -2), (0, -1, 2)), linalg.identity(3), name="spin7")


@pytest.mark.parametrize(
    "d1,d2", [(SO4, root_datum.fixture("sl2xpgl2")), (SP6, SPIN7)], ids=["so4-sl2xpgl2", "sp6-spin7"]
)
def test_search_refuses_pairs_that_pass_rank_and_det(d1, d2):
    # equal ranks and |det F|, so neither is refused before the search over sigma and h
    assert (d1.rank, d1.semisimple_rank) == (d2.rank, d2.semisimple_rank)
    assert abs(d1.coordinates[2]) == abs(d2.coordinates[2])
    assert root_datum.root_data_isomorphic(d1, d2) is None
    assert root_datum.root_data_isomorphic(d2, d1) is None


@pytest.mark.parametrize(
    "r,modulus,count",
    [
        (0, 5, 1), (1, 1, 1), (1, 2, 1), (1, 3, 2), (2, 1, 1), (2, 2, 6), (2, 3, 48), (3, 1, 1),
        (3, 2, 168),
    ],
)
def test_unimodular_lifts_one_per_class(r, modulus, count):
    lifts = root_datum._unimodular_lifts(r, modulus)
    assert len(lifts) == count
    assert all(abs(linalg.det(h)) == 1 for h in lifts)
    residues = {tuple(tuple(x % modulus for x in row) for row in h) for h in lifts}
    assert len(residues) == count


WEYL_DATA = ALL_DATA + [RANK3["B3"][0], RANK3["C3"][0]]
WEYL_IDS = [d.name or "A3" for d in ALL_DATA] + ["B3", "C3"]


@pytest.mark.parametrize("d", WEYL_DATA, ids=WEYL_IDS)
def test_weyl_order_and_stretch_match_matrix_group(d):
    group = _reference_weyl_group(d)
    assert root_datum.weyl_order(d) == len(group)


def _reference_coweight_orbit(d, y):
    """Breadth-first closure of a coweight under the simple coreflections."""
    seen = {y}
    frontier = [y]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(d.semisimple_rank):
                r = _coreflect(d, i, v)
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


@pytest.mark.parametrize("d", WEYL_DATA, ids=WEYL_IDS)
def test_hull_normals_are_coweight_orbits(d):
    k, det = d.semisimple_rank, d.cartan_adjugate[1]
    assert len(d.hull_normals) == k
    for i, (y, images) in enumerate(d.hull_normals):
        # det(Cartan) times the i-th fundamental coweight, inside the coroot span
        assert [linalg.dot(y, a) for a in d.simple_roots] == [det * (i == j) for j in range(k)]
        assert linalg.solve(linalg.transpose(d.simple_coroots), y) is not None
        assert set(images) == _reference_coweight_orbit(d, y)


def _freudenthal_walk(d, q):
    """The pairing walk that Freudenthal's recursion ran: the dominant pairings of q."""
    dom, i = q, 0
    while i < d.semisimple_rank:
        c = dom[i]
        if c < 0:
            dom = tuple([x - c * a for x, a in zip(dom, d.columns[i])])
            i = 0
        else:
            i += 1
    return dom


def _stepwise_dominant_representative(d, x):
    """The dominant weight of x's orbit, reflecting the weight and its pairings together."""
    p = d.pairing(x)
    while (i := next((i for i, c in enumerate(p) if c < 0), None)) is not None:
        c = p[i]
        x = tuple([a - c * b for a, b in zip(x, d.simple_roots[i])])
        p = tuple([a - c * b for a, b in zip(p, d.columns[i])])
    return x


def _dot_walk(d, q):
    """Reflect at the first non-positive entry until every entry is positive or one is 0."""
    shift, sign, i = (0,) * d.rank, 1, 0
    while i < d.semisimple_rank:
        c = q[i]
        if c > 0:
            i += 1
            continue
        if c == 0:
            return (*shift, 0)  # on a wall
        shift = tuple([x - c * a for x, a in zip(shift, d.simple_roots[i])])
        q = tuple([x - c * a for x, a in zip(q, d.columns[i])])
        sign, i = -sign, 0
    return (*shift, sign)


A4 = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
D4 = ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))
WALK_DATA = {
    **{name: root_datum.fixture(name) for name in root_datum.fixture_names()},
    "sl4": SL4,
    "sp6": SP6,
    "spin7": SPIN7,
    "sl5": _cartan_columns(A4),
    "spin8": _cartan_columns(D4),
}


@pytest.mark.parametrize("name", list(WALK_DATA))
def test_chamber_walk_matches_the_loops_it_replaced(name):
    d = WALK_DATA[name]
    rng = random.Random(name)
    k, zero = d.semisimple_rank, (0,) * d.rank
    qs = [tuple(rng.randint(-6, 6) for _ in range(k)) for _ in range(2000)]
    assert not k or (any(0 in q for q in qs) and any(min(q) < 0 for q in qs))
    for q in qs:
        *shift, sign = walk = d.chamber_walk(q)
        dom = tuple(map(add, q, d.pairing(shift)))
        assert dom == _freudenthal_walk(d, q), q
        old = _dot_walk(d, q)
        assert (sign == 0) == (old[-1] == 0) == (0 in dom), (q, walk, old)
        assert sign == 0 or walk == old, (q, walk, old)
        assert 0 not in q or sign == 0, q  # q on a wall ends on one
    for _ in range(2000):
        x = tuple(rng.randint(-6, 6) for _ in range(d.rank))
        want = _stepwise_dominant_representative(d, x)
        assert root_datum.dominant_representative(d, x) == want, x
    assert d.chamber_walk((0,) * k) == (*zero, 0 if k else 1)  # 0 lies on every wall


E8 = PAST_RANK3["E8"]


@pytest.mark.parametrize("d", [*WALK_DATA.values(), E8], ids=[*WALK_DATA, "e8"])
def test_chamber_walk_of_minus_rho_is_the_longest_word(d):
    # -rho reaches rho by w0, one reflection per positive root: E8's 120 stay within 2k^2 = 128
    assert d.chamber_walk((-1,) * d.semisimple_rank) == (*d.rho2, (-1) ** len(d.positive_roots))


def _principal_minors_positive(rows):
    """Finite type as validation once decided it: every principal minor is positive."""
    k = len(rows)
    return all(
        linalg.det([[rows[i][j] for j in subset] for i in subset]) > 0
        for n in range(1, k + 1)
        for subset in itertools.combinations(range(k), n)
    )


def test_finite_type_verdict_matches_principal_minors():
    # every 2x2 Cartan matrix with off-diagonal entries 0..-5 and every 3x3 with 0..-3
    verdicts = []
    for k, low in [(2, -5), (3, -3)]:
        cells = [(i, j) for i in range(k) for j in range(k) if i != j]
        for entries in itertools.product(range(low, 1), repeat=len(cells)):
            rows = [[2 * (i == j) for j in range(k)] for i in range(k)]
            for (i, j), x in zip(cells, entries):
                rows[i][j] = x
            d = _cartan_columns(rows)
            try:
                root_datum.validate_root_datum(d)
            except RootDatumError as err:
                if not str(err).startswith("finite type"):
                    continue  # refused before finite type is decided
                assert not _principal_minors_positive(rows), rows
                verdicts.append(False)
                continue
            assert _principal_minors_positive(rows), rows
            assert root_datum.positive_roots(d) == _reference_positive_roots(d), rows
            assert root_datum.weyl_order(d) == len(_reference_weyl_group(d)), rows
            verdicts.append(True)
    # 995 of the 4,132 reach the finite-type test, and 37 of those are of finite type
    assert (verdicts.count(True), verdicts.count(False)) == (37, 958)


def test_chamber_walk_stops_off_finite_type():
    # a hyperbolic Cartan matrix: W is infinite, the walk from (-1, -1) never
    # ends and neither do the positive roots, which validation walks
    d = RootDatum(2, ((2, -3), (-3, 2)), ((1, 0), (0, 1)))
    for check in (
        lambda: root_datum.dominant_representative(d, (-1, -1)),
        lambda: root_datum.positive_roots(d),
        lambda: root_datum.validate_root_datum(d),
    ):
        start = time.perf_counter()
        with pytest.raises(RootDatumError, match="finite type"):
            check()
        assert time.perf_counter() - start < 1.0
