import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiroot import char_engine, linalg, root_datum
from semiroot.root_datum import RootDatum


def test_character_sl2_string():
    sl2 = root_datum.fixture("sl2")
    assert char_engine.irreducible_character(sl2, (2,)) == {(2,): 1, (0,): 1, (-2,): 1}


def test_character_adjoint_sl3():
    sl3 = root_datum.fixture("sl3")
    char = char_engine.irreducible_character(sl3, (1, 1))
    assert sum(char.values()) == 8
    assert char[(0, 0)] == 2
    assert char[(1, 1)] == 1


def test_character_trivial():
    g2 = root_datum.fixture("g2")
    assert char_engine.irreducible_character(g2, (0, 0)) == {(0, 0): 1}


def test_character_weyl_invariant():
    sp4 = root_datum.fixture("sp4")
    char = char_engine.irreducible_character(sp4, (2, 1))
    for nu, m in char.items():
        for v in root_datum.orbit(sp4, nu):
            assert char[v] == m


def test_character_rejects_nondominant():
    sl2 = root_datum.fixture("sl2")
    with pytest.raises(ValueError):
        char_engine.irreducible_character(sl2, (-1,))


def test_dimension_sl2():
    sl2 = root_datum.fixture("sl2")
    for k in range(7):
        assert char_engine.dimension(sl2, (k,)) == k + 1


def test_dimension_g2_fundamentals():
    g2 = root_datum.fixture("g2")
    assert char_engine.dimension(g2, (0, 1)) == 7
    assert char_engine.dimension(g2, (1, 0)) == 14
    assert char_engine.dimension(g2, (0, 0)) == 1


def _cartan_columns(rows):
    """Simply connected datum of a Cartan matrix: coroots are the standard basis."""
    n = len(rows)
    roots = tuple(tuple(rows[j][i] for j in range(n)) for i in range(n))
    coroots = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    return RootDatum(n, roots, coroots)


_STD4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
_UNITS3 = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
# rank 3 and 4 data with their fundamental weights and small sums: roots of
# one length (A3, D4) and of two (B3, C3, F4), and a product whose factors'
# invariant forms differ in scale (sp4xg2)
MASS_CASES = {
    "A3": (_cartan_columns([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]), _UNITS3 + [(1, 1, 1)]),
    "B3": (_cartan_columns([[2, -1, 0], [-1, 2, -1], [0, -2, 2]]), _UNITS3 + [(1, 1, 1)]),
    "C3": (_cartan_columns([[2, -1, 0], [-1, 2, -2], [0, -1, 2]]), _UNITS3 + [(1, 1, 1)]),
    "D4": (
        RootDatum(4, ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)), _STD4),
        [*_STD4, (1, 0, 1, 0)],
    ),
    "F4": (
        RootDatum(4, ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2)), _STD4),
        [_STD4[0], _STD4[1], _STD4[3], (1, 0, 0, 1)],
    ),
    "sp4xg2": (
        _cartan_columns([[2, -1, 0, 0], [-2, 2, 0, 0], [0, 0, 2, -1], [0, 0, -3, 2]]),
        [(1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 1, 1)],
    ),
}


@pytest.mark.parametrize("name", ["sl3", "sp4", "g2", "so5", "gl2", "sl2xpgl2", *MASS_CASES])
def test_dimension_equals_character_mass(name):
    d, weights = MASS_CASES.get(name) or (
        root_datum.fixture(name), [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1)]
    )
    for lam in weights:
        lam = root_datum.dominant_representative(d, lam)
        char = char_engine.irreducible_character(d, lam)
        assert char_engine.dimension(d, lam) == sum(char.values())


def test_dimensions_of_f4_and_a_product():
    f4, product = MASS_CASES["F4"][0], MASS_CASES["sp4xg2"][0]
    assert [char_engine.dimension(f4, e) for e in _STD4] == [26, 273, 1274, 52]
    assert char_engine.dimension(product, (1, 1, 1, 1)) == 16 * 64


def test_clebsch_gordan():
    sl2 = root_datum.fixture("sl2")
    assert char_engine.tensor_decompose(sl2, (2,), (2,)) == {(4,): 1, (2,): 1, (0,): 1}


def test_tensor_sl3_standard_pair():
    sl3 = root_datum.fixture("sl3")
    dec = char_engine.tensor_decompose(sl3, (1, 0), (0, 1))
    assert dec == {(1, 1): 1, (0, 0): 1}


def test_tensor_unit():
    g2 = root_datum.fixture("g2")
    assert char_engine.tensor_decompose(g2, (2, 1), (0, 0)) == {(2, 1): 1}


@pytest.mark.parametrize("name", ["sl3", "so5"])
def test_tensor_bookkeeping_small(name):
    d = root_datum.fixture(name)
    dominants = [
        v
        for v in [(a, b) for a in range(-3, 4) for b in range(-3, 4)]
        if root_datum.is_dominant(d, v) and max(abs(c) for c in v) <= 3
    ]
    for lam in dominants:
        for mu in dominants:
            dec = char_engine.tensor_decompose(d, lam, mu)
            mass = sum(m * char_engine.dimension(d, nu) for nu, m in dec.items())
            assert mass == char_engine.dimension(d, lam) * char_engine.dimension(d, mu)
            cartan = tuple(a + b for a, b in zip(lam, mu))
            assert dec[cartan] == 1
            for nu in dec:
                assert root_datum.dominance_leq(d, nu, cartan)


def test_tensor_product_character_is_pointwise_product():
    sl3 = root_datum.fixture("sl3")
    lam, mu = (1, 1), (1, 0)
    left = char_engine.irreducible_character(sl3, lam)
    right = char_engine.irreducible_character(sl3, mu)
    conv = Counter()
    for a, m in left.items():
        for b, k in right.items():
            conv[tuple(x + y for x, y in zip(a, b))] += m * k
    total = Counter()
    for nu, mult in char_engine.tensor_decompose(sl3, lam, mu).items():
        for w, m in char_engine.irreducible_character(sl3, nu).items():
            total[w] += mult * m
    assert conv == total


small2 = st.tuples(st.integers(0, 2), st.integers(0, 2))


@given(small2, small2)
@settings(max_examples=25)
def test_tensor_commutative(lam, mu):
    d = root_datum.fixture("sp4")
    lam = root_datum.dominant_representative(d, lam)
    mu = root_datum.dominant_representative(d, mu)
    assert char_engine.tensor_decompose(d, lam, mu) == char_engine.tensor_decompose(
        d, mu, lam
    )


@given(small2, small2, small2)
@settings(max_examples=10)
def test_tensor_associative(a, b, c):
    d = root_datum.fixture("sl3")
    a = root_datum.dominant_representative(d, a)
    b = root_datum.dominant_representative(d, b)
    c = root_datum.dominant_representative(d, c)

    def mul(left: dict, right: dict) -> Counter:
        out = Counter()
        for x, m in left.items():
            for y, k in right.items():
                for z, c2 in char_engine.tensor_decompose(d, x, y).items():
                    out[z] += m * k * c2
        return out

    assert mul(char_engine.tensor_decompose(d, a, b), {c: 1}) == mul(
        {a: 1}, char_engine.tensor_decompose(d, b, c)
    )


def test_prv_examples():
    sl2 = root_datum.fixture("sl2")
    assert set(char_engine.prv_components(sl2, (1,), (1,))) == {(2,), (0,)}
    sl3 = root_datum.fixture("sl3")
    assert set(char_engine.prv_components(sl3, (1, 0), (1, 0))) == {(2, 0), (0, 1)}
    g2 = root_datum.fixture("g2")
    assert set(char_engine.prv_components(g2, (2, 1), (0, 0))) == {(2, 1)}


@pytest.mark.parametrize("name", ["sl3", "sp4"])
def test_prv_components_occur(name):
    d = root_datum.fixture(name)
    dominants = [
        v
        for v in [(a, b) for a in range(0, 3) for b in range(0, 3)]
        if root_datum.is_dominant(d, v)
    ]
    for lam in dominants:
        for mu in dominants:
            dec = char_engine.tensor_decompose(d, lam, mu)
            for nu in char_engine.prv_components(d, lam, mu):
                assert dec.get(nu, 0) >= 1


def test_dual_label():
    sl2 = root_datum.fixture("sl2")
    assert char_engine.dual_label(sl2, (3,)) == (3,)
    sl3 = root_datum.fixture("sl3")
    assert char_engine.dual_label(sl3, (1, 0)) == (0, 1)
    assert char_engine.dual_label(sl3, (0, 0)) == (0, 0)
    gl2 = root_datum.fixture("gl2")
    assert char_engine.dual_label(gl2, (3, 1)) == (-1, -3)


@pytest.mark.parametrize("name", ["sl3", "g2", "gl2"])
def test_dual_pairs_against_unit(name):
    d = root_datum.fixture(name)
    for lam in [(1, 0), (1, 1), (2, 1)]:
        lam = root_datum.dominant_representative(d, lam)
        dec = char_engine.tensor_decompose(d, lam, char_engine.dual_label(d, lam))
        assert dec[(0,) * d.rank] == 1


def test_monoid_generators():
    assert char_engine.fundamental_monoid_generators(root_datum.fixture("sl2")) == ((1,),)
    assert char_engine.fundamental_monoid_generators(root_datum.fixture("pgl2")) == ((1,),)
    assert char_engine.fundamental_monoid_generators(root_datum.fixture("sl3")) == (
        (1, 0),
        (0, 1),
    )
    assert char_engine.fundamental_monoid_generators(RootDatum(0, (), ())) == ()
    with pytest.raises(ValueError):
        char_engine.fundamental_monoid_generators(root_datum.fixture("gl2"))


def _reference_monoid_generators(d):
    """Minimal dominant weights by rational solves: axis multiples searched upward."""

    def weight(p):
        sol = linalg.solve(d.simple_coroots, p)
        return tuple(map(int, sol)) if all(c.denominator == 1 for c in sol) else None

    n = d.rank
    axis = [
        next(m for m in itertools.count(1) if weight([m * (i == j) for j in range(n)]))
        for i in range(n)
    ]
    members = {}
    for p in itertools.product(*(range(m + 1) for m in axis)):
        if any(p) and (w := weight(p)) is not None:
            members[p] = w
    minimal = [p for p in members if not any(q != p and linalg.vec_sub(p, q) in members
                                             for q in members)]
    return tuple(members[p] for p in sorted(minimal, reverse=True))


def _simply_connected(rows):
    n = len(rows)
    roots = tuple(tuple(rows[j][i] for j in range(n)) for i in range(n))
    return RootDatum(n, roots, tuple(map(tuple, linalg.identity(n))))


def _adjoint(rows):
    return RootDatum(len(rows), tuple(map(tuple, linalg.identity(len(rows)))), rows)


A3 = ((2, -1, 0), (-1, 2, -1), (0, -1, 2))
B3 = ((2, -1, 0), (-1, 2, -1), (0, -2, 2))
C3 = ((2, -1, 0), (-1, 2, -2), (0, -1, 2))
FIXTURES = [root_datum.fixture(n) for n in root_datum.fixture_names()]
SEMISIMPLE = [d for d in FIXTURES if d.semisimple_rank == d.rank > 0] + [
    make(rows) for make in (_simply_connected, _adjoint) for rows in (A3, B3, C3)
]


@pytest.mark.parametrize("d", SEMISIMPLE, ids=lambda d: d.name or str(d.simple_roots))
def test_monoid_generators_match_rational_reference(d):
    root_datum.validate_root_datum(d)
    assert char_engine.fundamental_monoid_generators(d) == _reference_monoid_generators(d)


def test_monoid_generators_generate():
    d = root_datum.fixture("sp4")
    gens = char_engine.fundamental_monoid_generators(d)
    assert gens == ((1, 0), (1, 1))
    for v in [(2, 1), (1, 1), (3, 3)]:
        sol = linalg.solve(linalg.transpose(gens), v)
        assert sol is not None
        assert all(x.denominator == 1 and x >= 0 for x in sol)


def test_no_module_level_dict_caches():
    dicts = [
        name
        for name, value in vars(char_engine).items()
        if isinstance(value, dict) and not name.startswith("__")
    ]
    assert dicts == []


def test_memos_live_in_the_shared_context():
    sl3 = root_datum.fixture("sl3")
    renamed = root_datum.RootDatum(sl3.rank, sl3.simple_roots, sl3.simple_coroots, "recovered")
    mults = char_engine.dominant_weight_multiplicities(sl3, (3, 2))
    assert char_engine.dominant_weight_multiplicities(renamed, (3, 2)) is mults
    assert root_datum.weyl_context(renamed).dominant_mults[(3, 2)] is mults
