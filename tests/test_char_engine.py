import hashlib
import importlib
import itertools
import math
import os
import pkgutil
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semiroot
from semiroot import char_engine, linalg, oracle, polytope, root_datum
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


def test_memoized_dimension_still_checks_its_weight():
    sl3 = root_datum.fixture("sl3")
    assert char_engine.dimension(sl3, (2, 1)) == 15
    memo = sl3.dimensions
    assert memo[(2, 1)] == 15
    assert char_engine.dimension(sl3, [2, 1]) == 15
    for bad in [(-1, 2), (2,), (2, 1, 0)]:
        with pytest.raises(ValueError):
            char_engine.dimension(sl3, bad)
        assert bad not in memo
    for left, right in [((2, 1), (-1, 2)), ((-1, 2), (2, 1))]:
        with pytest.raises(ValueError):
            char_engine.tensor_decompose(sl3, left, right)


def test_memoized_multiplicities_still_check_their_weight():
    sl3 = root_datum.fixture("sl3")
    mults = char_engine.dominant_weight_multiplicities(sl3, (2, 1))
    memo = sl3.dominant_mults
    assert memo[(2, 1)] is mults
    assert char_engine.dominant_weight_multiplicities(sl3, [2, 1]) is mults
    for bad in [(-1, 2), (2,), (2, 1, 0)]:
        with pytest.raises(ValueError):
            char_engine.dominant_weight_multiplicities(sl3, bad)
        with pytest.raises(ValueError):
            char_engine.irreducible_character(sl3, bad)
        assert bad not in memo

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


_STD3 = tuple(map(tuple, linalg.identity(3)))
# past rank 2: one simply laced datum and one with two root lengths
PINNED_DATA = [root_datum.fixture(n) for n in root_datum.fixture_names()] + [
    RootDatum(3, ((2, -1, 0), (-1, 2, -1), (0, -1, 2)), _STD3, "sl4"),
    RootDatum(3, ((2, -1, 0), (-1, 2, -1), (0, -2, 2)), _STD3, "sp6"),
]
# sha256 of every product and every dominant multiplicity map on the bound-2
# window, in the serialization of _answer_digests
PINNED_DIGESTS = {
    "g2": (
        "8a97eac29a6583be71523c8bf9786d118c19802696aa1c5f8c942820d0cbd831",
        "d52befd14933b5839155d243193f0b19b33c8243b0b69ffefa78ad98b2525cd7",
    ),
    "gl2": (
        "48e2b412ba4ac5d774d2b5609469a1bd69511b0c152644ffa798455c4dc61828",
        "75dcdbdd7ca2cbf07924adc423d6ec612f181f104347853e9922c38bda90bc5d",
    ),
    "pgl2": (
        "f1cbf0a093d1bc55cf1a85de88fed8c62816e1a24dddcfe776cdec59368b5a8b",
        "a98334f98685d535750c3b3716cb0226b5eaa304422275d467c4cf899f0e6a89",
    ),
    "pgl3": (
        "8f086fd69c984065c882848cb93efc7663c28daf9e76254aa8f18162874a3700",
        "8329bd7b2d05f56cf791d9433ab648db85189168ca5b1bb14c79c884f0b0d6f1",
    ),
    "sl2": (
        "278209a16bf7af18c552293d94fcb3139445e067b8f668be83d69a8ab61e128a",
        "413fa641d8310c86bfbaa61f301d14940dccf881e8a4d5bdb578d8044ae8726c",
    ),
    "sl2xpgl2": (
        "66842e9f960055d21ff938ac31e787c1b6c28dfd390d992e24401037bbd0f800",
        "2005648a40a2cb1a11b94243c233052d4aa7b025d19049a02608731f792b84d0",
    ),
    "sl3": (
        "52d4ddc0c27c3256856c5311b0372e6f0b6cb1e92f9183f534e55d9b3496aa00",
        "d2ffb6c213205c304629731f036afc1db6397e853649df083280519ef9e4f4a0",
    ),
    "so5": (
        "036f1f1fbe1b0a9e733a91b31f17071cd9c13198b9b94fcae4dfeb8068fa5f46",
        "43e6013f14105314a7aaea69dc66f7db1cb56b6e82fefe339abd7838f91bb125",
    ),
    "sp4": (
        "2d237fd391411f5374d6edb6e72515de2495c8b5c942baa5bede1bb11289a442",
        "1efd3524cc31793f974b0ff43edeaa4c2a567ec5a99ba2c5e86b3c13e48d9291",
    ),
    "torus1": (
        "336102654de5fd3e099ad2dbb40b105cfd9fd86763e6017ff5bea2254cea67dc",
        "bad38a2b54b97c0e44fc6606aacc9c85f792ba117e244f017c67e7bdbe7d1b8a",
    ),
    "torus2": (
        "d1b7f017a6a59034b06a8c5b9af445bb5b68902fba2e04a1e4ea8a3df3cd3350",
        "652a1f9cb1ecffcd4d1da13a51d66888e054ea02a17618027da7c0798fb020ad",
    ),
    "sl4": (
        "b3dcf4574423f9994a4439419e980ae195cf73ae72a676ce12e4d6c05c5993de",
        "63730890ac4e50d8f9d893960a59f347816cf83413f93c4ad2ec284c1a8f0650",
    ),
    "sp6": (
        "408a4a6e7f99689375e2f807145ee1a67efdffd0de68ee0359fe55be3dccf318",
        "eb6b1402a4e27289cd4d387d417f34e1faf9a53adba1142b73a51fa35b857e8f",
    ),
}


def _answer_digests(d):
    weights = oracle.window_weights(d, 2)
    products, mults = hashlib.sha256(), hashlib.sha256()
    for lam, mu in itertools.product(weights, repeat=2):
        dec = char_engine.tensor_decompose(d, lam, mu)
        products.update(repr((lam, mu, sorted(dec.items()))).encode())
    for lam in weights:
        m = char_engine.dominant_weight_multiplicities(d, lam)
        mults.update(repr((lam, sorted(m.items()))).encode())
    return products.hexdigest(), mults.hexdigest()


@pytest.mark.parametrize("d", PINNED_DATA, ids=lambda d: d.name)
def test_answers_pinned_on_the_bound_2_window(d):
    """Every ordered pair of window weights, so both factor orders run the kernel."""
    assert _answer_digests(d) == PINNED_DIGESTS[d.name]


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


def _dual(d, lam):
    """Highest weight of the dual irreducible: the dominant weight of the orbit of -lam."""
    orbit = d.paired_orbit(tuple(-x for x in lam))[0]
    return next(w for w in orbit if root_datum.is_dominant(d, w))


def test_dual_label():
    sl2 = root_datum.fixture("sl2")
    assert _dual(sl2, (3,)) == (3,)
    sl3 = root_datum.fixture("sl3")
    assert _dual(sl3, (1, 0)) == (0, 1)
    assert _dual(sl3, (0, 0)) == (0, 0)
    gl2 = root_datum.fixture("gl2")
    assert _dual(gl2, (3, 1)) == (-1, -3)


@pytest.mark.parametrize("name", root_datum.fixture_names())
def test_dual_label_is_dominant_representative_of_negative(name):
    # the bound-4 window holds the windows of bounds 1-3
    d = root_datum.fixture(name)
    for lam in oracle.window_weights(d, 4):
        negative = tuple(-x for x in lam)
        assert _dual(d, lam) == root_datum.dominant_representative(d, negative)


@pytest.mark.parametrize("name", ["sl3", "g2", "gl2"])
def test_dual_pairs_against_unit(name):
    d = root_datum.fixture(name)
    for lam in [(1, 0), (1, 1), (2, 1)]:
        lam = root_datum.dominant_representative(d, lam)
        dec = char_engine.tensor_decompose(d, lam, _dual(d, lam))
        assert dec[(0,) * d.rank] == 1


def test_monoid_generators():
    assert polytope.fundamental_monoid_generators(root_datum.fixture("sl2")) == ((1,),)
    assert polytope.fundamental_monoid_generators(root_datum.fixture("pgl2")) == ((1,),)
    assert polytope.fundamental_monoid_generators(root_datum.fixture("sl3")) == (
        (1, 0),
        (0, 1),
    )
    assert polytope.fundamental_monoid_generators(RootDatum(0, (), ())) == ()
    with pytest.raises(ValueError):
        polytope.fundamental_monoid_generators(root_datum.fixture("gl2"))


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
    assert polytope.fundamental_monoid_generators(d) == _reference_monoid_generators(d)


def test_monoid_generators_generate():
    d = root_datum.fixture("sp4")
    gens = polytope.fundamental_monoid_generators(d)
    assert gens == ((1, 0), (1, 1))
    for v in [(2, 1), (1, 1), (3, 3)]:
        sol = linalg.solve(linalg.transpose(gens), v)
        assert sol is not None
        assert all(x.denominator == 1 and x >= 0 for x in sol)


def test_no_module_level_dict_caches():
    # a module-level dict or functools cache would be a memo shared by every datum
    caches = [
        f"{info.name}.{name}"
        for info in pkgutil.iter_modules(semiroot.__path__)
        for name, value in vars(importlib.import_module(f"semiroot.{info.name}")).items()
        if not name.startswith("__") and (isinstance(value, dict) or hasattr(value, "cache_info"))
    ]
    assert caches == []


def test_memos_live_on_the_datum():
    sl3 = root_datum.fixture("sl3")
    renamed = root_datum.RootDatum(sl3.rank, sl3.simple_roots, sl3.simple_coroots, "recovered")
    mults = char_engine.dominant_weight_multiplicities(sl3, (3, 2))
    assert sl3.dominant_mults[(3, 2)] is mults
    assert char_engine.dominant_weight_multiplicities(sl3, (3, 2)) is mults
    # an equal copy builds its own memo, with the same values
    again = char_engine.dominant_weight_multiplicities(renamed, (3, 2))
    assert again == mults and again is not mults
    assert renamed.dominant_mults[(3, 2)] is again
    # the chamber walks fill on the datum too, and the copy walks its own
    dec = char_engine.tensor_decompose(sl3, (3, 2), (2, 2))
    walks = sl3.chamber_walks
    assert walks and renamed.chamber_walks == {}
    assert char_engine.tensor_decompose(renamed, (3, 2), (2, 2)) == dec
    assert renamed.chamber_walks == walks and renamed.chamber_walks is not walks


def _reference_decompose(d, lam, mu):
    """tensor_decompose with every weight walked afresh, step by step, and no memo."""
    lam, mu = tuple(lam), tuple(mu)
    if char_engine.dimension(d, mu) > char_engine.dimension(d, lam):
        lam, mu = mu, lam
    columns, roots = d.columns, d.simple_roots
    n = d.semisimple_rank
    shifted = tuple(x + 1 for x in d.pairing(lam))
    acc = {}
    for delta, m in char_engine.dominant_weight_multiplicities(d, mu).items():
        for w, pw in zip(*d.paired_orbit(delta)):
            y = tuple(a + b for a, b in zip(lam, w))
            q = tuple(a + b for a, b in zip(shifted, pw))
            sign, i = m, 0
            while i < n:
                c = q[i]
                if c > 0:
                    i += 1
                    continue
                if c == 0:
                    break  # on a wall
                y = tuple(x - c * a for x, a in zip(y, roots[i]))
                q = tuple(x - c * a for x, a in zip(q, columns[i]))
                sign, i = -sign, 0
            else:
                acc[y] = acc.get(y, 0) + sign
    return {k: v for k, v in acc.items() if v != 0}


# the fixtures, and rank 3 with roots of one length and of two
WALK_CASES = {
    **{name: (root_datum.fixture, name) for name in root_datum.fixture_names()},
    "sl4": (_cartan_columns, A3),
    "sp6": (_cartan_columns, C3),
    "spin7": (_cartan_columns, B3),
}


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("name", list(WALK_CASES))
def test_memoized_walks_match_fresh_walks(name, warm):
    make, arg = WALK_CASES[name]
    d = make(arg)  # a fresh datum, with empty memos
    pairs = list(itertools.product(oracle.window_box(d, 3), repeat=2))
    if d.rank > 2:
        # every ordered pair of pairings <= 3 would take seconds; a seeded sample
        pairs = random.Random(name).sample(pairs, 300)
    if warm:
        # an unrelated stream of queries fills the memo first
        others = oracle.window_box(d, 4)
        rng = random.Random(f"{name}/warm")
        for _ in range(40):
            char_engine.tensor_decompose(d, rng.choice(others), rng.choice(others))
        assert d.chamber_walks or d.semisimple_rank < 2
    for lam, mu in pairs:
        got = char_engine.tensor_decompose(d, lam, mu)
        want = _reference_decompose(d, lam, mu)
        assert list(got.items()) == list(want.items()), (lam, mu)  # values and key order
    # the memo holds only the walks that reflect: every key has a first
    # non-positive entry, and it is negative
    for q, walk in d.chamber_walks.items():
        first = next(c for c in q if c <= 0)
        assert first < 0, q
        assert len(walk) == d.rank + 1 and walk[-1] in (-1, 0, 1), (q, walk)


# the tensor-queries benchmark's data at its pairing ceiling, a datum with a
# torus factor, and a datum of rank 0 (no simple coroots, so no least pairing)
QUERY_RANGE_CASES = {
    **{name: (root_datum.fixture, name, 10, 100) for name in ("sl3", "sp4", "so5", "g2", "pgl3")},
    "sl2xT2": (lambda n: RootDatum(3, ((2, 0, 0),), ((1, 0, 0),), n), "sl2xT2", 3, 100),
    "rank0": (lambda n: RootDatum(0, (), (), n), "rank0", 3, 1),
}


@pytest.mark.parametrize("name", list(QUERY_RANGE_CASES))
def test_decompositions_match_fresh_walks_at_the_query_range(name):
    """Terms that clear lam's walls by their least pairing, and the rest, as walked step by step."""
    make, arg, bound, count = QUERY_RANGE_CASES[name]
    d = make(arg)  # a fresh datum, with empty memos
    weights = oracle.window_box(d, bound)
    rng = random.Random(f"{name}/query range")
    for _ in range(count):
        lam, mu = rng.choice(weights), rng.choice(weights)
        for left, right in ((lam, mu), (mu, lam)):
            got = char_engine.tensor_decompose(d, left, right)
            want = _reference_decompose(d, left, right)
            assert list(got.items()) == list(want.items()), (left, right)  # values and key order


def test_orbit_records_carry_each_point_with_its_least_pairing():
    for d in [root_datum.fixture("g2"), root_datum.fixture("sl2xpgl2"), RootDatum(0, (), ())]:
        for x in oracle.window_box(d, 2):
            orbit, pairs = d.paired_orbit(x)
            records = d.orbit_records(x)
            assert [(w, p) for w, p, _ in records] == list(zip(orbit, pairs))
            assert [least for _, p, least in records] == [min(p, default=0) for p in pairs]
            assert d.orbits[x] == (orbit, pairs, records)


# each planted fault breaks one of the char engine's exactness checks: a
# negative multiplicity reaches tensor_decompose's positivity check, a wrong
# Weyl denominator Weyl's quotient, and a wrong 2 rho Freudenthal's quotient
PLANTED_FAULTS = {
    "tensor multiplicity": (
        "d.dominant_mults[(1,)] = {(1,): -1}",
        "char_engine.tensor_decompose(d, (1,), (1,))",
        ((1,), (1,), {(2,): -1, (0,): -1}),
    ),
    "weyl quotient": (
        "d.__dict__['weyl_denominator'] = 3",
        "char_engine.dimension(d, (1,))",
        ((1,), 4, 3),
    ),
    "freudenthal quotient": (
        "d.__dict__['rho2_pairings'] = (4,)",
        "char_engine.dominant_weight_multiplicities(d, (2,))",
        ((2,), (0,), 32, 48),
    ),
}


@pytest.mark.parametrize("fault", list(PLANTED_FAULTS))
def test_exactness_checks_raise_under_python_O(fault):
    plant, call, payload = PLANTED_FAULTS[fault]
    code = "\n".join(
        [
            "from semiroot import char_engine, root_datum",
            "assert False, 'asserts are on'",  # -O strips this line
            "d = root_datum.fixture('sl2')",
            plant,
            "try:",
            f"    {call}",
            "except ArithmeticError as e:",
            "    print(repr(e.args[0]))",
        ]
    )
    src = str(Path(char_engine.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == repr(payload) + "\n"


# Weyl's numerator identity, chi_lam * prod_{b > 0} (1 - e^-b) = sum_w sgn(w) e^(w.lam),
# evaluated at seeded points of the torus (F_p^x)^rank
P = 10**9 + 7
NUMERATOR_CASES = {
    **{name: (root_datum.fixture(name), 3) for name in root_datum.fixture_names()},
    "sl4": (_cartan_columns(A3), 1),
    "sp6": (_cartan_columns(C3), 1),
    "spin7": (_cartan_columns(B3), 1),
    "sl5": (_cartan_columns([[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]), 1),
    "spin8": (_cartan_columns([[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]), 1),
}


def _at(t, mu):
    """The character e^mu at the point t of (F_p^x)^rank."""
    return math.prod(pow(x, e, P) for x, e in zip(t, mu)) % P


def _dot_orbit(d, lam):
    """Each weight w.lam of the dot orbit with sgn(w), by s_i.mu = mu - (<mu, coroot_i> + 1) root_i.

    For lam dominant the orbit has |W| points, and the sign flips with each step.
    """
    signs = {lam: 1}
    frontier = [lam]
    while frontier:
        nxt = []
        for mu in frontier:
            for a, av in zip(d.simple_roots, d.simple_coroots):
                c = linalg.dot(mu, av) + 1
                nu = tuple(x - c * y for x, y in zip(mu, a))
                if nu not in signs:
                    signs[nu] = -signs[mu]
                    nxt.append(nu)
        frontier = nxt
    return signs


def _numerator_identity_holds(d, lam, character, t):
    left = sum(m * _at(t, mu) for mu, m in character.items())
    for b, _ in d.positive_roots:
        left = left * (1 - _at(t, tuple(-x for x in b))) % P
    right = sum(s * _at(t, mu) for mu, s in _dot_orbit(d, lam).items())
    return (left - right) % P == 0


def _torus_points(d):
    rng = random.Random(f"numerator/{d.simple_roots}")
    return [tuple(rng.randrange(2, P) for _ in range(d.rank)) for _ in range(3)]


@pytest.mark.parametrize("name", list(NUMERATOR_CASES))
def test_weyl_numerator_identity_on_the_window(name):
    d, bound = NUMERATOR_CASES[name]
    points = _torus_points(d)
    for lam in oracle.window_weights(d, bound):
        assert len(_dot_orbit(d, lam)) == d.weyl_order, lam
        character = char_engine.irreducible_character(d, lam)
        for t in points:
            assert _numerator_identity_holds(d, lam, character, t), (lam, t)


def test_weyl_numerator_identity_catches_a_raised_multiplicity():
    d = root_datum.fixture("sl3")
    character = dict(char_engine.irreducible_character(d, (1, 1)))
    character[(0, 0)] += 1
    assert not any(_numerator_identity_holds(d, (1, 1), character, t) for t in _torus_points(d))


# every in-window cell of a window table, read back through Freudenthal characters:
# sum_nu c_nu chi_nu(t) = chi_x(t) chi_y(t) at the seeded points, mod P; the cells
# are read from the table, so the shifted cells of a PRV shape are checked too
CELL_CASES = {
    **{name: (root_datum.fixture(name), 2) for name in root_datum.fixture_names()},
    **{name: (NUMERATOR_CASES[name][0], 1) for name in ("sp6", "spin7", "sl5", "spin8")},
}


def _cells_are_character_products(d, table, points):
    values = {
        lam: [
            sum(m * _at(t, mu) for mu, m in char_engine.irreducible_character(d, lam).items()) % P
            for t in points
        ]
        for lam in table.labels
    }
    for (x, y), val in table.products.items():
        if val is None:
            continue
        for i in range(len(points)):
            left = sum(m * values[nu][i] for nu, m in val.items())
            if (left - values[x][i] * values[y][i]) % P:
                return False
    return True


@pytest.mark.parametrize("name", list(CELL_CASES))
def test_window_cells_are_character_products(name):
    d, bound = CELL_CASES[name]
    table = oracle.window_table(d, oracle.window_weights(d, bound))
    assert _cells_are_character_products(d, table, _torus_points(d))


def test_window_cell_check_catches_a_raised_shifted_multiplicity(monkeypatch):
    decomposed = set()
    decompose = char_engine.tensor_decompose

    def recorded(d, lam, mu):
        decomposed.add(frozenset((lam, mu)))
        return decompose(d, lam, mu)

    monkeypatch.setattr(char_engine, "tensor_decompose", recorded)
    d = root_datum.fixture("sl3")
    table = oracle.window_table(d, oracle.window_weights(d, 3))
    # a cell of several components that was shifted from the first cell of its shape
    key = next(
        key
        for key, val in table.products.items()
        if val is not None and len(val) > 1 and frozenset(key) not in decomposed
    )
    products = dict(table.products)
    cell = dict(products[key])
    cell[next(iter(cell))] += 1
    products[key] = cell
    raised = oracle.OracleTable(table.labels, table.unit, table.dual, products)
    points = _torus_points(d)
    assert _cells_are_character_products(d, table, points)
    assert not _cells_are_character_products(d, raised, points)
