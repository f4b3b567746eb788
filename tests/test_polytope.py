import math
from fractions import Fraction
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semiroot import char_engine, polytope, root_datum
from semiroot.linalg import dot, vec_sub
from semiroot.root_datum import RootDatum

SL4 = RootDatum(
    3, ((2, -1, 0), (-1, 2, -1), (0, -1, 2)), ((1, 0, 0), (0, 1, 0), (0, 0, 1)), name="sl4"
)
GL2xT1 = RootDatum(3, ((1, -1, 0),), ((1, -1, 0),), name="gl2xT1")
HULL_DATA = [root_datum.fixture(n) for n in root_datum.fixture_names()] + [SL4, GL2xT1]
# simply connected, simple roots as the columns of the Cartan matrix
INLINE = {
    "sl4": SL4,
    "b3": RootDatum(3, ((2, -1, 0), (-1, 2, -2), (0, -1, 2)), SL4.simple_coroots, name="b3"),
    "c3": RootDatum(3, ((2, -1, 0), (-1, 2, -1), (0, -2, 2)), SL4.simple_coroots, name="c3"),
}


def _datum(name):
    return INLINE.get(name) or root_datum.fixture(name)


def _fm_feasible(constraints, nvars):
    """Whether some rational x meets every a.x <= b, by Fourier-Motzkin.

    The reference for `positive_functional`: each variable is eliminated by
    adding positive multiples of every lower and upper bound on it.
    """
    for k in reversed(range(nvars)):
        lows = [(a, b) for a, b in constraints if a[k] < 0]
        ups = [(a, b) for a, b in constraints if a[k] > 0]
        constraints = [(a, b) for a, b in constraints if a[k] == 0]
        for (la, lb), (ua, ub) in iter_product(lows, ups):
            s, t = ua[k], -la[k]
            constraints.append(
                (tuple(s * x + t * y for x, y in zip(la, ua)), s * lb + t * ub)
            )
    return all(b >= 0 for _, b in constraints)


def _dominance_leq_rational(d, mu, lam):
    """Whether lam - mu is a nonnegative rational combination of the simple roots.

    The Kostant reference for the hull inequalities: a point x lies in the
    hull of the orbit of a dominant lam exactly when this holds for dom(x).
    """
    scaled = d.root_numerators(vec_sub(lam, mu))
    return scaled is not None and all(c >= 0 for c in scaled)


def test_fm_reference():
    assert _fm_feasible([((1, 0), 2), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 1)], 2)
    assert not _fm_feasible([((1,), 0), ((-1,), -1)], 1)
    assert not _fm_feasible([((1, 1), 3), ((-1, -1), -4)], 2)


def test_positive_functional():
    phi = polytope.positive_functional([(2, -1), (-1, 2)])
    assert phi is not None
    for v in [(2, -1), (-1, 2)]:
        assert dot(phi, v) >= 1


@given(
    vectors=st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=8
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_positive_functional_matches_fourier_motzkin(vectors):
    phi = polytope.positive_functional(vectors)
    exists = _fm_feasible([(tuple(-x for x in v), -1) for v in vectors], len(vectors[0]))
    assert (phi is not None) == exists
    if phi is not None:
        assert all(dot(phi, v) >= 1 for v in vectors)


def reference_positive_functional(vectors):
    """Phase I as the library ran it before its integer basis inverse: the
    same rays, Bland pivots and scaling, with the inverse kept in Fractions."""
    rays = set()
    for v in vectors:
        g = math.gcd(*v)
        if g == 0:
            return None
        rays.add(tuple(x // g for x in v))
    if not rays:
        return None
    cols = [(*p, 1) for p in sorted(rays)]
    k, n = len(cols), len(cols[0]) - 1
    binv = [[Fraction(int(i == j)) for j in range(n + 1)] for i in range(n + 1)]
    basis = list(range(k, k + n + 1))
    while True:
        pi = [sum(r[m] for r, b in zip(binv, basis) if b >= k) for m in range(n + 1)]
        scale = math.lcm(*(x.denominator for x in pi))
        pi = [int(x * scale) for x in pi]
        if pi[n] == 0:
            return None
        j = next((j for j, c in enumerate(cols) if dot(pi, c) > 0), None)
        if j is None:
            return tuple(-x for x in pi[:n])
        u = [dot(r, cols[j]) for r in binv]
        i = min(
            (i for i in range(n + 1) if u[i] > 0),
            key=lambda i: (binv[i][n] / u[i], basis[i]),
        )
        binv[i] = [x / u[i] for x in binv[i]]
        for r in range(n + 1):
            if r != i and u[r] != 0:
                binv[r] = [x - u[r] * y for x, y in zip(binv[r], binv[i])]
        basis[i] = j


@st.composite
def vector_sets(draw):
    """Up to 8 small vectors of length 1 to 4, sometimes with a zero vector,
    sometimes with a negated member so that 0 lies in their hull."""
    n = draw(st.integers(1, 4))
    vecs = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=8))
    if vecs and draw(st.booleans()):
        vecs.append(tuple(-x for x in draw(st.sampled_from(vecs))))
    if draw(st.integers(0, 4)) == 0:
        vecs.insert(draw(st.integers(0, len(vecs))), (0,) * n)
    return vecs


@given(vector_sets())
@settings(max_examples=300, deadline=None)
def test_positive_functional_matches_rational_phase_one(vectors):
    assert polytope.positive_functional(vectors) == reference_positive_functional(vectors)


def test_positive_functional_rank4_f4_cone():
    # columns of the F4 Cartan matrix; Fourier-Motzkin took 22 s on this cone
    cartan = ((2, -1, 0, 0), (-1, 2, -2, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    alphas = list(zip(*cartan))
    cone = [
        tuple(sum(c * a[i] for c, a in zip(cs, alphas)) for i in range(4))
        for cs in iter_product(range(3), repeat=4)
        if any(cs)
    ]
    assert len(set(cone)) == 80
    phi = polytope.positive_functional(cone)
    assert phi is not None
    assert all(dot(phi, v) >= 1 for v in cone)
    assert polytope.positive_functional(cone + [tuple(-x for x in alphas[0])]) is None


def test_positive_functional_fails_on_opposites():
    assert polytope.positive_functional([(1,), (-1,)]) is None
    assert polytope.positive_functional([(0, 0)]) is None


def _pairwise_minimal(vectors):
    """The reference for `indecomposables`: every vector against every other.

    A vector is dropped when it exceeds another one by a nonzero nonnegative
    integer combination of the vectors, found by a search over all of them.
    """
    vecs = sorted(set(vectors), reverse=True)
    phi = polytope.positive_functional(vecs)
    if phi is None:
        return None
    weight = {c: dot(phi, c) for c in vecs}
    memo = {}

    def reachable(v):
        got = memo.get(v)
        if got is not None:
            return got
        memo[v] = False
        fv = dot(phi, v)
        for c in vecs:
            if weight[c] > fv:
                continue
            rest = vec_sub(v, c)
            if all(x == 0 for x in rest) or reachable(rest):
                memo[v] = True
                return True
        return False

    return tuple(
        c for c in vecs if not any(o != c and reachable(vec_sub(c, o)) for o in vecs)
    )


@given(
    vectors=st.integers(1, 3).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=10
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_indecomposables_match_pairwise_reference(vectors):
    got = polytope.indecomposables(vectors)
    assert (got is None) == (polytope.positive_functional(vectors) is None)
    assert got == _pairwise_minimal(vectors)


def test_indecomposables_exact_cases():
    assert polytope.indecomposables([(1, 0), (2, 0)]) == ((1, 0),)
    assert polytope.indecomposables([(2, 0), (3, 0)]) == ((3, 0), (2, 0))
    assert polytope.indecomposables([(2, 0), (3, 0), (5, 0), (6, 0)]) == ((3, 0), (2, 0))
    assert polytope.indecomposables([(1,), (-1,)]) is None
    assert polytope.indecomposables([]) is None


def test_indecomposables_call_positive_functional_through_the_module(monkeypatch):
    # a wrapper put on the module attribute sees the call, as timing wrappers do
    calls = []
    original = polytope.positive_functional
    monkeypatch.setattr(
        polytope, "positive_functional", lambda vs: calls.append(vs) or original(vs)
    )
    assert polytope.indecomposables([(1, 1), (1, 2)]) == ((1, 2), (1, 1))
    assert len(calls) == 1


def test_hull_contains_orbit_sl2():
    sl2 = root_datum.fixture("sl2")
    assert polytope.orbit_hull(sl2, (3,)).contains((1,))
    assert not polytope.orbit_hull(sl2, (3,)).contains((4,))
    assert polytope.orbit_hull(sl2, (3,)).contains((3,))


def test_hull_contains_orbit_sl3():
    sl3 = root_datum.fixture("sl3")
    assert polytope.orbit_hull(sl3, (1, 1)).contains((0, 0))
    assert not polytope.orbit_hull(sl3, (1, 0)).contains((1, 1))
    # (1,0) - (0,1) has coefficients 1/3, -1/3 over the simple roots
    assert not _dominance_leq_rational(sl3, (0, 1), (1, 0))


def test_orbit_hull_membership():
    sp4 = root_datum.fixture("sp4")
    hull = polytope.orbit_hull(sp4, (2, 1))
    for v in root_datum.orbit(sp4, (2, 1)):
        assert hull.contains(v)
    assert hull.contains((0, 0))
    assert not hull.contains((3, 0))


def test_orbit_hull_sl4_adjoint_contains_origin():
    assert polytope.orbit_hull(SL4, (1, 0, 1)).contains((0, 0, 0))


@pytest.mark.parametrize("d", HULL_DATA, ids=lambda d: d.name)
@given(lam=st.lists(st.integers(-2, 2), min_size=3, max_size=3))
@settings(max_examples=25, deadline=None)
def test_orbit_hull_inequalities_are_kostant(d, lam):
    lam = root_datum.dominant_representative(d, tuple(lam[: d.rank]))
    hull = polytope.orbit_hull(d, lam)
    for a, b in hull.inequalities:
        assert all(dot(a, v) <= b for v in hull.vertices)
        assert any(dot(a, v) == b for v in hull.vertices)
    box = range(-2, 3) if d.rank < 3 else range(-1, 2)
    for z in iter_product(box, repeat=d.rank):
        dom = root_datum.dominant_representative(d, z)
        assert hull.contains(z) == _dominance_leq_rational(d, dom, lam)


def test_criteria_true_pair():
    sl2 = root_datum.fixture("sl2")
    crit = polytope.order_criteria_agree(sl2, (1,), (3,))
    assert tuple(crit) == (True, True, True)


def test_criteria_incomparable_pair():
    sl3 = root_datum.fixture("sl3")
    crit = polytope.order_criteria_agree(sl3, (1, 0), (0, 1))
    assert tuple(crit) == (False, False, False)


def test_criteria_equal_pair():
    g2 = root_datum.fixture("g2")
    crit = polytope.order_criteria_agree(g2, (1, 1), (1, 1))
    assert tuple(crit) == (True, True, True)


def test_criteria_shallow_containment_refuted():
    # 5 > 3 in the order, so V(5 + nu) is no factor of V(3) x V(nu)
    sl2 = root_datum.fixture("sl2")
    crit = polytope.order_criteria_agree(sl2, (5,), (3,))
    assert tuple(crit) == (False, False, False)


def test_tensor_face_needs_the_stable_range():
    # 0 <= 6, read off V(6) x V(nu) at nu = 3 * 2rho = (6,); at nu = 2rho
    # the Brauer-Klimyk term of weight -6 reflects and cancels V(0 + 2)
    sl2 = root_datum.fixture("sl2")
    assert tuple(polytope.order_criteria_agree(sl2, (0,), (6,))) == (True, True, True)
    assert (2,) not in char_engine.tensor_decompose(sl2, (6,), sl2.rho2)


def test_tensor_radius():
    sl2 = root_datum.fixture("sl2")
    assert polytope.tensor_radius_sq(sl2, (3,)) == 144


def same_root_coset(d, mu, lam):
    from semiroot import linalg

    diff = linalg.vec_sub(lam, mu)
    if not d.simple_roots:
        return all(c == 0 for c in diff)
    sol = linalg.solve(linalg.transpose(d.simple_roots), diff)
    return sol is not None and all(c.denominator == 1 for c in sol)


@pytest.mark.parametrize(
    "name,coord_max",
    [("sl2", 4), ("sl3", 2), ("sp4", 2), ("gl2", 2), ("sl2xpgl2", 2), ("torus2", 1),
     ("sl4", 1), ("b3", 2), ("c3", 2)],
)
def test_criteria_match_dominance(name, coord_max):
    d = _datum(name)
    box = range(-coord_max, coord_max + 1)
    dominant = [
        v for v in iter_product(box, repeat=d.rank) if root_datum.is_dominant(d, v)
    ]
    for mu in dominant:
        for lam in dominant:
            if not same_root_coset(d, mu, lam):
                continue
            crit = polytope.order_criteria_agree(d, mu, lam)
            truth = root_datum.dominance_leq(d, mu, lam)
            assert crit.dominance == truth
            assert crit.hull == truth
            assert crit.tensor == truth


def test_cover_interval():
    rep = polytope.quantized_cover_check(root_datum.fixture("sl2"), (1,), 5)
    assert rep.ok
    assert rep.radius_sq == 16
    assert rep.points_checked == 11


def test_cover_singleton():
    rep = polytope.quantized_cover_check(root_datum.fixture("torus2"), (0, 0), 4)
    assert rep.ok
    assert rep.radius_sq == 0


def test_cover_sl3_adjoint_orbit():
    sl3 = root_datum.fixture("sl3")
    rep = polytope.quantized_cover_check(sl3, (1, 1), 3)
    assert rep.ok
    assert rep.points_checked == 91


@pytest.mark.parametrize(
    "gen,counts", [((1, 0, 0), (5, 15)), ((0, 1, 0), (7, 33)), ((0, 0, 1), (5, 15))]
)
def test_cover_sl4_fundamental_orbits(gen, counts):
    reps = [polytope.quantized_cover_check(SL4, gen, n) for n in (1, 2)]
    assert all(rep.ok for rep in reps)
    assert tuple(rep.points_checked for rep in reps) == counts


def test_cover_budget_skip():
    # the box of 100000 * Conv{(-1,), (1,)} has 200,001 points, one past the
    # budget, so the check skips before it builds any sum of orbit points
    sl2 = root_datum.fixture("sl2")
    rep = polytope.quantized_cover_check(sl2, (1,), 100_000)
    assert polytope.COVER_POINT_BUDGET == 200_000
    assert rep.verdict == "skipped"
    assert rep.points_checked == 0
    assert not rep.ok
