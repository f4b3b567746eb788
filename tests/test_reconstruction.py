import collections
import itertools
import random

import pytest

from semiroot import char_engine, linalg, oracle, polytope, reconstruction, root_datum
from semiroot.linalg import dot
from semiroot.reconstruction import StageFailure


def invert(provenance):
    return {v: k for k, v in provenance.items()}


def test_addition_cartan_rule(sl2_oracle):
    _, t, prov = sl2_oracle
    inv = invert(prov)
    monoid = reconstruction.recover_addition(t)
    assert monoid.add[oracle.OracleTable.pair_key(inv[(1,)], inv[(1,)])] == inv[(2,)]
    for x in t.labels:
        assert monoid.add[oracle.OracleTable.pair_key(x, t.unit)] == x


def assert_cells_are_cartan_components(monoid, prov):
    for (x, y), z in monoid.add.items():
        expect = tuple(a + b for a, b in zip(prov[x], prov[y]))
        assert prov[z] == expect


def test_addition_matches_weights(sl3_oracle):
    d, t, prov = sl3_oracle
    monoid = reconstruction.recover_addition(t)
    inv = invert(prov)
    assert monoid.add[oracle.OracleTable.pair_key(inv[(1, 0)], inv[(0, 1)])] == inv[(1, 1)]
    assert_cells_are_cartan_components(monoid, prov)


def standard_coroots(roots):
    """Simply connected data: simple roots as rows, the standard basis as coroots."""
    n = len(roots)
    return root_datum.RootDatum(n, roots, tuple(map(tuple, linalg.identity(n))))


WIDE_DATA = {
    "sl5": standard_coroots(
        ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -1, 2))
    ),
    "spin8": standard_coroots(
        ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))
    ),
    "sl4": standard_coroots(((2, -1, 0), (-1, 2, -1), (0, -1, 2))),
    "sp6": standard_coroots(((2, -1, 0), (-1, 2, -1), (0, -2, 2))),
    "spin7": standard_coroots(((2, -1, 0), (-1, 2, -2), (0, -1, 2))),
    "spin9": standard_coroots(
        ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -2), (0, 0, -1, 2))
    ),
    "sp8": standard_coroots(
        ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -1, 2, -1), (0, 0, -2, 2))
    ),
}
# undefined cells at both label seeds, as recorded when an order search still
# broke ties among the candidates
UNDEFINED_CELLS = {
    ("sl4", 2): 57,
    ("sp6", 2): 98,
    ("spin7", 2): 94,
    ("spin9", 1): 34,
    ("sp8", 1): 39,
    ("g2", 4): 81,
}


@pytest.mark.parametrize("seed", [7, 1])
@pytest.mark.parametrize(
    "name,bound",
    [(name, bound) for name in root_datum.fixture_names() for bound in (2, 3, 4)]
    + [("sl4", 2), ("sp6", 2), ("spin7", 2), ("spin9", 1), ("sp8", 1)],
)
def test_addition_cells_are_cartan_components(name, bound, seed):
    d = WIDE_DATA[name] if name in WIDE_DATA else root_datum.fixture(name)
    t, prov = oracle.materialize_oracle(d, bound, seed=seed)
    monoid = reconstruction.recover_addition(t)
    assert_cells_are_cartan_components(monoid, prov)
    if (name, bound) in UNDEFINED_CELLS:
        assert len(monoid.undefined) == UNDEFINED_CELLS[name, bound]


def test_addition_leaves_ambiguity_undefined():
    d = root_datum.fixture("sl3")
    t, _ = oracle.materialize_oracle(d, 4, seed=2)
    monoid = reconstruction.recover_addition(t)
    for cell in monoid.undefined:
        assert oracle.OracleTable.pair_key(*cell) not in monoid.add


def test_lattice_completion(sl2_oracle):
    _, t, prov = sl2_oracle
    monoid = reconstruction.recover_addition(t)
    rank, embedding = reconstruction.recover_lattice(monoid)
    assert rank == 1
    assert embedding[t.unit] == (0,)
    assert len(embedding) == len(t.labels)
    for (x, y), z in monoid.add.items():
        left = tuple(a + b for a, b in zip(embedding[x], embedding[y]))
        assert left == embedding[z]


@pytest.mark.parametrize("seed", [7, 1])
@pytest.mark.parametrize(
    "name,bound", [(name, bound) for name in root_datum.fixture_names() for bound in (2, 3, 4)]
)
def test_lattice_completion_keeps_every_identity(name, bound, seed):
    # recover_lattice does not re-check its output: elimination by unit pivots
    # and the zero rows of the Smith form satisfy every relation by construction
    t, _ = oracle.materialize_oracle(root_datum.fixture(name), bound, seed=seed)
    monoid = reconstruction.recover_addition(t)
    rank, embedding = reconstruction.recover_lattice(monoid)
    checked = 0
    for (x, y), z in monoid.add.items():
        if x in embedding and y in embedding and z in embedding:
            left = tuple(a + b for a, b in zip(embedding[x], embedding[y]))
            assert left == embedding[z], (x, y, z)
            checked += 1
    assert checked and all(len(v) == rank for v in embedding.values())


def test_lattice_rank_torus():
    d = root_datum.fixture("torus2")
    t, _ = oracle.materialize_oracle(d, 1, seed=4)
    monoid = reconstruction.recover_addition(t)
    rank, embedding = reconstruction.recover_lattice(monoid)
    assert rank == 2
    assert len(embedding) == 9


def test_lattice_rank_gl2():
    d = root_datum.fixture("gl2")
    t, _ = oracle.materialize_oracle(d, 2, seed=4)
    monoid = reconstruction.recover_addition(t)
    rank, embedding = reconstruction.recover_lattice(monoid)
    assert rank == 2


def test_lattice_torsion_fails():
    # e + e = e and a + a = e: eliminating e = 2a leaves the relation 2a,
    # which has no unit coefficient and reaches the residual Smith form
    monoid = reconstruction.RecoveredMonoid(
        add={("a", "a"): "e", ("e", "e"): "e"}, undefined=()
    )
    with pytest.raises(StageFailure) as e:
        reconstruction.recover_lattice(monoid)
    assert (e.value.stage, e.value.reason) == (
        "lattice", "torsion in the group completion: inconsistent oracle"
    )


def test_lattice_g2_bound4_entries_stay_small():
    # this relabeling made the dense Smith normal form of all 159 relations
    # grow its entries without limit
    t, _ = oracle.materialize_oracle(root_datum.fixture("g2"), 4, seed=3)
    monoid = reconstruction.recover_addition(t)
    assert len(monoid.add) == 159
    rank, embedding = reconstruction.recover_lattice(monoid)
    assert rank == 2
    assert embedding[t.unit] == (0, 0)
    for (x, y), z in monoid.add.items():
        if {x, y, z} <= embedding.keys():  # a label only in x + 0 = x is not embedded
            assert tuple(a + b for a, b in zip(embedding[x], embedding[y])) == embedding[z]
    assert max(abs(c) for v in embedding.values() for c in v).bit_length() <= 16


def test_simple_roots_sl2(sl2_oracle):
    _, t, prov = sl2_oracle
    monoid = reconstruction.recover_addition(t)
    _, embedding = reconstruction.recover_lattice(monoid)
    roots = reconstruction.recover_simple_roots(t, embedding)
    assert len(roots) == 1
    # the double of the generator weight, up to the completion's sign choice
    assert abs(roots[0][0]) == 2


@pytest.mark.parametrize("name,bound,count", [("sl3", 2, 2), ("sp4", 2, 2)])
def test_simple_roots_count_and_independence(name, bound, count):
    from semiroot import linalg

    d = root_datum.fixture(name)
    t, _ = oracle.materialize_oracle(d, bound, seed=3)
    monoid = reconstruction.recover_addition(t)
    _, embedding = reconstruction.recover_lattice(monoid)
    roots = reconstruction.recover_simple_roots(t, embedding)
    assert len(roots) == count
    assert linalg.rank(roots) == count


def test_simple_roots_reject_opposite_candidates():
    # the squares of a and b give the candidates (1, 0) and (-1, 0); no
    # functional is positive on both, so the roots stage itself must fail
    t = oracle.OracleTable(
        labels=("a", "b", "e"),
        unit="e",
        dual={"a": "b", "b": "a", "e": "e"},
        products={
            ("e", "e"): {"e": 1},
            ("a", "e"): {"a": 1},
            ("b", "e"): {"b": 1},
            ("a", "a"): {"a": 1},
            ("b", "b"): {"b": 1},
            ("a", "b"): None,
        },
    )
    embedding = {"e": (0, 0), "a": (1, 0), "b": (-1, 0)}
    with pytest.raises(StageFailure) as err:
        reconstruction.recover_simple_roots(t, embedding)
    assert err.value.stage == "roots"


def test_simple_roots_torus_empty():
    d = root_datum.fixture("torus1")
    t, _ = oracle.materialize_oracle(d, 2, seed=3)
    monoid = reconstruction.recover_addition(t)
    _, embedding = reconstruction.recover_lattice(monoid)
    assert reconstruction.recover_simple_roots(t, embedding) == ()


def test_coroots_pair_to_two(sl2_oracle):
    _, t, prov = sl2_oracle
    monoid = reconstruction.recover_addition(t)
    _, embedding = reconstruction.recover_lattice(monoid)
    roots = reconstruction.recover_simple_roots(t, embedding)
    coroots = reconstruction.recover_simple_coroots(t, embedding, roots)
    assert len(coroots) == 1
    assert sum(a * b for a, b in zip(coroots[0], roots[0])) == 2


@pytest.mark.parametrize(
    "name,bound",
    [("sl2", 3), ("pgl2", 4), ("sl3", 2), ("torus1", 2), ("gl2", 3), ("so5", 3)],
)
def test_round_trip(name, bound):
    d = root_datum.fixture(name)
    t, _ = oracle.materialize_oracle(d, bound, seed=7)
    report = reconstruction.recover_datum(t)
    assert report.certified, (report.stage, report.reason)
    assert root_datum.root_data_isomorphic(report.datum, d) is not None
    assert report.datum.weyl_order == root_datum.weyl_order(d)


def test_round_trip_report_fields(sl2_oracle):
    d, t, _ = sl2_oracle
    report = reconstruction.recover_datum(t)
    assert report.certified
    assert report.inferred_bound == 4
    assert report.lattice_rank == 1
    assert report.bijection is not None and len(report.bijection) == len(t.labels)
    root_datum.validate_root_datum(report.datum)


def test_reports_compare_by_value(sl2_oracle):
    _, t, _ = sl2_oracle
    report, again = reconstruction.recover_datum(t), reconstruction.recover_datum(t)
    assert again == report and again is not report
    assert again.monoid == report.monoid and again.monoid is not report.monoid
    assert reconstruction.RecoveredMonoid({}, report.monoid.undefined) != report.monoid
    again.inferred_bound += 1
    assert again != report


def test_round_trip_torus_basis_freedom():
    # no roots anchor the completion basis on torus2, so the completion is
    # only fixed up to GL(2, Z); the box coordinates must still turn the
    # image into the window that generated the table
    d = root_datum.fixture("torus2")
    t, _ = oracle.materialize_oracle(d, 2, seed=7)
    report = reconstruction.recover_datum(t)
    assert report.certified
    assert report.inferred_bound == 2
    assert root_datum.root_data_isomorphic(report.datum, d) is not None


TORUS2 = root_datum.fixture("torus2")
SL2_T2 = root_datum.RootDatum(3, ((2, 0, 0),), ((1, 0, 0),), "sl2xT2")
TORUS3 = root_datum.RootDatum(3, (), (), "torus3")


@pytest.mark.parametrize(
    "d,bound,seed",
    [(TORUS2, b, s) for b in (1, 2, 3) for s in (7, 1, 5)]
    + [(TORUS2, 4, s) for s in (1, 5)]
    + [(SL2_T2, 2, s) for s in (7, 1, 5)]
    + [(TORUS3, 2, s) for s in (7, 1)],
    ids=lambda v: getattr(v, "name", v),
)
def test_torus_part_certifies_at_its_bound(d, bound, seed):
    # with two or more torus-quotient coordinates the completion basis is
    # free up to GL(m, Z); certification must still find the generating window
    t, prov = oracle.materialize_oracle(d, bound, seed=seed)
    report = reconstruction.recover_datum(t)
    assert report.certified, (report.stage, report.reason)
    assert report.inferred_bound == bound
    assert sorted(report.bijection.values()) == sorted(
        oracle.window_weights(report.datum, bound)
    )
    assert root_datum.root_data_isomorphic(report.datum, d) is not None


def addition_reading_every_partner_set(t):
    """`recover_addition` as it ran when it built `t.partners` for every table
    and read each cell's candidates the same way, a lone factor included."""
    partners = t.partners
    add, undefined = {}, []
    for key in sorted(t.products):
        val = t.products[key]
        if val is None:
            continue
        if len(val) == 1:
            cands = [nu for nu, m in val.items() if m == 1]
        else:
            cands = [
                nu
                for nu, m in val.items()
                if m == 1 and all(partners[nu] <= partners[other] for other in val)
            ]
        if len(cands) == 1:
            add[key] = cands[0]
        else:
            undefined.append(key)
    return reconstruction.RecoveredMonoid(add=add, undefined=tuple(undefined))


@pytest.mark.parametrize(
    "name,bound,seed",
    [
        (name, bound, seed)
        for name in root_datum.fixture_names()
        for bound in (1, 2, 3, 4)
        for seed in (7, 1)
    ]
    + [("sl2xT2", 2, 7)],
)
def test_addition_matches_reading_every_partner_set(name, bound, seed):
    d = SL2_T2 if name == "sl2xT2" else root_datum.fixture(name)
    t, _ = oracle.materialize_oracle(d, bound, seed=seed)
    got = reconstruction.recover_addition(t)
    want = addition_reading_every_partner_set(oracle.OracleTable(t.labels, t.unit, t.dual, t.products))
    assert list(got.add.items()) == list(want.add.items())
    assert got.undefined == want.undefined


def test_addition_leaves_a_lone_multiple_factor_undefined():
    products = {
        ("a", "a"): {"b": 2},
        ("a", "b"): None,
        ("a", "u"): {"a": 1},
        ("b", "b"): None,
        ("b", "u"): {"b": 1},
        ("u", "u"): {"u": 1},
    }
    t = oracle.OracleTable(("a", "b", "u"), "u", {"a": "a", "b": "b", "u": "u"}, products)
    monoid = reconstruction.recover_addition(t)
    assert monoid.undefined == (("a", "a"),)
    assert monoid.add == {("a", "u"): "a", ("b", "u"): "b", ("u", "u"): "u"}


def test_addition_builds_the_partner_index_only_for_several_components():
    # every in-window cell of a torus window has one component
    t, _ = oracle.materialize_oracle(TORUS2, 4, seed=7)
    reconstruction.recover_addition(t)
    assert "partners" not in vars(t)
    t, _ = oracle.materialize_oracle(SL2_T2, 2, seed=7)
    reconstruction.recover_addition(t)
    assert "partners" in vars(t)


E3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
SP6 = root_datum.RootDatum(3, ((2, -1, 0), (-1, 2, -1), (0, -2, 2)), E3, "sp6")
SPIN7 = root_datum.RootDatum(3, ((2, -1, 0), (-1, 2, -2), (0, -1, 2)), E3, "spin7")


@pytest.mark.parametrize("seed", [7, 1])
def test_round_trip_sp6_rank3(seed):
    t, _ = oracle.materialize_oracle(SP6, 1, seed=seed)
    assert len(t.labels) == 12
    report = reconstruction.recover_datum(t)
    assert report.certified, (report.stage, report.reason)
    assert report.inferred_bound == 1
    assert len(report.simple_roots) == 3
    assert root_datum.root_data_isomorphic(report.datum, SP6) is not None


@pytest.mark.parametrize("seed", [7, 1])
def test_spin7_bound1_never_certifies_wrong_group(seed):
    # the window is too small to show spin7's roots: the completion has rank
    # 3 and five minimal root candidates, so the roots stage fails honestly
    t, _ = oracle.materialize_oracle(SPIN7, 1, seed=seed)
    report = reconstruction.recover_datum(t)
    assert not report.certified
    assert report.stage == "roots"
    assert report.reason == (
        "5 minimal root candidates in a lattice of rank 3 are linearly dependent"
    )


SL3_T2 = root_datum.RootDatum(
    4, ((2, -1, 0, 0), (-1, 2, 0, 0)), ((1, 0, 0, 0), (0, 1, 0, 0)), "sl3xT2"
)
PGL2_T1 = root_datum.RootDatum(2, ((1, 0),), ((2, 0),), "pgl2xT1")


@pytest.mark.parametrize(
    "d,bound,seed",
    [(d, b, s) for d, b in ((SL2_T2, 1), (SL3_T2, 1), (PGL2_T1, 2)) for s in (7, 1)],
    ids=lambda v: getattr(v, "name", v),
)
def test_self_dual_label_without_root_candidate_fails_at_roots(d, bound, seed):
    # no square in window shows a root, but a torus has no nonzero self-dual
    # character, so the roots stage, not certification, must fail
    t, _ = oracle.materialize_oracle(d, bound, seed=seed)
    report = reconstruction.recover_datum(t)
    assert not report.certified
    assert report.stage == "roots"
    label = report.reason.split()[1]
    assert label != t.unit and t.dual[label] == label
    assert report.reason == (
        f"label {label} is self-dual but not the unit, so the group has roots, "
        "yet no square in the window shows one"
    )


@pytest.mark.parametrize("seed,root", [(7, (0, 3, -1)), (1, (0, 2, -1))])
def test_coroot_not_pinned_down_fails_at_coroots(seed, root):
    # pgl3@3 completes to a lattice of rank 3; the dominance scans for this
    # root leave the coroot's equations without full rank
    t, _ = oracle.materialize_oracle(root_datum.fixture("pgl3"), 3, seed=seed)
    report = reconstruction.recover_datum(t)
    assert not report.certified
    assert report.stage == "coroots"
    assert report.reason == f"window too small to pin down the coroot for root {root}"


def _table(labels, products):
    """A table of self-dual labels, the first of them the unit."""
    return oracle.OracleTable(labels, labels[0], {x: x for x in labels}, products)


def test_coroot_with_a_fractional_solution_fails_at_coroots():
    # the one scan of u pins the coroot's pairing with (3,) to 2, so the form is 2/3
    t = _table(("u",), {("u", "u"): {"u": 1}})
    with pytest.raises(StageFailure) as err:
        reconstruction.recover_simple_coroots(t, {"u": (0,)}, ((3,),))
    assert (err.value.stage, err.value.reason) == ("coroots", "non-integral coroot for root (3,)")


def test_coroot_negative_on_a_label_fails_at_coroots():
    # only e's square is in window; its scan gives the form x -> x, which is -1 on a
    t = _table(("e", "a"), {("e", "e"): {"e": 1}, ("a", "e"): {"a": 1}, ("a", "a"): None})
    with pytest.raises(StageFailure) as err:
        reconstruction.recover_simple_coroots(t, {"e": (0,), "a": (-1,)}, ((2,),))
    assert (err.value.stage, err.value.reason) == (
        "coroots", "recovered form for root (2,) is negative on (-1,)"
    )


D4 = ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2))
SPIN8 = root_datum.RootDatum(4, D4, tuple(map(tuple, linalg.identity(4))), "spin8")


def test_roots_stage_rank4_spin8():
    t, _ = oracle.materialize_oracle(SPIN8, 2, seed=7)
    monoid = reconstruction.recover_addition(t)
    rank, embedding = reconstruction.recover_lattice(monoid)
    assert rank == 4
    roots = reconstruction.recover_simple_roots(t, embedding)
    assert len(roots) == 4
    coroots = reconstruction.recover_simple_coroots(t, embedding, roots)
    cartan = [[dot(a, c) for c in coroots] for a in roots]
    assert any(
        all(cartan[p[i]][p[j]] == D4[i][j] for i in range(4) for j in range(4))
        for p in itertools.permutations(range(4))
    )


@pytest.mark.parametrize(
    "name,bound,seed",
    [(name, 1, s) for name in ("sl5", "spin8", "sp8") for s in (7, 1)]
    + [("sl5", 2, 7), ("spin8", 2, 7), ("spin7", 2, 7), ("spin7", 2, 1)],
)
def test_round_trip_rank4(name, bound, seed):
    # sl5@2 and spin8@2 also drop inconsistent ceiling equations in the coroot scans
    d = WIDE_DATA[name]
    t, _ = oracle.materialize_oracle(d, bound, seed=seed)
    report = reconstruction.recover_datum(t)
    assert report.certified, (report.stage, report.reason)
    assert report.inferred_bound == bound
    assert root_datum.root_data_isomorphic(report.datum, d) is not None


@pytest.mark.parametrize("seed", [7, 1])
def test_spin9_bound1_never_certifies(seed):
    # the completion has rank 5 for this rank-4 datum, and the report fails
    # at a later stage (coroots, at both seeds) instead of certifying
    t, _ = oracle.materialize_oracle(WIDE_DATA["spin9"], 1, seed=seed)
    report = reconstruction.recover_datum(t)
    assert not report.certified


def test_hexagon_of_torus_weights_fails_certification():
    # the 19 points with |x|, |y|, |x + y| <= 2 are a window of no datum at
    # any bound, though they form a valid table of torus2 weights
    hexagon = [
        (x, y)
        for x in range(-2, 3)
        for y in range(-2, 3)
        if abs(x + y) <= 2
    ]
    label = {w: f"w{i:02d}" for i, w in enumerate(hexagon)}
    products = {}
    for v, w in itertools.combinations_with_replacement(hexagon, 2):
        total = (v[0] + w[0], v[1] + w[1])
        key = oracle.OracleTable.pair_key(label[v], label[w])
        products[key] = {label[total]: 1} if total in label else None
    t = oracle.OracleTable(
        labels=tuple(sorted(label.values())),
        unit=label[(0, 0)],
        dual={label[w]: label[(-w[0], -w[1])] for w in hexagon},
        products=products,
    )
    oracle.validate_oracle(t)
    report = reconstruction.recover_datum(t)
    assert not report.certified
    assert report.stage == "certification"
    assert report.reason == "the torus coordinates of the labels form no box"


def reference_box_coordinates(embedding, roots):
    """`_box_coordinates` counting the differences of the torus points as tuples."""
    rank, k = len(next(iter(embedding.values()))), len(roots)
    _, u = linalg.smith_normal_form([[a[r] for a in roots] for r in range(rank)])
    moved = {x: linalg.mat_vec(u, v) for x, v in embedding.items()}
    points = sorted({v[k:] for v in moved.values()})
    shared = collections.Counter(
        tuple(q_i - p_i for p_i, q_i in zip(p, q)) for p, q in itertools.combinations(points, 2)
    )
    m = rank - k
    ranked = sorted(shared, key=lambda v: (-shared[v], linalg.vec_scale(-1, v)))
    h = linalg.transpose(ranked[:m])
    tied = len(ranked) > m and shared[ranked[m - 1]] == shared[ranked[m]]
    if len(ranked) < m or tied or abs(linalg.det(h)) != 1:
        raise StageFailure("certification", "the torus coordinates of the labels form no box")
    adj, det = linalg.adjugate(h)
    to_box = [[x * det for x in row] for row in adj]
    rebased = {x: v[:k] + linalg.mat_vec(to_box, v[k:]) for x, v in moved.items()}
    return rebased, tuple(linalg.mat_vec(u, a) for a in roots)


def _unimodular(rng, n):
    """A seeded product of elementary row operations and sign changes: a matrix in GL(n, Z)."""
    g = linalg.identity(n)
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            g[i] = [-x for x in g[i]]
        else:
            g[i] = linalg.vec_add(g[i], linalg.vec_scale(rng.choice((-3, -2, 2, 3)), g[j]))
    return g


HEXAGON = [(x, y) for x in range(-2, 3) for y in range(-2, 3) if abs(x + y) <= 2]
BOX_SHAPES = {
    # boxes [-b, b]^m, whole or with one point taken out or put in; no such edit ties
    # the m-th and (m+1)-th most shared differences, so these all rebase
    **{
        f"m{m}b{b}{edit}": (m, b, edit)
        for m, b in [(2, 1), (2, 3), (3, 1), (3, 2)]
        for edit in ("", "-removed", "-added")
    },
    # the hexagon ties its three edges, a line has one direction, and the
    # doubled box's edges span a sublattice of index 2^m
    "hexagon": (2, HEXAGON, ""),
    "line": (2, [(x, 0) for x in range(-3, 4)], ""),
    "doubled": (2, [(2 * x, 2 * y) for x in range(-1, 2) for y in range(-1, 2)], ""),
}


def _box_case(name, k):
    """The shape's points in a seeded GL(k + m, Z) basis, each preceded by k root
    coordinates, under labels, with k roots in that basis."""
    m, box, edit = BOX_SHAPES[name]
    rng = random.Random(f"box/{name}/{k}")
    if isinstance(box, int):
        box = list(itertools.product(range(-box, box + 1), repeat=m))
        if edit == "-removed":
            box.remove(rng.choice(box))
        elif edit == "-added":
            far = range(len(box), 2 * len(box))
            box.append(tuple(rng.choice((-1, 1)) * rng.choice(far) for _ in range(m)))
    g = _unimodular(rng, k + m)
    points = [tuple(rng.randrange(3) for _ in range(k)) + p for p in box]
    embedding = {f"l{i:03d}": linalg.mat_vec(g, p) for i, p in enumerate(points)}
    roots = tuple(linalg.mat_vec(g, [2 * (i == j) for j in range(k + m)]) for i in range(k))
    return embedding, roots


def _rebased_or_reason(f, embedding, roots):
    try:
        return f(embedding, roots)
    except StageFailure as e:
        return e.stage, e.reason


@pytest.mark.parametrize("name", sorted(BOX_SHAPES))
@pytest.mark.parametrize("k", [0, 1])
def test_box_coordinates_match_the_tuple_count(name, k):
    embedding, roots = _box_case(name, k)
    got = _rebased_or_reason(reconstruction._box_coordinates, embedding, roots)
    assert got == _rebased_or_reason(reference_box_coordinates, embedding, roots)
    fails = name in ("hexagon", "line", "doubled")
    assert (got == ("certification", "the torus coordinates of the labels form no box")) == fails
    if not fails and "-" not in name:
        m, b, _ = BOX_SHAPES[name]
        box = set(itertools.product(range(-b, b + 1), repeat=m))
        assert {v[k:] for v in got[0].values()} == box


@pytest.mark.parametrize("name", ["gl2", "g2"])
def test_bound1_window_is_reproduced_by_no_window(name):
    t, _ = oracle.materialize_oracle(root_datum.fixture(name), 1, seed=7)
    report = reconstruction.recover_datum(t)
    assert not report.certified
    assert report.stage == "certification"
    assert report.reason == "no window of the recovered datum reproduces the table"


def test_round_trip_skewed_basis_certifies():
    # this relabeling of A3 once completed to coordinates of over 50 bits;
    # the completion now keeps them small, and certification's window box
    # must still not grow with the coordinates of a skewed basis
    a3 = root_datum.RootDatum(
        3, ((2, -1, 0), (-1, 2, -1), (0, -1, 2)), ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    )
    t, _ = oracle.materialize_oracle(a3, 2, seed=285521)
    report = reconstruction.recover_datum(t)
    assert report.certified and report.inferred_bound == 2
    assert root_datum.root_data_isomorphic(report.datum, a3) is not None
    assert max(abs(c) for v in report.embedding.values() for c in v).bit_length() <= 8
    # g and its inverse, with entries of over 50 bits, have determinant 1
    n = 2**51 + 1
    g = [[1, n, 0], [0, 1, n], [0, 0, 1]]
    g_inv_t = [[1, 0, 0], [-n, 1, 0], [n * n, -n, 1]]
    skewed = root_datum.RootDatum(
        3,
        tuple(linalg.mat_vec(g, a) for a in report.datum.simple_roots),
        tuple(linalg.mat_vec(g_inv_t, c) for c in report.datum.simple_coroots),
    )
    embedding = {x: linalg.mat_vec(g, v) for x, v in report.embedding.items()}
    assert max(abs(c) for a in skewed.simple_roots for c in a).bit_length() > 50
    bound, _ = reconstruction._certify(t, skewed, embedding)
    assert bound == 2


def test_recover_datum_deterministic(sl3_oracle):
    _, t, _ = sl3_oracle
    a = reconstruction.recover_datum(t)
    b = reconstruction.recover_datum(t)
    assert a.certified and b.certified
    assert a.datum == b.datum
    assert a.bijection == b.bijection


def test_window_too_small_fails_loud():
    d = root_datum.fixture("sl2xpgl2")
    t, _ = oracle.materialize_oracle(d, 2, seed=7)
    report = reconstruction.recover_datum(t)
    assert not report.certified
    assert report.stage is not None
    assert report.reason


def test_mutated_table_fails_loud(sl3_oracle):
    d, t, _ = sl3_oracle
    lines = oracle.format_oracle(t).splitlines()
    for i, line in enumerate(lines):
        if line.startswith("prod") and line.endswith("*1"):
            lines[i] = line[:-1] + "3"
            break
    mutated = oracle.parse_oracle("\n".join(lines) + "\n")
    try:
        oracle.validate_oracle(mutated)
    except oracle.OracleError:
        return
    report = reconstruction.recover_datum(mutated)
    assert not report.certified or root_datum.root_data_isomorphic(report.datum, d) is not None


def test_unvalidated_garbage_raises_stage_failure():
    t = oracle.OracleTable(
        labels=("e", "u"),
        unit="e",
        dual={"e": "e", "u": "u"},
        products={
            ("e", "e"): {"e": 1},
            ("e", "u"): {"u": 1},
            ("u", "u"): {"u": 9},
        },
    )
    report = reconstruction.recover_datum(t)
    assert not report.certified


def certify_by_search(t, datum, embedding):
    """Certification by search alone: `oracle.table_isomorphism` extends the
    embedding onto the weight-labelled window, whether or not it leaves
    labels free."""
    if len(set(embedding.values())) != len(embedding):
        raise StageFailure("certification", "embedding is not injective")
    for bound in range(1, 201):
        window = oracle.window_weights(datum, bound)
        if len(window) >= len(t.labels):
            break
    if len(window) == len(t.labels):
        bijection = oracle.table_isomorphism(t, oracle.window_table(datum, window), embedding)
        if bijection is not None:
            return bound, bijection
    raise StageFailure(
        "certification", "no window of the recovered datum reproduces the table"
    )


def report_by_search(monkeypatch, t):
    """`recover_datum`'s report with `certify_by_search` in place of `_certify`."""
    with monkeypatch.context() as m:
        m.setattr(reconstruction, "_certify", certify_by_search)
        return reconstruction.recover_datum(t)


INLINE_ROUND_TRIPS = {"sl4": WIDE_DATA["sl4"], "sl2xT2": SL2_T2}
CERTIFY_CASES = [
    (name, bound, seed)
    for name in root_datum.fixture_names()
    for bound in (1, 2, 3, 4)
    for seed in (7, 1)
] + [(name, bound, seed) for name in INLINE_ROUND_TRIPS for bound in (1, 2) for seed in (7, 1)]
# the round trips whose embedding leaves labels free, so certification searches
SEARCHED = {("g2", 1), ("g2", 3), ("g2", 4), ("pgl3", 4), ("sl4", 2)}


def test_certify_matches_the_search_on_every_round_trip(monkeypatch):
    searched, certified, by_equality = set(), 0, 0
    search = oracle.table_isomorphism

    def spied(t, u, partial):
        assert len(partial) < len(t.labels)  # only a table with free labels is searched
        searched.add(current)
        return search(t, u, partial)

    for name, bound, seed in CERTIFY_CASES:
        d = INLINE_ROUND_TRIPS.get(name) or root_datum.fixture(name)
        t, _ = oracle.materialize_oracle(d, bound, seed=seed)
        current = (name, bound)
        with monkeypatch.context() as m:
            m.setattr(oracle, "table_isomorphism", spied)
            got = reconstruction.recover_datum(t)
        want = report_by_search(monkeypatch, t)
        assert (got.inferred_bound, got.bijection) == (want.inferred_bound, want.bijection)
        assert got == want, (name, bound, seed)
        certified += got.certified
        by_equality += got.certified and current not in SEARCHED
    assert searched == SEARCHED
    assert (certified, by_equality) == (62, 54)


def test_torus2_bound4_certifies_by_table_equality(monkeypatch):
    def refused(*args):
        raise AssertionError("searched a table whose embedding names every label")

    t, _ = oracle.materialize_oracle(TORUS2, 4, seed=7)
    monkeypatch.setattr(oracle, "table_isomorphism", refused)
    report = reconstruction.recover_datum(t)
    assert report.certified and report.inferred_bound == 4
    assert report.bijection == report.embedding


def test_certification_grows_one_window(monkeypatch):
    # the bound scan reads one growing window: each of the 81 box points of
    # torus2@4 is placed once, where a window per bound placed 9 + 25 + 49 + 81
    placed = []
    weight_at, certify = root_datum.RootDatum.weight_at, reconstruction._certify

    def counted(*args):
        with monkeypatch.context() as m:
            m.setattr(
                root_datum.RootDatum, "weight_at", lambda d, y: placed.append(y) or weight_at(d, y)
            )
            return certify(*args)

    t, _ = oracle.materialize_oracle(TORUS2, 4, seed=7)
    monkeypatch.setattr(reconstruction, "_certify", counted)
    report = reconstruction.recover_datum(t)
    assert report.certified and report.inferred_bound == 4
    assert sorted(placed) == list(itertools.product(range(-4, 5), repeat=2))


def test_g2_bound3_certifies_by_search(monkeypatch):
    calls = []
    search = oracle.table_isomorphism

    def counted(t, u, partial):
        calls.append(len(t.labels) - len(partial))
        return search(t, u, partial)

    t, _ = oracle.materialize_oracle(root_datum.fixture("g2"), 3, seed=7)
    monkeypatch.setattr(oracle, "table_isomorphism", counted)
    report = reconstruction.recover_datum(t)
    assert report.certified and report.inferred_bound == 3
    assert len(calls) == 1 and 1 <= calls[0] <= 3


def _raised_multiplicity(t):
    """The first sorted cell off the unit, with its last label's multiplicity one higher."""
    key = next(k for k in sorted(t.products) if t.products[k] and t.unit not in k)
    cell = dict(t.products[key])
    cell[max(cell)] += 1
    return oracle.OracleTable(t.labels, t.unit, t.dual, {**t.products, key: cell})


def _swapped_cells(t):
    """The first two sorted in-window cells off the unit with as many components
    but different contents, swapped."""
    keys = [k for k in sorted(t.products) if t.products[k] and t.unit not in k]
    a = keys[0]
    b = next(
        k for k in keys
        if len(t.products[k]) == len(t.products[a]) and t.products[k] != t.products[a]
    )
    return oracle.OracleTable(
        t.labels, t.unit, t.dual, {**t.products, a: t.products[b], b: t.products[a]}
    )


def _broken_dual_pair(t):
    """x paired with y's dual and y with x's, for the first x, y in label order
    whose new pairings are out of window, so the structure check passes."""
    x, y = next(
        (x, y)
        for x, y in itertools.permutations(t.labels, 2)
        if len({x, y, t.dual[x], t.dual[y]}) == 4
        and t.products[t.pair_key(x, t.dual[y])] is None
        and t.products[t.pair_key(y, t.dual[x])] is None
    )
    xd, yd = t.dual[x], t.dual[y]
    return oracle.OracleTable(t.labels, t.unit, {**t.dual, x: yd, yd: x, y: xd, xd: y}, t.products)


TAMPERINGS = [_raised_multiplicity, _swapped_cells, _broken_dual_pair]


# g2@3 certifies by search; every pairing of its labels with a dual is in window
@pytest.mark.parametrize(
    "name,bound,tamper",
    [(name, bound, f) for name, bound in [("torus2", 4), ("sl3", 2)] for f in TAMPERINGS]
    + [("g2", 3, f) for f in TAMPERINGS[:2]],
    ids=lambda v: getattr(v, "__name__", v),
)
def test_tampered_tables_get_the_searched_report(monkeypatch, name, bound, tamper):
    # a table that fails certification goes through the whole validation, so
    # some of these are rejected at validation; the report must not change
    t, _ = oracle.materialize_oracle(root_datum.fixture(name), bound, seed=7)
    tampered = tamper(t)
    oracle.check_structure(tampered)
    certify, reached = reconstruction._certify, []
    with monkeypatch.context() as m:
        m.setattr(reconstruction, "_certify", lambda *a: reached.append(1) or certify(*a))
        report = reconstruction.recover_datum(tampered)
    assert not report.certified
    # on torus2@4 every tampering reaches the equality case
    assert reached or name != "torus2"
    assert report == report_by_search(monkeypatch, tampered)
    if tamper is _broken_dual_pair:
        # the products are untouched, so the stages run through to certification
        assert (report.verdict, report.stage, report.reason) == (
            "failed", "certification", "no window of the recovered datum reproduces the table"
        )


def lattice_with_every_residual(m):
    """`recover_lattice` as it ran with every residual relation kept, repeats
    included, as a column of the Smith normal form."""
    expr, residual, constrained = {}, [], set()
    for (x, y), z in sorted(m.add.items()):
        rel = {x: 1}
        rel[y] = rel.get(y, 0) + 1
        c = rel.get(z, 0) - 1
        if c:
            rel[z] = c
        else:
            del rel[z]
        constrained.update(rel)
        rel = reconstruction._substitute(rel, expr)
        if not rel:
            continue
        units = [lbl for lbl, c in rel.items() if abs(c) == 1]
        if not units:
            residual.append(rel)
            continue
        pivot = min(units)
        c = rel.pop(pivot)
        solved = {lbl: -c * v for lbl, v in rel.items()}
        for e in expr.values():
            if pivot in e:
                k = e.pop(pivot)
                for lbl, v in solved.items():
                    total = e.get(lbl, 0) + k * v
                    if total:
                        e[lbl] = total
                    else:
                        del e[lbl]
        expr[pivot] = solved
    labels = sorted(constrained)
    free = [lbl for lbl in labels if lbl not in expr]
    residual = [rel for rel in (reconstruction._substitute(r, expr) for r in residual) if rel]
    row = {lbl: i for i, lbl in enumerate(free)}
    mat = [[0] * len(residual) for _ in free]
    for j, rel in enumerate(residual):
        for lbl, c in rel.items():
            mat[row[lbl]][j] = c
    d, u = linalg.smith_normal_form(mat)
    diag = [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]
    r = sum(1 for x in diag if x != 0)
    if any(x > 1 for x in diag[:r]):
        raise StageFailure("lattice", "torsion in the group completion: inconsistent oracle")
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


def completion(monoid, complete):
    try:
        return complete(monoid)
    except StageFailure as e:
        return e.stage, e.reason


def _sampled_lattice_cases():
    rng = random.Random("lattice sample")
    cases = [(name, bound) for name in root_datum.fixture_names() for bound in (1, 2, 3, 4)]
    return [(*case, rng.randrange(10**6)) for case in rng.sample(cases, 24)]


def _doubling_chain(names):
    """names[i] + names[i] = names[i + 1]: coefficients up to 2**(len(names) - 1);
    64 names make the radix grow four times."""
    return reconstruction.RecoveredMonoid(add={(a, a): b for a, b in zip(names, names[1:])}, undefined=())


CHAIN = [f"l{i:02d}" for i in range(64)]


def _growth_straddle():
    """2*a4 - 3*a2 is kept before the chain a3, c01, ... makes the codes grow,
    and 2*a2 - 3*a1 found after it: the latter's code at the grown radix is
    the former's at the first, so a kept code left unconverted hides it."""
    add = {
        ("a0", "a0"): "a0",
        ("a1", "a1"): "ey",
        ("a1", "ey"): "f3",
        ("a1", "f3"): "f4",
        ("a1", "f4"): "f5",
        ("a2", "a2"): "ex",
        ("a2", "ex"): "bt",
        ("a3", "a3"): "c01",
        ("a4", "a4"): "bt",
        ("ex", "ey"): "f5",
    }
    add.update({(f"c{i:02d}", f"c{i:02d}"): f"c{i + 1:02d}" for i in range(1, 8)})
    return reconstruction.RecoveredMonoid(add=add, undefined=())


def _box_and_chain():
    """A torus2@2-like box of points beside a doubling chain, under random
    names: residual relations of the box repeat before and after the chain
    makes the codes grow."""
    rng = random.Random(11)
    points = [(i, j, 0) for i in range(-2, 3) for j in range(-2, 3)]
    points += [(0, 0, 2**k) for k in range(12)]
    name = {p: f"{rng.randrange(16**4):04x}" for p in points}
    add = {}
    for p, q in itertools.combinations_with_replacement(points, 2):
        s = tuple(a + b for a, b in zip(p, q))
        if s in name:
            add[oracle.OracleTable.pair_key(name[p], name[q])] = name[s]
    return reconstruction.RecoveredMonoid(add=add, undefined=())


SYNTHETIC_MONOIDS = {
    "doubling-chain": lambda: _doubling_chain(CHAIN),
    # l08 renamed so it sorts second: under a radix that never grew, 2 * l07 = 256 * l00
    # would read as the code of the free label at position 1, and 2 * l07 - l00x vanish
    "doubling-chain-l08-second": lambda: _doubling_chain(CHAIN[:8] + ["l00x"] + CHAIN[9:]),
    "growth-straddle": _growth_straddle,
    "box-and-chain": _box_and_chain,
}
LATTICE_DATA = {**INLINE_ROUND_TRIPS, "torus3": TORUS3}


def _lattice_case_monoid(name, bound, seed):
    if name in SYNTHETIC_MONOIDS:
        return SYNTHETIC_MONOIDS[name]()
    d = LATTICE_DATA.get(name) or root_datum.fixture(name)
    t, _ = oracle.materialize_oracle(d, bound, seed=seed)
    return reconstruction.recover_addition(t)


# (free labels, Smith columns, distinct columns) here and with every residual
# relation kept: label seed 9542 leaves 991 residual relations, 6 of them distinct
SMITH_SHAPES = {("torus2", 4, 9542): [(4, 6, 6), (4, 991, 6)]}


@pytest.mark.parametrize(
    "name,bound,seed",
    [("torus2", 4, 9542), ("torus2", 4, 472775), ("torus1", 4, 7), ("torus1", 4, 1)]
    + _sampled_lattice_cases()
    # 523 residual relations, 2 of them distinct
    + [("torus2", 4, 193761)]
    # label seed 98695 leaves 261 residual relations, 1 of them distinct
    + [("sl2xT2", 2, seed) for seed in (7, 1, 888598, 98695)]
    + [("torus3", 2, 7)]
    + [pytest.param(name, None, None, id=name) for name in SYNTHETIC_MONOIDS],
)
def test_lattice_matches_every_residual_completion(monkeypatch, name, bound, seed):
    monoid = _lattice_case_monoid(name, bound, seed)
    shapes, substituted = [], []
    smith, substitute = linalg.smith_normal_form, reconstruction._substitute

    def recorded(mat):
        columns = list(zip(*mat))
        shapes.append((len(mat), len(columns), len(set(columns))))
        return smith(mat)

    def counted(rel, expr):
        out = substitute(rel, expr)
        substituted.append(dict(out))  # the caller pops the pivot from `out`
        return out

    monkeypatch.setattr(linalg, "smith_normal_form", recorded)
    monkeypatch.setattr(reconstruction, "_substitute", counted)
    got = completion(monoid, reconstruction.recover_lattice)
    calls = len(substituted)
    substituted.clear()
    want = completion(monoid, lattice_with_every_residual)
    assert got == want
    if shapes:
        (rows, cols, distinct), (old_rows, _, old_distinct) = shapes
        assert (rows, cols, distinct) == (old_rows, old_distinct, old_distinct)
    assert shapes == SMITH_SHAPES.get((name, bound, seed), shapes)
    if isinstance(want[1], dict):
        assert list(got[1]) == list(want[1])
    # the reference substitutes every relation in turn; only the pivots and the
    # first occurrence of each residual relation may reach `_substitute` here,
    # and each residual relation once more after the last pivot
    in_turn = substituted[: len(monoid.add)]
    pivots = sum(1 for rel in in_turn if 1 in map(abs, rel.values()))
    residual = {frozenset(rel.items()) for rel in in_turn if rel and 1 not in map(abs, rel.values())}
    assert calls == pivots + 2 * len(residual)
    # the relations are taken in sorted order, whatever order the cells came in
    shuffled = list(monoid.add.items())
    random.Random(name).shuffle(shuffled)
    assert completion(monoid._replace(add=dict(shuffled)), reconstruction.recover_lattice) == got
