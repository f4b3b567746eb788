import itertools
import random
import re

import pytest
from hypothesis import given
from test_random_data import build_datum, reductive_cases

from semiroot import char_engine, linalg, oracle, reconstruction, root_datum
from semiroot.oracle import OracleError, OracleFormatError, OracleTable


def test_window_sl2():
    sl2 = root_datum.fixture("sl2")
    assert oracle.window_weights(sl2, 4) == ((4,), (3,), (2,), (1,), (0,))


def test_window_sl3_saturated():
    sl3 = root_datum.fixture("sl3")
    window = oracle.window_weights(sl3, 2)
    assert len(window) == 11
    assert (3, 0) in window and (0, 3) in window


def test_window_torus():
    t1 = root_datum.fixture("torus1")
    assert set(oracle.window_weights(t1, 2)) == {(-2,), (-1,), (0,), (1,), (2,)}


@pytest.mark.parametrize("name,bound", [("sl3", 3), ("sp4", 3), ("g2", 2)])
def test_window_downward_closed(name, bound):
    d = root_datum.fixture(name)
    window = set(oracle.window_weights(d, bound))
    box = range(-4 * bound, 4 * bound + 1)
    for lam in window:
        for mu in [(a, b) for a in box for b in box]:
            if root_datum.is_dominant(d, mu) and root_datum.dominance_leq(d, mu, lam):
                assert mu in window


@pytest.mark.parametrize("name", root_datum.fixture_names())
def test_window_is_union_of_box_closures(name):
    d = root_datum.fixture(name)
    for bound in range(1, 5):
        union = set()
        for lam in oracle.window_box(d, bound):
            union.update(char_engine.dominant_closure(d, [lam]))
        assert oracle.window_weights(d, bound) == tuple(sorted(union, reverse=True))


def reference_window_box(d, bound):
    """The coordinate-box definition: every x with |x_i| <= bound * sum |F^-1 row i|,
    filtered by its pairings and torus-quotient coordinates."""
    q = root_datum.quotient_matrix(d)
    adj, det = linalg.adjugate([list(c) for c in d.simple_coroots] + [list(row) for row in q])
    coord_bound = [bound * sum(abs(x) for x in row) // abs(det) for row in adj]
    box = []
    for x in itertools.product(*(range(-c, c + 1) for c in coord_bound)):
        if any(p < 0 or p > bound for p in d.pairing(x)):
            continue
        if any(abs(t) > bound for t in linalg.mat_vec(q, x)):
            continue
        box.append(x)
    return box


# sl2 x T^2 (roots (2,0,0), coroots (1,0,0)) after the unimodular base change
# [[1,0,2],[0,1,0],[2,0,5]]: roots m @ a, coroots m^-T @ c
SL2XT2_SKEWED = root_datum.RootDatum(3, ((2, 0, 4),), ((5, 0, -2),))
GL2XT1 = root_datum.RootDatum(3, ((1, -1, 0),), ((1, -1, 0),))
# gl2 x T^1 after the unimodular base change [[1,0,0],[-1,1,1],[0,0,1]]
GL2XT1_CHANGED = root_datum.RootDatum(3, ((1, -2, 0),), ((0, -1, 1),))


@pytest.mark.parametrize(
    "d,bounds",
    [(root_datum.fixture(n), range(1, 5)) for n in root_datum.fixture_names()]
    + [(SL2XT2_SKEWED, range(1, 3))],
    ids=list(root_datum.fixture_names()) + ["sl2xT2-skewed"],
)
def test_window_box_matches_coordinate_box(d, bounds):
    for bound in bounds:
        assert oracle.window_box(d, bound) == reference_window_box(d, bound)


def test_window_is_relative_to_datum_basis():
    # the box bounds the torus-quotient coordinates in the basis that
    # quotient_matrix returns, so isomorphic data can have different windows;
    # each table still certifies and verifies isomorphic to its source
    for d, size in [(GL2XT1, 40), (GL2XT1_CHANGED, 38)]:
        assert len(oracle.window_weights(d, 2)) == size
        t, _ = oracle.materialize_oracle(d, 2, seed=7)
        report = reconstruction.recover_datum(t)
        assert report.certified and report.inferred_bound == 2, (report.stage, report.reason)
        assert root_datum.root_data_isomorphic(report.datum, d) is not None
    assert root_datum.root_data_isomorphic(GL2XT1, GL2XT1_CHANGED) is not None


def test_materialize_matches_tensor_decompose():
    # window_table decomposes one pair per PRV shape and shifts the rest;
    # the mixed data in skewed bases give shifted cells with nonzero pairings
    cases = [(root_datum.fixture(n), b) for n in root_datum.fixture_names() for b in range(1, 5)]
    cases += [(SL2XT2_SKEWED, 1), (SL2XT2_SKEWED, 2), (GL2XT1_CHANGED, 2)]
    for d, bound in cases:
        t, prov = oracle.materialize_oracle(d, bound, seed=7)
        inv = {v: k for k, v in prov.items()}
        for (x, y), val in t.products.items():
            if val is None:
                continue
            true = char_engine.tensor_decompose(d, prov[x], prov[y])
            assert {inv[nu]: m for nu, m in true.items()} == val, (d, bound, prov[x], prov[y])


def reference_window_table(d, weights):
    """The window table with one tensor_decompose per in-window pair."""
    wset = set(weights)
    products = {}
    for w1, w2 in itertools.combinations_with_replacement(weights, 2):
        in_window = linalg.vec_add(w1, w2) in wset
        products[OracleTable.pair_key(w1, w2)] = (
            char_engine.tensor_decompose(d, w1, w2) if in_window else None
        )
    dual = {w: root_datum.dominant_representative(d, tuple(-x for x in w)) for w in weights}
    return OracleTable(weights, (0,) * d.rank, dual, products)


_STD3 = tuple(map(tuple, linalg.identity(3)))
_STD4 = tuple(map(tuple, linalg.identity(4)))
WIDE_WINDOWS = {
    "sl4@2": (root_datum.RootDatum(3, ((2, -1, 0), (-1, 2, -1), (0, -1, 2)), _STD3), 2),
    "sp6@2": (root_datum.RootDatum(3, ((2, -1, 0), (-1, 2, -1), (0, -2, 2)), _STD3), 2),
    "spin7@2": (root_datum.RootDatum(3, ((2, -1, 0), (-1, 2, -2), (0, -1, 2)), _STD3), 2),
    "spin8@1": (
        root_datum.RootDatum(
            4, ((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)), _STD4
        ),
        1,
    ),
}


@pytest.mark.parametrize("case", sorted(WIDE_WINDOWS))
def test_window_table_matches_per_pair_reference(case):
    d, bound = WIDE_WINDOWS[case]
    weights = oracle.window_weights(d, bound)
    fresh = root_datum.RootDatum(d.rank, d.simple_roots, d.simple_coroots)
    assert oracle.window_table(d, weights) == reference_window_table(fresh, weights)


@given(case=reductive_cases())
def test_window_table_matches_per_pair_reference_on_random_data(case):
    types, torus, weight, ops, bound, _ = case
    d = build_datum(types, torus, weight, ops)
    weights = oracle.window_weights(d, min(bound, 2))
    fresh = root_datum.RootDatum(d.rank, d.simple_roots, d.simple_coroots)
    assert oracle.window_table(d, weights) == reference_window_table(fresh, weights)


def test_window_table_decomposes_once_per_prv_shape(monkeypatch):
    calls = []
    decompose = char_engine.tensor_decompose

    def counted(d, lam, mu):
        calls.append((lam, mu))
        return decompose(d, lam, mu)

    monkeypatch.setattr(char_engine, "tensor_decompose", counted)
    # on semisimple data the pairings determine the weight, so a memo keyed by
    # both factors' pairings would decompose every one of the 68 in-window cells
    sl3 = root_datum.fixture("sl3")
    t = oracle.window_table(sl3, oracle.window_weights(sl3, 3))
    assert (len(calls), sum(v is not None for v in t.products.values())) == (25, 68)
    # on a torus every pair has the same pairings
    calls.clear()
    torus2 = root_datum.fixture("torus2")
    t = oracle.window_table(torus2, oracle.window_weights(torus2, 4))
    assert (len(calls), sum(v is not None for v in t.products.values())) == (1, 1873)


def test_materialize_marks_out_of_window(sl2_oracle):
    d, t, prov = sl2_oracle
    inv = {v: k for k, v in prov.items()}
    assert t.products[OracleTable.pair_key(inv[(3,)], inv[(3,)])] is None
    assert t.products[OracleTable.pair_key(inv[(1,)], inv[(3,)])] == {inv[(4,)]: 1, inv[(2,)]: 1}


def _dual(d, lam):
    """Highest weight of the dual irreducible, -w0 lam, read off the datum."""
    return linalg.mat_vec(d.minus_w0, lam)


def test_materialize_unit_and_dual(sl3_oracle):
    d, t, prov = sl3_oracle
    inv = {v: k for k, v in prov.items()}
    assert prov[t.unit] == (0, 0)
    assert t.dual[inv[(1, 0)]] == inv[(0, 1)]
    for x in t.labels:
        assert prov[t.dual[x]] == _dual(d, prov[x])


def test_labels_are_opaque(sl2_oracle):
    _, t, prov = sl2_oracle
    for x in t.labels:
        int(x, 16)
        assert len(x) == 6


def test_materialize_deterministic():
    d = root_datum.fixture("sl3")
    a, _ = oracle.materialize_oracle(d, 2, seed=9)
    b, _ = oracle.materialize_oracle(d, 2, seed=9)
    assert oracle.format_oracle(a) == oracle.format_oracle(b)
    c, _ = oracle.materialize_oracle(d, 2, seed=10)
    assert set(a.labels) != set(c.labels)


@pytest.mark.parametrize("name", ["sl3", "gl2", "torus2"])
def test_materialize_relabels_window_table(name):
    d = root_datum.fixture(name)
    weights = oracle.window_weights(d, 2)
    window = oracle.window_table(d, weights)
    assert window.labels == weights and window.unit == (0,) * d.rank
    t, prov = oracle.materialize_oracle(d, 2, seed=3)
    assert sorted(prov.values()) == sorted(weights)
    assert prov[t.unit] == window.unit
    assert {prov[x]: prov[y] for x, y in t.dual.items()} == window.dual
    for (x, y), val in t.products.items():
        image = None if val is None else {prov[z]: m for z, m in val.items()}
        assert image == window.products[OracleTable.pair_key(prov[x], prov[y])]
    assert len(t.products) == len(window.products)
    assert oracle.table_isomorphism(t, window, prov) == prov


def relabel(t, names):
    """t with every weight w written as names[w]: labels, unit, duals and cells."""
    return OracleTable(
        tuple(names[w] for w in t.labels),
        names[t.unit],
        {names[w]: names[v] for w, v in t.dual.items()},
        {
            OracleTable.pair_key(names[x], names[y]): (
                None if val is None else {names[z]: m for z, m in val.items()}
            )
            for (x, y), val in t.products.items()
        },
    )


@pytest.mark.parametrize(
    "name,bound", [(name, bound) for name in root_datum.fixture_names() for bound in (1, 2, 3)]
)
def test_window_table_writes_cells_under_the_given_names(name, bound):
    d = root_datum.fixture(name)
    weights = oracle.window_weights(d, bound)
    # names in an order unrelated to the weights', so pair keys flip
    shuffled = random.Random(f"{name}@{bound}").sample(range(len(weights)), len(weights))
    names = {w: f"n{i:03d}" for w, i in zip(weights, shuffled)}
    named = oracle.window_table(d, weights, names)
    want = relabel(oracle.window_table(d, weights), names)
    assert named.labels == want.labels
    assert named.unit == want.unit
    assert named.dual == want.dual
    assert named.products == want.products


def is_table_isomorphism(t, u, m):
    """Whether m is a bijection onto u's labels carrying t's unit, duals and
    every cell onto u's."""
    if sorted(m) != sorted(t.labels) or sorted(m.values()) != sorted(u.labels):
        return False
    if m[t.unit] != u.unit or any(m[t.dual[x]] != u.dual[m[x]] for x in t.labels):
        return False
    for (x, y), val in t.products.items():
        image = None if val is None else {m[z]: c for z, c in val.items()}
        if image != u.products[OracleTable.pair_key(m[x], m[y])]:
            return False
    return True


RELABEL_TABLES = [(n, b) for n in root_datum.fixture_names() for b in (1, 2, 3)]


@pytest.mark.parametrize("name,bound", RELABEL_TABLES)
def test_table_isomorphism_relabels_from_empty_map(name, bound):
    d = root_datum.fixture(name)
    t, _ = oracle.materialize_oracle(d, bound, seed=7)
    u, _ = oracle.materialize_oracle(d, bound, seed=1)
    there = oracle.table_isomorphism(t, u, {})
    back = oracle.table_isomorphism(u, t, {})
    assert is_table_isomorphism(t, u, there) and is_table_isomorphism(u, t, back)
    # the composite is an automorphism of t, not always the identity: on
    # gl2@3, pgl3@3, sl3@3 and torus2@2-3 the search picks maps that are not
    # inverses
    assert is_table_isomorphism(t, t, {x: back[there[x]] for x in t.labels})


def _swap_two_cells(u):
    """u with its first two distinct in-window cells, in key order, swapped."""
    keys = [k for k in sorted(u.products) if u.products[k] is not None]
    other = next(k for k in keys if u.products[k] != u.products[keys[0]])
    products = dict(u.products)
    products[keys[0]], products[other] = products[other], products[keys[0]]
    return OracleTable(u.labels, u.unit, dict(u.dual), products)


def test_tables_compare_by_their_cells(sl3_oracle):
    _, t, _ = sl3_oracle
    products = dict(t.products)
    assert OracleTable(t.labels, t.unit, dict(t.dual), products) == t
    key = next(k for k in sorted(products) if products[k] is not None)
    products[key] = None
    assert OracleTable(t.labels, t.unit, dict(t.dual), products) != t


# pgl2@1 has one label, so one cell
@pytest.mark.parametrize("name,bound", [c for c in RELABEL_TABLES if c != ("pgl2", 1)])
def test_table_isomorphism_refuses_swapped_cells(name, bound):
    d = root_datum.fixture(name)
    t, prov = oracle.materialize_oracle(d, bound, seed=7)
    swapped = _swap_two_cells(oracle.window_table(d, oracle.window_weights(d, bound)))
    assert oracle.table_isomorphism(t, swapped, prov) is None
    # a refusal from the empty map searches every bijection the cell rule
    # leaves among labels with as many in-window cells; torus2@3 takes 15 ms
    assert oracle.table_isomorphism(t, swapped, {}) is None


def test_table_isomorphism_preconditions_give_none(sl3_oracle):
    _, t, _ = sl3_oracle
    u, _ = oracle.materialize_oracle(root_datum.fixture("sl3"), 2, seed=1)
    small, _ = oracle.materialize_oracle(root_datum.fixture("sl3"), 1, seed=1)
    assert oracle.table_isomorphism(t, small, {}) is None
    a, b = t.labels[:2]
    assert oracle.table_isomorphism(t, u, {a: u.labels[0], b: u.labels[0]}) is None
    assert oracle.table_isomorphism(t, u, {t.labels[0]: "zzzzzz"}) is None
    assert oracle.table_isomorphism(t, u, {"zzz": u.labels[0]}) is None
    assert is_table_isomorphism(t, u, oracle.table_isomorphism(t, u, {}))


# each of these windows is the unit and one self-dual label whose square
# leaves the window, so their tables are pairwise isomorphic
ISOMORPHIC_WINDOWS = {"pgl2@2", "pgl2@3", "pgl3@1", "sl2@1", "sl2xpgl2@1", "so5@1"}


def test_same_size_fixture_windows_isomorphic_exactly_as_pinned():
    tables = {
        f"{n}@{b}": oracle.materialize_oracle(root_datum.fixture(n), b, seed=7)[0]
        for n, b in RELABEL_TABLES
    }
    pairs = [
        (a, b)
        for a, b in itertools.combinations(tables, 2)
        if len(tables[a].labels) == len(tables[b].labels)
    ]
    assert len(pairs) == 32
    for a, b in pairs:
        found = oracle.table_isomorphism(tables[a], tables[b], {})
        assert (found is not None) == ({a, b} <= ISOMORPHIC_WINDOWS), (a, b)
        assert found is None or is_table_isomorphism(tables[a], tables[b], found)


def test_window_table_rejects_nondominant_weight():
    sl3 = root_datum.fixture("sl3")
    weights = oracle.window_weights(sl3, 1) + ((1, -1),)
    with pytest.raises(ValueError, match="not dominant"):
        oracle.window_table(sl3, weights)


FIXTURE_TABLES = [(n, b) for n in root_datum.fixture_names() for b in (2, 3)]


@pytest.mark.parametrize("name,bound", FIXTURE_TABLES)
def test_rows_index_every_pair_in_both_orders(name, bound):
    t, _ = oracle.materialize_oracle(root_datum.fixture(name), bound, seed=7)
    in_window = {key for key, val in t.products.items() if val is not None}
    for x in t.labels:
        assert t.partners[x] == {y for y in t.labels if OracleTable.pair_key(x, y) in in_window}
        assert all(x in t.partners[y] for y in t.partners[x])


def reference_associativity(t):
    """The associativity check as a walk over every triple of
    combinations_with_replacement, skipping those not fully in window; returns
    the number of triples checked."""

    def expand(left, z):
        acc = {}
        for nu, c in left.items():
            cell = t.products[OracleTable.pair_key(nu, z)]
            if cell is None:
                return None
            for w, m in cell.items():
                acc[w] = acc.get(w, 0) + c * m
        return acc

    checked = 0
    for x, y, z in itertools.combinations_with_replacement(t.labels, 3):
        if checked >= oracle.ASSOC_BUDGET:
            break
        xy = t.products[OracleTable.pair_key(x, y)]
        yz = t.products[OracleTable.pair_key(y, z)]
        if xy is None or yz is None:
            continue
        lhs = expand(xy, z)
        rhs = expand(yz, x)
        if lhs is None or rhs is None:
            continue
        checked += 1
        if lhs != rhs:
            raise OracleError(f"associativity: ({x} {y}) {z} differs from {x} ({y} {z})")
    return checked


def _verdict(check, t):
    try:
        return "valid", check(t)
    except OracleError as e:
        return str(e), None


def _mutate(text, rng):
    """One to three changed product cells: a raised multiplicity, a swapped
    component or a cell marked out of window."""
    lines = text.splitlines()
    labels = lines[0].split()[1:]
    for _ in range(rng.randint(1, 3)):
        cells = [i for i, line in enumerate(lines) if line.startswith("prod") and "?" not in line]
        if not cells:
            break
        i = rng.choice(cells)
        head, body = lines[i].split(" : ")
        parts = body.split()
        j = rng.randrange(len(parts))
        z, m = parts[j].rsplit("*", 1)
        kind = rng.randrange(3)
        if kind == 0:
            parts[j] = f"{z}*{int(m) + 1}"
        elif kind == 1:
            parts[j] = f"{rng.choice([x for x in labels if x != z])}*{m}"
        else:
            parts = ["?"]
        lines[i] = head + " : " + " ".join(parts)
    return "\n".join(lines) + "\n"


def _unsorted(text, rng):
    """The same table with its labels: line shuffled."""
    head, rest = text.split("\n", 1)
    labels = head.split()[1:]
    rng.shuffle(labels)
    return "labels: " + " ".join(labels) + "\n" + rest


# the two mixed tables have cells shifted from another pair of the same
# pairing shape in a skewed basis, so their mutations run on shifted cells
WALK_TABLES = [(n, root_datum.fixture(n), b) for n, b in FIXTURE_TABLES] + [
    ("sl2xT2-skewed", SL2XT2_SKEWED, 2),
    ("gl2xT1-changed", GL2XT1_CHANGED, 2),
]


@pytest.mark.parametrize(
    "name,d,bound", WALK_TABLES, ids=[f"{n}-{b}" for n, _, b in WALK_TABLES]
)
def test_validate_walk_matches_reference(name, d, bound, monkeypatch):
    table, _ = oracle.materialize_oracle(d, bound, seed=7)
    text = oracle.format_oracle(table)
    rng = random.Random(f"{name}@{bound}")
    texts = [text, _unsorted(text, rng)]
    texts += [_mutate(texts[k % 2], rng) for k in range(16)]
    for budget in (1, 40, oracle.ASSOC_BUDGET):
        monkeypatch.setattr(oracle, "ASSOC_BUDGET", budget)
        for body in texts:
            try:
                t = oracle.parse_oracle(body)
            except OracleFormatError:
                continue  # a repeated component
            got = _verdict(oracle.validate_oracle, t)
            # the checks before the walk stop the other tables
            if got[0] == "valid" or got[0].startswith("associativity"):
                assert got == _verdict(reference_associativity, t)


def test_format_parse_round_trip(sl3_oracle):
    _, t, _ = sl3_oracle
    text = oracle.format_oracle(t)
    back = oracle.parse_oracle(text)
    assert back == t
    assert oracle.format_oracle(back) == text


def test_parse_rejects_garbage():
    with pytest.raises(OracleFormatError, match="line 1"):
        oracle.parse_oracle("nonsense\n")
    with pytest.raises(OracleFormatError):
        oracle.parse_oracle("labels: a b\nunit: a\nprod a b : b*0\n")
    with pytest.raises(OracleFormatError):
        oracle.parse_oracle("labels: a b\nprod a b : ?\n")
    good = "labels: a b\nunit: a\ndual: a a\ndual: b b\nprod a b : b*1\n"
    oracle.parse_oracle(good)
    for extra in ("prod a b : ?", "prod b a : b*1", "unit: b", "labels: a b", "dual: b b"):
        with pytest.raises(OracleFormatError, match="line 6"):
            oracle.parse_oracle(good + extra + "\n")


@pytest.mark.parametrize(
    "name,bound",
    [("sl2", 2), ("sl2", 3), ("sl2", 4), ("pgl2", 4), ("sl3", 2), ("sl3", 3),
     ("sp4", 2), ("g2", 2), ("gl2", 3), ("torus1", 4), ("sl2xpgl2", 2)],
)
def test_validate_accepts_fixture_tables(name, bound):
    d = root_datum.fixture(name)
    t, _ = oracle.materialize_oracle(d, bound, seed=1)
    oracle.validate_oracle(t)


def _tiny_table(products):
    return OracleTable(
        labels=("e", "u"),
        unit="e",
        dual={"e": "e", "u": "u"},
        products=products,
    )


def _two_label_group(label):
    """The table of Z/2 with unit `e` and generator `label`."""
    return OracleTable(
        labels=("e", label),
        unit="e",
        dual={"e": "e", label: label},
        products={
            ("e", "e"): {"e": 1},
            tuple(sorted(("e", label))): {label: 1},
            (label, label): {"e": 1},
        },
    )


@pytest.mark.parametrize("label", ["b:c", "b c", "b\tc", ""])
def test_validate_rejects_labels_the_text_format_cannot_carry(label):
    # format_oracle would write text that parse_oracle rejects or reads as
    # other labels
    with pytest.raises(OracleError, match=re.escape(repr(label))):
        oracle.validate_oracle(_two_label_group(label))
    ok = _two_label_group("b")
    oracle.validate_oracle(ok)
    assert oracle.parse_oracle(oracle.format_oracle(ok)) == ok


def test_validate_rejects_idempotent_nonunit():
    t = _tiny_table(
        {
            ("e", "e"): {"e": 1},
            ("e", "u"): {"u": 1},
            ("u", "u"): {"u": 1},
        }
    )
    with pytest.raises(OracleError):
        oracle.validate_oracle(t)


def test_validate_rejects_collapsed_mass_table():
    t = _tiny_table(
        {
            ("e", "e"): {"e": 1},
            ("e", "u"): {"u": 1},
            ("u", "u"): {"u": 9},
        }
    )
    with pytest.raises(OracleError):
        oracle.validate_oracle(t)


def test_validate_rejects_missing_unit_in_dual_product():
    t = _tiny_table(
        {
            ("e", "e"): {"e": 1},
            ("e", "u"): {"u": 1},
            ("u", "u"): {"u": 2, "e": 2},
        }
    )
    with pytest.raises(OracleError, match="unit"):
        oracle.validate_oracle(t)


def test_validate_rejects_broken_associativity():
    t = OracleTable(
        labels=("e", "a", "b"),
        unit="e",
        dual={"e": "e", "a": "a", "b": "b"},
        products={
            ("e", "e"): {"e": 1},
            ("a", "e"): {"a": 1},
            ("b", "e"): {"b": 1},
            ("a", "a"): {"e": 1, "a": 1},
            ("a", "b"): {"a": 1},
            ("b", "b"): {"e": 1},
        },
    )
    with pytest.raises(OracleError, match="associativity"):
        oracle.validate_oracle(t)


def test_validate_names_unknown_component():
    t = _tiny_table(
        {
            ("e", "e"): {"e": 1},
            ("e", "u"): {"u": 1},
            ("u", "u"): {"e": 1, "ghost": 1},
        }
    )
    with pytest.raises(OracleError, match="ghost"):
        oracle.validate_oracle(t)


STRAY_LINES = [
    ("prod zzzzzz zzzzzz : ?", "zzzzzz"),
    ("prod {x} zzzzzz : {x}*1", "zzzzzz"),
    ("dual: yyyyyy zzzzzz", "yyyyyy"),
]


@pytest.mark.parametrize("line,stray", STRAY_LINES)
def test_validate_names_unknown_labels(sl3_oracle, line, stray):
    _, table, _ = sl3_oracle
    text = oracle.format_oracle(table) + line.format(x=table.labels[0]) + "\n"
    t = oracle.parse_oracle(text)
    with pytest.raises(OracleError, match=stray):
        oracle.validate_oracle(t)
    assert reconstruction.recover_datum(t).stage == "validation"


def _closure_case(table, case):
    """A table that breaks closure, with the message validation must raise.

    The pair scan names the first missing product in label order; a key's
    labels are named only when every product is present.
    """
    labels, products = table.labels, dict(table.products)
    c, d = labels[3], labels[4]
    if case == "missing":
        del products[(labels[5], labels[7])], products[(labels[2], labels[9])]
        return products, f"closure: missing product {labels[2]} {labels[9]}"
    if case == "non-canonical":
        products[(d, c)] = products.pop((c, d))
        return products, f"closure: missing product {c} {d}"
    if case == "traded":
        # one product traded for a key naming an unknown label: the key count is still right
        del products[(c, d)]
        products[(c, "zzzzzz")] = None
        n = len(labels)
        assert len(products) == n * (n + 1) // 2
        return products, f"closure: missing product {c} {d}"
    products[(c, "zzzzzz")] = None
    return products, f"closure: unknown label zzzzzz in {(c, 'zzzzzz')}"


@pytest.mark.parametrize("case", ["missing", "non-canonical", "traded", "extra"])
def test_validate_closure_messages(sl3_oracle, case):
    _, table, _ = sl3_oracle
    products, message = _closure_case(table, case)
    t = OracleTable(table.labels, table.unit, dict(table.dual), products)
    with pytest.raises(OracleError) as err:
        oracle.validate_oracle(t)
    assert str(err.value) == message


def _structure_case(case):
    """A small table built in code that breaks one structure axiom, with its message."""
    labels, unit = ("e", "u"), "e"
    dual = {"e": "e", "u": "u"}
    products = {("e", "e"): {"e": 1}, ("e", "u"): {"u": 1}, ("u", "u"): {"e": 1}}
    if case == "duplicated":
        labels = ("e", "e")
        message = "labels: empty or duplicated"
    elif case == "empty":
        labels, products = (), {}
        message = "labels: empty or duplicated"
    elif case == "unit":
        unit = "x"
        message = "unit: not a label"
    elif case == "involution":
        labels = ("e", "a", "b")
        dual = {"e": "e", "a": "b", "b": "b"}
        message = "duality: not an involution at a"
    elif case == "unit-dual":
        dual = {"e": "u", "u": "e"}
        message = "duality: unit must be self-dual"
    elif case == "unknown-dual":
        dual = {"e": "e", "u": "u", "x": "x"}
        message = "duality: unknown label x"
    elif case == "unknown-component":
        products[("u", "u")] = {"z": 1}
        message = "closure: unknown component z in ('u', 'u')"
    elif case == "second-unit":
        products[("u", "u")] = {"u": 1}
        message = "unit: u behaves like a second unit"
    else:
        products[("u", "u")] = {"e": 1, "u": 0}
        message = "closure: nonpositive multiplicity in ('u', 'u')"
    return OracleTable(labels, unit, dual, products), message


@pytest.mark.parametrize(
    "case",
    [
        "duplicated",
        "empty",
        "unit",
        "involution",
        "unit-dual",
        "unknown-dual",
        "unknown-component",
        "second-unit",
        "multiplicity",
    ],
)
def test_check_structure_messages(case):
    t, message = _structure_case(case)
    with pytest.raises(OracleError) as err:
        oracle.check_structure(t)
    assert str(err.value) == message


def test_parse_skips_blank_lines():
    spaced = "\nlabels: a\n\nunit: a\n  \ndual: a a\nprod a a : a*1\n\n"
    assert oracle.parse_oracle(spaced) == oracle.parse_oracle(
        "labels: a\nunit: a\ndual: a a\nprod a a : a*1\n"
    )


@pytest.mark.parametrize(
    "line,message",
    [
        ("prod a a a*1", "missing ':'"),
        ("prod a : a*1", "prod wants two labels"),
        ("prod a a : a*x", "bad component 'a*x'"),
        ("prod a a :", "empty product"),
        ("unit: a a", "unit wants one label"),
        ("dual: a", "dual wants two labels"),
    ],
)
def test_parse_error_messages(line, message):
    with pytest.raises(OracleFormatError) as err:
        oracle.parse_oracle(f"labels: a\n{line}\nunit: a\ndual: a a\n")
    assert str(err.value) == f"line 2: {message}"


def test_window_box_rejects_bound_zero():
    with pytest.raises(ValueError) as err:
        oracle.window_box(root_datum.fixture("sl2"), 0)
    assert str(err.value) == "bound must be at least 1"
