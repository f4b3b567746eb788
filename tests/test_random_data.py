"""Random reductive data through the whole pipeline.

A drawn datum is a product of simple types and a torus, its character lattice
cut down to one between the root and weight lattices, in a random basis.
Reconstruction from its window table must either certify a datum isomorphic
to it, which `verify` accepts, or fail naming its stage; it never raises.
"""

import json

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from semiroot import cli, linalg, oracle, reconstruction, root_datum

# simple roots as rows with the standard basis as coroots, as in
# test_reconstruction.standard_coroots: the simply connected group
SIMPLE_TYPES = {
    "A1": ((2,),),
    "A2": ((2, -1), (-1, 2)),
    "A3": ((2, -1, 0), (-1, 2, -1), (0, -1, 2)),
    "B2": ((2, -2), (-1, 2)),
    "B3": ((2, -1, 0), (-1, 2, -2), (0, -1, 2)),
    "C3": ((2, -1, 0), (-1, 2, -1), (0, -2, 2)),
    "G2": ((2, -3), (-1, 2)),
}
# a materialized table is valid, so a failure names a stage after validation
STAGES = {"addition", "lattice", "roots", "coroots", "assembly", "certification"}


def build_datum(types, torus, weight, ops):
    """The datum of `types` times a torus of rank `torus`, on the lattice spanned
    by the roots, `weight` and the torus, in the basis changed by `ops`.

    In the simply connected coordinates the character lattice is the weight
    lattice plus Z^torus, and coroots are the first unit vectors.  The
    sublattice's basis is the nonzero rows of u @ G, u from the Smith normal
    form of its generators G; a root r gets the coordinates c with c B = r,
    a coroot y gets B y.  Each op (i, j, c) adds c times row j of g to row i,
    or negates row i when i == j; roots then map by g and coroots by g^-T.
    """
    k = sum(len(SIMPLE_TYPES[name]) for name in types)
    n = k + torus
    roots, at = [], 0
    for name in types:
        for row in SIMPLE_TYPES[name]:
            roots.append((0,) * at + row + (0,) * (n - at - len(row)))
        at += len(SIMPLE_TYPES[name])
    coroots = linalg.identity(n)[:k]
    gens = roots + [tuple(weight) + (0,) * torus] + linalg.identity(n)[k:]
    _, u = linalg.smith_normal_form(gens)
    basis = linalg.mat_mul(u, gens)[:n]
    roots = [linalg.solve(linalg.transpose(basis), r) for r in roots]
    assert all(x.denominator == 1 for r in roots for x in r), "a root left the lattice"
    coroots = [linalg.mat_vec(basis, y) for y in coroots]
    g = linalg.identity(n)
    for i, j, c in ops:
        g[i] = [-x for x in g[i]] if i == j else linalg.vec_add(g[i], linalg.vec_scale(c, g[j]))
    adj, det = linalg.adjugate(g)  # det(g) = +-1, so g^-1 = det * adj
    g_dual = linalg.transpose([[det * x for x in row] for row in adj])
    return root_datum.RootDatum(
        n,
        tuple(tuple(int(x) for x in linalg.mat_vec(g, r)) for r in roots),
        tuple(tuple(int(x) for x in linalg.mat_vec(g_dual, y)) for y in coroots),
        name="x".join(types) + (f"xT{torus}" if torus else ""),
    )


@st.composite
def reductive_cases(draw):
    types, k = [], 0
    while k < 3 and draw(st.booleans()):
        name = draw(st.sampled_from([n for n, m in SIMPLE_TYPES.items() if k + len(m) <= 3]))
        types.append(name)
        k += len(SIMPLE_TYPES[name])
    torus = draw(st.integers(0 if k else 1, 3 - k))
    n = k + torus
    weight = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))
    ops = draw(st.lists(pairs, max_size=4))
    bound = draw(st.integers(1, 3 if n <= 2 else 2))
    seed = draw(st.integers(0, 2**16))
    return tuple(types), torus, tuple(weight), tuple(ops), bound, seed


def outcome(case) -> str:
    """Run one drawn case through gen-oracle, reconstruct and verify; return
    "isomorphic", "torus" for the one certified answer that is not, or the
    failing stage.

    A certified datum that `verify` does not match to its source is allowed
    only where the window shows nothing of the semisimple part: every window
    weight pairs to zero with every coroot (as for pgl2 at bound 1), so the
    table is a torus's table too, and the certified datum is that torus.
    """
    types, torus, weight, ops, bound, seed = case
    d = build_datum(types, torus, weight, ops)
    root_datum.validate_root_datum(d)
    t, _ = oracle.materialize_oracle(d, bound, seed=seed)
    report = reconstruction.recover_datum(oracle.parse_oracle(oracle.format_oracle(t)))
    if report.verdict != "certified":
        assert report.verdict == "failed" and report.stage in STAGES and report.reason
        return report.stage
    recovered = cli._datum_from_report(json.loads(json.dumps(cli._report_blob(report))))
    if root_datum.root_data_isomorphic(recovered, d) is not None:
        return "isomorphic"
    assert recovered.semisimple_rank == 0 and recovered.rank == torus, (d, bound, seed)
    assert all(not any(d.pairing(w)) for w in oracle.window_weights(d, bound)), (d, bound, seed)
    return "torus"


# the certified answers that are not the source: pgl2 factors at bound 1
@example(case=(("A1",), 0, (0,), (), 1, 7))
@example(case=(("A1",), 2, (0,), (), 1, 7))
@example(case=(("A1", "A1"), 1, (0, 2), (), 1, 7))
@given(case=reductive_cases())
@settings(max_examples=100)
def test_random_reductive_data_certify_isomorphic_or_fail_at_a_stage(case):
    event(outcome(case))


# (case, outcome); SO4 = (SL2 x SL2)/mu2 and SO6 = SL4/mu2 lie strictly
# between the simply connected and adjoint forms
PINNED_OUTCOMES = [
    ((("A1", "A1"), 0, (1, 1), (), 2, 7), "isomorphic"),  # SO4
    ((("A1", "A1"), 0, (1, 1), (), 3, 7), "isomorphic"),
    ((("A1", "A1"), 0, (1, 1), ((0, 1, 1), (1, 1, 0)), 2, 1), "isomorphic"),
    ((("A3",), 0, (0, 1, 0), (), 2, 7), "isomorphic"),  # SO6
    ((("A3",), 0, (0, 1, 0), ((2, 0, -1), (1, 1, 0)), 2, 1), "isomorphic"),
    ((("B3",), 0, (0, 0, 0), (), 2, 7), "isomorphic"),  # SO7
    ((("C3",), 0, (0, 0, 0), ((0, 2, 1),), 2, 7), "isomorphic"),  # PSp6
    ((("A3",), 0, (1, 0, 0), (), 2, 7), "isomorphic"),  # SL4
    (((), 3, (), ((0, 1, -1),), 2, 7), "isomorphic"),  # T3
    ((("A1",), 2, (1,), (), 2, 7), "isomorphic"),  # SL2 x T2
    ((("A2",), 1, (1, 0), ((2, 0, 1),), 2, 7), "isomorphic"),  # SL3 x T1
    ((("A1",), 0, (0,), (), 1, 7), "torus"),  # PGL2
    ((("A1",), 2, (0,), ((1, 0, 1),), 1, 7), "torus"),  # PGL2 x T2
    ((("A1", "A1"), 0, (0, 0), (), 1, 7), "torus"),  # PGL2 x PGL2
    ((("B3",), 0, (0, 0, 1), (), 1, 7), "roots"),  # Spin7
    ((("A3",), 0, (1, 0, 0), (), 1, 7), "certification"),  # SL4
    ((("G2",), 0, (0, 0), (), 2, 7), "coroots"),
]


@pytest.mark.parametrize("case,expected", PINNED_OUTCOMES)
def test_random_data_outcomes_as_pinned(case, expected):
    assert outcome(case) == expected


@pytest.mark.parametrize("seed", [7, 1])
def test_bound_one_table_cannot_see_a_pgl2_factor(seed):
    # PGL2's nonzero dominant weights pair to 2n with its coroot, so at bound 1
    # Sp6 x PGL2 has the table of Sp6, and the certified datum is Sp6
    source = build_datum(("C3", "A1"), 0, (1, 0, 0, 0), ())
    sp6 = build_datum(("C3",), 0, (1, 0, 0), ())
    t, _ = oracle.materialize_oracle(source, 1, seed=seed)
    same = oracle.table_isomorphism(t, oracle.materialize_oracle(sp6, 1, seed=seed)[0], {})
    assert same is not None
    report = reconstruction.recover_datum(t)
    assert report.certified
    assert root_datum.root_data_isomorphic(report.datum, sp6) is not None
    assert root_datum.root_data_isomorphic(report.datum, source) is None
