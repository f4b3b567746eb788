"""`recover_datum` walks associativity only on a table that does not certify.

It checks the table's structure, runs the stages, and runs the walk only
when they end without a certificate.  Every table must still get the report
of the old order, in which `validate_oracle` ran first and the stages after;
`reference_recover` below is that order.  The tables are criterion 6's
mutations of several fixtures, so many of them fail the walk.
"""

import random

import pytest
from test_reconstruction import WIDE_DATA

from semiroot import oracle, root_datum
from semiroot.reconstruction import (
    ReconstructionReport,
    RootDatum,
    StageFailure,
    _box_coordinates,
    _certify,
    recover_addition,
    recover_datum,
    recover_lattice,
    recover_simple_coroots,
    recover_simple_roots,
)

SL2XT2 = RootDatum(3, ((2, 0, 0),), ((1, 0, 0),))
BATTERY = [
    (name, root_datum.fixture(name), bound)
    for name, bound in [
        ("sl3", 3), ("sp4", 3), ("g2", 3), ("pgl3", 4), ("gl2", 4), ("torus2", 3),
    ]
] + [("sl2xT2", SL2XT2, 2), ("sl4", WIDE_DATA["sl4"], 2)]
MUTATIONS = 64  # per table


def reference_recover(t):
    """Validation first, then the stages: the order `recover_datum` had before."""
    report = ReconstructionReport(verdict="failed")
    try:
        oracle.validate_oracle(t)
    except oracle.OracleError as e:
        report.verdict, report.stage, report.reason = "rejected", "validation", str(e)
        return report
    try:
        report.monoid = recover_addition(t)
        rank, embedding = recover_lattice(report.monoid)
        report.lattice_rank, report.embedding = rank, embedding
        roots = recover_simple_roots(t, embedding)
        if rank - len(roots) >= 2:
            embedding, roots = _box_coordinates(embedding, roots)
            report.embedding = embedding
        report.simple_roots = roots
        coroots = recover_simple_coroots(t, embedding, roots)
        datum = RootDatum(rank, roots, coroots, "recovered")
        try:
            root_datum.validate_root_datum(datum)
        except root_datum.RootDatumError as e:
            raise StageFailure("assembly", str(e)) from None
        report.datum = datum
        report.inferred_bound, report.bijection = _certify(t, datum, embedding)
        report.verdict = "certified"
    except StageFailure as e:
        report.stage, report.reason = e.stage, e.reason
    return report


def _outcome(recover, t):
    """The report, or the type and text of the exception raised."""
    try:
        return recover(t)
    except Exception as e:  # any exception must be the same in both orders
        return type(e), str(e)


def _mutate(lines, rng, labels):
    """One of criterion 6's mutations: raise a multiplicity, mark a cell out of
    window, swap a component for another label, or delete a line."""
    lines = list(lines)
    i = rng.randrange(len(lines))
    line = lines[i]
    kind = rng.randrange(4)
    cell = line.startswith("prod") and not line.endswith("?")
    if kind == 0 and cell:
        head, body = line.split(" : ")
        parts = body.split()
        j = rng.randrange(len(parts))
        z, m = parts[j].rsplit("*", 1)
        parts[j] = f"{z}*{int(m) + 1 + rng.randrange(3)}"
        lines[i] = head + " : " + " ".join(parts)
    elif kind == 1 and cell:
        lines[i] = line.split(" : ")[0] + " : ?"
    elif kind == 2 and cell:
        head, body = line.split(" : ")
        parts = body.split()
        j = rng.randrange(len(parts))
        z, m = parts[j].rsplit("*", 1)
        parts[j] = f"{rng.choice([x for x in labels if x != z])}*{m}"
        lines[i] = head + " : " + " ".join(parts)
    else:
        del lines[i]
    return "\n".join(lines) + "\n"


def test_reports_match_validation_first():
    walk_failures = 0
    for name, d, bound in BATTERY:
        table, _ = oracle.materialize_oracle(d, bound, seed=7)
        lines = oracle.format_oracle(table).splitlines()
        rng = random.Random(f"{name}@{bound}")
        for _ in range(MUTATIONS):
            try:
                t = oracle.parse_oracle(_mutate(lines, rng, table.labels))
            except oracle.OracleFormatError:
                continue
            expected = _outcome(reference_recover, t)
            assert _outcome(recover_datum, t) == expected, (name, bound)
            try:
                oracle.check_structure(t)
            except oracle.OracleError:
                continue
            if isinstance(expected, ReconstructionReport) and expected.stage == "validation":
                walk_failures += 1
    assert walk_failures >= 50


@pytest.mark.parametrize("name", root_datum.fixture_names())
def test_certified_tables_skip_the_walk(name, monkeypatch):
    table, _ = oracle.materialize_oracle(root_datum.fixture(name), 3, seed=7)
    report = recover_datum(table)

    def walk(t):
        raise AssertionError("associativity walked")

    monkeypatch.setattr(oracle, "check_associativity", walk)
    if report.certified:
        assert recover_datum(table) == report
    else:  # a table that does not certify is walked before its report
        with pytest.raises(AssertionError, match="associativity walked"):
            recover_datum(table)
