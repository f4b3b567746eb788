"""End-to-end acceptance battery.

Each test covers one release criterion and prints a single PASS/FAIL line so
the suite output doubles as the acceptance report.
"""

import random
from itertools import product as iter_product

from semiroot import char_engine, linalg, oracle, polytope, reconstruction, root_datum


def _verdict(number, slug, ok, detail=""):
    line = f"criterion {number} ({slug}): {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, f"{line} {detail}"


def _same_coset(d, mu, lam):
    diff = linalg.vec_sub(lam, mu)
    if not d.simple_roots:
        return all(c == 0 for c in diff)
    sol = linalg.solve(linalg.transpose(d.simple_roots), diff)
    return sol is not None and all(c.denominator == 1 for c in sol)


def _dominant_box(d, coord_max):
    box = range(-coord_max, coord_max + 1)
    return [v for v in iter_product(box, repeat=d.rank) if root_datum.is_dominant(d, v)]


def test_criterion_1_round_trip_reconstruction():
    cases = [
        ("sl2", 4), ("pgl2", 4), ("gl2", 4), ("sl3", 4),
        ("sp4", 4), ("g2", 4), ("sl2xpgl2", 4), ("torus2", 4),
    ]
    failures = []
    for name, bound in cases:
        d = root_datum.fixture(name)
        table, _ = oracle.materialize_oracle(d, bound, seed=7)
        report = reconstruction.recover_datum(table)
        if not report.certified:
            failures.append(f"{name}: {report.stage}: {report.reason}")
        elif root_datum.root_data_isomorphic(report.datum, d) is None:
            failures.append(f"{name}: certified but not isomorphic")
    _verdict(1, "round-trip reconstruction", not failures, "; ".join(failures))


def test_criterion_2_order_criteria_equivalence():
    cases = [("sl2", 5), ("sl3", 5), ("sp4", 5), ("g2", 3)]
    disagreements = []
    for name, coord_max in cases:
        d = root_datum.fixture(name)
        dominant = _dominant_box(d, coord_max)
        for mu in dominant:
            for lam in dominant:
                if not _same_coset(d, mu, lam):
                    continue
                crit = polytope.order_criteria_agree(d, mu, lam)
                if not (crit.dominance == crit.hull == crit.tensor):
                    disagreements.append(f"{name} {mu} {lam}: {tuple(crit)}")
    _verdict(2, "order criteria equivalence", not disagreements,
             "; ".join(disagreements[:5]))


def test_criterion_3_prv_components_occur():
    bad = []
    for name in ["sl3", "g2"]:
        d = root_datum.fixture(name)
        dominant = _dominant_box(d, 2)
        for lam in dominant:
            for mu in dominant:
                dec = char_engine.tensor_decompose(d, lam, mu)
                for nu in char_engine.prv_components(d, lam, mu):
                    if dec.get(nu, 0) < 1:
                        bad.append(f"{name} {lam} {mu} missing {nu}")
    _verdict(3, "PRV components occur", not bad, "; ".join(bad[:5]))


def test_criterion_4_tensor_bookkeeping():
    rng = random.Random(0)
    bad = []
    for name in root_datum.fixture_names():
        d = root_datum.fixture(name)
        pool = oracle.window_weights(d, 3)
        for _ in range(200):
            lam, mu = rng.choice(pool), rng.choice(pool)
            dec = char_engine.tensor_decompose(d, lam, mu)
            mass = sum(m * char_engine.dimension(d, nu) for nu, m in dec.items())
            if mass != char_engine.dimension(d, lam) * char_engine.dimension(d, mu):
                bad.append(f"{name} {lam} {mu}: dimension mass")
            cartan = tuple(a + b for a, b in zip(lam, mu))
            if dec.get(cartan) != 1:
                bad.append(f"{name} {lam} {mu}: cartan multiplicity")
    _verdict(4, "tensor bookkeeping", not bad, "; ".join(bad[:5]))


def test_criterion_5_quantized_covering():
    bad = []
    for name in ["sl2", "pgl2", "sl3", "pgl3", "sp4", "so5", "g2"]:
        d = root_datum.fixture(name)
        for gen in polytope.fundamental_monoid_generators(d):
            for n in range(1, 7):
                rep = polytope.quantized_cover_check(d, gen, n)
                if rep.verdict != "ok":
                    bad.append(f"{name} {gen} n={n}: {rep.verdict}")
    _verdict(5, "quantized covering", not bad, "; ".join(bad[:5]))


def test_criterion_6_negative_tables():
    problems = []

    collapsed = oracle.OracleTable(
        labels=("e", "u"),
        unit="e",
        dual={"e": "e", "u": "u"},
        products={
            ("e", "e"): {"e": 1},
            ("e", "u"): {"u": 1},
            ("u", "u"): {"u": 9},
        },
    )
    try:
        oracle.validate_oracle(collapsed)
        problems.append("collapsed table accepted")
    except oracle.OracleError:
        pass

    d = root_datum.fixture("sl3")
    table, _ = oracle.materialize_oracle(d, 2, seed=5)
    base = oracle.format_oracle(table).splitlines()
    labels = list(table.labels)
    rng = random.Random(11)
    for _ in range(100):
        lines = list(base)
        i = rng.randrange(len(lines))
        line = lines[i]
        kind = rng.randrange(4)
        if kind == 0 and line.startswith("prod") and not line.endswith("?"):
            head, body = line.split(" : ")
            parts = body.split()
            j = rng.randrange(len(parts))
            z, m = parts[j].rsplit("*", 1)
            parts[j] = f"{z}*{int(m) + 1 + rng.randrange(3)}"
            lines[i] = head + " : " + " ".join(parts)
        elif kind == 1 and line.startswith("prod") and not line.endswith("?"):
            lines[i] = line.split(" : ")[0] + " : ?"
        elif kind == 2 and line.startswith("prod") and not line.endswith("?"):
            head, body = line.split(" : ")
            parts = body.split()
            j = rng.randrange(len(parts))
            z, m = parts[j].rsplit("*", 1)
            parts[j] = f"{rng.choice([x for x in labels if x != z])}*{m}"
            lines[i] = head + " : " + " ".join(parts)
        else:
            del lines[i]
        try:
            mutated = oracle.parse_oracle("\n".join(lines) + "\n")
            oracle.validate_oracle(mutated)
        except (oracle.OracleFormatError, oracle.OracleError):
            continue
        report = reconstruction.recover_datum(mutated)
        if not report.certified:
            continue
        if root_datum.root_data_isomorphic(report.datum, d) is None:
            problems.append("silent miscertification")
    _verdict(6, "negative tables rejected", not problems, "; ".join(problems[:5]))


def test_criterion_7_isogeny_discrimination():
    bad = []
    pairs = [("sl2", "pgl2"), ("sp4", "so5"), ("sl3", "pgl3")]
    for a, b in pairs:
        da, db = root_datum.fixture(a), root_datum.fixture(b)
        if root_datum.root_data_isomorphic(da, db) is not None:
            bad.append(f"{a} ~ {b}")
        for name, self_d, other_d in [(a, da, db), (b, db, da)]:
            table, _ = oracle.materialize_oracle(self_d, 4, seed=7)
            report = reconstruction.recover_datum(table)
            if not report.certified:
                bad.append(f"{name}: not certified")
                continue
            if root_datum.root_data_isomorphic(report.datum, self_d) is None:
                bad.append(f"{name}: wrong lattice recovered")
            if root_datum.root_data_isomorphic(report.datum, other_d) is not None:
                bad.append(f"{name}: collapsed onto isogeny partner")
    _verdict(7, "isogeny discrimination", not bad, "; ".join(bad))
