import json

import pytest

from semiroot import cli, oracle, root_datum


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_round_trip_exit_codes(tmp_path, capsys):
    oracle_path = tmp_path / "sl2.oracle"
    report_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "gen-oracle", "--datum", "sl2", "--bound", "4", "--out", str(oracle_path)
    )
    assert code == 0
    code, out, _ = run(
        capsys, "reconstruct", "--oracle", str(oracle_path), "--out", str(report_path)
    )
    assert code == 0
    assert "certified" in out
    code, out, _ = run(capsys, "verify", "--datum", "sl2", "--report", str(report_path))
    assert code == 0
    assert "isomorphic" in out


def test_verify_wrong_group_fails(tmp_path, capsys):
    oracle_path = tmp_path / "sl2.oracle"
    report_path = tmp_path / "report.json"
    run(capsys, "gen-oracle", "--datum", "sl2", "--out", str(oracle_path))
    run(capsys, "reconstruct", "--oracle", str(oracle_path), "--out", str(report_path))
    code, out, _ = run(capsys, "verify", "--datum", "pgl2", "--report", str(report_path))
    assert code == 1
    assert "not isomorphic" in out


def test_verify_uncertified_report(tmp_path, capsys):
    oracle_path = tmp_path / "small.oracle"
    report_path = tmp_path / "report.json"
    run(capsys, "gen-oracle", "--datum", "sl2xpgl2", "--bound", "2",
        "--out", str(oracle_path))
    code, _, _ = run(
        capsys, "reconstruct", "--oracle", str(oracle_path), "--out", str(report_path)
    )
    assert code == 1
    code, out, _ = run(capsys, "verify", "--datum", "sl2xpgl2", "--report", str(report_path))
    assert code == 1
    assert "not certified" in out


def test_datum_file_argument(tmp_path, capsys):
    blob = {
        "rank": 1,
        "simple_roots": [[2]],
        "simple_coroots": [[1]],
        "name": "sl2-copy",
    }
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "tensor", "--datum", str(path), "--left", "2", "--right", "2")
    assert code == 0
    assert out == "4:1\n2:1\n0:1\n"


def test_tensor_golden_sl3(capsys):
    code, out, _ = run(
        capsys, "tensor", "--datum", "sl3", "--left", "1,0", "--right", "0,1"
    )
    assert code == 0
    assert out == "1,1:1\n0,0:1\n"


def test_tensor_rejects_nondominant(capsys):
    code, _, err = run(capsys, "tensor", "--datum", "sl2", "--left", "-1", "--right", "2")
    assert code == 2
    assert "not dominant" in err


def test_gen_oracle_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.oracle", tmp_path / "b.oracle"
    run(capsys, "gen-oracle", "--datum", "sl3", "--bound", "2", "--seed", "6", "--out", str(a))
    run(capsys, "gen-oracle", "--datum", "sl3", "--bound", "2", "--seed", "6", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_oracle_provenance(tmp_path, capsys):
    out = tmp_path / "t.oracle"
    prov_path = tmp_path / "prov.json"
    run(capsys, "gen-oracle", "--datum", "sl2", "--bound", "3", "--out", str(out),
        "--provenance-out", str(prov_path))
    prov = json.loads(prov_path.read_text())
    table = oracle.parse_oracle(out.read_text())
    assert set(prov) == set(table.labels)
    assert sorted(tuple(v) for v in prov.values()) == [(0,), (1,), (2,), (3,)]


def test_check_props_passes(capsys):
    code, out, _ = run(capsys, "check-props", "--datum", "sl2", "--max-coord", "3",
                       "--max-n", "2")
    assert code == 0
    assert "result: PASS" in out
    assert "disagree=0" in out


@pytest.mark.parametrize("name", root_datum.fixture_names())
def test_check_props_passes_at_defaults(capsys, name):
    code, out, _ = run(capsys, "check-props", "--datum", name)
    assert code == 0
    assert "undecided=0 disagree=0" in out
    assert out.endswith("result: PASS\n")


@pytest.mark.parametrize("name", ["gl2", "sl2xpgl2"])
def test_check_props_passes_off_full_rank(capsys, name):
    # gl2's orbit hulls are segments in the plane; sl2xpgl2's are rectangles
    code, out, _ = run(capsys, "check-props", "--datum", name, "--max-coord", "3",
                       "--max-n", "2")
    assert code == 0
    assert "undecided=0 disagree=0" in out
    assert "result: PASS" in out


def test_check_props_skips_cover_for_torus(capsys):
    code, out, _ = run(capsys, "check-props", "--datum", "torus1", "--max-coord", "2",
                       "--max-n", "1")
    assert code == 0
    assert "cover: skipped" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (("gen-oracle", "--datum", "sl2", "--bound", "0"), "--bound must be >= 1"),
        (("check-props", "--datum", "sl2", "--max-coord", "0"), "--max-coord and --max-n"),
        (("check-props", "--datum", "sl2", "--max-n", "0"), "--max-coord and --max-n"),
    ],
)
def test_nonpositive_settings_rejected(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


SL3_ROOTS = [[2, -1], [-1, 2]]
SL3_COROOTS = [[1, 0], [0, 1]]


@pytest.mark.parametrize("rank", [2.0, "2", None])
def test_non_integer_rank_exits_2(tmp_path, capsys, rank):
    datum = tmp_path / "datum.json"
    datum.write_text(json.dumps(
        {"rank": rank, "simple_roots": SL3_ROOTS, "simple_coroots": SL3_COROOTS}
    ))
    code, out, err = run(capsys, "gen-oracle", "--datum", str(datum), "--bound", "1")
    assert (code, out) == (2, "")
    assert "invalid root datum: shape" in err
    report = tmp_path / "report.json"
    report.write_text(json.dumps({
        "verdict": "certified", "rank": rank,
        "simple_roots": SL3_ROOTS, "simple_coroots": SL3_COROOTS,
    }))
    code, out, err = run(capsys, "verify", "--datum", "sl3", "--report", str(report))
    assert (code, out) == (2, "")
    assert "invalid root datum: shape" in err


def test_malformed_oracle_diagnoses_line(tmp_path, capsys):
    bad = tmp_path / "bad.oracle"
    bad.write_text("labels: a b\nunit: a\nwhat is this\n")
    code, _, err = run(capsys, "reconstruct", "--oracle", str(bad))
    assert code == 2
    assert "line 3" in err


def test_label_with_colon_rejected_on_labels_line(tmp_path, capsys):
    # a ':' ends a prod line's head, so such a label could never be multiplied
    bad = tmp_path / "colon.oracle"
    bad.write_text("labels: a b:c\nunit: a\ndual: a a\nprod a a: a*1\n")
    code, out, err = run(capsys, "reconstruct", "--oracle", str(bad))
    assert (code, out) == (2, "")
    assert "line 1: label 'b:c' contains ':'" in err


def test_missing_files(capsys):
    code, _, err = run(capsys, "reconstruct", "--oracle", "/nonexistent.oracle")
    assert code == 2
    code, _, err = run(capsys, "verify", "--datum", "sl2", "--report", "/nonexistent.json")
    assert code == 2
    code, _, err = run(capsys, "gen-oracle", "--datum", "missing_fixture")
    assert code == 2


def test_oracle_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.oracle"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "reconstruct", "--oracle", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: ")


def test_report_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "verify", "--datum", "sl2", "--report", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["gen-oracle", "--datum", "sl2", "--bound", "2", "--out", "{missing}/t.txt"],
        [
            "gen-oracle", "--datum", "sl2", "--bound", "2", "--out", "{tmp}/t.txt",
            "--provenance-out", "{missing}/p.json",
        ],
        ["reconstruct", "--oracle", "{table}", "--out", "{missing}/r.json"],
    ],
    ids=["gen-oracle-out", "provenance-out", "reconstruct-out"],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    table = tmp_path / "sl2.oracle"
    run(capsys, "gen-oracle", "--datum", "sl2", "--bound", "2", "--out", str(table))
    missing = tmp_path / "missing_dir"
    argv = [a.format(missing=missing, tmp=tmp_path, table=table) for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {missing}/")
    assert not missing.exists()


def test_rejected_table_reports_validation_stage(tmp_path, capsys):
    src = tmp_path / "good.oracle"
    run(capsys, "gen-oracle", "--datum", "sl2", "--bound", "3", "--out", str(src))
    lines = src.read_text().splitlines()
    unit = next(line.split()[1] for line in lines if line.startswith("unit:"))
    # a multiplicity bump in a product with the unit breaks the unit axiom
    for i, line in enumerate(lines):
        parts = line.split()
        if line.startswith("prod") and unit in parts[1:3] and parts[1] != parts[2]:
            lines[i] = line[:-1] + "5"
            break
    bad = tmp_path / "bad.oracle"
    bad.write_text("\n".join(lines) + "\n")
    report_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "reconstruct", "--oracle", str(bad), "--out", str(report_path))
    assert code == 1
    blob = json.loads(report_path.read_text())
    assert blob["verdict"] == "rejected"
    assert blob["stage"] == "validation"


@pytest.mark.parametrize(
    "line", ["prod zzzzzz zzzzzz : ?", "prod {x} zzzzzz : {x}*1", "dual: yyyyyy zzzzzz"]
)
def test_unknown_labels_rejected_at_validation(tmp_path, capsys, line):
    src = tmp_path / "sl3.oracle"
    run(capsys, "gen-oracle", "--datum", "sl3", "--bound", "2", "--out", str(src))
    text = src.read_text()
    label = oracle.parse_oracle(text).labels[0]
    bad = tmp_path / "bad.oracle"
    bad.write_text(text + line.format(x=label) + "\n")
    code, out, err = run(capsys, "reconstruct", "--oracle", str(bad))
    assert code == 1
    assert out.startswith("verdict: rejected stage=validation reason=")
    assert "zzzzzz" in out or "yyyyyy" in out
    assert err == ""


def test_torus2_reports_its_bound(tmp_path, capsys):
    # two torus coordinates leave the completion basis free up to GL(2, Z);
    # the report must still name the bound that generated the table
    oracle_path = tmp_path / "torus2.oracle"
    run(
        capsys,
        "gen-oracle", "--datum", "torus2", "--bound", "3", "--seed", "7", "--out", str(oracle_path),
    )
    code, out, _ = run(capsys, "reconstruct", "--oracle", str(oracle_path))
    assert code == 0
    assert out == "verdict: certified rank=2 bound=3\n"


def test_report_json_sorted(tmp_path, capsys):
    oracle_path = tmp_path / "sl2.oracle"
    report_path = tmp_path / "report.json"
    run(capsys, "gen-oracle", "--datum", "sl2", "--out", str(oracle_path))
    run(capsys, "reconstruct", "--oracle", str(oracle_path), "--out", str(report_path))
    text = report_path.read_text()
    blob = json.loads(text)
    assert json.dumps(blob, indent=2, sort_keys=True) + "\n" == text
    assert blob["rank"] == 1
    assert blob["inferred_bound"] == 4


def test_gen_oracle_writes_stdout(capsys):
    code, out, err = run(capsys, "gen-oracle", "--datum", "sl2", "--bound", "2", "--seed", "7")
    table, _ = oracle.materialize_oracle(root_datum.fixture("sl2"), 2, seed=7)
    assert (code, out, err) == (0, oracle.format_oracle(table), "")


@pytest.mark.parametrize(
    "text,message",
    [
        ("{", "{path}: line 1 column 2: "),
        ("[]", "{path}: not a root datum file ("),
        ('{"rank": 1}', "{path}: not a root datum file ("),
    ],
    ids=["not-json", "list", "no-roots"],
)
def test_bad_datum_file_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "datum.json"
    path.write_text(text)
    code, out, err = run(capsys, "gen-oracle", "--datum", str(path), "--bound", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message.format(path=path))


@pytest.mark.parametrize(
    "weight,message",
    [
        ("1,x", "bad weight '1,x': want comma-separated integers"),
        ("1", "bad weight '1': datum has rank 2"),
    ],
)
def test_tensor_bad_weight_exits_2(capsys, weight, message):
    code, out, err = run(capsys, "tensor", "--datum", "sl3", "--left", weight, "--right", "0,1")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "text,message",
    [
        ("{", "{path}: line 1 column 2: "),
        ('{"stage": null}', "{path}: not a reconstruction report\n"),
        ('{"verdict": "certified"}', "report: not a reconstruction report ('rank')\n"),
    ],
    ids=["not-json", "no-verdict", "certified-without-datum"],
)
def test_bad_report_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "report.json"
    path.write_text(text)
    code, out, err = run(capsys, "verify", "--datum", "sl2", "--report", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message.format(path=path))
