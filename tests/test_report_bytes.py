"""Oracle tables and report JSON pinned byte for byte.

`gen-oracle` and `reconstruct --out` must write the same bytes for the same
input; a change to the materializer or the pipeline that moves a label, a
cell, a coordinate or a verdict shows here.  The digests are sha256 of the
files written by `gen-oracle --seed 7` and by `reconstruct` on them.
"""

import hashlib

import pytest

from semiroot import cli

TABLE_SHA256 = [
    ("g2", 3, "0297983fea4fa023012d98f4aa1dcc8606fc1cd926e966b1fafe76e1099dbb1b"),
    ("gl2", 3, "65067a607c8bd2cd1a7510916ff51c58ec543f2ee7f2b879333ba118e9139868"),
    ("pgl2", 3, "b91891ac5d71ff22ada31165f87ec26e0b9219dcddcda6c2b1a3ae0ade68bb42"),
    ("pgl3", 3, "4ed988739080224d4a7270bb7748b10464dd466f77bdfd8f2cd5d3a8ff99e540"),
    ("sl2", 3, "c86f5d8c5fa55aaf273dc0cf84d828be3532b01afb362800a5cf13436448e612"),
    ("sl2xpgl2", 3, "66d2ef2a236ba893bff16482b73b58473527565a042475405b7b27f735682f25"),
    ("sl3", 3, "e3458f3a799b7f8e8bb62308cbd7ea1db93580a592604d2730800f29e3d894f4"),
    ("so5", 3, "d74b319745753d83439cc996d2159ad3ee5df44fe72c3971dd8c969760cebe63"),
    ("sp4", 3, "4b8e3f7390993fbd1046d1d8e221a94cdb3168063d37e30bfa6c92c6889e82f0"),
    ("torus1", 3, "c17149662d5a1db1cb0dde2164c6a800e4c261b67a70e502dd6c40bb2c68afb3"),
    ("torus2", 3, "c78fe655ed9c1ceec72880aa23944c3f3f6a3830ff3eba82e184a8c827af2ce6"),
]

REPORT_SHA256 = [
    ("g2", 3, "f7b7cf191b7b5126b0d74f88490e25499de2e9fbf900128a69a2a2481e11e5a1"),
    ("gl2", 3, "bac6cea1e1961a636576cfdf4531d25d137a96f9f66d7ac3f4be16c3b60d57a3"),
    ("pgl2", 3, "2be0a732b253126167a5c6c87746c46d8a5638c33f5d6d0c72a5f3acab1030f9"),
    ("pgl3", 3, "3855a734162acf6059c34484a00141e469ac31f42e589bf75da291c974926a46"),
    ("sl2", 3, "7be68f60af06ec45e1a784dc0189cee7560fed03f2bb154bb6b5559e31ec2c9f"),
    ("sl2xpgl2", 3, "86b83607d6f76443f355039c11d794bc6e6385df0f37c2dda525c69464a8e1e8"),
    ("sl3", 3, "0f6c63f16a7426d2044a35975aa06d91caa9be40236fd79427af393341e5e063"),
    ("so5", 3, "88dc2edbcdf6cb07a3f89cc1b615d4808c4c07bf4e10d9f47781bee33e61fa10"),
    ("sp4", 3, "cc03b20b520adf5daf94105b93a49dce639be22a37a2621c4b5fc66aeb98c1fa"),
    ("torus1", 3, "2c03f1c1ea1ff7dcb85c21d610b526a61bcb302e8ef55d92773e5e150998adb1"),
    ("torus2", 3, "de5e3e3bab59fdac5889414b290886f710385a977f91726d059790bde5536aca"),
    ("torus2", 4, "de63fec9a5feff5f284665b6e5e5d5c289558e3915a5b5efde9c008b94be0114"),
]


@pytest.mark.parametrize("name,bound,digest", REPORT_SHA256, ids=lambda v: str(v)[:8])
def test_report_bytes_pinned(name, bound, digest, tmp_path):
    table, report = tmp_path / "table.txt", tmp_path / "report.json"
    cli.main(
        ["gen-oracle", "--datum", name, "--bound", str(bound), "--seed", "7", "--out", str(table)]
    )
    cli.main(["reconstruct", "--oracle", str(table), "--out", str(report)])
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name,bound,digest", TABLE_SHA256, ids=lambda v: str(v)[:8])
def test_table_bytes_pinned(name, bound, digest, tmp_path):
    table = tmp_path / "table.txt"
    cli.main(
        ["gen-oracle", "--datum", name, "--bound", str(bound), "--seed", "7", "--out", str(table)]
    )
    assert hashlib.sha256(table.read_bytes()).hexdigest() == digest
