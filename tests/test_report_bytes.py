"""Report JSON pinned byte for byte.

`reconstruct --out` must write the same bytes for the same table; a change
to the pipeline that moves a coordinate, a label or a verdict shows here.
The digests are sha256 of the files written by `gen-oracle --seed 7` and
`reconstruct`.
"""

import hashlib

import pytest

from semiroot import cli

REPORT_SHA256 = [
    ("g2", 3, "dc754a9dc442a2954be724ad9d6fb72ce86329e869addd036a5d639c72ea1926"),
    ("gl2", 3, "30c56622ec68df4f7c2dcaf4bc5ef024d336b065fc7f26141e3d10cc9afd0452"),
    ("pgl2", 3, "2be0a732b253126167a5c6c87746c46d8a5638c33f5d6d0c72a5f3acab1030f9"),
    ("pgl3", 3, "3855a734162acf6059c34484a00141e469ac31f42e589bf75da291c974926a46"),
    ("sl2", 3, "7be68f60af06ec45e1a784dc0189cee7560fed03f2bb154bb6b5559e31ec2c9f"),
    ("sl2xpgl2", 3, "86b83607d6f76443f355039c11d794bc6e6385df0f37c2dda525c69464a8e1e8"),
    ("sl3", 3, "0f6c63f16a7426d2044a35975aa06d91caa9be40236fd79427af393341e5e063"),
    ("so5", 3, "88dc2edbcdf6cb07a3f89cc1b615d4808c4c07bf4e10d9f47781bee33e61fa10"),
    ("sp4", 3, "d920e6152fbb824a44bde38c248212bc5834eb6a775914a74af3917cd4f8f080"),
    ("torus1", 3, "2c03f1c1ea1ff7dcb85c21d610b526a61bcb302e8ef55d92773e5e150998adb1"),
    ("torus2", 3, "4d37a27c21a49fe95df1b871c448745b306fbf2a4189cb36e6711ae1ec698fab"),
    ("torus2", 4, "4050bb30a549f788e225fd544fafa22f20990a37453529d75dad97e93e493eb6"),
]


@pytest.mark.parametrize("name,bound,digest", REPORT_SHA256, ids=lambda v: str(v)[:8])
def test_report_bytes_pinned(name, bound, digest, tmp_path):
    table, report = tmp_path / "table.txt", tmp_path / "report.json"
    cli.main(
        ["gen-oracle", "--datum", name, "--bound", str(bound), "--seed", "7", "--out", str(table)]
    )
    cli.main(["reconstruct", "--oracle", str(table), "--out", str(report)])
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
