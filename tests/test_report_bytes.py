"""Oracle tables and report JSON pinned byte for byte.

`gen-oracle` and `reconstruct --out` must write the same bytes for the same
input; a change to the materializer or the pipeline that moves a label, a
cell, a coordinate or a verdict shows here.  The digests are sha256 of the
files written by `gen-oracle --seed 7` and by `reconstruct` on them; data
the fixtures do not ship are written to a datum JSON file first.  The
`check-props` digests pin its whole stdout at default options, so the pair,
agreement, undecided and cover counts are pinned along with the verdict.
"""

import hashlib
from pathlib import Path

import pytest

from semiroot import cli

# every shipped fixture at bounds 1-4
TABLE_SHA256 = [
    ("g2", 1, "20c1899cf45f1c226b637cf3dccf320770b166db1631282e9b76ac77eb2ad2fd"),
    ("g2", 2, "5256b0d226c0afa78e9fca9bd6033706ac7b50018ee4eec1f51f082a81165fee"),
    ("g2", 3, "0297983fea4fa023012d98f4aa1dcc8606fc1cd926e966b1fafe76e1099dbb1b"),
    ("g2", 4, "1d107c6e7e9026cf8405eb66ecc156fcc37e7ac70de1bb643476a56d199213a1"),
    ("gl2", 1, "ef8c152f0828a33cbbd59c1bada954370ef5dc01b91c219420d3e23f6a81d8ca"),
    ("gl2", 2, "07d4766fc106720c130d8753bba291c4310a2b0aa3a790b36b265c545ba68ab6"),
    ("gl2", 3, "65067a607c8bd2cd1a7510916ff51c58ec543f2ee7f2b879333ba118e9139868"),
    ("gl2", 4, "0994c922e451924aa2b42e574f965e572d9b38137e299aa35885d095ae341371"),
    ("pgl2", 1, "4714834263dba9dfaebdce58629a13f28728b7d0d773e4785be2c0cd5ecfb937"),
    ("pgl2", 2, "b91891ac5d71ff22ada31165f87ec26e0b9219dcddcda6c2b1a3ae0ade68bb42"),
    ("pgl2", 3, "b91891ac5d71ff22ada31165f87ec26e0b9219dcddcda6c2b1a3ae0ade68bb42"),
    ("pgl2", 4, "1fe2e5686905fe01b7de7cf22f8d9da1da840963ff363518ea1d1bc56af44526"),
    ("pgl3", 1, "b91891ac5d71ff22ada31165f87ec26e0b9219dcddcda6c2b1a3ae0ade68bb42"),
    ("pgl3", 2, "fd4e1785b2bc4f57b467000f64ec34e54fab607f1a10ef455e2d78157cca2dfe"),
    ("pgl3", 3, "4ed988739080224d4a7270bb7748b10464dd466f77bdfd8f2cd5d3a8ff99e540"),
    ("pgl3", 4, "77f84b3e3edc121c62921cff58f119ba590bf6e9609385b5d55d2850f00fa043"),
    ("sl2", 1, "b91891ac5d71ff22ada31165f87ec26e0b9219dcddcda6c2b1a3ae0ade68bb42"),
    ("sl2", 2, "4bc46f007cdf3265a411cd28cded8629830f5572417e26c3708915d79435a8a4"),
    ("sl2", 3, "c86f5d8c5fa55aaf273dc0cf84d828be3532b01afb362800a5cf13436448e612"),
    ("sl2", 4, "23e95dd4246af0272e8bb7d1568b885caab42dd0de9be691b90ec5be28c8a9d4"),
    ("sl2xpgl2", 1, "b91891ac5d71ff22ada31165f87ec26e0b9219dcddcda6c2b1a3ae0ade68bb42"),
    ("sl2xpgl2", 2, "7c0eabb93692c98b3a074a8c5631c08d209d160cfd1fb714605ccd2d6e9e5f73"),
    ("sl2xpgl2", 3, "66d2ef2a236ba893bff16482b73b58473527565a042475405b7b27f735682f25"),
    ("sl2xpgl2", 4, "a7c3b99bde71e0386f5401700f2fa3d87233829aa0cea1e653769659c7fd8d8f"),
    ("sl3", 1, "3dd4e077cc95087ff53c98612e40261d782c51b5b91726ef4048bd01da041e49"),
    ("sl3", 2, "6fce27be41c6a9f9ea25fad98944ecf0ca48a09064fe56baa3996ae921d386d7"),
    ("sl3", 3, "e3458f3a799b7f8e8bb62308cbd7ea1db93580a592604d2730800f29e3d894f4"),
    ("sl3", 4, "4abf55dde44f69334f69c0970b7bb6634043b7ab756f1040110f7ba12c89f6fa"),
    ("so5", 1, "b91891ac5d71ff22ada31165f87ec26e0b9219dcddcda6c2b1a3ae0ade68bb42"),
    ("so5", 2, "6b47eacd896b2722ec84b28e4106de7774a628f812796201d5bdf678f21cfbd7"),
    ("so5", 3, "d74b319745753d83439cc996d2159ad3ee5df44fe72c3971dd8c969760cebe63"),
    ("so5", 4, "eeebfc0c1497d40c60c90f9d72db2887ea4d6c876d98c033d99469626bcc8d7c"),
    ("sp4", 1, "9388e6d21527a72824b966d5d9cea883bb5ddcc959621243c3f8baad5ae3bdac"),
    ("sp4", 2, "0b9be0cc13c25943a80d16c4d120329b03caafe5fd8972307ef057f98406ef17"),
    ("sp4", 3, "4b8e3f7390993fbd1046d1d8e221a94cdb3168063d37e30bfa6c92c6889e82f0"),
    ("sp4", 4, "ab92e37cc61c211bccfbae3fcfa1e4aa5a3fc71a25b16bcdcd323c724b9a9e91"),
    ("torus1", 1, "8a6d28cd99df9e81dc642a5e6110563179882eef66487e89abe7046a162a525e"),
    ("torus1", 2, "b737787efe04691a2bbb336ae19d7817a2bc8c696224ce8a83770b527fcc0b25"),
    ("torus1", 3, "c17149662d5a1db1cb0dde2164c6a800e4c261b67a70e502dd6c40bb2c68afb3"),
    ("torus1", 4, "36b16c9738ba95453cb9204f7a6b85287b16a6fff3f73db80b5b1d1cf229eb7a"),
    ("torus2", 1, "0a7c2b95e8f2aadd25446be541c6007e24f37dfabee7a8224ca75fcdb571e501"),
    ("torus2", 2, "bc3ad509f8f1c4dff84922d8830dbfa5b586028a78937134be02ca5f00c423cc"),
    ("torus2", 3, "c78fe655ed9c1ceec72880aa23944c3f3f6a3830ff3eba82e184a8c827af2ce6"),
    ("torus2", 4, "1993af6a4f0144edbb38c1306c54b4dfe4dbc4f157472c5ae9fab00cbdda4cd3"),
]

REPORT_SHA256 = [
    ("g2", 3, "f7b7cf191b7b5126b0d74f88490e25499de2e9fbf900128a69a2a2481e11e5a1"),
    ("gl2", 3, "bac6cea1e1961a636576cfdf4531d25d137a96f9f66d7ac3f4be16c3b60d57a3"),
    ("pgl2", 3, "c2effcbd08efbe3937f128957285a661ee00494392f77bc16be24e5250d8af5f"),
    ("pgl3", 3, "3855a734162acf6059c34484a00141e469ac31f42e589bf75da291c974926a46"),
    ("sl2", 3, "7be68f60af06ec45e1a784dc0189cee7560fed03f2bb154bb6b5559e31ec2c9f"),
    ("sl2xpgl2", 3, "86b83607d6f76443f355039c11d794bc6e6385df0f37c2dda525c69464a8e1e8"),
    ("sl3", 3, "0f6c63f16a7426d2044a35975aa06d91caa9be40236fd79427af393341e5e063"),
    ("so5", 3, "88dc2edbcdf6cb07a3f89cc1b615d4808c4c07bf4e10d9f47781bee33e61fa10"),
    ("sp4", 3, "cc03b20b520adf5daf94105b93a49dce639be22a37a2621c4b5fc66aeb98c1fa"),
    ("torus1", 3, "2c03f1c1ea1ff7dcb85c21d610b526a61bcb302e8ef55d92773e5e150998adb1"),
    ("torus2", 3, "de5e3e3bab59fdac5889414b290886f710385a977f91726d059790bde5536aca"),
    ("torus2", 4, "de63fec9a5feff5f284665b6e5e5d5c289558e3915a5b5efde9c008b94be0114"),
    ("gl2", 4, "24b42d2c014239d459f5f0a117db47674e41a68dc54f7e8b8569e23bf83b9c50"),
    ("torus1", 4, "b3fd94a91d3593384ba4e90e623f7df84f8d4c7b1d67c415b8e522e45875c00c"),
    ("sl3", 4, "c3fc1c93d2d71fea9cac58997f0931abd1633eae394b1a889b3beddeec17d013"),
    ("sp4", 4, "1af3220d39b4b7dbaa52163e0e93065026c0a80cfe7e5963eaaa1f76166d3d4f"),
    ("sl2xT2", 2, "21f42f8c0444f8ad2674ea8136b293981b740130ed1120f56f151ba97db2e722"),
    ("sp6", 1, "0d544e3faf7fff2dcd4e5f2051587fef7f53812b563fa5d6a897f9c8a675526e"),
    ("torus3", 2, "51e0f0115d22bc868a60d241599ac4d3f2334636af86db5f4f82b474d2e91cd5"),
    ("gl2xT1", 2, "b3b7deaa48d6dc24dc09b5970fd25217db711051a1e95b8aa4ec73adca8a30b3"),
]

# data the fixtures do not ship, handed to --datum as a JSON file
DATUM_FILES = {
    "sl2xT2": '{"rank": 3, "simple_roots": [[2,0,0]], "simple_coroots": [[1,0,0]], '
    '"name": "sl2xT2"}\n',
    "sp6": '{"rank": 3, "simple_roots": [[2,-1,0],[-1,2,-1],[0,-2,2]], '
    '"simple_coroots": [[1,0,0],[0,1,0],[0,0,1]], "name": "sp6"}\n',
    "torus3": '{"rank": 3, "simple_roots": [], "simple_coroots": [], "name": "torus3"}\n',
    "gl2xT1": '{"rank": 3, "simple_roots": [[1,-1,0]], "simple_coroots": [[1,-1,0]], '
    '"name": "gl2xT1"}\n',
}

CHECK_PROPS_SHA256 = [
    ("g2", "c71dfb3242d00d657d3e842dc7db7ca1da2c88f68ee38f3bf7cfa1077b06df01"),
    ("gl2", "0b6fbd415ddc8fc5969f68eafc3835fae686f6f5f354c18a1f4e716259dda6f8"),
    ("pgl2", "d9c06507798503680d21b0f64d63a81e8d41c851c7f3acb2885ae72270093234"),
    ("pgl3", "e66df1eb54ecf90fced1827466bee5b54ba5418b57b45835fbcd0d7005d925f4"),
    ("sl2", "8460af7100a607dd19efa4a0c4f7edd25ba334441d1455564430a2feda4ffb26"),
    ("sl2xpgl2", "783fc0b4dc7977873f8470b30c1949b3a8192ef1bfb148b914c1810496fd93da"),
    ("sl3", "cc22678ae0a8ec95e47509cd67854b6cfe8d3c3420c61bfd1b978b3441500757"),
    ("so5", "b5af730c7da0f591c2a213516b9b058682c193352f27270ce43a36407423910b"),
    ("sp4", "721b7aa539722188904daed8cbb3a02668ff92653c5ad20a8d5062a20b188176"),
    ("torus1", "37c607ba8f3cf44a49c172efc4c5e0c5eecba732322d213c89603654ae85139a"),
    ("torus2", "c88413b42dd19b8105e1505e206fd8a29367c0e4a7ade8ef88fc6993499686fa"),
]


@pytest.mark.parametrize("name,bound,digest", REPORT_SHA256, ids=lambda v: str(v)[:8])
def test_report_bytes_pinned(name, bound, digest, tmp_path):
    table, report = tmp_path / "table.txt", tmp_path / "report.json"
    datum = name
    if name in DATUM_FILES:
        datum = str(tmp_path / f"{name}.json")
        Path(datum).write_text(DATUM_FILES[name])
    cli.main(
        ["gen-oracle", "--datum", datum, "--bound", str(bound), "--seed", "7", "--out", str(table)]
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


@pytest.mark.parametrize("name,digest", CHECK_PROPS_SHA256, ids=lambda v: str(v)[:8])
def test_check_props_bytes_pinned(name, digest, capsys):
    assert cli.main(["check-props", "--datum", name]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
