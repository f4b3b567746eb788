"""Command line front end: oracle generation, reconstruction, verification.

Exit codes: 0 success (or certified / isomorphic / all properties hold),
1 verification failure, 2 malformed input, bad usage or an output file that
cannot be written.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import product as iter_product
from pathlib import Path

from . import char_engine, linalg, oracle, polytope, reconstruction, root_datum
from .root_datum import RootDatum, RootDatumError


class InputError(Exception):
    """Anything wrong with what the user handed us; mapped to exit code 2."""


def _load_datum(ref: str) -> RootDatum:
    """Resolve a --datum argument: a JSON file path, or a shipped fixture name."""
    path = Path(ref)
    if path.is_file():
        try:
            d = root_datum.load_datum(path)
        except json.JSONDecodeError as e:
            raise InputError(f"{path}: line {e.lineno} column {e.colno}: {e.msg}") from None
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(f"{path}: not a root datum file ({e})") from None
    else:
        try:
            d = root_datum.fixture(ref)
        except FileNotFoundError:
            raise InputError(f"no such datum file or fixture: {ref}") from None
    try:
        root_datum.validate_root_datum(d)
    except RootDatumError as e:
        raise InputError(f"{ref}: invalid root datum: {e}") from None
    return d


def _parse_weight(text: str, d: RootDatum) -> tuple[int, ...]:
    try:
        v = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise InputError(f"bad weight {text!r}: want comma-separated integers") from None
    if len(v) != d.rank:
        raise InputError(f"bad weight {text!r}: datum has rank {d.rank}")
    return v


def _fmt_weight(v) -> str:
    return ",".join(str(c) for c in v)


def _write_file(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise InputError(f"{path}: cannot write ({e.strerror or e})") from None


def _write_out(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        _write_file(path, text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_oracle(args) -> int:
    d = _load_datum(args.datum)
    if args.bound < 1:
        raise InputError("--bound must be >= 1")
    table, provenance = oracle.materialize_oracle(d, args.bound, seed=args.seed)
    _write_out(args.out, oracle.format_oracle(table))
    if args.provenance_out is not None:
        blob = {x: list(provenance[x]) for x in table.labels}
        _write_file(args.provenance_out, json.dumps(blob, indent=2, sort_keys=True) + "\n")
    return 0


def _report_blob(rep: reconstruction.ReconstructionReport) -> dict:
    blob = {
        "verdict": rep.verdict,
        "stage": rep.stage,
        "reason": rep.reason,
        "rank": None,
        "simple_roots": None,
        "simple_coroots": None,
        "weyl_order": None,
        "inferred_bound": rep.inferred_bound,
        "bijection": None,
    }
    if rep.datum is not None:
        blob["rank"] = rep.datum.rank
        blob["simple_roots"] = [list(r) for r in rep.datum.simple_roots]
        blob["simple_coroots"] = [list(c) for c in rep.datum.simple_coroots]
        blob["weyl_order"] = rep.datum.weyl_order
    if rep.bijection is not None:
        blob["bijection"] = {x: list(v) for x, v in sorted(rep.bijection.items())}
    return blob


def cmd_reconstruct(args) -> int:
    path = Path(args.oracle)
    if not path.is_file():
        raise InputError(f"no such oracle file: {args.oracle}")
    try:
        table = oracle.parse_oracle(path.read_text())
    except oracle.OracleFormatError as e:
        raise InputError(f"{args.oracle}: {e}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"{args.oracle}: not a readable oracle file ({e})") from None
    rep = reconstruction.recover_datum(table)
    blob = _report_blob(rep)
    if args.out is not None:
        _write_file(args.out, json.dumps(blob, indent=2, sort_keys=True) + "\n")
    if rep.certified:
        print(f"verdict: certified rank={blob['rank']} bound={rep.inferred_bound}")
        return 0
    print(f"verdict: {rep.verdict} stage={rep.stage} reason={rep.reason}")
    return 1


def _datum_from_report(blob: dict) -> RootDatum:
    try:
        d = RootDatum(
            rank=blob["rank"],
            simple_roots=blob["simple_roots"],
            simple_coroots=blob["simple_coroots"],
            name="recovered",
        )
    except (KeyError, TypeError) as e:
        raise InputError(f"report: not a reconstruction report ({e})") from None
    try:
        root_datum.validate_root_datum(d)
    except RootDatumError as e:
        raise InputError(f"report: invalid root datum: {e}") from None
    return d


def cmd_verify(args) -> int:
    d = _load_datum(args.datum)
    path = Path(args.report)
    if not path.is_file():
        raise InputError(f"no such report file: {args.report}")
    try:
        blob = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise InputError(
            f"{args.report}: line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"{args.report}: not a readable report file ({e})") from None
    if not isinstance(blob, dict) or "verdict" not in blob:
        raise InputError(f"{args.report}: not a reconstruction report")
    if blob["verdict"] != "certified":
        print(f"verify: report verdict is {blob['verdict']!r}, not certified")
        return 1
    recovered = _datum_from_report(blob)
    if root_datum.root_data_isomorphic(recovered, d) is None:
        print(f"verify: recovered datum is not isomorphic to {d.name}")
        return 1
    print(f"verify: certified and isomorphic to {d.name}")
    return 0


def cmd_tensor(args) -> int:
    d = _load_datum(args.datum)
    left = _parse_weight(args.left, d)
    right = _parse_weight(args.right, d)
    for v in (left, right):
        if not root_datum.is_dominant(d, v):
            raise InputError(f"weight {_fmt_weight(v)} is not dominant")
    dec = char_engine.tensor_decompose(d, left, right)
    for nu in sorted(dec, reverse=True):
        print(f"{_fmt_weight(nu)}:{dec[nu]}")
    return 0


def cmd_check_props(args) -> int:
    d = _load_datum(args.datum)
    if args.max_coord < 1 or args.max_n < 1:
        raise InputError("--max-coord and --max-n must be >= 1")
    print(f"datum: {d.name} rank={d.rank} weyl_order={root_datum.weyl_order(d)}")

    box = range(-args.max_coord, args.max_coord + 1)
    dominant = sorted(
        v for v in iter_product(box, repeat=d.rank) if root_datum.is_dominant(d, v)
    )
    pairs = agree_ab = agree_ac = 0
    for lam in dominant:
        faces = polytope.order_criteria(d, lam)  # one tensor product per lam
        for mu in dominant:
            if d.root_coefficients(linalg.vec_sub(lam, mu)) is None:
                continue
            pairs += 1
            crit = faces(mu)
            agree_ab += crit.dominance == crit.hull
            agree_ac += crit.dominance == crit.tensor
    disagree = 2 * pairs - agree_ab - agree_ac
    # every pair is decided; the undecided=0 token keeps the output format
    print(
        f"order pairs={pairs} agree_ab={agree_ab} agree_ac={agree_ac} "
        f"undecided=0 disagree={disagree}"
    )

    cover_failed = 0
    try:
        generators = polytope.fundamental_monoid_generators(d)
    except ValueError:
        generators = ()
        print("cover: skipped (datum has central directions)")
    for gen in generators:
        for n in range(1, args.max_n + 1):
            rep = polytope.quantized_cover_check(d, gen, n)
            cover_failed += rep.verdict == "failed"
            print(
                f"cover gen={_fmt_weight(gen)} n={n} verdict={rep.verdict} "
                f"points={rep.points_checked} radius_sq={rep.radius_sq}"
            )

    ok = disagree == 0 and cover_failed == 0
    print(f"result: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiroot",
        description="Root datum recovery from representation semiring tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-oracle", help="materialize a windowed product table")
    p.add_argument("--datum", required=True, help="datum JSON file or fixture name")
    p.add_argument("--bound", type=int, default=4, help="window bound (default 4)")
    p.add_argument("--seed", type=int, default=0, help="label scrambling seed")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--provenance-out", default=None, help="write label->weight JSON")
    p.set_defaults(func=cmd_gen_oracle)

    p = sub.add_parser("reconstruct", help="recover a root datum from a table")
    p.add_argument("--oracle", required=True, help="oracle table file")
    p.add_argument("--out", default=None, help="write report JSON here")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("verify", help="check a report against a reference datum")
    p.add_argument("--datum", required=True, help="datum JSON file or fixture name")
    p.add_argument("--report", required=True, help="report JSON from reconstruct")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tensor", help="decompose a product of two irreducibles")
    p.add_argument("--datum", required=True, help="datum JSON file or fixture name")
    p.add_argument("--left", required=True, help="dominant weight, comma-separated")
    p.add_argument("--right", required=True, help="dominant weight, comma-separated")
    p.set_defaults(func=cmd_tensor)

    p = sub.add_parser("check-props", help="run the order and covering property suites")
    p.add_argument("--datum", required=True, help="datum JSON file or fixture name")
    p.add_argument("--max-coord", type=int, default=5, help="coordinate box for pairs")
    p.add_argument("--max-n", type=int, default=4, help="largest cover power")
    p.set_defaults(func=cmd_check_props)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
