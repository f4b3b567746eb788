"""The library names that the benchmark harness in `perfbench/` reads.

The harness reaches into the library from outside: `spans.TRACED` wraps
module attributes by name, and `worker.roundtrip_steps` reads attributes of
the report that `recover_datum` returns.  A library change that drops one of
those names breaks every benchmark job that uses it, so these tests read the
harness's own source and fail first.
"""

import ast
import importlib
import runpy
from pathlib import Path

import pytest

from semiroot import oracle, reconstruction, root_datum

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def attributes_read(path: Path, function: str, names: set[str]) -> dict[str, set[str]]:
    """For each variable in names, the attributes that the function reads off it."""
    tree = ast.parse(path.read_text())
    fn = next(n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == function)
    out: dict[str, set[str]] = {name: set() for name in names}
    for node in ast.walk(fn):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in names:
                out[node.value.id].add(node.attr)
    return out


def test_traced_names_resolve():
    traced = runpy.run_path(str(PERFBENCH / "spans.py"))["TRACED"]
    missing = [
        f"{mod}.{name}"
        for mod, names in traced.items()
        for name in names
        if not hasattr(importlib.import_module(f"semiroot.{mod}"), name)
    ]
    assert not missing


@pytest.mark.parametrize("name,bound", [("sl3", 2), ("pgl2", 2)])
def test_report_has_what_the_round_trip_reads(name, bound):
    reads = attributes_read(PERFBENCH / "worker.py", "roundtrip_steps", {"report", "monoid"})
    assert {"order", "monoid", "certified"} <= reads["report"]
    t, _ = oracle.materialize_oracle(root_datum.fixture(name), bound, seed=7)
    report = reconstruction.recover_datum(t)
    for attr in reads["report"]:
        assert hasattr(report, attr), attr
    for attr in reads["monoid"]:
        assert hasattr(report.monoid, attr), attr
    assert report.order is None
