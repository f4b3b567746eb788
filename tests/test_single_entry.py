"""Every other module reaches the char engine through its public functions.

Each char-engine kernel has one entry point, which checks its weights, and
the benchmark harness times the kernels by wrapping those public names.  A
module that read a private `char_engine` name would skip both, so this test
reads the library's source and fails on any such read.
"""

import ast
from pathlib import Path

from semiroot import char_engine

SRC = Path(char_engine.__file__).resolve().parent


def char_engine_reads(tree: ast.AST) -> set[str]:
    """The names read off the char_engine module, under any alias, or imported from it."""
    aliases = set()
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "char_engine":
                names.update(a.name for a in node.names)
            else:
                aliases.update(a.asname or a.name for a in node.names if a.name == "char_engine")
        elif isinstance(node, ast.Import):
            aliases.update(
                a.asname for a in node.names if a.asname and a.name.endswith(".char_engine")
            )
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in aliases:
                names.add(node.attr)
    return names


def test_no_module_reads_a_private_char_engine_name():
    reads = {
        path.name: char_engine_reads(ast.parse(path.read_text()))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "char_engine.py"
    }
    assert "tensor_decompose" in reads["oracle.py"]
    private = [f"{mod}: {name}" for mod, got in reads.items() for name in got if name[0] == "_"]
    assert not private


def test_a_private_read_is_caught():
    planted = "from . import char_engine as ce\nce._dimension(d, w)\n"
    assert char_engine_reads(ast.parse(planted)) == {"_dimension"}
    assert char_engine_reads(ast.parse("from .char_engine import _dimension\n")) == {"_dimension"}
