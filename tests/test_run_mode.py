"""The package behaves the same under python -O: no module has a
statement or name that -O acts on.  -O strips assert statements, sets
__debug__ false and sets sys.flags.optimize (docstrings go only under
-OO), so a module free of all three runs alike in every mode."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "binomial_fpt"


def run_mode_reads(source: str) -> list[tuple[int, str]]:
    """(line, form) of each assert, __debug__ and sys.flags read in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            found.append((node.lineno, "assert"))
        elif isinstance(node, ast.Name) and node.id == "__debug__":
            found.append((node.lineno, "__debug__"))
        elif isinstance(node, ast.Attribute) and ast.unparse(node) == "sys.flags":
            found.append((node.lineno, "sys.flags"))
    return sorted(found)


def test_no_module_depends_on_the_run_mode():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [(m.name, *hit) for m in modules for hit in run_mode_reads(m.read_text())]
    assert found == []


def test_every_form_is_reported_with_its_line():
    snippet = "import sys\nassert x\nif __debug__:\n    y = sys.flags.optimize\n"
    assert run_mode_reads(snippet) == [(2, "assert"), (3, "__debug__"), (4, "sys.flags")]
