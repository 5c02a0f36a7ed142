"""cli.main is the package's one writer to standard output: each command
builds its whole output first, so a failure leaves stdout empty.  No
module prints without file=, and no code outside cli.main names
sys.stdout."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "binomial_fpt"


def stdout_writes(source: str, writer: str | None = None) -> list[tuple[int, str]]:
    """(line, form) of each print without file= and each sys.stdout read in
    source, except sys.stdout inside the top-level function named writer."""
    tree = ast.parse(source)
    allowed = {
        id(inner)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == writer
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
            and not any(k.arg == "file" for k in node.keywords)
        ):
            found.append((node.lineno, "print"))
        elif (
            isinstance(node, ast.Attribute)
            and ast.unparse(node) == "sys.stdout"
            and id(node) not in allowed
        ):
            found.append((node.lineno, "sys.stdout"))
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            if any(alias.name == "stdout" for alias in node.names):
                found.append((node.lineno, "sys.stdout"))
    return sorted(found)


def test_only_cli_main_writes_to_stdout():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    found = [
        (m.name, *hit)
        for m in modules
        for hit in stdout_writes(m.read_text(), "main" if m.name == "cli.py" else None)
    ]
    assert found == []


def test_every_form_is_reported_with_its_line():
    snippet = (
        "import sys\n"
        "from sys import stdout\n"
        "def main():\n"
        "    sys.stdout.write('ok')\n"
        "    print('x', file=sys.stderr)\n"
        "    print('y')\n"
        "def helper():\n"
        "    sys.stdout.write('no')\n"
    )
    outside_main = [(2, "sys.stdout"), (6, "print"), (8, "sys.stdout")]
    assert stdout_writes(snippet, "main") == outside_main
    assert stdout_writes(snippet) == sorted(outside_main + [(4, "sys.stdout")])
