"""Outside `errors`, no module decides how a bad file is reported.

`errors.reading` adds every place to a fault's message, so in any other
package module every ``read_text(...)`` call sits inside a ``with
reading(<where>)``, no ``except`` clause raises a `FormatError`, and no
`FormatError` message begins with a place: ``line ...``, or a placeholder
followed by ``:``, as ``f"{path}: ..."`` and ``f"{path}:{lineno}: ..."`` do.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parent.parent / "src" / "spectral_nsr"


def called(node, name: str) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == name


def placed(message) -> bool:
    """Whether a message expression begins with a place."""
    parts = message.values if isinstance(message, ast.JoinedStr) else [message]
    first, second = (parts + [None])[:2]
    if isinstance(first, ast.Constant):
        return isinstance(first.value, str) and first.value.startswith("line ")
    return isinstance(first, ast.FormattedValue) and isinstance(second, ast.Constant) and second.value.startswith(":")


def violations(source: str) -> list[str]:
    found = []

    def visit(node, guarded: bool):
        if isinstance(node, ast.With):
            guarded = guarded or any(called(item.context_expr, "reading") and item.context_expr.args
                                     for item in node.items)
        if called(node, "read_text") and not guarded:
            found.append(f"line {node.lineno}: read_text outside a reading of its path")
        if called(node, "FormatError") and node.args and placed(node.args[0]):
            found.append(f"line {node.lineno}: FormatError message that begins with a place")
        if isinstance(node, ast.ExceptHandler) and any(called(inner, "FormatError") for inner in ast.walk(node)):
            found.append(f"line {node.lineno}: except clause that raises FormatError")
        for child in ast.iter_child_nodes(node):
            visit(child, guarded)

    visit(ast.parse(source), False)
    return found


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "errors.py"), ids=lambda path: path.name
)
def test_only_errors_reports_a_bad_file(path):
    assert violations(path.read_text()) == []


def test_every_violation_is_found():
    source = (
        "def load(path):\n"
        "    text = read_text(path)\n"
        "    with reading():\n"
        "        read_text(path)\n"
        "    try:\n"
        "        parse(text)\n"
        "    except ValueError as exc:\n"
        "        raise FormatError(str(exc)) from exc\n"
        "    raise FormatError(f'{path}: missing header')\n"
        "    raise FormatError(f'{path}:{lineno}: malformed line')\n"
        "    raise FormatError(f'line {lineno}: malformed line')\n"
        "    raise FormatError('line 1: malformed line')\n"
    )
    assert violations(source) == [
        "line 2: read_text outside a reading of its path",
        "line 4: read_text outside a reading of its path",
        "line 7: except clause that raises FormatError",
        "line 9: FormatError message that begins with a place",
        "line 10: FormatError message that begins with a place",
        "line 11: FormatError message that begins with a place",
        "line 12: FormatError message that begins with a place",
    ]


def test_a_reported_fault_passes():
    source = (
        "def load(path):\n"
        "    with reading(path):\n"
        "        for lineno, line in records(read_text(path)):\n"
        "            with reading(f'line {lineno}'):\n"
        "                raise FormatError(f'{len(line)} values for a node')\n"
    )
    assert violations(source) == []
