"""Every file the package writes goes through ``corpus.open_output``.

Outside ``corpus.py`` no module may call ``write_text``/``write_bytes``
or open a file in a mode that can write (``w``, ``a``, ``x`` or ``+``).
The mode is the second argument of the builtin ``open`` and the first of
a ``.open`` method such as ``Path.open``; a mode that is not a string
literal counts as a write, because the check cannot prove it reads.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lowresmt"
WRITE_MODE = set("wax+")


def write_calls(source: str) -> list[str]:
    """``line: call`` for each call in ``source`` that writes a file directly."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            found.append(f"{node.lineno}: {name}")
        elif name == "open":
            position = 1 if isinstance(func, ast.Name) else 0
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if mode is None and len(node.args) > position:
                mode = node.args[position]
            if mode is None:
                continue
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or (
                WRITE_MODE & set(mode.value)
            ):
                found.append(f"{node.lineno}: open mode {ast.unparse(mode)}")
    return found


def test_package_writes_only_through_corpus():
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "corpus.py")
    assert modules
    found = {
        path.name: calls
        for path in modules
        if (calls := write_calls(path.read_text(encoding="utf-8")))
    }
    assert found == {}


@pytest.mark.parametrize(
    "source, flagged",
    [
        ('Path(p).write_text("x")', True),
        ("p.write_bytes(b'x')", True),
        ('open(p, "w")', True),
        ('open(p, mode="ab")', True),
        ('Path(p).open("x", encoding="utf-8")', True),
        ('open(p, "r+b")', True),
        ("open(p, mode)", True),
        ('open(p, "rb")', False),
        ("open(p)", False),
        ('Path(p).open(encoding="utf-8")', False),
        ('p.read_text(encoding="utf-8")', False),
    ],
)
def test_write_calls_detector(source, flagged):
    assert bool(write_calls(source)) is flagged
