"""Writes and line-id matches each have one home: ``corpus.py``.

Every file the package writes goes through ``corpus.open_output``.
Outside ``corpus.py`` no module may call ``write_text``/``write_bytes``
or open a file in a mode that can write (``w``, ``a``, ``x`` or ``+``).
The mode is the second argument of the builtin ``open`` and the first of
a ``.open`` method such as ``Path.open``; a mode that is not a string
literal counts as a write, because the check cannot prove it reads.

Every comparison of line ids across texts goes through ``corpus.py``
(``same_ids``, ``bitext``, ``restrict``, ``intersect``).  Outside it no
module may test ``in``/``not in`` against a ``.lines`` attribute, or
compare ``list(...)`` or ``set(...)`` of one with ``==``/``!=``.

Tagging has one path, the pipeline's: ``tag_text`` is the only caller
of ``find_mentions``, and it and ``datagen``'s target rendering are the
only callers of ``render_template``, so ``tag`` writes exactly the
templates the stage files hold.

Emission copies no text: stages are planned on line ids (``intersect``
and ``split`` return id lists) and the writer reads each split's lines
from the loaded texts by its planned ids, so ``restrict`` is called only
where candidates are loaded and by ``symmetrize``'s coverage check.
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


def _is_lines(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "lines"


def _ids_of_lines(node) -> bool:
    """``list(x.lines)`` or ``set(x.lines)``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("list", "set")
        and len(node.args) == 1
        and _is_lines(node.args[0])
    )


def line_id_matches(source: str) -> list[str]:
    """``line: comparison`` for each comparison in ``source`` that matches line ids."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            membership = isinstance(op, (ast.In, ast.NotIn)) and _is_lines(right)
            equality = isinstance(op, (ast.Eq, ast.NotEq)) and (
                _ids_of_lines(left) or _ids_of_lines(right)
            )
            if membership or equality:
                found.append(f"{node.lineno}: {ast.unparse(node)}")
                break
    return found


def outside_corpus(detector) -> dict[str, list[str]]:
    modules = sorted(path for path in PACKAGE.glob("*.py") if path.name != "corpus.py")
    assert modules
    return {
        path.name: found
        for path in modules
        if (found := detector(path.read_text(encoding="utf-8")))
    }


class CallSites(ast.NodeVisitor):
    """The enclosing function of each call to ``name``, by its plain or attribute name."""

    def __init__(self, name: str):
        self.name = name
        self.scope = ["<module>"]
        self.found: list[str] = []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == self.name:
            self.found.append(self.scope[-1])
        self.generic_visit(node)


def call_sites(name: str, package: Path = PACKAGE) -> list[tuple[str, str]]:
    """``(module, enclosing function)`` of every call to ``name`` in ``package``."""
    sites = []
    for path in sorted(package.glob("*.py")):
        visitor = CallSites(name)
        visitor.visit(ast.parse(path.read_text(encoding="utf-8")))
        sites.extend((path.name, function) for function in visitor.found)
    return sites


def test_one_tagger_searches_and_renders():
    assert call_sites("find_mentions") == [("datagen.py", "tag_text")]
    assert sorted(call_sites("render_template")) == [
        ("datagen.py", "pair_templates"),
        ("datagen.py", "tag_text"),
    ]


def test_emission_copies_no_text():
    assert sorted(call_sites("restrict")) == [
        ("corpus.py", "load_candidates"),
        ("datagen.py", "symmetrize"),
    ]


def test_call_sites_name_the_enclosing_function(tmp_path):
    (tmp_path / "m.py").write_text(
        "def outer():\n"
        "    def inner():\n"
        "        return lexicon.f(1)\n"
        "    return f(inner())\n"
        "f(0)\n",
        encoding="utf-8",
    )
    assert call_sites("f", tmp_path) == [("m.py", "inner"), ("m.py", "outer"), ("m.py", "<module>")]


def test_package_writes_only_through_corpus():
    assert outside_corpus(write_calls) == {}


def test_package_matches_line_ids_only_in_corpus():
    assert outside_corpus(line_id_matches) == {}


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


@pytest.mark.parametrize(
    "source, flagged",
    [
        ("lid in text.lines", True),
        ("lid not in view[lang].lines", True),
        ("[lid for lid in a.lines if lid in b.lines]", True),
        ("set(a.lines) != set(b.lines)", True),
        ("list(view[lang].lines) != ids", True),
        ("ids == list(a.lines)", True),
        ("0 < n and lid in a.lines", True),
        ("for lid in text.lines:\n    pass", False),
        ("ids = list(text.lines)", False),
        ("lid in mentions[lang]", False),
        ("len(a.lines) == 3", False),
        ("a.lines[lid] == b.lines[lid]", False),
        ("list(a.lines) is ids", False),
    ],
)
def test_line_id_match_detector(source, flagged):
    assert bool(line_id_matches(source)) is flagged
