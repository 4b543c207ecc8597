"""Source hygiene: every name a library module imports is used in it,
every private top-level name it defines is read in it, no library module
uses an `assert` statement (it vanishes under `python -O`), only the two
readers of outside p/q text use `parse_rational` (`config` for configs
and flags, `trace` for trace records; a check that parses trace text goes
through `trace.rational`, which refuses bad text as a format error), only
`rationals` defines the p/q text rule, no library module imports
another's private `_name`, the test oracles import only `TraceEvent`
from celab, and no test calls a private `_name` method (a check that only
such a call can reach is dead code)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "celab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(),
                                                           key=lambda kv: kv[1])
            if name not in used]


def unread_private_names(source: str) -> list[str]:
    """Top-level `_name` functions, classes and constants the module never
    reads (dunder names excepted)."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


READERS = {"config.py", "trace.py"}  # the modules that read p/q text from outside input
# the p/q text rule, and the name it had before
RATIO_TEXT_RULE = ("is_ratio_text", "check_ratio_text")


def uses(source: str, *names: str) -> list[str]:
    """Lines that read one of `names`, called or passed on."""
    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in names)]


def assert_statements(source: str) -> list[str]:
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = "from typing import Optional, Union\nx: Optional[int] = None\n"
    assert unused_imports(source) == ["line 1: Union"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text()) == []


def test_detects_an_unread_private_name():
    source = ("_UNREAD = 1\n_READ: int = 2\n\n\ndef _helper():\n    return _READ\n\n\n"
              "class _Unused:\n    pass\n\n\n__all__ = []\nPUBLIC = _helper()\n")
    assert unread_private_names(source) == ["line 1: _UNREAD", "line 9: _Unused"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_statements(path.read_text()) == []


def test_detects_an_assert_statement():
    source = ('"""Values are asserted on read."""\n\n\ndef f(x):\n'
              '    if x:\n        assert x > 0, "positive"\n    return x\n')
    assert assert_statements(source) == ["line 6"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in READERS],
                         ids=lambda p: p.name)
def test_parse_rational_only_in_readers(path):
    assert uses(path.read_text(), "parse_rational") == []


def test_detects_a_parse_rational_use():
    source = ("from .rationals import parse_rational\nfrom . import rationals\n\n\n"
              "def f(text):\n    return parse_rational(text)\n\n\n"
              "g = cache(rationals.parse_rational)\n")
    assert uses(source, "parse_rational") == ["line 6", "line 9"]


def test_detects_a_ratio_text_rule_use():
    source = ("from .trace import check_ratio_text, is_ratio_text\nfrom . import trace\n\n\n"
              "def f(ev):\n    check_ratio_text(ev.new)\n    return trace.is_ratio_text(ev.old)\n")
    assert uses(source, *RATIO_TEXT_RULE) == ["line 6", "line 7"]


def rule_definitions(source: str) -> list[str]:
    """The top-level definitions (or "<module>") where a module states a
    p/q text rule: a function or name of `RATIO_TEXT_RULE`, or text split
    at "/"."""
    found = []
    for top in ast.parse(source).body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in RATIO_TEXT_RULE
                    or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
                    and node.id in RATIO_TEXT_RULE
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("partition", "rpartition", "split", "rsplit")
                    and any(isinstance(arg, ast.Constant) and arg.value in ("/", b"/")
                            for arg in node.args)):
                found.append(where)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_ratio_text_rule_only_in_rationals(path):
    # rationals.py states the rule once, and splits p/q text only in it and
    # in `parse_rational`, the reader every other module goes through
    expected = ["is_ratio_text", "is_ratio_text", "parse_rational"]
    assert rule_definitions(path.read_text()) == (expected if path.name == "rationals.py" else [])


def test_detects_a_ratio_text_rule_definition():
    source = ("def is_ratio_text(text):\n    return True\n\n\n"
              "check_ratio_text = is_ratio_text\n\n\n"
              "def f(text, sep):\n    return text.partition('/'), text.split(sep)\n\n\n"
              "num, den = data.rsplit(b'/', 1)\n")
    assert rule_definitions(source) == ["is_ratio_text", "<module>", "f", "<module>"]


def private_imports(source: str) -> list[str]:
    """`_name`s imported from another module of the package (dunder names
    excepted)."""
    return [f"line {node.lineno}: {alias.name}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("celab"))
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.startswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert private_imports(path.read_text()) == []


def test_detects_a_private_import():
    source = ("from __future__ import annotations\nfrom fractions import _gcd\n"
              "from .config import ENGINES, _load_machine\nfrom celab.trace import _Fold\n"
              "from . import __version__\n")
    assert private_imports(source) == ["line 3: _load_machine", "line 4: _Fold"]


ORACLES = Path(__file__).resolve().parent / "oracles.py"


def celab_imports(source: str) -> list[str]:
    """The names a module imports from celab, and the celab modules it
    imports whole."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "celab":
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name for alias in node.names if alias.name.split(".")[0] == "celab"]
    return names


def test_oracles_import_only_trace_event():
    assert celab_imports(ORACLES.read_text()) == ["TraceEvent"]


def test_detects_an_oracle_import():
    source = ("from fractions import Fraction\nfrom celab.trace import TraceEvent\n"
              "from celab.rationals import gap_below\nimport celab.streams\n\n\n"
              "def f():\n    from celab import config\n")
    assert celab_imports(source) == ["TraceEvent", "gap_below", "celab.streams", "config"]


TESTS = sorted(p for p in ORACLES.parent.glob("*.py") if p != ORACLES)


def private_calls(source: str) -> list[str]:
    """Calls of a `_name` method or module function through an attribute
    (dunder names and NamedTuple's `_replace` excepted)."""
    return [f"line {node.lineno}: {node.func.attr}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr.startswith("_") and not node.func.attr.startswith("__")
            and node.func.attr != "_replace"]


@pytest.mark.parametrize("path", TESTS, ids=lambda p: p.name)
def test_no_private_calls_in_tests(path):
    assert private_calls(path.read_text()) == []


def test_detects_a_private_call():
    source = ("enum._record_halt('00', [])\nev = ev._replace(new='1')\n"
              "super().__init__()\nstate = enum._live\nomega._seed(\n    1)\n")
    assert private_calls(source) == ["line 1: _record_halt", "line 5: _seed"]
