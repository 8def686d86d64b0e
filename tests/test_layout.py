"""Every public top-level name in `src/tubalkit`, and every public method and
property of its classes, must be used by code that ships: the package
itself, `scripts/`, `perfbench/` or `pyproject.toml`.
Reference code that only tests reach belongs in `tests/oracles.py`.

The check is a whole-word text match outside the name's own definition, so
comments and docstrings count as uses, and a name whose only user is
another test-only name passes.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tubalkit"


def _names(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _is_member(node):
    """A method (a `@property` included) or a `name = property(...)`."""
    if isinstance(node, ast.FunctionDef):
        return True
    call = getattr(node, "value", None)
    return isinstance(call, ast.Call) and getattr(call.func, "id", None) == "property"


def _public_definitions(tree):
    """(label, name, first line, last line) of each public top-level
    function, class and constant, and of each public method and property of
    a top-level class, labelled Class.name."""
    for node in tree.body:
        body = node.body if isinstance(node, ast.ClassDef) else []
        members = [m for m in body if _is_member(m)]
        for owner, item in [("", node)] + [(f"{node.name}.", m) for m in members]:
            for name in _names(item):
                if not name.startswith("_"):
                    yield owner + name, name, item.lineno, item.end_lineno


def _shipped_sources():
    files = sorted(PACKAGE.glob("*.py"))
    files += sorted((ROOT / "scripts").rglob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "pyproject.toml")
    return {path: path.read_text() for path in files}


def test_every_public_name_in_src_is_used_outside_tests():
    sources = _shipped_sources()
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        lines = sources[module].splitlines()
        for label, name, first, last in _public_definitions(ast.parse(sources[module])):
            word = re.compile(rf"\b{re.escape(name)}\b")
            rest = "\n".join(lines[: first - 1] + lines[last:])
            others = (text for path, text in sources.items() if path != module)
            if not word.search(rest) and not any(word.search(text) for text in others):
                unused.append(f"{module.stem}.{label}")
    assert not unused, f"only tests use {unused}; move them to tests/oracles.py"
