"""Every public top-level name in `src/tubalkit`, and every public method and
property of its classes, must be used by code that ships: the package
itself, `scripts/`, `perfbench/` or a `pyproject.toml` entry point.
Reference code that only tests reach belongs in `tests/oracles.py`.

A use is a name in the syntax tree outside the name's own definition: a
variable, an attribute, an imported name, or a string constant equal to it
(perfbench hooks functions by name).  Comments and docstrings are not uses.
An attribute counts whatever object it is read from, and a name whose only
user is another test-only name passes.
"""

import ast
import tomllib
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


def _uses(tree):
    """(name, line) of each use in a module's syntax tree."""
    # a string that stands alone as a statement, a docstring say, is not code
    statements = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in statements:
                yield node.value, node.lineno


def _shipped_uses():
    """{path: [(name, line), ...]} over the shipped Python files, plus the
    functions that pyproject.toml's console scripts name."""
    files = sorted(PACKAGE.glob("*.py"))
    files += sorted((ROOT / "scripts").rglob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    uses = {path: list(_uses(ast.parse(path.read_text()))) for path in files}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    uses[ROOT / "pyproject.toml"] = [
        (target.split(":")[-1], 0) for target in project.get("scripts", {}).values()
    ]
    return uses


def test_every_public_name_in_src_is_used_outside_tests():
    uses = _shipped_uses()
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text())
        for label, name, first, last in _public_definitions(tree):
            used = any(
                used_name == name and (path != module or not first <= line <= last)
                for path, found in uses.items()
                for used_name, line in found
            )
            if not used:
                unused.append(f"{module.stem}.{label}")
    assert not unused, f"only tests use {unused}; move them to tests/oracles.py"
