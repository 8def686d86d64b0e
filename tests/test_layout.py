"""Every public top-level name in `src/tubalkit` must be used by code that
ships: the package itself, `scripts/`, `perfbench/` or `pyproject.toml`.
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


def _public_definitions(tree):
    """(name, first line, last line) of each public top-level function,
    class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


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
        for name, first, last in _public_definitions(ast.parse(sources[module])):
            word = re.compile(rf"\b{re.escape(name)}\b")
            rest = "\n".join(lines[: first - 1] + lines[last:])
            others = (text for path, text in sources.items() if path != module)
            if not word.search(rest) and not any(word.search(text) for text in others):
                unused.append(f"{module.stem}.{name}")
    assert not unused, f"only tests use {unused}; move them to tests/oracles.py"
