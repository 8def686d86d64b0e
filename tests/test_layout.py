"""Every public top-level name in `src/tubalkit`, every public method and
property of its classes, and every field of its dataclasses must be used
by code that ships: the package itself, `scripts/`, `perfbench/` or a
`pyproject.toml` entry point.  Reference code that only tests reach belongs
in `tests/oracles.py`.

A use is a name in the syntax tree outside the name's own definition: a
variable, an attribute, an imported name, or a string constant equal to it
(perfbench hooks functions by name).  Only `tnn_admm.tnn` may rest on a
string in `perfbench/tracing.py` alone.  A field must be both read and set.
It is read where an attribute of that name is read or a string constant
equals it; a keyword argument that sets it is not a read.  It is set where
it is passed by keyword, or by position to a call of its class, stored as
an attribute, or named in a string constant (the CLI's dests).  Comments
and docstrings are not uses.  An attribute or a keyword counts whatever
object or call it belongs to, and a name whose only user is another
test-only name passes.  perfbench's `tls` probes bind arguments by the
strings "x" and "y", so a field named `x` or `y` passes unread (the deleted
`SolveReport.x` and `.y` did).
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


def _is_dataclass(decorator):
    func = decorator.func if isinstance(decorator, ast.Call) else decorator
    return getattr(func, "id", getattr(func, "attr", None)) == "dataclass"


def _dataclass_fields(tree):
    """(label, name, first line, last line) of each field of a top-level
    dataclass, labelled Class.name."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                    yield f"{node.name}.{name}", name, item.lineno, item.end_lineno


def _uses(tree, orders):
    """(name, line, kind) of each use in a module's syntax tree.  `orders`
    maps a dataclass name to its fields in order, so that the i-th
    positional argument of a call to it sets its i-th field."""
    # a string that stands alone as a statement, a docstring say, is not code
    statements = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, "name"
        elif isinstance(node, ast.Attribute):
            kind = {ast.Load: "read", ast.Store: "store"}.get(type(node.ctx), "name")
            yield node.attr, node.lineno, kind
        elif isinstance(node, ast.alias):
            for part in node.name.split("."):
                yield part, node.lineno, "name"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in statements:
                yield node.value, node.lineno, "string"
        elif isinstance(node, ast.keyword) and node.arg is not None:
            yield node.arg, node.value.lineno, "keyword"
        elif isinstance(node, ast.Call):
            func = getattr(node.func, "id", getattr(node.func, "attr", None))
            # positions after a *args are unknown
            starred = [isinstance(a, ast.Starred) for a in node.args] + [True]
            for name in orders.get(func, [])[: starred.index(True)]:
                yield name, node.lineno, "position"


def _shipped_uses():
    """{path: [(name, line, kind), ...]} over the shipped Python files, plus
    the functions that pyproject.toml's console scripts name."""
    orders = {}
    for module in PACKAGE.glob("*.py"):
        for label, name, _, _ in _dataclass_fields(ast.parse(module.read_text())):
            orders.setdefault(label.split(".")[0], []).append(name)
    files = sorted(PACKAGE.glob("*.py"))
    files += sorted((ROOT / "scripts").rglob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    uses = {path: list(_uses(ast.parse(path.read_text()), orders)) for path in files}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    uses[ROOT / "pyproject.toml"] = [
        (target.split(":")[-1], 0, "name") for target in project.get("scripts", {}).values()
    ]
    return uses


def _unused(definitions, kinds, uses=None):
    """Labels, module.label, of the `definitions` that shipped code never
    uses by one of the `kinds` of use; `uses` defaults to `_shipped_uses()`."""
    uses = uses or _shipped_uses()
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        for label, name, first, last in definitions(ast.parse(module.read_text())):
            used = any(
                used_name == name
                and kind in kinds
                and (path != module or not first <= line <= last)
                for path, found in uses.items()
                for used_name, line, kind in found
            )
            if not used:
                unused.append(f"{module.stem}.{label}")
    return unused


def test_every_public_name_in_src_is_used_outside_tests():
    unused = _unused(_public_definitions, {"name", "read", "store", "string"})
    assert not unused, f"only tests use {unused}; move them to tests/oracles.py"


def test_only_tnn_is_used_by_a_perfbench_hook_string_alone():
    # perfbench/tracing.py's HOOKS name the functions it wraps; no other
    # name may ship on that alone.  Deleting tnn's entry is ROADMAP item 10.
    uses = _shipped_uses()
    tracing = ROOT / "perfbench" / "tracing.py"
    uses[tracing] = [use for use in uses[tracing] if use[2] != "string"]
    unused = _unused(_public_definitions, {"name", "read", "store", "string"}, uses)
    assert unused == ["tnn_admm.tnn"]


def test_every_dataclass_field_in_src_is_read_by_shipped_code():
    unused = _unused(_dataclass_fields, {"read", "string"})
    assert not unused, f"shipped code never reads {unused}; delete them"


def test_every_dataclass_field_in_src_is_set_by_shipped_code():
    unused = _unused(_dataclass_fields, {"keyword", "position", "store", "string"})
    assert not unused, f"shipped code never sets {unused}; make them constants"


def _unread_imports(module):
    """Names that `module` imports and never reads, except those in its
    `__all__` and those on an import marked `# noqa: F401`."""
    source = module.read_text()
    tree, lines = ast.parse(source), source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read | exported:
                unread.append(f"{module.stem}.{name}")
    return unread


def test_no_module_in_src_imports_a_name_it_never_reads():
    unread = [name for module in sorted(PACKAGE.glob("*.py")) for name in _unread_imports(module)]
    assert not unread, f"unread imports {unread}; delete them or mark them # noqa: F401"
