"""The package namespace and the package-wide input rules."""

import ast
import re
from pathlib import Path

import betabart

SRC = Path(__file__).resolve().parents[1] / "src" / "betabart"


def test_every_exported_name_resolves():
    for name in betabart.__all__:
        assert hasattr(betabart, name), name
    assert "logit_link" in betabart.__all__
    namespace = {}
    exec("from betabart import *", namespace)
    assert namespace["logit_link"] is betabart.logit_link


def _type_checks(type_names):
    """(module, function) of every isinstance call in the package whose
    class argument names one of type_names, once per call."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = (scope[0], node.name)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            named = {
                getattr(part, "id", None) or getattr(part, "attr", None)
                for part in ast.walk(node.args[-1])
            }
            if named & type_names:
                found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), (path.stem, "<module>"))
    return sorted(found)


def test_integer_rule_has_one_home():
    # specfun._integer is the one integer check: a Python or numpy integer,
    # never a bool.  Every entry point calls it; a type test against an
    # integer type anywhere else forks the rule.  A bool is an int to
    # Python, so _real, the one number check, refuses it too.
    assert _type_checks({"int", "integer", "Integral"}) == [("specfun", "_integer")]
    assert _type_checks({"bool"}) == [("specfun", "_integer"), ("specfun", "_real")]


def _open_unit_rules():
    """(module, function) of every `(a > 0) & (a < 1)` in the package."""
    found = []

    def bound(node, op, value):
        return (
            isinstance(node, ast.Compare)
            and isinstance(node.ops[0], op)
            and getattr(node.comparators[0], "value", None) == value
        )

    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.BitAnd)
                    and bound(node.left, ast.Gt, 0)
                    and bound(node.right, ast.Lt, 1)
                ):
                    found.append((path.stem, func.name))
    return found


def test_open_interval_rule_has_one_home():
    # model._in_unit_interval is the one "strictly inside (0, 1)" rule of
    # responses, means, draws and the CLI's response check.
    assert _open_unit_rules() == [("model", "_in_unit_interval")]


# "# noqa: F401" followed by a reason, on the line of the imported name
_KEPT_IMPORT = re.compile(r"#\s*noqa:\s*F401\s+\S")


def _unused_imports(path):
    """(line, name) of every name the module at path imports but never
    reads, does not list in __all__ and does not mark with "# noqa: F401"
    and a reason."""
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = [
        (alias.lineno, alias.asname or alias.name.split(".")[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and "__all__" in {
            getattr(target, "id", None) for target in node.targets
        }:
            used.update(ast.literal_eval(node.value))
    return [
        (line, name)
        for line, name in imported
        if name not in used and not _KEPT_IMPORT.search(lines[line - 1])
    ]


def test_every_import_is_used():
    # The unused-import check (F401) of a linter, which the toolchain lacks:
    # a name kept for another reader, such as a tracer, says why.
    unused = {path.name: _unused_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in unused.items() if found} == {}


# Private names kept without a reader in src/, each with its reason.
_UNREAD_KEPT = {
    # the dense-table oracle of test_cumulants.py and test_acceptance.py
    # (ROADMAP, Parked)
    "cumulants._cumulant_factor_tensors",
}


def _private_definitions(tree):
    """(name, node) of every module-level private function, class and
    constant, dunders aside."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [
        (name, node)
        for name, node in found
        if name.startswith("_") and not name.startswith("__")
    ]


def _reads(node):
    """Every name node reads: Name loads, attributes and from-imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _unread_private_names(src):
    """module.name of every private definition under src that no code in
    src reads outside the definition itself."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    reads = [(node, _reads(node)) for tree in trees.values() for node in tree.body]
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, definition in _private_definitions(tree)
        if not any(name in names for node, names in reads if node is not definition)
    ]


def test_every_private_name_is_read():
    # Dead private code: a helper, class or constant that nothing in the
    # package reads any more is deleted, not kept for a later caller.
    assert set(_unread_private_names(SRC)) == _UNREAD_KEPT
