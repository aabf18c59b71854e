"""Every imported name in the package and the tests is used, and every private
module-level function and private method of the package has a caller in the
package."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(tree: ast.Module) -> list:
    """Names bound by an import and never read; a name in ``__all__`` is read."""
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_imports_are_caught():
    tree = ast.parse("import os, a.b\nfrom x import y as z, w\n__all__ = ['w']\nos.sep\n")
    assert unused_imports(tree) == [(1, "a"), (2, "z")]


def test_no_unused_imports():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        for line, name in unused_imports(ast.parse(path.read_text(), str(path))):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "unused imports:\n" + "\n".join(found)


def unreferenced_private_functions(trees: dict) -> list:
    """``module:line: name`` of each ``_private`` module-level function or method
    of a module-level class that no module in ``trees`` (a dict of module name
    -> parsed tree) reads by name, attribute or import."""
    defined = {}
    used = set()
    for module, tree in trees.items():
        methods = [n for c in tree.body if isinstance(c, ast.ClassDef) for n in c.body]
        for node in tree.body + methods:
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name.startswith("_") and not node.name.startswith("__"):
                defined[node.name] = f"{module}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(f"{where}: {name}" for name, where in defined.items() if name not in used)


def test_unreferenced_private_functions_are_caught():
    trees = {
        "a": ast.parse(
            "def _dead(): pass\ndef _called(): pass\ndef _imported(): pass\n"
            "def _attr(): pass\ndef __dunder__(): pass\ndef public(): _called()\n"
            "class K:\n    def _method(self): pass\n    def _used(self): pass\n"
            "    def __init__(self): self._used()\n"
        ),
        "b": ast.parse("from a import _imported\nimport a\na._attr\n"),
    }
    assert unreferenced_private_functions(trees) == ["a:1: _dead", "a:8: _method"]


def test_no_unreferenced_private_functions():
    src = ROOT / "src"
    trees = {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(), str(path))
        for path in sorted(src.rglob("*.py"))
    }
    found = unreferenced_private_functions(trees)
    assert not found, "private functions without a caller in src/:\n" + "\n".join(found)
