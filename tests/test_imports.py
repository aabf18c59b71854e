"""Every imported name in the package and the tests is used, every private
module-level function and private method of the package has a caller in the
package, every public one is read outside the tests, the three engines
import none of each other, the package has no ``assert`` statement, only
``suites._report`` catches a budget error, every error class is raised,
directly or through a subclass, only ``laurent.py`` spells the
polynomial text grammar or reads a polynomial's term dict, and every
module parses as the oldest Python that ``pyproject.toml`` admits.  The
public functions that only the tests or only the benchmark's hooks read
are listed, each with a reason."""

import ast
from pathlib import Path

from test_bench_hooks import hook_lists

ROOT = Path(__file__).resolve().parent.parent

# Public API that only the tests read, each kept on purpose.
TEST_ONLY_API = {
    "LinkDiagram.linking_number": "checks the doubling convention's framing",
    "BraidWord.closure_component_count": "checks the closure's component count",
    "BraidWord.permutation": "checks the closure's strand permutation; only closure_component_count reads it",
    "LinkDiagram.to_pd_text": "checks the PD convention by a round trip",
    "InvariantReport.content_key": "the determinism key named in the README",
}

# Public API that nothing in the package or the benchmark calls, kept alive
# only because ``bench/tracing.py`` wraps it by name.
HOOK_ONLY_API = {
    "LinkDiagram.switch_crossing": "a traced layer; the skein engine switches crossings in the working form",
    "LinkDiagram.smooth_crossing": "a traced layer; the skein engine smooths on a copy of the working form",
}


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


def function_nodes(tree: ast.Module) -> list:
    """``(qualified name, node)`` of each module-level function and each
    method of a module-level class."""
    found = [(n.name, n) for n in tree.body if isinstance(n, ast.FunctionDef)]
    for c in tree.body:
        if isinstance(c, ast.ClassDef):
            found += [(f"{c.name}.{n.name}", n) for n in c.body if isinstance(n, ast.FunctionDef)]
    return found


def names_read(tree: ast.AST, skipped=()) -> set:
    """Every name ``tree`` reads by name, attribute or import, outside the
    subtrees in ``skipped``."""
    todo = [tree]
    used = set()
    while todo:
        node = todo.pop()
        if node in skipped:
            continue
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        todo.extend(ast.iter_child_nodes(node))
    return used


def unreferenced_private_functions(trees: dict) -> list:
    """``module:line: name`` of each ``_private`` module-level function or method
    of a module-level class that no module in ``trees`` (a dict of module name
    -> parsed tree) reads by name, attribute or import."""
    defined = {}
    used = set()
    for module, tree in trees.items():
        for qualname, node in function_nodes(tree):
            name = qualname.rpartition(".")[2]
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = f"{module}:{node.lineno}"
        used |= names_read(tree)
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


def parse_folder(folder: str) -> dict:
    """{path relative to the root: parsed tree} of every module under ``folder``."""
    return {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(), str(path))
        for path in sorted((ROOT / folder).rglob("*.py"))
    }


def test_no_unreferenced_private_functions():
    found = unreferenced_private_functions(parse_folder("src"))
    assert not found, "private functions without a caller in src/:\n" + "\n".join(found)


def unread_public_functions(defining: dict, reading: dict, extra_reads=frozenset(), test_only=frozenset()) -> list:
    """``module:line: qualified name`` of each public module-level function or
    method of a module-level class in ``defining`` whose name no tree in
    ``reading`` reads by name, attribute or import, and that is not in
    ``extra_reads``.  A read inside a function named in ``test_only`` does
    not count: what only test-only API reads is read only by tests."""
    used = set(extra_reads)
    for tree in reading.values():
        used |= names_read(tree, {node for name, node in function_nodes(tree) if name in test_only})
    found = []
    for module, tree in defining.items():
        for qualname, node in function_nodes(tree):
            name = qualname.rpartition(".")[2]
            if not name.startswith("_") and name not in used:
                found.append(f"{module}:{node.lineno}: {qualname}")
    return sorted(found)


def test_unread_public_functions_are_caught():
    defining = {
        "a": ast.parse(
            "def dead(): pass\ndef called(): pass\ndef hooked(): pass\ndef _private(): pass\n"
            "class K:\n    def method(self): pass\n    def used(self): pass\n"
            "    def __init__(self): pass\n"
        )
    }
    reading = {**defining, "b": ast.parse("from a import called\nK().used()\n")}
    assert unread_public_functions(defining, reading, {"hooked"}) == ["a:1: dead", "a:6: K.method"]


def test_reads_inside_test_only_api_are_caught():
    defining = {
        "a": ast.parse(
            "def helper(): pass\ndef shared(): pass\ndef public(): shared()\n"
            "class K:\n    def checked(self): helper(); shared(); self.inner()\n"
            "    def inner(self): pass\n"
        )
    }
    reading = {**defining, "b": ast.parse("from a import public\nK().checked()\n")}
    assert unread_public_functions(defining, reading) == []
    found = unread_public_functions(defining, reading, test_only={"K.checked"})
    assert found == ["a:1: helper", "a:6: K.inner"]


def test_no_public_functions_read_only_by_tests():
    package = parse_folder("src")
    hooks = {path.rpartition(".")[2] for entries in hook_lists().values() for _, _, path, _ in entries}
    found = unread_public_functions(package, {**package, **parse_folder("bench")}, hooks, TEST_ONLY_API)
    by_name = {line.rpartition(": ")[2]: line for line in found}
    assert sorted(set(TEST_ONLY_API) - set(by_name)) == [], "exempt names that are read"
    unread = [line for name, line in by_name.items() if name not in TEST_ONLY_API]
    assert not unread, "public functions read only by tests:\n" + "\n".join(unread)


def hook_only_functions(defining: dict, reading: dict, hooks) -> list:
    """Qualified names of the public functions in ``defining`` that no tree in
    ``reading`` reads and whose name is in ``hooks``."""
    unread = (line.rpartition(": ")[2] for line in unread_public_functions(defining, reading))
    return sorted(name for name in unread if name.rpartition(".")[2] in hooks)


def test_hook_only_functions_are_caught():
    defining = {
        "a": ast.parse(
            "def hooked(): pass\ndef called(): pass\ndef dead(): pass\n"
            "class K:\n    def traced(self): pass\n    def _private(self): pass\n"
        )
    }
    reading = {**defining, "b": ast.parse("from a import called\n")}
    hooks = {"hooked", "called", "traced", "_private"}
    assert hook_only_functions(defining, reading, hooks) == ["K.traced", "hooked"]


def test_hook_only_api_is_listed():
    package = parse_folder("src")
    hooks = {path.rpartition(".")[2] for entries in hook_lists().values() for _, _, path, _ in entries}
    found = hook_only_functions(package, {**package, **parse_folder("bench")}, hooks)
    assert found == sorted(HOOK_ONLY_API), "public functions that only bench hooks read"


# The engines' agreement is evidence only while they share no algebra: none
# imports another, nor a layer built on top of them.
ENGINES = ("skein", "hecke", "jones")
ABOVE_ENGINES = ("satellite", "suites", "cli")


def package_imports(tree: ast.Module) -> list:
    """``(line, module)`` of each ``skeinkit`` module that ``tree`` imports,
    absolutely or relatively, named by its first component in the package."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "skeinkit." + (node.module or "") if node.level else node.module
            dotted = [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in dotted:
            parts = name.split(".")
            if parts[0] == "skeinkit" and len(parts) > 1:
                found.append((node.lineno, parts[1]))
    return found


def engine_cross_imports(trees: dict) -> list:
    """``engine:line: module`` of each import by an engine in ``trees`` (a dict
    of module name -> parsed tree) of another engine or a layer above them."""
    found = []
    for engine in ENGINES:
        banned = set(ENGINES + ABOVE_ENGINES) - {engine}
        found += [f"{engine}:{line}: {name}" for line, name in package_imports(trees[engine]) if name in banned]
    return sorted(found)


def test_engine_cross_imports_are_caught():
    trees = {
        "skein": ast.parse("from .hecke import x\nfrom .laurent import y\nfrom operator import itemgetter\n"),
        "hecke": ast.parse("from . import cli, diagram\nimport skeinkit.jones\n"),
        "jones": ast.parse("from skeinkit import satellite\nfrom skeinkit.errors import E\nimport jones, skeinkit\n"),
    }
    assert engine_cross_imports(trees) == ["hecke:1: cli", "hecke:2: jones", "jones:1: satellite", "skein:1: hecke"]


def test_engines_share_no_algebra():
    trees = {name: ast.parse((ROOT / "src" / "skeinkit" / f"{name}.py").read_text()) for name in ENGINES}
    found = engine_cross_imports(trees)
    assert not found, "engine imports of another engine or a layer above them:\n" + "\n".join(found)


# ``python -O`` strips assert statements, so a failed check in the package
# raises an error of its own (``SelfCheckError``, say) instead.


def assert_lines(tree: ast.Module) -> list:
    """Line of each ``assert`` statement in ``tree``, at any depth."""
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_assert_statements_are_caught():
    tree = ast.parse("assert x\ndef f():\n    if y:\n        assert y, 'm'\nz = 'assert z'\nassertion = 1\n")
    assert assert_lines(tree) == [1, 4]


def test_no_assert_statements_in_the_package():
    found = [f"{path}:{line}" for path, tree in parse_folder("src").items() for line in assert_lines(tree)]
    assert not found, "assert statements in src/:\n" + "\n".join(found)


# ``suites._report`` is the one place that turns a budget error of any engine
# into a SKIP; a second handler would let one path skip what another fails.


def budget_handlers(trees: dict) -> list:
    """``(module, function, line)`` of each ``except`` clause in ``trees`` (a
    dict of module name -> parsed tree) that names ``BudgetExceededError``;
    ``function`` is the innermost enclosing function, or ``<module>``."""
    found = []

    def visit(node, module, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                if "BudgetExceededError" in names_read(child.type):
                    found.append((module, function, child.lineno))
            visit(child, module, function)

    for module, tree in trees.items():
        visit(tree, module, "<module>")
    return sorted(found)


def test_budget_handlers_are_caught():
    tree = ast.parse(
        "try:\n    x()\nexcept BudgetExceededError:\n    pass\n"
        "def f():\n    try:\n        x()\n    except (ValueError, errors.BudgetExceededError):\n        pass\n"
        "    def g():\n        try:\n            x()\n        except SkeinKitError:\n            pass\n"
        "        except BudgetExceededError as exc:\n            pass\n"
        "    try:\n        x()\n    except:\n        pass\n"
    )
    assert budget_handlers({"a": tree}) == [("a", "<module>", 3), ("a", "f", 8), ("a", "g", 15)]


def test_only_report_catches_budget_errors():
    found = budget_handlers(parse_folder("src"))
    assert [(module, function) for module, function, _ in found] == [("src/skeinkit/suites.py", "_report")]


def error_classes(tree: ast.Module) -> list:
    """Names of the module-level classes of ``tree``."""
    return [node.name for node in tree.body if isinstance(node, ast.ClassDef)]


def raised_names(trees: dict) -> set:
    """Every name read by the expression of a ``raise`` statement in ``trees``."""
    return set().union(
        *(names_read(node.exc) for tree in trees.values() for node in ast.walk(tree)
          if isinstance(node, ast.Raise) and node.exc is not None)
    )


def test_raised_names_are_caught():
    tree = ast.parse(
        "raise A('m')\ndef f():\n    raise errors.B() from C\nraise\n"
        "try:\n    pass\nexcept D:\n    raise\nE\n"
    )
    assert raised_names({"a": tree}) == {"A", "errors", "B"}
    assert error_classes(ast.parse("class A(Exception):\n    class Inner: pass\nB = A\n")) == ["A"]


def with_base_classes(tree: ast.Module, names: set) -> set:
    """``names`` and the bases, at any depth, of the classes of ``tree`` in
    ``names``: raising a class raises each of its bases too."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in tree.body if isinstance(node, ast.ClassDef)}
    found, stack = set(names), list(names)
    while stack:
        for base in bases.get(stack.pop(), ()):
            if base not in found:
                found.add(base)
                stack.append(base)
    return found


def test_base_classes_are_raised_through_subclasses():
    tree = ast.parse("class A(Exception): pass\nclass B(A): pass\nclass C(B): pass\nclass D(A): pass\n")
    assert with_base_classes(tree, {"C", "x"}) == {"C", "B", "A", "Exception", "x"}
    assert with_base_classes(tree, {"D"}) == {"D", "A", "Exception"}


def test_every_error_class_is_raised():
    package = parse_folder("src")
    errors = package["src/skeinkit/errors.py"]
    raised = with_base_classes(errors, raised_names(package))
    unraised = [name for name in error_classes(errors) if name not in raised]
    assert not unraised, "error classes that nothing in src/ raises: " + ", ".join(unraised)


# The working form's crossing layout (plain 5-tuples, port maps, kink and
# bigon sets) is private to ``diagram.py``: other modules go through its
# methods, so the layout can change without them.


def working_form_fields(tree: ast.Module) -> tuple:
    """The ``__slots__`` of the class ``_WorkingDiagram`` in ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "_WorkingDiagram":
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                ):
                    return tuple(ast.literal_eval(stmt.value))
    return ()


def field_reads(trees: dict, fields) -> list:
    """``module:line: .field`` of each attribute named in ``fields`` that a
    tree in ``trees`` (a dict of module name -> parsed tree) reads or writes."""
    return sorted(
        f"{module}:{node.lineno}: .{node.attr}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in fields
    )


def test_working_form_field_reads_are_caught():
    diagram = ast.parse(
        "class _WorkingDiagram:\n    __slots__ = ('cs', 'head')\n"
        "class Other:\n    __slots__ = ('tail',)\n"
    )
    assert working_form_fields(diagram) == ("cs", "head")
    tree = ast.parse("w.cs[x].sign\ncs = 1\nw.csv\nw.sign(x)\nw.head = {}\nw.tail\n")
    assert field_reads({"a": tree}, ("cs", "head")) == ["a:1: .cs", "a:5: .head"]


def test_only_diagram_reads_the_working_form():
    package = parse_folder("src")
    fields = working_form_fields(package.pop("src/skeinkit/diagram.py"))
    assert "cs" in fields
    found = field_reads(package, fields)
    assert not found, "working-form fields read outside diagram.py:\n" + "\n".join(found)


# A polynomial's term dict is private to ``laurent.py``: other modules go
# through its operations and ``terms()``, so they never see a dict that the
# polynomial still owns.


def test_polynomial_term_reads_are_caught():
    tree = ast.parse("p._terms.items()\nterms = p.terms()\nq._terms = {}\n_terms = 1\n")
    assert field_reads({"a": tree}, ("_terms",)) == ["a:1: ._terms", "a:3: ._terms"]


def test_only_laurent_reads_a_polynomials_terms():
    trees = {**parse_folder("src"), **parse_folder("bench")}
    assert field_reads({"laurent": trees.pop("src/skeinkit/laurent.py")}, ("_terms",))
    found = field_reads(trees, ("_terms",))
    assert not found, "polynomial term dicts read outside laurent.py:\n" + "\n".join(found)


# The polynomial text grammar is written once, in ``laurent.py``; the cache
# line pattern in ``skein.py`` is built from ``laurent.TEXT_PATTERN``.  Every
# pattern for a term spells its ``*v^`` escaped.

GRAMMAR_MARK = r"\*v\^"


def grammar_constants(trees: dict) -> list:
    """``module:line`` of each string constant in ``trees`` (a dict of module
    name -> parsed tree) that holds ``GRAMMAR_MARK``, f-string parts included."""
    return sorted(
        f"{module}:{node.lineno}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and GRAMMAR_MARK in node.value
    )


def test_grammar_constants_are_caught():
    tree = ast.parse(
        r'''A = r"(-?\d+)\*v\^(0)"
B = rf"{A} \*v\^{A}"
C = "c*v^a*z^b"
def f():
    return re.compile(r"[0-9]\*v\^")
D = r"\*z\^"
'''
    )
    assert grammar_constants({"a": tree}) == ["a:1", "a:2", "a:5"]


def test_only_laurent_spells_the_text_grammar():
    found = grammar_constants({**parse_folder("src"), **parse_folder("bench")})
    assert found and {line.rpartition(":")[0] for line in found} == {"src/skeinkit/laurent.py"}, found


# ``pyproject.toml`` requires Python >= 3.10, and tier-1 CI runs 3.10 and
# 3.11; this catches newer syntax (``except*``, say) on a newer interpreter.

OLDEST_PYTHON = (3, 10)


def newer_syntax(sources: dict) -> list:
    """``path: error`` of each source in ``sources`` (path -> text) that does
    not parse as ``OLDEST_PYTHON``."""
    found = []
    for path, text in sources.items():
        try:
            ast.parse(text, path, feature_version=OLDEST_PYTHON)
        except SyntaxError as exc:
            found.append(f"{path}: {exc.msg}")
    return found


def test_newer_syntax_is_caught():
    sources = {
        "a": "try:\n    pass\nexcept* ValueError:\n    pass\n",
        "b": "match x:\n    case 1:\n        pass\n",
    }
    assert [line.partition(":")[0] for line in newer_syntax(sources)] == ["a"]


def test_sources_parse_as_the_oldest_supported_python():
    requires = (ROOT / "pyproject.toml").read_text()
    assert f'requires-python = ">={OLDEST_PYTHON[0]}.{OLDEST_PYTHON[1]}"' in requires
    sources = {
        str(path.relative_to(ROOT)): path.read_text()
        for folder in ("src", "tests")
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    found = newer_syntax(sources)
    assert not found, "syntax newer than Python 3.10:\n" + "\n".join(found)
