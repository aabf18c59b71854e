"""Every function and method that the benchmark's tracer wraps exists.

``bench/tracing.py`` names its targets by module and attribute path; a
renamed or deleted target would break only the benchmark run.  The lists are
read from its source, not imported, so this checks them without running any
benchmark code.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
HOOK_LISTS = ("TARGETS", "SPEED_POINTS", "COUNTED")


def hook_lists() -> dict:
    """{list name: [(metric, module, path, kind), ...]} from bench/tracing.py."""
    found = {}
    for node in ast.parse(TRACING.read_text(), str(TRACING)).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id in HOOK_LISTS:
                found[node.targets[0].id] = ast.literal_eval(node.value)
    return found


def test_every_bench_hook_resolves():
    lists = hook_lists()
    assert sorted(lists) == sorted(HOOK_LISTS)
    missing = []
    for list_name, entries in lists.items():
        assert entries, list_name
        for _, module, path, kind in entries:
            assert kind in ("span", "count", "after"), (list_name, path, kind)
            mod = importlib.import_module(f"skeinkit.{module}")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name, None)
                ok = isinstance(cls, type) and attr in cls.__dict__
            else:
                ok = callable(getattr(mod, path, None))
            if not ok:
                missing.append(f"{list_name}: skeinkit.{module}.{path}")
    assert not missing, "bench hooks that do not resolve:\n" + "\n".join(missing)
