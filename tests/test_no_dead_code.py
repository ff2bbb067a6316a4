"""Every top-level function, class and module constant of the library is
used somewhere: in the library, the demos or the benchmark.  Tests do not
count, because a name that only tests reach is dead code with a test."""

import ast
import inspect
from pathlib import Path

from disconn import scenarios

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "disconn"


def python_files():
    for folder in ("src", "demos", "bench"):
        yield from sorted((ROOT / folder).rglob("*.py"))


def referenced_names():
    """Every name that some file reads, imports or reaches as an
    attribute.  Only reads count: the name a definition or an assignment
    binds would otherwise count as its own use."""
    names = set()
    for path in python_files():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def bound_names(node):
    """Names a top-level statement defines: a function, a class, or the
    plain-name targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def top_level_definitions():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            for name in bound_names(node):
                if not (name.startswith("__") and name.endswith("__")):
                    yield f"{path.stem}.{name}", name


def test_every_top_level_name_is_referenced():
    used = referenced_names()
    dead = [qual for qual, name in top_level_definitions()
            if name not in used]
    assert dead == []


def test_checks_are_public_functions_of_scenarios():
    # The benchmark tracer wraps public module-level functions and finds
    # the checks among them.
    for name, fn in scenarios.CHECKS.items():
        assert inspect.isfunction(fn), name
        assert fn.__module__ == scenarios.__name__, name
        assert not fn.__name__.startswith("_"), name
        assert getattr(scenarios, fn.__name__) is fn, name
