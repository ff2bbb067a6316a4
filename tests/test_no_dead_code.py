"""Every public top-level function and class of the library is used
somewhere: in the library, the tests, the demos or the benchmark."""

import ast
import inspect
from pathlib import Path

from disconn import scenarios

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "disconn"


def python_files():
    for folder in ("src", "tests", "demos", "bench"):
        yield from sorted((ROOT / folder).rglob("*.py"))


def referenced_names():
    """Every name that some file reads, imports or reaches as an
    attribute; a definition alone does not count."""
    names = set()
    for path in python_files():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def public_definitions():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield f"{path.stem}.{node.name}", node.name


def test_every_public_name_is_referenced():
    used = referenced_names()
    dead = [qual for qual, name in public_definitions() if name not in used]
    assert dead == []


def test_checks_are_public_functions_of_scenarios():
    # The benchmark tracer wraps public module-level functions and finds
    # the checks among them.
    for name, fn in scenarios.CHECKS.items():
        assert inspect.isfunction(fn), name
        assert fn.__module__ == scenarios.__name__, name
        assert not fn.__name__.startswith("_"), name
        assert getattr(scenarios, fn.__name__) is fn, name
