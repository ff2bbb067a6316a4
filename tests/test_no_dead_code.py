"""Every top-level function, class and module constant of the library, and
every method of its classes, is used somewhere: in the library, the demos
or the benchmark, and every parameter with a default is set by some call
there.  Tests do not count,
because a name or a knob that only tests reach is dead code with a test.
Every scenario input that the library names (a builtin, a tagged kind, a
check) is used by some scenario, workload, demo or test."""

import ast
import inspect
import json
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


def methods():
    """(qualified name, name) of each method of a top-level class, dunder
    methods left out: Python calls those itself."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, ast.ClassDef):
                continue
            for f in node.body:
                if (isinstance(f, ast.FunctionDef)
                        and not (f.name.startswith("__")
                                 and f.name.endswith("__"))):
                    yield f"{path.stem}.{node.name}.{f.name}", f.name


def test_every_method_is_referenced():
    # A method is reached as an attribute, so its name must be read
    # somewhere; an old sampler left beside its replacement fails here.
    used = referenced_names()
    dead = [qual for qual, name in methods() if name not in used]
    assert dead == []


def callee_name(func):
    """The name a call expression calls: `f` in f(...) and in x.f(...)."""
    return getattr(func, "id", getattr(func, "attr", None))


def calls():
    """(callee name, positional count, keywords, splat) for every call in
    the library, the demos and the benchmark.  The callee of a method call
    is the attribute name; `functools.partial(f, ...)` is a call to f."""
    for path in python_files():
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            if callee_name(func) == "partial" and args:
                func, args = args[0], args[1:]
            name = callee_name(func)
            keywords = {k.arg for k in node.keywords}
            splat = (None in keywords
                     or any(isinstance(a, ast.Starred) for a in args))
            yield name, len(args), keywords, splat


def defaulted_parameters():
    """(qualified name, callee name, position or None, parameter) for each
    parameter with a default of a top-level function or method; a
    method's position does not count self, and `__init__` is called by
    its class name.  Keyword-only parameters have no position."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                functions = [(node, node.name, node.name, 0)]
            elif isinstance(node, ast.ClassDef):
                functions = [
                    (f, f"{node.name}.{f.name}",
                     node.name if f.name == "__init__" else f.name, 1)
                    for f in node.body if isinstance(f, ast.FunctionDef)]
            else:
                continue
            for f, qual, callee, skip in functions:
                a = f.args
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                for i in range(first, len(positional)):
                    yield (f"{path.stem}.{qual}", callee, i - skip,
                           positional[i].arg)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        yield f"{path.stem}.{qual}", callee, None, arg.arg


def test_every_parameter_default_is_overridden():
    # A default that no call overrides is a knob with one value in use:
    # make it a constant.  A call overrides a parameter by keyword, by
    # position, or possibly through a * or ** splat.
    by_callee = {}
    for name, count, keywords, splat in calls():
        by_callee.setdefault(name, []).append((count, keywords, splat))

    def overridden(callee, position, param):
        return any(splat or param in keywords
                   or (position is not None and count > position)
                   for count, keywords, splat in by_callee.get(callee, []))

    dead = [f"{qual}({param})"
            for qual, callee, position, param in defaulted_parameters()
            if not overridden(callee, position, param)]
    assert dead == []


def test_checks_are_public_functions_of_scenarios():
    # The benchmark tracer wraps public module-level functions and finds
    # the checks among them.
    for name, fn in scenarios.CHECKS.items():
        assert inspect.isfunction(fn), name
        assert fn.__module__ == scenarios.__name__, name
        assert not fn.__name__.startswith("_"), name
        assert getattr(scenarios, fn.__name__) is fn, name


def json_strings(value):
    """The strings of a parsed JSON value, object keys left out."""
    if isinstance(value, str):
        return {value}
    items = value.values() if isinstance(value, dict) else (
        value if isinstance(value, list) else [])
    return set().union(*map(json_strings, items))


def python_strings(path):
    """The string literals of a Python file, dict-display keys left out."""
    tree = ast.parse(path.read_text(), str(path))
    keys = {id(key) for node in ast.walk(tree) if isinstance(node, ast.Dict)
            for key in node.keys}
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and id(node) not in keys}


def test_every_scenario_input_is_exercised():
    # A builtin, kind or check that no scenario file, workload, demo or
    # test names as a value is an input that nothing runs.
    used = set()
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        used |= json_strings(json.loads(path.read_text()))
    for path in [ROOT / "bench" / "workloads.py",
                 *sorted((ROOT / "demos").rglob("*.py")),
                 *sorted((ROOT / "tests").rglob("*.py"))]:
        used |= python_strings(path)
    kinds = {tag for fields in scenarios._SCHEMA.values()
             if "kind" in fields for tag in fields["kind"]}
    retractions = {tag for _, tag in scenarios._RETRACTIONS}
    inputs = (set(scenarios._ONE_FORMS) | set(scenarios._PAIR_MAPS)
              | set(scenarios._QUADRATIC_F) | kinds | retractions
              | set(scenarios.CHECKS))
    assert sorted(inputs - used) == []


def test_state_stays_in_fields():
    # An object's state is its fields: no module reaches an instance dict,
    # through vars(...) or __dict__, or keeps a functools.cached_property
    # there, so no cache lives beside the fields (equality, repr) of a
    # frozen dataclass such as a bundle point.
    hidden = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and callee_name(node.func) == "vars"
                    or callee_name(node) in ("__dict__", "cached_property")):
                hidden.append(f"{path.stem}:{node.lineno}")
    assert hidden == []
