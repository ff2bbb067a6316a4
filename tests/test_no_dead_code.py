"""Every top-level function, class and module constant of the library, and
every method of its classes, is used somewhere: in the library, the demos
or the benchmark, and every parameter with a default is set by some call
there.  Tests do not count,
because a name or a knob that only tests reach is dead code with a test.
The same holds for statements: every statement of a library function is
reached by the shipped inputs (the bundled and negative scenarios, the
benchmark workloads and the demos), guards aside, or its function is in
`ALLOWED` with the reason it stays.
Every scenario input that the library names (a builtin, a tagged kind, a
check) is used by some scenario, workload, demo or test.

    PYTHONPATH=src python tests/test_no_dead_code.py

prints the census as JSON: the first line of each unreached statement, by
function."""

import ast
import contextlib
import inspect
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

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
    from disconn import scenarios

    # A check is read through CHECKS, where its `_check` decorator puts it;
    # test_every_scenario_input_is_exercised requires each to be named.
    used = referenced_names() | {fn.__name__
                                 for fn in scenarios.CHECKS.values()}
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
    from disconn import scenarios

    # The benchmark tracer wraps public module-level functions, finds the
    # checks among them by identity and names each span
    # scenarios.check.<name>: CHECKS[name] is the plain function
    # scenarios.check_<name>, not a partial, and declares its reads.
    for name, fn in scenarios.CHECKS.items():
        assert inspect.isfunction(fn), name
        assert fn.__module__ == scenarios.__name__, name
        assert fn.__name__ == f"check_{name}", name
        assert getattr(scenarios, fn.__name__) is fn, name
        assert name in scenarios._READS, name


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
    from disconn import scenarios

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
    inputs = (set().union(*scenarios._BUILTINS.values())
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


# ---------------------------------------------------------------------------
# Reachability census: which statements of the library the shipped inputs
# reach, traced line by line.

# The functions that keep an unreached statement, with the reason each
# stays.
ALLOWED = {
    "cli.main": "the exit-2 paths (an empty directory, a file that fails "
                "to load or run), which tier-1 and CI's CLI step take",
    "connections.curvature": "the non-abelian bracket, kept for ROADMAP "
                             "item 3",
    "groups.SO3.adjoint": "kept for item 3",
    "groups.SO3.bracket": "kept for item 3",
    "groups.SO3.identity": "kept for item 3",
    "groups.SO3.wrap": "SO(3) data entering a point, kept for item 3",
    "groups.Translation.bracket": "kept for item 3",
    "manifolds.Sphere.chart_line_step": "the Hopf chart retraction, the "
                                        "control kept for item 21",
    "manifolds.Sphere.dim": "declared by ManifoldKind",
    "manifolds.invert_extended": "the divergence tail, which "
                                 "tests/test_chord_step.py stresses",
    "scenarios._builtin_table": "polynomial terms: outside input that "
                                "only CI's CLI step writes",
    "scenarios._hopf_chart_retraction": "the control kept for item 21",
    "scenarios._is_number": "an integer value: outside input, as "
                            "_builtin_table",
    "scenarios._is_term": "polynomial terms, as _builtin_table",
}


def _ends_in_raise(block):
    return bool(block) and isinstance(block[-1], ast.Raise)


def _blocks(node):
    """(block, whether it is a guard) for each block of a statement: an if
    or except block that ends in a raise is a guard.  A nested function's
    block is its body without its docstring."""
    if isinstance(node, ast.FunctionDef):
        return [(_without_docstring(node.body), False)]
    if isinstance(node, ast.If):
        return [(b, _ends_in_raise(b)) for b in (node.body, node.orelse)]
    return ([(getattr(node, name, []), False)
             for name in ("body", "orelse", "finalbody")]
            + [(h.body, _ends_in_raise(h.body))
               for h in getattr(node, "handlers", [])])


def _without_docstring(body):
    first = body[0]
    docstring = (isinstance(first, ast.Expr)
                 and isinstance(first.value, ast.Constant)
                 and isinstance(first.value.value, str))
    return body[1:] if docstring else body


def counted_statements(body):
    """The statements of a block that the census counts, nested blocks
    included: not a raise, nor a statement of a guard block.  A nested
    function's statements count as its enclosing function's."""
    for node in body:
        if isinstance(node, ast.Raise):
            continue
        yield node
        for block, guard in _blocks(node):
            if not guard:
                yield from counted_statements(block)


def library_functions():
    """(qualified name, path, function node) of each top-level function and
    method of the library."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                yield f"{path.stem}.{node.name}", path, node
            elif isinstance(node, ast.ClassDef):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef):
                        yield f"{path.stem}.{node.name}.{f.name}", path, f


def shipped_inputs():
    """Run every shipped input, its output discarded: verify-all on the
    bundled scenarios (table and JSON) and the negative ones, on each
    benchmark workload at seed 0, and both demos."""
    from disconn.cli import main
    from test_verdict_bytes import WORKLOADS, bench_workloads

    workloads = bench_workloads()
    with (tempfile.TemporaryDirectory() as tmp,
          contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO())):
        main(["verify-all", str(ROOT / "scenarios")])
        main(["verify-all", str(ROOT / "scenarios"), "--format", "json"])
        main(["verify-all", str(ROOT / "scenarios" / "negative")])
        for name in WORKLOADS:
            files = Path(tmp) / name
            workloads.write(workloads.generate(name, 0), files)
            main(["verify-all", str(files)])
        for demo in sorted((ROOT / "demos").glob("*_demo.py")):
            runpy.run_path(str(demo), run_name="__main__")


def census():
    """{qualified function name: first lines of its unreached statements}
    over the shipped inputs, for each function that has one.  A statement
    is reached when any of its lines runs.  The library is imported under
    the trace, so what its import runs counts."""
    ran = {path.resolve(): set() for path in SRC.glob("*.py")}
    by_name = {}  # a code object's file name: its set in ran, or None

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = ran.get(Path(name).resolve())
        lines = by_name[name]
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    sys.settrace(trace)
    try:
        shipped_inputs()
    finally:
        sys.settrace(None)
    unreached = {}
    for name, path, function in library_functions():
        lines = ran[path.resolve()]
        missed = [node.lineno for node in counted_statements(
                      _without_docstring(function.body))
                  if lines.isdisjoint(range(node.lineno,
                                            node.end_lineno + 1))]
        if missed:
            unreached[name] = missed
    return unreached


def test_every_statement_is_reached_or_allowed():
    # A fresh interpreter: no cache of the library (scenarios._symmetric's)
    # and no context's generator is warmed up by an earlier test.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, __file__], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    unreached = json.loads(run.stdout)
    listing = "\n".join(f"{name}: lines {lines}"
                         for name, lines in unreached.items())
    assert sorted(unreached) == sorted(ALLOWED), listing


if __name__ == "__main__":
    print(json.dumps(census(), indent=1))
