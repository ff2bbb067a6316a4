"""The library names the benchmark's tracer and layer metrics rely on.

`bench/tracer.py` wraps the public functions of each disconn module by
name, and `bench/layers.py` reads their spans by name, so a renamed
function silently drops a metric.  Every "<module>.<name>" string in the
two files is one of three things: a span the tracer makes itself (the
first argument of `tracer.span(...)`), a per-layer metric that
BENCHMARK.json declares, or a public function of that disconn module.
The test reads bench/ and changes nothing there.
"""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYER_NAME = re.compile(
    r"^(groups|manifolds|bundles|connections|discrete|derivation"
    r"|integration|abelian|numdiff|scenarios|cli)\.[A-Za-z_]+$")


def string_constants(tree):
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def tracer_spans(tree):
    """First arguments of tracer.span(...) calls that are string constants."""
    return {node.args[0].value for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "span"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "tracer"
            and node.args and isinstance(node.args[0], ast.Constant)}


def test_bench_names_are_public_library_functions():
    trees = [ast.parse((ROOT / "bench" / name).read_text())
             for name in ("layers.py", "tracer.py")]
    names = {s for tree in trees for s in string_constants(tree)
             if LAYER_NAME.match(s)}
    spans = set().union(*map(tracer_spans, trees))
    metrics = {metric["name"] for metric in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert {"abelian.primitive_lookup", "integration.reduced_step",
            "scenarios.context"} <= spans
    names -= spans | metrics
    assert {"connections.eval_connection", "discrete.eval_discrete",
            "integration.retract_bundle"} <= names
    missing = []
    for name in sorted(names):
        layer, attr = name.split(".")
        module = importlib.import_module(f"disconn.{layer}")
        fn = getattr(module, attr, None)
        if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
            missing.append(name)
    assert not missing, f"bench/ names no public function: {missing}"
