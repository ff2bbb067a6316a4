"""How many evaluations one verify-all makes, on the benchmark workload
hopf-newton at seed 0.

A check draws its samples one at a time and then evaluates them as one
stack, and a derivative evaluates its four-point difference stencil in
the same call, so each Richardson derivative calls its function once and
the integrated Hopf form makes one `eval_discrete` call, with one Newton
solve, per stacked evaluation.  Per scenario the solves are 3 for
discrete_axioms (A_d(q0, q0), A_d(g q0, g' q1) and A_d(q0, q1), each on
all samples), 1 for derive_roundtrip and 1 for lift_roundtrip; one solve
per sample would make 24, 8 and 8.
"""

import importlib.util
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import disconn
from disconn import discrete, manifolds, numdiff
from disconn.cli import main

ROOT = Path(__file__).resolve().parents[1]


def rebind_everywhere(monkeypatch, original, replacement):
    """Replace every disconn module global bound to `original`, since
    modules import functions by name."""
    for info in pkgutil.iter_modules(disconn.__path__):
        module = importlib.import_module(f"disconn.{info.name}")
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def counts(monkeypatch):
    counter = Counter()

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            counter[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    richardson = numdiff.richardson_derivative

    def counting_richardson(f, *args, **kwargs):
        counter["richardson_derivative"] += 1
        return richardson(counting("f", f), *args, **kwargs)

    rebind_everywhere(monkeypatch, richardson, counting_richardson)
    for module, name in ((manifolds, "invert_extended"),
                         (discrete, "eval_discrete")):
        original = getattr(module, name)
        rebind_everywhere(monkeypatch, original, counting(name, original))
    return counter


def test_hopf_newton_seed_0(counts, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.write(workloads.generate("hopf-newton", 0), tmp_path)
    assert main(["verify-all", str(tmp_path), "--format", "json"]) == 0
    capsys.readouterr()
    assert counts == {"invert_extended": 10, "eval_discrete": 10,
                      "richardson_derivative": 4, "f": 4}
