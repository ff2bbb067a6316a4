"""How many evaluations one verify-all makes, on the benchmark workloads
matched-deep, hopf-newton and breadth at seed 0.

Every check evaluates its samples as one stack, and a derivative
evaluates its four-point difference stencil in the same call, so each
Richardson derivative calls its function once.  An exterior derivative
takes both of its slopes in one Richardson call.  A law that reads
several pairs joins them into one stack, so an integrated form makes one
`eval_discrete` call, with one Newton solve, per check: on hopf-newton,
per scenario, 1 for discrete_axioms (the pairs (q0, q0), (g q0, g' q1)
and (q0, q1) joined), 1 for derive_roundtrip and 1 for lift_roundtrip.
One call per pair made 3 solves for discrete_axioms, and one per sample
made 24.

`eval_connection` and `retract_bundle` are counted at every call, nested
ones included.  An integrated evaluation lifts once: it builds the matrix
of horizontal lifts at its anchors with one `eval_connection` call, and
the reduced retraction applies that matrix.  It retracts no more: the
rule reads the point of its Newton solve's last step, a residual's.  On
hopf-newton, over the two scenarios, connection_axioms evaluates the
connection 6 times (A at the generator, at g . v and at v, per
scenario); the integrated form evaluates it 2 times in discrete_axioms,
6 in derive_roundtrip (with the 2 direct evaluations per scenario) and 4
in lift_roundtrip (with the 1 direct horizontal lift per scenario).
Only retraction_equivariance calls `retract_bundle`, 4 times (R(g . v)
and R(v) per scenario); a retraction of L delta after each solve made
10, 2 in each integrated check.  A lift inside every reduced step and
one more after each solve made 34 `eval_connection` calls; one call per
pair had made 48 `eval_connection` and 14 `retract_bundle` calls.  On
breadth the 14 solves and the reduced retraction of S2 x U(1)'s
retraction_axioms evaluate the connection once each, where they made 61
calls in all before, and `retract_bundle` runs 4 times, in the
retraction_equivariance checks of the two U(1) scenarios; a retraction
after each solve made 18 (3 in derive_roundtrip, 4 in diagram, 4 in
discrete_axioms and 3 in lift_roundtrip).  hopf-newton takes no exterior derivative and no line integral.

On matched-deep, a curvature-matched evaluation makes one `eval_discrete`
call of the reference and integrates the end points m1 and m0 of its
pairs in one line integral, whose integrand, the descended difference,
is a difference of two polynomial tables: the reference's derived
connection is its pair map's closed form, so no derivative is taken
inside the integrand or the gate.  The matched gate's exterior
derivative takes 1 Richardson call; derive_roundtrip takes 1 (the
outer derivative), 2 `eval_discrete` calls and 1 line integral,
same_discrete_curvature 0, 3 (the local form's holonomy included) and
1, and discrete_axioms 0, 2 and 1: 2 Richardson calls, 7
`eval_discrete` calls and 3 line integrals.  The numerical derivative
of the reference inside the difference made 6, 11 and 3; before that,
two integrals per matched evaluation and two Richardson calls per
exterior derivative made 11, 15 and 6.

On breadth, five discrete_axioms checks and one discrete_flatness check
make one `eval_discrete` call each, and the four integrated forms solve
14 times.  The exterior derivatives take 1 Richardson call in the flat
form's matching gate and 1 in closed_form, 2 in derived_curvature (its
own and, inside it, the derived flat form's, with 1 `eval_discrete` call
and 1 line integral) and 4 in same_derived_curvature (2 for each derived
form, with 2 `eval_discrete` calls).  The flat form is the
curvature-matched integral against the zero reference, so each of its 4
evaluations (1 in discrete_flatness, 1 in derived_curvature and 2 in
diagram) evaluates the zero pair map once more: 23 Richardson calls, 28
`eval_discrete` calls and 4 line integrals in all, where a flat pair map
of its own made 24 `eval_discrete` calls.  One Richardson call per slope
doubled these and made 31, 27 and 5.

The steps of the reduced retraction are counted as `bench/tracer.py`
counts Newton residuals: wrapping the step of every
`integration.reduced_retraction` result.  On hopf-newton the 3 canonical
solves return at their first residual, and the 3 perturbed ones take 7
steps (4 residuals and 3 probe calls) in discrete_axioms and 3 in each
of derive_roundtrip and lift_roundtrip: 16.  On breadth the 14 solves
return at their first residual, and retraction_axioms on S2 x U(1)
steps twice: 16.

A Newton solve builds one chart per anchor, and an anchor serves its
four stencil targets, so `Sphere.tangent_basis` builds, per Hopf
scenario, 24 bases in discrete_axioms (8 samples, 3 joined pairs) and 8
in each of derive_roundtrip and lift_roundtrip: 80 in all.  One anchor
per target column made 176, 32 per stencil check.  On breadth the S2 x
U(1) discrete_axioms solve builds 12.

A Hopf point projects once: `bundles.project` keeps the base point on
the point.  On hopf-newton `hopf_projection_coords` runs 32 times over
the two scenarios: 2 in connection_axioms, 14 in discrete_axioms, 8 in
derive_roundtrip and 8 in lift_roundtrip.  Of these, the reduced steps
project their stepped points 16 times (8, 4 and 4), the integrated
`eval_discrete` calls project 10 more (4, 4 and 2), and the checks 6
(2, 2, 0 and 2).  The rule's horizontal representative is the point of
the solve's last step, already projected; retracting again after each
solve made 38 (2, 16, 10 and 10), 16 of them (6, 6 and 4) inside
`eval_discrete` outside the reduced steps.  One projection per `project`
call made 68 (3, 23, 20 and 22), 39 of them inside `eval_discrete`
outside the reduced steps.  matched-deep and breadth
have no Hopf point.
"""

import dataclasses
import importlib.util
import pkgutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import disconn
from disconn import (bundles, connections, discrete, integration, manifolds,
                     numdiff)
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
                         (discrete, "eval_discrete"),
                         (connections, "eval_connection"),
                         (integration, "retract_bundle"),
                         (numdiff, "gauss_legendre_line_integral"),
                         (bundles, "hopf_projection_coords")):
        original = getattr(module, name)
        rebind_everywhere(monkeypatch, original, counting(name, original))

    reduced = integration.reduced_retraction

    def counting_reduced(*args):
        R = reduced(*args)
        return dataclasses.replace(R, step=counting("reduced_step", R.step))

    rebind_everywhere(monkeypatch, reduced, counting_reduced)
    basis = manifolds.Sphere.tangent_basis

    def counting_basis(self, center):
        counter["tangent_basis"] += int(np.prod(np.shape(center)[1:]))
        return basis(self, center)

    monkeypatch.setattr(manifolds.Sphere, "tangent_basis", counting_basis)
    return counter


COUNTS = {
    "matched-deep": {"eval_discrete": 7, "richardson_derivative": 2,
                     "f": 2, "gauss_legendre_line_integral": 3,
                     "eval_connection": 2},
    "hopf-newton": {"invert_extended": 6, "eval_discrete": 6,
                    "richardson_derivative": 4, "f": 4,
                    "eval_connection": 18, "retract_bundle": 4,
                    "reduced_step": 16, "tangent_basis": 80,
                    "hopf_projection_coords": 32},
    "breadth": {"invert_extended": 14, "eval_discrete": 28,
                "richardson_derivative": 23, "f": 23,
                "gauss_legendre_line_integral": 4,
                "eval_connection": 46, "retract_bundle": 4,
                "reduced_step": 16, "tangent_basis": 12},
}


@pytest.mark.parametrize("workload", sorted(COUNTS))
def test_workload_seed_0(workload, counts, tmp_path, capsys):
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.write(workloads.generate(workload, 0), tmp_path)
    assert main(["verify-all", str(tmp_path), "--format", "json"]) == 0
    capsys.readouterr()
    assert counts == COUNTS[workload]
