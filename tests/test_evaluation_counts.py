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
discrete_axioms and 3 in lift_roundtrip).  hopf-newton takes no exterior derivative.

On matched-deep, a curvature-matched discrete is one polynomial pair map:
the reference's table and the exact integral of the descended
difference's table over the segment m0 -> m1, so an evaluation calls no
other discrete and integrates nothing numerically.  The matching gate
reads the tables and evaluates nothing; its sampled exterior derivative
took 1 Richardson call.  derive_roundtrip takes 1 Richardson call (the
outer derivative) and 1 `eval_discrete` call, same_discrete_curvature 0
and 2 (the local form's holonomy included), and discrete_axioms 0 and 1:
1 Richardson call and 4 `eval_discrete` calls.  Evaluating the reference
inside each matched evaluation, with one 8-node line integral, made 7
`eval_discrete` calls and 3 line integrals; the numerical derivative of
the reference inside the difference made 6 Richardson calls and 11
`eval_discrete` calls; before that, two integrals per matched evaluation
and two Richardson calls per exterior derivative made 11 and 15.

On breadth, five discrete_axioms checks and one discrete_flatness check
make one `eval_discrete` call each, and the four integrated forms solve
14 times.  The exterior derivatives take 1 Richardson call in
closed_form, 2 in derived_curvature (its own and, inside it, the derived
flat form's, with 1 `eval_discrete` call) and 4 in
same_derived_curvature (2 for each derived form, with 2 `eval_discrete`
calls); the flat form's matching gate reads its table and takes none,
where its sampled exterior derivative took 1.  The flat form is one
pair map, so each of its 4 evaluations (1 in discrete_flatness, 1 in
derived_curvature and 2 in diagram) is one `eval_discrete` call: 22
Richardson calls and 24 `eval_discrete` calls in all.  When it was the
matched integral composed with the zero pair map, each evaluation made
one more call, 28 in all, and one line integral, 4 in all.  One
Richardson call per slope doubled these and made 31, 27 and 5.

The steps of the reduced retraction are counted as `bench/tracer.py`
counts Newton residuals: wrapping the step of every
`integration.reduced_retraction` result.  On hopf-newton the 3 canonical
solves return at their first residual.  The 3 perturbed ones take a
chord step after their first residual, with the anchor's identity
Jacobian, which makes no probe call: 6 steps (4 residuals and 2 probe
calls) in discrete_axioms and 2 residuals in each of derive_roundtrip
and lift_roundtrip, 13 in all.  Without the chord step they took 7, 3
and 3: 16.  On breadth the 14 solves return at their first residual,
and retraction_axioms on S2 x U(1) steps twice: 16.

Newton's linear solves are counted at `np.linalg.solve`, one stacked
call per probed iteration: on hopf-newton 2, both in the perturbed
discrete_axioms, where each probe call made one, 5 (3, 1 and 1).  The
other workloads solve none.

A Newton solve reads points through the Riemannian log at its anchors
(`ManifoldKind.log`) and builds no basis; its log columns are counted,
one per point read: the targets once, each residual once, and 2d = 6 per
target at each probe call on S^2.  On hopf-newton that makes 776: per
Hopf scenario 32 targets in each of derive_roundtrip and
lift_roundtrip, read twice by the canonical solve and 3 times by the
perturbed one (160 each), and 24 in discrete_axioms, read twice by the
canonical solve and 5 times, with 2 probe calls, by the perturbed one
(456).  On breadth the logs read 416 columns; the S2 x U(1)
discrete_axioms solve reads 24 of them.

Every point carries its projection in its `base_point` field, which
`bundles.project` returns.  A Hopf point built from raw coordinates
projects them as it is built; one built over a known base point keeps
that one: `section_over(m)` keeps m, `act` keeps its point's and `join`
joins each column's.  On hopf-newton `hopf_projection_coords` runs 19
times over the two scenarios: 7 in discrete_axioms, 5 in
derive_roundtrip, 4 in retraction_equivariance and 3 in lift_roundtrip.
The reduced steps' great-circle points project 13 times (7, 3 and 3),
derive_roundtrip's `eval_discrete` calls build the 2 stencils of
`bundle_curve` points, and retraction_equivariance's 4 great-circle
steps (R(g . v) and R(v) per scenario) build 4 points.  Every sampled
point is a section moved by `act`, so it projects nothing.  When a Hopf
point projected at its first `project` call, the 4 step results of
retraction_equivariance, compared by ambient distance alone, projected
nothing, and the count was 15.  When only the first `project` call on a
point kept its result, the count was 29: 2 in connection_axioms, 13 in
discrete_axioms, 7 in derive_roundtrip and 7 in lift_roundtrip, of which
the integrated `eval_discrete` calls projected 10 (4, 4 and 2) and the
checks 6 (2, 2, 0 and 2).  Before the chord step the reduced steps made
16 (8, 4 and 4), and 32 in all.  The rule's horizontal representative
is the point of the solve's last step, already projected; retracting
again after each solve made 38 (2, 16, 10 and 10), 16 of them (6, 6 and
4) inside `eval_discrete` outside the reduced steps.  One projection per
`project` call made 68 (3, 23, 20 and 22), 39 of them inside
`eval_discrete` outside the reduced steps.  matched-deep and breadth
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
                         (bundles, "hopf_projection_coords")):
        original = getattr(module, name)
        rebind_everywhere(monkeypatch, original, counting(name, original))
    monkeypatch.setattr(np.linalg, "solve",
                        counting("linalg_solve", np.linalg.solve))

    reduced = integration.reduced_retraction

    def counting_reduced(*args):
        R = reduced(*args)
        return dataclasses.replace(R, step=counting("reduced_step", R.step))

    rebind_everywhere(monkeypatch, reduced, counting_reduced)
    for kind in (manifolds.EuclideanChart, manifolds.Sphere):
        monkeypatch.setattr(kind, "log", counting_log(counter, kind.log))
    return counter


def counting_log(counter, log):
    """A log that counts the columns of the points it reads."""
    def wrapper(self, point, other):
        counter["log_columns"] += int(np.prod(np.shape(other)[1:]))
        return log(self, point, other)
    return wrapper


COUNTS = {
    "matched-deep": {"eval_discrete": 4, "richardson_derivative": 1,
                     "f": 1, "eval_connection": 2, "linalg_solve": 0},
    "hopf-newton": {"invert_extended": 6, "eval_discrete": 6,
                    "richardson_derivative": 4, "f": 4,
                    "eval_connection": 18, "retract_bundle": 4,
                    "reduced_step": 13, "linalg_solve": 2,
                    "log_columns": 776, "hopf_projection_coords": 19},
    "breadth": {"invert_extended": 14, "eval_discrete": 24,
                "richardson_derivative": 22, "f": 22,
                "eval_connection": 46, "retract_bundle": 4,
                "reduced_step": 16, "linalg_solve": 0,
                "log_columns": 416},
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
    # A Counter reads a missing key as 0, so a pinned 0 is compared too.
    assert counts == Counter(COUNTS[workload])
