"""Negative controls: every named check can FAIL.

`scenarios/negative/` holds one small scenario per check that the scenario
language can make FAIL: a wrong but finite input (a non-flat rule, a
mismatched pair map, a retraction that breaks equivariance, ...).  Each
must FAIL by a wide margin, so a check that quietly stops measuring its
property shows here.  A check that no scenario input can break needs a
fault injected into the layer it guards (`FAULTS`).  Every check has one
or the other.
"""

import json
import math
from pathlib import Path

import pytest

from disconn import (bundles, derivation, discrete, groups, manifolds,
                     scenarios)
from disconn.cli import main

NEGATIVE_DIR = Path(__file__).resolve().parents[1] / "scenarios" / "negative"

def reports_of(capsys):
    """The JSON reports that a verify-all or run printed.  verify-all joins
    its reports with a blank line; an indented JSON report has none
    inside."""
    return [json.loads(chunk)
            for chunk in capsys.readouterr().out.split("\n\n")]


def assert_fails_by_a_wide_margin(report, check):
    defect = check["max_defect"]
    assert not check["passed"], (report["scenario"], check)
    assert defect is not None and math.isfinite(defect)
    assert defect >= 10.0 * check["tolerance"], (report["scenario"], check)


def test_every_negative_control_fails_by_a_wide_margin(capsys):
    code = main(["verify-all", str(NEGATIVE_DIR), "--format", "json"])
    reports = reports_of(capsys)
    assert code == 1
    assert len(reports) == len(list(NEGATIVE_DIR.glob("*.json")))
    controlled = set()
    for report in reports:
        for check in report["checks"]:
            assert_fails_by_a_wide_margin(report, check)
            controlled.add(check["name"])
    assert set(scenarios.CHECKS) <= controlled | set(FAULTS)


def faulty_log(log):
    """SO(3)'s log, its rotation vector 0.1% too long."""
    return lambda G, a: 1.001 * log(G, a)


def faulty_lift_action(action):
    """The lifted action of g on a trivial bundle's tangent, its fiber
    block doubled: U(1)'s adjoint action, the identity, does not hide it."""
    def lifted(g, q, v):
        base, fiber = bundles.split_trivial(q, action(g, q, v))
        return bundles.make_trivial_tangent(q, base, 2.0 * fiber)
    return lifted


def faulty_generator(generator):
    """The fundamental vector field of xi, 0.1% too long."""
    return lambda q, xi: 1.001 * generator(q, xi)


def faulty_step(step):
    """A Euclidean step along 1.001 times its components: the retraction's
    derivative at zero is no longer the identity."""
    return lambda kind, point, components: step(kind, point,
                                                1.001 * components)


def faulty_horizontal_lift(lift):
    """The discrete horizontal lift moved along the fiber by
    exp(1e-3 log A_d(q, section_over(m))): a fault in the lift alone, so
    the connection derived from A_d stays right."""
    def lifted(Ad, q, m):
        G = Ad.bundle.group
        value = discrete.eval_discrete(Ad, q,
                                       bundles.section_over(Ad.bundle, m))
        return bundles.act(G.exp(1e-3 * G.log(value)), lift(Ad, q, m))
    return lifted


def r2_u1(name, tolerance, **cfg):
    """R^2 x U(1) with the connection x dy and one check of 20 samples."""
    return {"box": [[-1.5, 1.5]] * 2,
            "bundle": {"kind": "trivial", "base": {"kind": "R^d", "dim": 2},
                       "group": {"kind": "U1"}},
            "connection": {"kind": "local", "omega": "x_dy"},
            "checks": [{"name": name, "tolerance": tolerance,
                        "samples": 20}], **cfg}


# Check name: (scenario, (owner, attribute, fault)); the fault takes the
# attribute's value and returns its replacement.
FAULTS = {
    "connection_axioms": (
        r2_u1("connection_axioms", 1e-8),
        (bundles, "infinitesimal_generator", faulty_generator)),
    "retraction_axioms": (
        r2_u1("retraction_axioms", 1e-8),
        (manifolds.EuclideanChart, "geodesic_step", faulty_step)),
    "diagram": (
        r2_u1("diagram", 1e-6, discrete={"kind": "integrated"}),
        (derivation, "discrete_horizontal_lift", faulty_horizontal_lift)),
    "exp_log_roundtrip": (
        {"box": [[-1.0, 1.0]] * 3,
         "bundle": {"kind": "trivial", "base": {"kind": "R^d", "dim": 3},
                    "group": {"kind": "SO3"}},
         "checks": [{"name": "exp_log_roundtrip", "tolerance": 1e-9,
                     "samples": 20}]},
        (groups.SO3, "log", faulty_log)),
    "metric_invariance": (
        r2_u1("metric_invariance", 1e-8),
        (bundles, "tangent_lift_action", faulty_lift_action)),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_injected_fault_fails_by_a_wide_margin(tmp_path, capsys,
                                               monkeypatch, name):
    cfg, (owner, attribute, fault) = FAULTS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps({"name": f"fault-{name}", "seed": 11, **cfg}))
    argv = ["run", str(path), "--format", "json"]
    assert main(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(owner, attribute, fault(getattr(owner, attribute)))
    assert main(argv) == 1
    report, = reports_of(capsys)
    check, = report["checks"]
    assert check["name"] == name
    assert_fails_by_a_wide_margin(report, check)
