"""Negative controls: every named check can FAIL.

`scenarios/negative/` holds one small scenario per check that the scenario
language can make FAIL: a wrong but finite input (a non-flat rule, a
mismatched pair map, a retraction that breaks equivariance, ...).  Each
must FAIL by a wide margin, so a check that quietly stops measuring its
property shows here.  A check that no scenario input can break needs a
fault injected into the layer it guards (`FAULTS`); the checks that have
neither control are listed explicitly.
"""

import json
import math
from pathlib import Path

import pytest

from disconn import bundles, groups, scenarios
from disconn.cli import main

NEGATIVE_DIR = Path(__file__).resolve().parents[1] / "scenarios" / "negative"

# Checks that neither a scenario input nor a fault in FAULTS makes FAIL:
# identities of the library's own constructions, or (uniqueness_pair) a
# tautology.
WITHOUT_CONTROL = {"connection_axioms", "retraction_axioms", "diagram",
                   "uniqueness_pair"}


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
    assert set(scenarios.CHECKS) - controlled - set(FAULTS) == WITHOUT_CONTROL


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


# Check name: (scenario, (owner, attribute, fault)); the fault takes the
# attribute's value and returns its replacement.
FAULTS = {
    "exp_log_roundtrip": (
        {"box": [[-1.0, 1.0]] * 3,
         "bundle": {"kind": "trivial", "base": {"kind": "R^d", "dim": 3},
                    "group": {"kind": "SO3"}},
         "checks": [{"name": "exp_log_roundtrip", "tolerance": 1e-9,
                     "samples": 20}]},
        (groups.SO3, "log", faulty_log)),
    "metric_invariance": (
        {"box": [[-1.5, 1.5]] * 2,
         "bundle": {"kind": "trivial", "base": {"kind": "R^d", "dim": 2},
                    "group": {"kind": "U1"}},
         "connection": {"kind": "local", "omega": "x_dy"},
         "checks": [{"name": "metric_invariance", "tolerance": 1e-8,
                     "samples": 20}]},
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
