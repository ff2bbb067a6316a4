"""Negative controls: every named check can FAIL.

`scenarios/negative/` holds one small scenario per check that the scenario
language can make FAIL: a wrong but finite input (a non-flat rule, a
mismatched pair map, a retraction that breaks equivariance, ...).  Each
must FAIL by a wide margin, so a check that quietly stops measuring its
property shows here.  The checks no scenario input can break are listed
explicitly; they need a fault injected into the layer they guard.
"""

import json
import math
from pathlib import Path

from disconn import scenarios
from disconn.cli import main

NEGATIVE_DIR = Path(__file__).resolve().parents[1] / "scenarios" / "negative"

# Checks that no scenario input makes FAIL: identities of the library's own
# constructions, or (uniqueness_pair) a tautology.
WITHOUT_SCENARIO_CONTROL = {"connection_axioms", "metric_invariance",
                            "exp_log_roundtrip", "retraction_axioms",
                            "diagram", "uniqueness_pair"}


def test_every_negative_control_fails_by_a_wide_margin(capsys):
    code = main(["verify-all", str(NEGATIVE_DIR), "--format", "json"])
    # verify-all joins its reports with a blank line; an indented JSON
    # report has none inside.
    reports = [json.loads(chunk)
               for chunk in capsys.readouterr().out.split("\n\n")]
    assert code == 1
    assert len(reports) == len(list(NEGATIVE_DIR.glob("*.json")))
    controlled = set()
    for report in reports:
        for check in report["checks"]:
            defect = check["max_defect"]
            assert not check["passed"], (report["scenario"], check)
            assert defect is not None and math.isfinite(defect)
            assert defect >= 10.0 * check["tolerance"], (
                report["scenario"], check)
            controlled.add(check["name"])
    assert set(scenarios.CHECKS) - controlled == WITHOUT_SCENARIO_CONTROL
