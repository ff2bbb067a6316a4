"""The verdict path: unmeasurable defects fail, malformed input exits 2,
and trivial bundles over spheres run every derivation check."""

import json
import math

import numpy as np
import pytest

from disconn.abelian import BaseOneForm, check_closed, exterior_defect
from disconn.cli import main
from disconn.errors import NotClosed
from disconn.groups import Translation
from disconn.manifolds import EuclideanChart
from disconn.numdiff import worst_defect


def write_scenario(tmp_path, payload, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def plane(**extra):
    cfg = {
        "name": "plane",
        "seed": 5,
        "bundle": {"kind": "trivial",
                   "base": {"kind": "R^d", "dim": 2},
                   "group": {"kind": "R^k", "dim": 1}},
    }
    cfg.update(extra)
    return cfg


class TestWorstDefect:
    def test_finite_values_give_the_running_max(self):
        assert worst_defect([0.25, 3.0, 1e-9]) == 3.0
        assert worst_defect([]) == 0.0

    def test_nan_is_never_dropped(self):
        assert math.isnan(worst_defect([0.0, float("nan"), 2.0]))
        assert math.isnan(worst_defect(np.array([float("nan")])))


class TestUnmeasurableDefects:
    HUGE_BOX = [[1e200, 1e300], [1e200, 1e300]]

    def test_lost_difference_step_reads_nan(self):
        omega = BaseOneForm(EuclideanChart(2), Translation(1),
                            lambda m, v: np.array([m[0] * v[1]]))
        assert math.isnan(exterior_defect(omega, [1e250, 1e250],
                                          [1.0, 0.0], [0.0, 1.0]))
        with pytest.raises(NotClosed):
            check_closed(omega, [([1e250, 1e250], [1.0, 0.0], [0.0, 1.0])])

    def test_closed_form_on_huge_box_fails(self, tmp_path, capsys):
        # x dy is not closed; at 1e250 the difference step vanishes in
        # rounding, so the defect cannot be measured and must not PASS.
        cfg = plane(box=self.HUGE_BOX,
                    connection={"kind": "local", "omega": "x_dy"},
                    checks=[{"name": "closed_form", "tolerance": 1e-8,
                             "samples": 5}])
        assert main(["run", write_scenario(tmp_path, cfg)]) == 1
        assert "FAIL" in capsys.readouterr().out


class TestMalformedInputExitsTwo:
    @pytest.mark.parametrize("samples", [-5, 0, 2.5, "3", True])
    def test_samples_not_a_positive_integer(self, tmp_path, capsys, samples):
        cfg = plane(checks=[{"name": "exp_log_roundtrip", "tolerance": 1e-10,
                             "samples": samples}])
        assert main(["run", write_scenario(tmp_path, cfg)]) == 2
        assert "ParseError" in capsys.readouterr().err

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_non_finite_tolerance(self, tmp_path, capsys, tolerance):
        cfg = plane(checks=[{"name": "exp_log_roundtrip",
                             "tolerance": tolerance, "samples": 3}])
        assert main(["run", write_scenario(tmp_path, cfg)]) == 2
        assert "ParseError" in capsys.readouterr().err

    def test_zero_domain_radius_reaches_the_domain(self, tmp_path, capsys):
        cfg = plane(checks=[{"name": "exp_log_roundtrip", "tolerance": 1e-10,
                             "samples": 3}])
        path = write_scenario(tmp_path, cfg)
        assert main(["run", path]) == 0
        assert main(["run", path, "--domain-radius", "0"]) == 2
        assert "base_radius" in capsys.readouterr().err


class TestSphereBase:
    def test_s2_u1_derive_roundtrip_passes(self, tmp_path, capsys):
        cfg = {
            "name": "s2-u1",
            "seed": 11,
            "bundle": {"kind": "trivial", "base": {"kind": "S2"},
                       "group": {"kind": "U1"}},
            "connection": {"kind": "local", "omega": "x_dy"},
            "discrete": {"kind": "integrated"},
            "integrator": {"retraction": "straight", "domain_radius": 1.0},
            "checks": [{"name": "derive_roundtrip", "tolerance": 1e-6,
                        "samples": 3}],
        }
        path = write_scenario(tmp_path, cfg)
        assert main(["run", path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"][0]["passed"] is True
