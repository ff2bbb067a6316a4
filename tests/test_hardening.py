"""The verdict path: unmeasurable defects fail, malformed input exits 2,
and trivial bundles over spheres run every derivation check."""

import copy
import functools
import importlib.util
import json
import math
import operator
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from disconn.abelian import worst_exterior_defect
from disconn.bundles import BundlePoint, TrivialBundle, make_trivial_tangent
from disconn.cli import main
from disconn.connections import TrivialLocalConnection, curvature
from disconn.derivation import derive_connection, pair_derivative
from disconn.discrete import TrivialLocalDiscrete
from disconn.errors import CurvatureMismatch
from disconn.groups import Translation
from disconn.manifolds import EuclideanChart
from disconn.numdiff import worst_defect
from disconn.scenarios import (MAX_DIM, MAX_SAMPLES, ScenarioContext,
                               load_scenario)

ROOT = Path(__file__).resolve().parents[1]


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

    @pytest.mark.parametrize("defects", [
        [], [float("nan")], [1.0, float("nan"), -1.0], [-float("nan")],
        [0.0], [-0.0], [-0.0, 0.0], [0.0, -0.0], [-1e-300, -0.0],
        [float("inf")], [-float("inf")], [-float("inf"), 2.0, float("inf")],
        [-3.0, -2.5], [2.0, 5e-17, 2.0], np.array([[1e-16, -2.0], [0.5, 0.5]]),
        [np.array([1e-16, 3e-16]), np.array([2e-16, 0.0])],
        [np.zeros(0), np.zeros(0)], 0.25, -0.25])
    def test_same_bits_as_the_running_max(self, defects):
        # The running max over Python floats from 0.0, NaN when any is NaN;
        # distinctness reports negative defects.
        flat = np.ravel(np.asarray(defects, dtype=float))
        want = (float("nan") if np.isnan(flat).any()
                else functools.reduce(max, flat.tolist(), 0.0))
        got = worst_defect(defects)
        assert type(got) is float
        assert (math.isnan(got) and math.isnan(want)) or \
            np.float64(got).tobytes() == np.float64(want).tobytes()


class TestUnmeasurableDefects:
    HUGE_BOX = [[1e200, 1e300], [1e200, 1e300]]

    def test_lost_difference_step_reads_nan(self):
        B = TrivialBundle(EuclideanChart(2), Translation(1))
        A = TrivialLocalConnection(B, lambda m, v: np.array([m[0] * v[1]]))
        samples = np.array([[[1e250], [1e250]], [[1.0], [0.0]],
                            [[0.0], [1.0]]])
        assert math.isnan(worst_exterior_defect(A, samples))
        # The gate of the flat discrete, the matched integral against the
        # zero reference, reads the table, not a difference step: on the
        # same box it still rejects x dy and accepts d(xy).
        with pytest.raises(CurvatureMismatch):
            ScenarioContext(plane(box=self.HUGE_BOX, discrete={
                "kind": "flat", "omega": "x_dy"}))
        ScenarioContext(plane(box=self.HUGE_BOX, discrete={
            "kind": "flat", "omega": "closed_xy"}))

    def test_closed_form_on_huge_box_fails(self, tmp_path, capsys):
        # x dy is not closed; at 1e250 the difference step vanishes in
        # rounding, so the defect cannot be measured and must not PASS.
        cfg = plane(box=self.HUGE_BOX,
                    connection={"kind": "local", "omega": "x_dy"},
                    checks=[{"name": "closed_form", "tolerance": 1e-8,
                             "samples": 5}])
        assert main(["run", write_scenario(tmp_path, cfg)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_local_curvature_of_lost_step_reads_nan(self):
        bundle = TrivialBundle(EuclideanChart(2), Translation(1))
        A = TrivialLocalConnection(bundle,
                                   lambda m, v: np.array([m[0] * v[1]]))
        m = np.array([1e250, 1e250])
        u = np.array([1.0, 0.0])
        w = np.array([0.0, 1.0])
        assert math.isnan(curvature(A, m, u, w)[0])

    @pytest.mark.parametrize("check", ["derived_curvature",
                                       "same_derived_curvature"])
    def test_derived_curvature_on_huge_box_fails(self, tmp_path, capsys,
                                                 check):
        # The pair maps see no difference step at 1e250, so the derived
        # connection reads zero; its curvature cannot be measured there.
        cfg = plane(box=self.HUGE_BOX,
                    discrete=[{"kind": "local", "pair_map": "trapezoid_x_dy"},
                              {"kind": "local", "pair_map": "left_x_dy"}],
                    checks=[{"name": check, "tolerance": 1e-6,
                             "samples": 3}])
        path = write_scenario(tmp_path, cfg)
        assert main(["run", path, "--format", "json"]) == 1
        result = json.loads(capsys.readouterr().out)["checks"][0]
        assert result["max_defect"] is None and result["passed"] is False

    @pytest.mark.parametrize("box", [HUGE_BOX, [[-1.0, 1.0], [-1.0, 1.0]]])
    def test_derive_roundtrip_against_zero_fails(self, tmp_path, capsys,
                                                 box):
        # trapezoid_x_dy derives to x dy, not to zero.  On the unit box the
        # defect is measured; at 1e250 the pair map sees no step and the
        # derived connection would read exactly zero.
        cfg = plane(box=box, connection={"kind": "local", "omega": "zero"},
                    discrete={"kind": "local", "pair_map": "trapezoid_x_dy"},
                    checks=[{"name": "derive_roundtrip", "tolerance": 1e-6,
                             "samples": 3}])
        assert main(["run", write_scenario(tmp_path, cfg),
                     "--format", "json"]) == 1
        result = json.loads(capsys.readouterr().out)["checks"][0]
        assert result["passed"] is False
        if box is self.HUGE_BOX:
            assert result["max_defect"] is None
        else:
            assert result["max_defect"] > 0.1

    @staticmethod
    def left_x_dy():
        bundle = TrivialBundle(EuclideanChart(2), Translation(1))
        return TrivialLocalDiscrete(
            bundle, lambda m0, m1: np.array([m0[0] * (m1[1] - m0[1])]),
            1e18)

    def test_pair_derivative_of_lost_step_reads_nan(self):
        Ad = self.left_x_dy()
        for m, finite in (([1e250, 1e250], False), ([2.0, 3.0], True)):
            q = BundlePoint.trivial(Ad.bundle, m, [0.0])
            v = make_trivial_tangent(q, [0.0, 1.0], [0.0])
            value = pair_derivative(Ad, q, v)
            assert np.isfinite(value[0]) == finite

    def test_stacked_derivative_is_nan_only_in_the_lost_column(self):
        omega = derive_connection(self.left_x_dy()).omega
        m = np.array([[2.0, 1e250], [3.0, 1e250]])
        value = omega(m, np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert value.shape == (1, 2)
        assert value[0, 0] == pytest.approx(2.0, abs=1e-9)
        assert math.isnan(value[0, 1])

    def test_nan_defect_prints_as_strict_json_null(self, tmp_path, capsys):
        cfg = plane(box=self.HUGE_BOX,
                    connection={"kind": "local", "omega": "x_dy"},
                    checks=[{"name": "closed_form", "tolerance": 1e-8,
                             "samples": 5}])
        assert main(["run", write_scenario(tmp_path, cfg),
                     "--format", "json"]) == 1

        def reject(token):
            raise ValueError(f"non-strict JSON token {token}")

        report = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert report["checks"][0]["max_defect"] is None
        assert report["checks"][0]["passed"] is False
        assert report["passed"] is False

    def test_finite_defect_prints_as_a_number(self, tmp_path, capsys):
        cfg = plane(connection={"kind": "local", "omega": "x_dy"},
                    checks=[{"name": "closed_form", "tolerance": 1e-8,
                             "samples": 5}])
        assert main(["run", write_scenario(tmp_path, cfg),
                     "--format", "json"]) == 1
        defect = json.loads(capsys.readouterr().out)["checks"][0]["max_defect"]
        assert isinstance(defect, float) and defect > 1e-3


class TestMalformedInputExitsTwo:
    @pytest.mark.parametrize("samples",
                             [-5, 0, 2.5, "3", True, MAX_SAMPLES + 1])
    def test_samples_not_a_positive_integer(self, tmp_path, capsys, samples):
        # The cap bounds a check's time; its memory is bounded by
        # scenarios.STACK_SAMPLES whatever the sample count.
        check = {"name": "exp_log_roundtrip", "tolerance": 1e-10}
        for cfg in (plane(checks=[dict(check, samples=samples)]),
                    plane(sample_count=samples, checks=[check])):
            assert main(["run", write_scenario(tmp_path, cfg)]) == 2
            assert "ParseError" in capsys.readouterr().err

    def test_caps_are_inclusive(self, tmp_path):
        cfg = plane(sample_count=MAX_SAMPLES,
                    checks=[{"name": "exp_log_roundtrip",
                             "samples": MAX_SAMPLES}])
        cfg["bundle"]["base"]["dim"] = MAX_DIM
        load_scenario(write_scenario(tmp_path, cfg))

    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 2 ** 62, 10 ** 20])
    @pytest.mark.parametrize("part, kind", [("base", "R^d"),
                                            ("group", "R^k"),
                                            ("group", "T^n")])
    def test_huge_dim_is_a_parse_error(self, tmp_path, capsys, part, kind,
                                       dim):
        # Uncapped, 10**20 overflowed and 2**62 ran out of memory, each
        # with a traceback.
        cfg = plane(checks=[{"name": "exp_log_roundtrip", "samples": 2}])
        cfg["bundle"][part] = {"kind": kind, "dim": dim}
        assert main(["run", write_scenario(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert f"ParseError: bad scenario.bundle.{part}.dim" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tolerance", [float("nan"), float("inf")])
    def test_non_finite_tolerance(self, tmp_path, capsys, tolerance):
        cfg = plane(checks=[{"name": "exp_log_roundtrip",
                             "tolerance": tolerance, "samples": 3}])
        assert main(["run", write_scenario(tmp_path, cfg)]) == 2
        assert "ParseError" in capsys.readouterr().err

    def test_zero_domain_radius_reaches_the_domain(self, tmp_path, capsys):
        # The schema rejects a radius that is not positive before any
        # domain is built.
        cfg = plane(checks=[{"name": "exp_log_roundtrip", "tolerance": 1e-10,
                             "samples": 3}])
        assert main(["run", write_scenario(tmp_path, cfg)]) == 0
        for radius in (0, -1.0):
            cfg["integrator"] = {"domain_radius": radius}
            assert main(["run", write_scenario(tmp_path, cfg)]) == 2
            assert (f"ParseError: bad scenario.integrator.domain_radius: "
                    f"{radius}" in capsys.readouterr().err)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf")])
    def test_domain_radius_must_be_finite(self, tmp_path, capsys, radius):
        cfg = plane(integrator={"domain_radius": radius},
                    checks=[{"name": "exp_log_roundtrip", "tolerance": 1e-10,
                             "samples": 3}])
        assert main(["run", write_scenario(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert f"bad scenario.integrator.domain_radius: {radius}" in err

    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "ParseError" in err and "Traceback" not in err

    @pytest.mark.parametrize("raw", [
        b"\xff{}",
        # Past Python's limit on the digits of an int literal, json.load
        # raises a ValueError that is not a JSONDecodeError.
        b'{"name": "n", "seed": ' + b"1" * 5000 + b"}",
    ], ids=["not_utf8", "long_int"])
    def test_undecodable_file_is_a_parse_error(self, tmp_path, capsys, raw):
        path = tmp_path / "undecodable.json"
        path.write_bytes(raw)
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "ParseError" in err and "Traceback" not in err

    @pytest.mark.parametrize("extra", [
        {"integrator": {"metric": "round"}},
        {"connection": {"kind": "hopf_canonical"}},
        {"bundle": {"kind": "hopf"},
         "discrete": {"kind": "local", "pair_map": "zero"}},
        {"bundle": {"kind": "trivial", "base": {"kind": "R^d", "dim": 1},
                    "group": {"kind": "R^k", "dim": 1}},
         "box": [[-1.0, 1.0]],
         "connection": {"kind": "local", "omega": "x_dy"}},
        {"connection": {"kind": "local", "omega": {
            "name": "polynomial", "terms": [{"coeff": None}]}}},
        {"discrete": {"kind": "local", "pair_map": {
            "name": "quadratic_f", "f": {"const": None}}}},
        {"discrete": [{"kind": "local", "pair_map": "zero"}] * 2,
         "checks": [{"name": "distinctness", "pair": 5}]},
        {"checks": ["exp_log_roundtrip"]},
        # Unknown keys in builtin objects.
        {"connection": {"kind": "local", "omega": {
            "name": "polynomial", "junk": 5, "terms": []}}},
        {"discrete": {"kind": "local", "pair_map": {
            "name": "quadratic_f", "f": "one", "junk": 1}}},
        {"discrete": {"kind": "local", "pair_map": {
            "name": "quadratic_f", "f": {"const": 2, "junk": 1}}}},
        # A bound of 0 or less would PASS two identical pair maps.
        *({"discrete": [{"kind": "local", "pair_map": "zero"}] * 2,
           "checks": [{"name": "distinctness", "pair": [[0, 0], [1, 1]],
                       "min_difference": bound}]} for bound in (0, -1)),
        # Each level of matched nesting multiplied the evaluation cost.
        {"connection": {"kind": "local", "omega": "x_dy"},
         "discrete": {"kind": "matched", "reference": {
             "kind": "matched", "reference": {
                 "kind": "local", "pair_map": "trapezoid_x_dy"}}}},
        # The distinctness keys on another check, together and alone.
        *({"connection": {"kind": "local", "omega": "x_dy"},
           "checks": [{"name": "connection_axioms", **keys}]}
          for keys in ({"pair": [[0, 0], [1, 1]], "fiber": [[0], [1]],
                        "min_difference": 0.5},
                       {"pair": [[0, 0], [1, 1]]}, {"fiber": [[0], [1]]},
                       {"min_difference": 0.5})),
    ])
    def test_malformed_nested_config(self, tmp_path, capsys, extra):
        path = write_scenario(tmp_path, plane(**extra))
        assert main(["run", path]) == 2
        err = capsys.readouterr().err
        assert "ParseError" in err

    @pytest.mark.parametrize("term", [
        {"coeff": 1, "powers": [1, 0, 7], "dx": -1},   # reads as x dy
        {"coeff": 1, "powers": [1.5, 0], "dx": 1},     # reads as x dy
        {"coeff": 1, "powers": [-1, 0], "dx": 1},
        {"coeff": 1, "powers": [True, 0], "dx": 1},
        {"coeff": "3", "powers": [1, 0], "dx": 1},
        {"coeff": 10 ** 400, "powers": [1, 0], "dx": 1},
        {"coeff": float("inf"), "powers": [1, 0], "dx": 1},
        {"coeff": 1, "powers": [1, 0], "dx": True},
        {"coeff": 1, "powers": [1, 0], "dx": 2},
        {"coeff": 1, "powers": [1, 0]},
        {"coeff": 1, "powers": [1, 0], "dx": 1, "axis": 0},
        {"coeff": 1, "powers": [10 ** 400, 0], "dx": 1},  # beyond float
        {"coeff": 1, "powers": [8, 8], "dx": 0},  # degree 16, past the exact rule
    ])
    def test_malformed_polynomial_term(self, tmp_path, capsys, term):
        omega = {"name": "polynomial", "terms": [term]}
        cfg = plane(connection={"kind": "local", "omega": omega},
                    checks=[{"name": "closed_form", "samples": 3}])
        assert main(["run", write_scenario(tmp_path, cfg)]) == 2
        assert "ParseError: bad polynomial terms" in capsys.readouterr().err

    def test_int_beyond_float_range_is_not_a_number(self, tmp_path, capsys):
        # json.load reads it as an int, which math.isfinite cannot convert.
        cfg = plane(checks=[{"name": "exp_log_roundtrip", "samples": 3,
                             "tolerance": 10 ** 400}])
        assert main(["run", write_scenario(tmp_path, cfg)]) == 2
        assert "ParseError: bad scenario.checks[0].tolerance" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("cfg", [
        # A pair row of the wrong length.
        plane(discrete=[{"kind": "local", "pair_map": "zero"}] * 2,
              checks=[{"name": "distinctness",
                       "pair": [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]}]),
        # A fiber row of the wrong length.
        plane(discrete=[{"kind": "local", "pair_map": "zero"}] * 2,
              checks=[{"name": "distinctness", "pair": [[0.0, 0.0], [1.0, 1.0]],
                       "fiber": [[0.0, 0.0], [1.0, 1.0]]}]),
        # A pair row off the unit sphere.
        plane(bundle={"kind": "trivial", "base": {"kind": "S2"},
                      "group": {"kind": "U1"}},
              discrete=[{"kind": "local", "pair_map": "zero"}] * 2,
              checks=[{"name": "distinctness",
                       "pair": [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}]),
        # The Hopf bundle, whose points are not (base, fiber) pairs.
        {"name": "hopf", "seed": 5, "bundle": {"kind": "hopf"},
         "connection": {"kind": "hopf_canonical"},
         "discrete": [{"kind": "integrated"}] * 2,
         "checks": [{"name": "distinctness",
                     "pair": [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]}]},
    ], ids=["pair_length", "fiber_length", "pair_off_sphere", "hopf"])
    def test_malformed_distinctness_input(self, tmp_path, capsys, cfg):
        assert main(["run", write_scenario(tmp_path, cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: ParseError: distinctness pair")


SWEEP_BASE = {
    "name": "sweep",
    "seed": 3,
    "box": [[-1.0, 1.0], [-1.0, 1.0]],
    "bundle": {"kind": "trivial", "base": {"kind": "R^d", "dim": 2},
               "group": {"kind": "U1"}},
    "connection": {"kind": "local", "omega": "x_dy"},
    "discrete": {"kind": "integrated"},
    "integrator": {"retraction": "straight"},
    "checks": [{"name": "exp_log_roundtrip", "tolerance": 1e-8,
                "samples": 2}],
}
SWEEP_VALUES = ["drop", None, "zz", -1, 0, 1.5, [], {}, [1], True,
                float("nan")]


def key_paths(node, prefix=()):
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


def sweep_configs():
    """Every key path of SWEEP_BASE dropped or replaced by each of
    SWEEP_VALUES; list items are replaced, not dropped."""
    for path in key_paths(SWEEP_BASE):
        for value in SWEEP_VALUES:
            cfg = copy.deepcopy(SWEEP_BASE)
            parent = cfg
            for key in path[:-1]:
                parent = parent[key]
            if value != "drop":
                parent[path[-1]] = value
            elif isinstance(parent, dict):
                del parent[path[-1]]
            else:
                continue
            yield path, value, cfg


class TestConfigSweep:
    def test_no_malformed_config_escapes_main(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        outcomes = {}
        for key_path, value, cfg in sweep_configs():
            path.write_text(json.dumps(cfg))
            outcomes[key_path, repr(value)] = main(["run", str(path)])
        capsys.readouterr()
        assert len(outcomes) == 301
        assert set(outcomes.values()) <= {0, 1, 2}
        assert outcomes[("seed",), "-1"] == 2
        assert outcomes[("bundle", "base", "dim"), "True"] == 2
        assert outcomes[("box", 0, 1), "1.5"] == 0

    def test_bundled_scenarios_stay_valid(self):
        for path in sorted((ROOT / "scenarios").glob("*.json")):
            load_scenario(path)

    @pytest.mark.parametrize("workload", ["matched-deep", "hopf-newton",
                                          "breadth"])
    def test_benchmark_configs_stay_valid(self, tmp_path, workload):
        spec = importlib.util.spec_from_file_location(
            "bench_workloads", ROOT / "bench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for seed in range(3):
            workloads.write(workloads.generate(workload, seed),
                            tmp_path / str(seed))
        for path in sorted(tmp_path.rglob("*.json")):
            load_scenario(path)


CUBIC = {"name": "polynomial", "terms": [
    {"coeff": 3.0, "powers": [2, 1], "dx": 0},
    {"coeff": 1.0, "powers": [3, 0], "dx": 1}]}


TILT = {"coeff": 1e-7, "powers": [1, 0], "dx": 1}  # 1e-7 x dy


class TestFlatClosednessGate:
    """The closedness gate of a flat discrete, the curvature-matched
    integral against the zero reference, accepts a closed polynomial form,
    as the closed_form check does, and stops an open one."""

    CFG = plane(connection={"kind": "local", "omega": CUBIC},
                discrete={"kind": "flat", "omega": CUBIC},
                checks=[{"name": "closed_form", "tolerance": 1e-8,
                         "samples": 10}])

    def test_default_steps_accept_the_closed_cubic(self, tmp_path, capsys):
        # 3x^2 y dx + x^3 dy = d(x^3 y).
        assert main(["run", write_scenario(tmp_path, self.CFG)]) == 0

    @pytest.mark.parametrize("changes", [
        # x dy is not closed: d(x dy) = dx dy.
        {"discrete": {"kind": "flat", "omega": "x_dy"}},
        # closed_xy, y dx + x dy, tilted by 1e-7 x dy: MATCH_TOL is 1e-8.
        {"discrete": {"kind": "flat", "omega": {
            "name": "polynomial", "terms": [
                {"coeff": 1.0, "powers": [0, 1], "dx": 0},
                {"coeff": 1.0, "powers": [1, 0], "dx": 1}, TILT]}}},
        # The same gate on a matched discrete: x_dy_plus_dx2, x dy + 2x dx,
        # tilted by 1e-7 x dy, against the trapezoid, whose derived
        # connection is x dy.
        {"connection": {"kind": "local", "omega": {
            "name": "polynomial", "terms": [
                {"coeff": 1.0, "powers": [1, 0], "dx": 1},
                {"coeff": 2.0, "powers": [1, 0], "dx": 0}, TILT]}},
         "discrete": {"kind": "matched", "reference": {
             "kind": "local", "pair_map": "trapezoid_x_dy"}}},
    ])
    def test_open_form_is_stopped_at_the_gate(self, tmp_path, capsys,
                                              changes):
        cfg = dict(self.CFG, **changes)
        assert main(["run", write_scenario(tmp_path, cfg)]) == 2
        assert "CurvatureMismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("radius", [10.0, 100.0])
    def test_closed_form_builds_on_a_wide_box(self, tmp_path, capsys,
                                              radius):
        # d(x^2 y^3) = 2x y^3 dx + 3x^2 y^2 dy is closed on every box, but
        # sampled difference steps read its exterior derivative as 8.5e-8
        # at radius 10 and 1.5e-3 at radius 100, over MATCH_TOL = 1e-8:
        # only a gate on the table accepts it there.
        cfg = plane(box=[[-radius, radius]] * 2, discrete={
            "kind": "flat", "omega": {"name": "polynomial", "terms": [
                {"coeff": 2.0, "powers": [1, 3], "dx": 0},
                {"coeff": 3.0, "powers": [2, 2], "dx": 1}]}})
        assert main(["run", write_scenario(tmp_path, cfg)]) == 0
        assert "CurvatureMismatch" not in capsys.readouterr().err

    def test_closed_form_beyond_float_range_builds(self, tmp_path, capsys):
        # d(0.85e308 x^2 y^2) = 1.7e308 x y^2 dx + 1.7e308 x^2 y dy: each
        # contribution to its dx^dy coefficient, 3.4e308, overflows a
        # float, and a float sum read inf - inf = NaN.  The gate sums in
        # exact arithmetic, where the two cancel.
        cfg = plane(discrete={
            "kind": "flat", "omega": {"name": "polynomial", "terms": [
                {"coeff": 1.7e308, "powers": [1, 2], "dx": 0},
                {"coeff": 1.7e308, "powers": [2, 1], "dx": 1}]}})
        assert main(["run", write_scenario(tmp_path, cfg)]) == 0
        assert "CurvatureMismatch" not in capsys.readouterr().err

    def test_open_form_beyond_float_range_is_stopped(self, tmp_path,
                                                     capsys):
        # The same terms with the dy term's sign flipped: d of the sum is
        # -6.8e308 x y dx^dy, beyond float range but not zero.  Summed in
        # floats, the coefficient reads -inf against a magnitude of inf,
        # and inf <= 1e-8 * inf let the open form through.
        cfg = plane(discrete={
            "kind": "flat", "omega": {"name": "polynomial", "terms": [
                {"coeff": 1.7e308, "powers": [1, 2], "dx": 0},
                {"coeff": -1.7e308, "powers": [2, 1], "dx": 1}]}})
        assert main(["run", write_scenario(tmp_path, cfg)]) == 2
        assert "CurvatureMismatch" in capsys.readouterr().err

    def test_integral_beyond_float_range_is_a_parse_error(self, tmp_path,
                                                          capsys):
        # 1.5e307 x^15 dx on R^1 x R is closed, but the segment integral
        # scales it by C(15, 4) / (5 2^4) = 17.06 to a term 1.5e307 * 17.06
        # mid^11 delta^5, beyond float range: the checks read NaN.
        cfg = dict(plane(discrete={
            "kind": "flat", "omega": {"name": "polynomial", "terms": [
                {"coeff": 1.5e307, "powers": [15], "dx": 0}]}},
            checks=[{"name": "discrete_axioms"}]), box=[[-1.0, 1.0]])
        cfg["bundle"] = dict(cfg["bundle"], base={"kind": "R^d", "dim": 1})
        assert main(["run", write_scenario(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "ParseError" in err and "Traceback" not in err


class TestSphereBase:
    S2_INTEGRATED = {
        "name": "s2-u1-integrated",
        "seed": 0,
        "bundle": {"kind": "trivial", "base": {"kind": "S2"},
                   "group": {"kind": "U1"}},
        "connection": {"kind": "local", "omega": "x_dy"},
        "discrete": {"kind": "integrated"},
        "checks": [{"name": "discrete_axioms", "tolerance": 1e-8,
                    "samples": 10}],
    }

    def test_default_domain_radius_comes_from_the_base(self, tmp_path,
                                                       capsys):
        # With an unbounded default radius, nearby points were drawn up to
        # 0.8 rad away, past the pi/4 reach of the Newton inversion, and
        # this seed exited 2 with OutsideDomain.
        path = write_scenario(tmp_path, self.S2_INTEGRATED)
        assert main(["run", path, "--format", "json"]) == 0
        default = capsys.readouterr().out
        assert json.loads(default)["passed"] is True
        cfg = dict(self.S2_INTEGRATED,
                   integrator={"domain_radius": math.pi / 2.0})
        assert main(["run", write_scenario(tmp_path, cfg, "pi2.json"),
                     "--format", "json"]) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("bundle", [
        {"kind": "trivial", "base": {"kind": "S2"}, "group": {"kind": "U1"}},
        {"kind": "hopf"}])
    def test_box_needs_a_euclidean_base(self, tmp_path, capsys, bundle):
        cfg = {"name": "boxed", "seed": 0, "box": [[5, 6], [5, 6]],
               "bundle": bundle,
               "checks": [{"name": "exp_log_roundtrip", "samples": 2}]}
        assert main(["run", write_scenario(tmp_path, cfg)]) == 2
        assert "ParseError" in capsys.readouterr().err

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


# Leaf values of the mutation probe: out of range, non-finite, and of the
# wrong type.
MUTANT_VALUES = [-1, 0, 1e300, 1e40, math.nan, math.inf, "", None, [], {}]


def leaf_paths(node, path=()):
    """The key paths of every scalar and empty container of a JSON tree."""
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list):
        children = list(enumerate(node))
    else:
        children = []
    if not children:
        yield path
    for key, child in children:
        yield from leaf_paths(child, path + (key,))


def mutant(rng, cfg):
    """cfg with at most 5 samples per check and 1-3 leaves replaced by a
    value of MUTANT_VALUES or deleted."""
    cfg = copy.deepcopy(cfg)
    cfg["sample_count"] = min(cfg.get("sample_count", 5), 5)
    for check in cfg["checks"]:
        check["samples"] = min(check.get("samples", 5), 5)
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(leaf_paths(cfg)))
        if not path:
            break
        parent = functools.reduce(operator.getitem, path[:-1], cfg)
        if rng.random() < 0.2:
            del parent[path[-1]]
        else:
            parent[path[-1]] = rng.choice(MUTANT_VALUES)
    return cfg


def test_mutated_bundled_scenarios_exit_0_1_or_2(tmp_path, capsys):
    # Every mutant gives a verdict or a typed error; any other exception
    # escapes main and fails the test.
    rng = random.Random(16)
    bundled = [json.loads(path.read_text())
               for path in sorted((ROOT / "scenarios").glob("*.json"))]
    codes = Counter()
    for i in range(200):
        path = tmp_path / f"mutant{i}.json"
        path.write_text(json.dumps(mutant(rng, rng.choice(bundled))))
        codes[main(["run", str(path), "--format", "json"])] += 1
        capsys.readouterr()
    assert set(codes) <= {0, 1, 2}
    assert codes[0] and codes[2]
