"""Scenario parsing, deterministic sampling, and the command-line interface."""

import argparse
import copy
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disconn import cli, scenarios
from disconn.bundles import TrivialBundle
from disconn.cli import emit_report, main, run_scenario
from disconn.errors import ParseError
from disconn.groups import Translation
from disconn.manifolds import EuclideanChart
from disconn.scenarios import (CHECKS, ScenarioContext, load_scenario,
                               one_form_builtin, pair_map_builtin, run_check)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def write_scenario(tmp_path, payload, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_file(path):
    cfg = load_scenario(path)
    return run_scenario(cfg, ScenarioContext(cfg))


def bundled(name, **changes):
    """A bundled scenario with some keys replaced; None drops a key."""
    cfg = json.loads((SCENARIO_DIR / name).read_text())
    cfg.update(changes)
    return {key: value for key, value in cfg.items() if value is not None}


def minimal(**extra):
    cfg = {
        "name": "minimal",
        "seed": 1,
        "bundle": {"kind": "trivial",
                   "base": {"kind": "R^d", "dim": 2},
                   "group": {"kind": "U1"}},
    }
    cfg.update(extra)
    return cfg


PINNED_BASE = {
    "name": "pinned", "seed": 1,
    "bundle": {"kind": "trivial", "base": {"kind": "R^d", "dim": 2},
               "group": {"kind": "U1"}},
    "connection": {"kind": "local", "omega": "x_dy"},
    "discrete": [{"kind": "local", "pair_map": "zero"},
                 {"kind": "matched",
                  "reference": {"kind": "local", "pair_map": "zero"}}],
    "integrator": {"retraction": "straight", "domain_radius": 1.0},
    "checks": [{"name": "exp_log_roundtrip"},
               {"name": "discrete_axioms", "samples": 3, "tolerance": 1e-9}],
}
DROP = object()


def pinned(*edits):
    """PINNED_BASE with each (key path, value) edit made; DROP deletes."""
    cfg = copy.deepcopy(PINNED_BASE)
    for path, value in edits:
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return cfg


ZERO_PAIRS = (("discrete",), [{"kind": "local", "pair_map": "zero"}] * 2)
# Malformed files and the whole text of the first error each raises, every
# branch of the schema walk (`scenarios._validate`) among them: a value
# that is no object or no list, a missing or unknown kind, unknown keys, a
# missing key, a failed type tuple or predicate, at every depth.  The rest
# are load_scenario's and the context's own messages.
PINNED_MESSAGES = [
    ([], "scenario must be an object"),
    (pinned((("speed",), 1)), "unknown scenario keys: ['speed']"),
    (pinned((("name",), DROP)), "bad scenario.name: None"),
    (pinned((("name",), 5)), "bad scenario.name: 5"),
    (pinned((("seed",), -1)), "bad scenario.seed: -1"),
    (pinned((("seed",), 2 ** 64)), "bad scenario.seed: 18446744073709551616"),
    (pinned((("sample_count",), 0)), "bad scenario.sample_count: 0"),
    (pinned((("box",), [[0, 1, 2]])), "bad scenario.box: [[0, 1, 2]]"),
    (pinned((("bundle",), DROP)), "scenario.bundle must be an object"),
    (pinned((("bundle", "kind"), "cylinder")),
     "scenario.bundle needs a kind among ['hopf', 'trivial']"),
    (pinned((("bundle", "kind"), ["trivial"])),
     "scenario.bundle needs a kind among ['hopf', 'trivial']"),
    (pinned((("bundle",), {"kind": "hopf", "base": {"kind": "S2"}})),
     "unknown scenario.bundle keys: ['base']"),
    (pinned((("bundle", "base"), "R^2")),
     "scenario.bundle.base must be an object"),
    (pinned((("bundle", "base", "dim"), 0)),
     "bad scenario.bundle.base.dim: 0"),
    (pinned((("bundle", "base", "dim"), DROP)),
     "bad scenario.bundle.base.dim: None"),
    (pinned((("bundle", "group", "kind"), "SO4")),
     "scenario.bundle.group needs a kind among ['R^k', 'SO3', 'T^n', 'U1']"),
    (pinned((("bundle", "group", "dim"), 1)),
     "unknown scenario.bundle.group keys: ['dim']"),
    (pinned((("connection",), "x_dy")),
     "scenario.connection must be an object"),
    (pinned((("connection",), {"kind": "hopf_perturbed", "epsilon": "x"})),
     "bad scenario.connection.epsilon: 'x'"),
    (pinned((("connection", "omega"), 5)), "bad scenario.connection.omega: 5"),
    (pinned((("integrator", "retraction"), 3)),
     "bad scenario.integrator.retraction: 3"),
    (pinned((("integrator", "domain_radius"), 0)),
     "bad scenario.integrator.domain_radius: 0"),
    (pinned((("integrator", "metric"), "flat")),
     "unknown scenario.integrator keys: ['metric']"),
    (pinned((("discrete",), "zz")), "bad scenario.discrete: 'zz'"),
    (pinned((("discrete", 1), 5)), "discrete[1] must be an object"),
    (pinned((("discrete", 0, "kind"), "smooth")),
     "discrete[0] needs a kind among ['flat', 'integrated', 'local', "
     "'matched']"),
    (pinned((("discrete", 0), {"kind": "flat"})), "bad discrete[0].omega: None"),
    (pinned((("discrete", 1, "reference", "kind"), "matched")),
     "discrete[1].reference needs a kind among ['local']"),
    (pinned((("discrete", 1, "reference", "omega"), "x_dy")),
     "unknown discrete[1].reference keys: ['omega']"),
    (pinned((("discrete", 1, "reference", "pair_map"), 5)),
     "bad discrete[1].reference.pair_map: 5"),
    (pinned((("discrete", 1, "reference"), DROP)),
     "discrete[1].reference must be an object"),
    (pinned((("checks",), {"name": "diagram"})),
     "scenario.checks must be a list"),
    (pinned((("checks", 1), "diagram")), "scenario.checks[1] must be an object"),
    (pinned((("checks", 1, "name"), "nope")),
     "bad scenario.checks[1].name: 'nope'"),
    (pinned((("checks", 1, "samples"), 0)),
     "bad scenario.checks[1].samples: 0"),
    (pinned((("checks", 1, "speed"), 2)),
     "unknown scenario.checks[1] keys: ['speed']"),
    (pinned((("checks", 0, "tolerance"), -1.0)),
     "bad scenario.checks[0].tolerance: -1.0"),
    (pinned((("checks", 1, "pair"), [[0.0]])),
     "bad scenario.checks[1].pair: [[0.0]]"),
    # Past the schema, in load_scenario.
    (pinned((("connection",), {"kind": "hopf_canonical"})),
     "connection kind does not fit the bundle"),
    (pinned((("bundle",), {"kind": "hopf"}),
            (("connection",), {"kind": "hopf_canonical"}),
            (("integrator",), {})),
     "the Hopf bundle takes only integrated discretes"),
    (pinned((("connection",), DROP)), "matched discrete needs a connection"),
    (pinned((("integrator", "retraction"), "chart")),
     "unknown retraction 'chart' on the trivial bundle"),
    (pinned((("checks", 1, "name"), "derive_roundtrip"),
            (("connection",), DROP), (("discrete",), DROP)),
     "scenario.checks[1] (derive_roundtrip) needs a connection and a "
     "discrete"),
    (pinned((("checks", 1, "name"), "same_derived_curvature"),
            (("discrete",), {"kind": "local", "pair_map": "zero"})),
     "scenario.checks[1] (same_derived_curvature) needs two discretes"),
    (pinned((("checks", 0, "min_difference"), 0.1),
            (("checks", 0, "fiber"), [[0.0], [1.0]])),
     "unknown scenario.checks[0] keys: ['fiber', 'min_difference'] (only "
     "distinctness takes them)"),
    (pinned((("checks", 1), {"name": "distinctness",
                             "pair": [[0.0], [1.0]]})),
     "distinctness pair is not a pair of points of the bundle: pair rows "
     "must have length 2"),
    (pinned((("checks", 1), {"name": "distinctness",
                             "pair": [[0.0, 0.0], [1.0, 1.0]],
                             "fiber": [[0.0, 1.0], [1.0, 0.0]]})),
     "distinctness pair is not a pair of points of the bundle: fiber rows "
     "must have length 1"),
    # Past load_scenario, where the context is built.
    (pinned((("bundle", "base"), {"kind": "S2"}), ZERO_PAIRS,
            (("checks", 1), {"name": "distinctness",
                             "pair": [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]})),
     "distinctness pair is not a pair of points of the bundle: sphere point "
     "must be a unit vector to 1e-12"),
    (pinned((("bundle", "group"), {"kind": "SO3"}), ZERO_PAIRS,
            (("connection",), DROP),
            (("checks", 1), {"name": "distinctness",
                             "pair": [[0.0, 0.0], [1.0, 1.0]],
                             "fiber": [[1.0] * 9, [1.0] * 9]})),
     "distinctness pair is not a pair of points of the bundle: SO3 matrix "
     "is not orthogonal to 1e-10"),
    (pinned((("box",), [[1.0, -1.0], [0.0, 1.0]])),
     "box rows need lo <= hi and a width in float range: "
     "[[1.0, -1.0], [0.0, 1.0]]"),
    (pinned((("connection", "omega"), "nope")),
     "unknown one-form builtin 'nope'"),
    (pinned((("connection", "omega"), {"name": "polynomial", "terms": [],
                                      "dx": 0})),
     "unknown polynomial keys: ['dx']"),
    (pinned((("connection", "omega"),
             {"name": "polynomial",
              "terms": [{"coeff": 1, "powers": [1], "dx": 2}]})),
     "bad polynomial terms: [{'coeff': 1, 'powers': [1], 'dx': 2}]"),
    (pinned((("bundle", "base", "dim"), 1)),
     "builtin 'x_dy' reads too many coordinates"),
    # A malformed builtin of a flat or matched discrete is a ParseError,
    # not the CurvatureMismatch of the matching gate on its table.
    (pinned((("bundle", "base", "dim"), 1), (("connection", "omega"), "zero"),
            (("discrete",), {"kind": "flat", "omega": "x_dy"})),
     "builtin 'x_dy' reads too many coordinates"),
    (pinned((("bundle", "base", "dim"), 1), (("connection", "omega"), "zero"),
            (("discrete", 1, "reference", "pair_map"), "trapezoid_x_dy")),
     "builtin 'trapezoid_x_dy' reads too many coordinates"),
    (pinned((("discrete", 0, "pair_map"), "nope")),
     "unknown pair-map builtin 'nope'"),
    (pinned((("discrete", 0, "pair_map"), {"name": "quadratic_f",
                                          "f": "two"})),
     "unknown f table 'two'"),
]


class TestParsing:
    def test_unknown_key_rejected(self, tmp_path):
        path = write_scenario(tmp_path, minimal(extra_key=1))
        with pytest.raises(ParseError):
            load_scenario(path)

    def test_missing_seed_rejected(self, tmp_path):
        cfg = minimal()
        del cfg["seed"]
        path = write_scenario(tmp_path, cfg)
        with pytest.raises(ParseError):
            load_scenario(path)

    def test_bad_tolerance_rejected(self, tmp_path):
        cfg = minimal(checks=[{"name": "exp_log_roundtrip",
                               "tolerance": -1.0}])
        path = write_scenario(tmp_path, cfg)
        with pytest.raises(ParseError):
            load_scenario(path)

    @pytest.mark.parametrize("cfg,message", [
        # The unknown name comes last in a file whose checks pass.
        (bundled("curvature_matched.json", checks=[
            *bundled("curvature_matched.json")["checks"],
            {"name": "no_such_check"}]),
         r"bad scenario\.checks\[\d+\]\.name: 'no_such_check'"),
        (bundled("curvature_matched.json", checks=[{"name": ["closed_form"]}]),
         r"bad scenario\.checks\[0\]\.name"),
        # Caught when the context is built, not by the schema.
        (minimal(connection={"kind": "local", "omega": "nope"}),
         "unknown one-form builtin 'nope'"),
        (bundled("uniqueness.json", checks=[
            *bundled("uniqueness.json")["checks"],
            {"name": "derive_roundtrip"}]),
         r"checks\[2\] \(derive_roundtrip\) needs a connection"),
        (bundled("nonuniqueness.json", checks=[{"name": "distinctness"}]),
         r"checks\[0\] \(distinctness\) needs a pair"),
        (bundled("trivial_roundtrip.json", connection=None),
         "integrated discrete needs a connection"),
        (minimal(integrator={"retraction": "chart"}),
         "unknown retraction 'chart' on the trivial bundle"),
        (bundled("hopf_roundtrip.json", integrator={"retraction": "skewed"}),
         "unknown retraction 'skewed' on the hopf bundle"),
        # Pair rows of two coordinates on an R^1 base, distinctness last.
        (bundled("nonuniqueness.json", checks=[
            *bundled("nonuniqueness.json")["checks"][1:],
            {**bundled("nonuniqueness.json")["checks"][0],
             "pair": [[0.0, 0.0], [2.0, 0.0]]}]),
         r"distinctness pair is not a pair of points of the bundle: "
         r"pair rows must have length 1"),
        # A pair point off the sphere is judged at load too.
        (minimal(bundle={"kind": "trivial", "base": {"kind": "S2"},
                         "group": {"kind": "U1"}},
                 discrete=[{"kind": "local", "pair_map": "zero"}] * 2,
                 checks=[{"name": "distinctness",
                          "pair": [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}]),
         r"distinctness pair is not a pair of points of the bundle: "),
    ], ids=["unknown_check", "unhashable_check", "unknown_builtin",
            "no_connection", "no_pair", "integrated_alone", "trivial_chart",
            "hopf_skewed", "distinctness_pair_rows", "pair_off_sphere"])
    def test_config_error_runs_no_check(self, tmp_path, capsys, monkeypatch,
                                        cfg, message):
        # A bundled file whose checks pass comes first: no check of any
        # file may run before the error.
        write_scenario(tmp_path, bundled("curvature_matched.json"), "a.json")
        write_scenario(tmp_path, cfg, "b.json")
        ran = []
        monkeypatch.setattr(cli, "run_check",
                            lambda *args: ran.append(args))
        assert main(["verify-all", str(tmp_path)]) == 2
        assert ran == []
        err = capsys.readouterr().err
        assert err.startswith("error: ParseError: ")
        assert re.search(message, err)

    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_declared_reads_are_needed_and_enough(self, tmp_path, name):
        # A scenario that holds just what _READS declares for a check
        # loads and runs it; without any one of those reads it does not
        # load.
        def scenario(reads):
            cfg = minimal(box=[[-1.0, 1.0]] * 2,
                          checks=[{"name": name, "samples": 2}])
            if reads & {"a connection", "a local connection"}:
                cfg["connection"] = {"kind": "local", "omega": "x_dy"}
            count = (2 if "two discretes" in reads
                     else int("a discrete" in reads))
            if count:
                cfg["discrete"] = [{"kind": "local",
                                    "pair_map": "trapezoid_x_dy"}] * count
            if "a pair" in reads:
                cfg["checks"][0]["pair"] = [[0.0, 0.0], [0.5, 0.5]]
            return write_scenario(tmp_path, cfg)

        reads = scenarios._READS[name]
        cfg = load_scenario(scenario(reads))
        assert run_check(ScenarioContext(cfg), 0, cfg["checks"][0])[1] == 2
        for read in reads:
            with pytest.raises(ParseError, match=f"needs {read}"):
                load_scenario(scenario(reads - {read}))

    def test_every_check_declares_its_reads(self):
        assert set(scenarios._READS) == set(CHECKS)

    @pytest.mark.parametrize("cfg,message", [
        (minimal(checks=[{"name": "closed_form"},
                         {"name": "closed_form", "tolerance": -1.0}]),
         "bad scenario.checks[1].tolerance: -1.0"),
        (minimal(checks=[{"name": "closed_form", "zzz": 1}]),
         "unknown scenario.checks[0] keys: ['zzz']"),
        (minimal(discrete=[{"kind": "local", "pair_map": "trapezoid_x_dy"},
                           {"kind": "matched",
                            "reference": {"kind": "local",
                                          "pair_map": 3}}]),
         "bad discrete[1].reference.pair_map: 3"),
        # A flat discrete is a matched one, so it is no reference.
        (minimal(connection={"kind": "local", "omega": "x_dy"},
                 discrete={"kind": "matched",
                           "reference": {"kind": "flat",
                                         "omega": "closed_xy"}}),
         "discrete[0].reference needs a kind among ['local']"),
    ])
    def test_message_names_the_nested_path(self, tmp_path, cfg, message):
        path = write_scenario(tmp_path, cfg)
        with pytest.raises(ParseError) as info:
            load_scenario(path)
        assert str(info.value) == message

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_scenario(str(path))

    @pytest.mark.parametrize("cfg,message", PINNED_MESSAGES,
                             ids=range(len(PINNED_MESSAGES)))
    def test_pinned_message(self, tmp_path, cfg, message):
        # The whole text of the first ParseError that loading the file and
        # building its context raise.
        path = write_scenario(tmp_path, cfg)
        with pytest.raises(ParseError) as info:
            ScenarioContext(load_scenario(path))
        assert str(info.value) == message


class TestBuiltins:
    def test_unknown_one_form(self):
        with pytest.raises(ParseError):
            one_form_builtin("no_such_form",
                             TrivialBundle(EuclideanChart(2), Translation(1)))

    def test_polynomial_one_form(self):
        spec = {"name": "polynomial",
                "terms": [{"coeff": 3.0, "powers": [2, 0], "dx": 1}]}
        A = one_form_builtin(spec,
                             TrivialBundle(EuclideanChart(2), Translation(1)))
        # 3 x^2 dy at x = 2 on (0, 1).
        assert A.value([2.0, 5.0], [0.0, 1.0])[0] == pytest.approx(12.0)

    def test_unknown_pair_map(self):
        with pytest.raises(ParseError):
            pair_map_builtin("no_such_map",
                             TrivialBundle(EuclideanChart(1), Translation(1)),
                             1.0)

    def test_quadratic_pair_map_f(self):
        line = TrivialBundle(EuclideanChart(1), Translation(1))
        Ad = pair_map_builtin({"name": "quadratic_f", "f": "one"}, line, 1.0)
        assert Ad.name == "quadratic_f"
        assert Ad.pair_map(np.array([0.0]),
                           np.array([3.0]))[0] == pytest.approx(9.0)
        # f is required, and one of the two tables.
        for spec in ({"name": "quadratic_f"},
                     {"name": "quadratic_f", "f": {"const": 2.0}}):
            with pytest.raises(ParseError, match="unknown f table"):
                pair_map_builtin(spec, line, 1.0)


class TestSampling:
    def test_stream_determinism(self):
        ctx = ScenarioContext(minimal(seed=42))
        a = ctx.rng(3).uniform(size=5)
        b = ctx.rng(3).uniform(size=5)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        ctx = ScenarioContext(minimal(seed=42))
        a = ctx.rng(3).uniform(size=5)
        b = ctx.rng(4).uniform(size=5)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed,stream", [(42, 3), (2 ** 64 - 1, 0),
                                             (7, 2 ** 64 - 1)])
    def test_rekeyed_stream_is_a_fresh_philox(self, seed, stream):
        # A stream left part way: an odd count of uniforms, normals, and a
        # 32-bit integer draw that leaves half a 64-bit word buffered.
        ctx = ScenarioContext(minimal(seed=seed))
        rng = ctx.rng(5)
        rng.random(7)
        rng.standard_normal(3)
        rng.integers(0, 1000, size=3, dtype=np.uint32)
        assert rng.bit_generator.state["has_uint32"] == 1
        assert ctx.rng(stream) is rng
        key = np.array([seed, stream], dtype=np.uint64)
        fresh = np.random.Generator(np.random.Philox(key=key))
        for draw in (lambda g: g.random(1000),
                     lambda g: g.standard_normal(1000),
                     lambda g: g.integers(0, 2 ** 31, 1000, dtype=np.int32)):
            assert np.array_equal(draw(rng), draw(fresh))

    def test_numpy_random_is_imported_on_the_first_draw(self):
        # Set-up draws nothing: building the contexts of every bundled
        # scenario, negative controls included, and of each benchmark
        # workload at seed 0 builds no bit generator and does not import
        # numpy.random; the first check's draw does.
        code = ("import sys\n"
                "from pathlib import Path\n"
                "import workloads\n"
                "from disconn import cli, scenarios\n"
                "cfgs = [scenarios.load_scenario(path) for path in "
                "sorted(Path(sys.argv[1]).rglob('*.json'))]\n"
                "cfgs += [cfg for name in workloads.WORKLOADS "
                "for cfg in workloads.generate(name, 0)]\n"
                "ctxs = [scenarios.ScenarioContext(cfg) for cfg in cfgs]\n"
                "print(len(ctxs), 'numpy.random' in sys.modules, "
                "*{ctx._generator for ctx in ctxs})\n"
                "ctxs[0].rng(0)\n"
                "print('numpy.random' in sys.modules)\n")
        root = Path(scenarios.__file__).resolve().parents[2]
        path = os.pathsep.join([str(root / "src"), str(root / "bench")])
        out = subprocess.run(
            [sys.executable, "-c", code, str(SCENARIO_DIR)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": path}).stdout
        count, *rest = out.split()
        # 7 bundled, 10 negative, and 1 + 2 + 7 workload scenarios.
        assert int(count) == 27
        assert rest == ["False", "None", "True"]


class TestRunScenario:
    def test_bundled_nonuniqueness_passes(self):
        report = run_file(str(SCENARIO_DIR / "nonuniqueness.json"))
        assert report.passed
        assert any(c.name == "distinctness" for c in report.checks)

    def test_zero_checks_is_trivially_passing(self, tmp_path):
        report = run_file(write_scenario(tmp_path, minimal()))
        assert report.passed
        assert report.checks == []

    def test_failing_check_reported(self, tmp_path):
        cfg = minimal(connection={"kind": "local", "omega": "x_dy"},
                      checks=[{"name": "closed_form", "tolerance": 1e-8,
                               "samples": 3}])
        report = run_file(write_scenario(tmp_path, cfg))
        assert not report.passed
        assert report.checks[0].max_defect > 0.1


class TestFlatIsMatched:
    def test_flat_is_the_matched_integral_of_the_zero_reference(
            self, tmp_path):
        # The flat discrete of closed_xy and the curvature-matched integral
        # of closed_xy against the zero pair map give the same verdict
        # bytes, defects included.
        cfg = bundled("flat_integration.json", discrete={
            "kind": "matched",
            "reference": {"kind": "local", "pair_map": "zero"}})
        shipped = run_file(str(SCENARIO_DIR / "flat_integration.json"))
        matched = run_file(write_scenario(tmp_path, cfg))
        assert emit_report(matched, "json") == emit_report(shipped, "json")


class TestEmitReport:
    def make_report(self, tmp_path):
        cfg = minimal(checks=[{"name": "exp_log_roundtrip",
                               "tolerance": 1e-10, "samples": 5}])
        return run_file(write_scenario(tmp_path, cfg))

    def test_json_omits_wall_time(self, tmp_path):
        out = emit_report(self.make_report(tmp_path), "json")
        payload = json.loads(out)
        assert payload["passed"] is True
        assert "wall_time_ms" not in json.dumps(payload)

    def test_json_deterministic_bytes(self, tmp_path):
        a = emit_report(self.make_report(tmp_path), "json")
        b = emit_report(self.make_report(tmp_path), "json")
        assert a == b

    # Names with quotes, backslashes, control and non-ASCII characters;
    # defects with NaN, infinities, -0.0, subnormals and 1e308.
    NAMES = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9'
                                              '\u2028\U0001d11e'),
                              st.characters()), max_size=8)
    EDGES = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324,
                             2.2250738585072014e-308, 1e308, 1e-08, 0.1])

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(scenario=NAMES, checks=st.lists(st.tuples(
        NAMES, st.one_of(EDGES, st.floats()),
        st.one_of(EDGES.filter(math.isfinite), st.floats(allow_nan=False,
                                                         allow_infinity=False)),
        st.booleans(), st.integers(0, 2 ** 63)), max_size=4))
    def test_json_is_the_json_modules_layout(self, scenario, checks):
        report = cli.Report(scenario, [
            cli.CheckResult(name, defect, tolerance, passed, samples, 0)
            for name, defect, tolerance, passed, samples in checks])
        payload = {
            "scenario": report.scenario,
            "checks": [{"name": c.name,
                        "max_defect": (c.max_defect
                                       if math.isfinite(c.max_defect)
                                       else None),
                        "tolerance": c.tolerance, "passed": c.passed,
                        "samples": c.samples} for c in report.checks],
            "passed": report.passed}
        assert emit_report(report, "json") == json.dumps(
            payload, indent=2, allow_nan=False)

    def test_table_shows_status_and_time(self, tmp_path):
        out = emit_report(self.make_report(tmp_path), "table")
        assert "PASS" in out
        assert " ms " in out or "ms" in out.splitlines()[1]


class TestCli:
    def test_run_pass_exit_zero(self, tmp_path, capsys):
        cfg = minimal(checks=[{"name": "exp_log_roundtrip",
                               "tolerance": 1e-10, "samples": 5}])
        path = write_scenario(tmp_path, cfg)
        assert main(["run", path]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_run_fail_exit_one(self, tmp_path, capsys):
        cfg = minimal(connection={"kind": "local", "omega": "x_dy"},
                      checks=[{"name": "closed_form", "tolerance": 1e-8,
                               "samples": 3}])
        path = write_scenario(tmp_path, cfg)
        assert main(["run", path]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_verify_all_empty_dir_exit_two(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["verify-all", str(empty)]) == 2

    def test_verify_all_mixed_exit_one(self, tmp_path, capsys):
        write_scenario(tmp_path, minimal(), "a.json")
        cfg = minimal(connection={"kind": "local", "omega": "x_dy"},
                      checks=[{"name": "closed_form", "tolerance": 1e-8,
                               "samples": 3}])
        write_scenario(tmp_path, cfg, "b.json")
        assert main(["verify-all", str(tmp_path)]) == 1

    def test_json_format_flag(self, tmp_path, capsys):
        cfg = minimal(checks=[{"name": "exp_log_roundtrip",
                               "tolerance": 1e-10, "samples": 5}])
        path = write_scenario(tmp_path, cfg)
        assert main(["run", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "minimal"

    @pytest.mark.parametrize("error", [MemoryError("no room for the stack"),
                                       RuntimeError("solver gave up")])
    def test_any_other_exception_exits_two(self, tmp_path, capsys,
                                           monkeypatch, error):
        # Exit 1 would read as "a check failed".
        def failing(cfg, ctx):
            raise error

        monkeypatch.setattr(cli, "run_scenario", failing)
        assert main(["run", write_scenario(tmp_path, minimal())]) == 2
        assert capsys.readouterr().err == (
            f"error: {type(error).__name__}: {error}\n")

    @pytest.mark.parametrize("error", [OSError("disk went away"),
                                       ValueError("no finite value")])
    def test_os_and_value_errors_print_only_the_message(
            self, tmp_path, capsys, monkeypatch, error):
        def failing(cfg, ctx):
            raise error

        monkeypatch.setattr(cli, "run_scenario", failing)
        assert main(["run", write_scenario(tmp_path, minimal())]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_one_parser_per_process(self, tmp_path, capsys, monkeypatch):
        # The parser is built at import; a call only parses.
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cfg = minimal(checks=[{"name": "exp_log_roundtrip",
                               "tolerance": 1e-10, "samples": 5}])
        path = write_scenario(tmp_path, cfg)
        for fmt in ("table", "json"):
            assert main(["run", path, "--format", fmt]) == 0
            assert main(["verify-all", str(tmp_path), "--format", fmt]) == 0
        assert built == []
        capsys.readouterr()

        # --help and a usage error in between leave the next call as it was.
        def verify_all():
            code = main(["verify-all", str(tmp_path), "--format", "json"])
            return code, capsys.readouterr().out

        first = verify_all()
        for argv, code in ((["run", "--help"], 0),
                           (["run", path, "--fd-step", "1e-4"], 2)):
            with pytest.raises(SystemExit) as stop:
                main(argv)
            assert stop.value.code == code
        capsys.readouterr()
        assert verify_all() == first
        assert first[0] == 0 and json.loads(first[1])["passed"]
        assert built == []

    def test_skewed_retraction_breaks_equivariance(self, tmp_path):
        cfg = minimal(connection={"kind": "local", "omega": "zero"},
                      checks=[{"name": "retraction_equivariance",
                               "tolerance": 1e-8, "samples": 10}])
        assert main(["run", write_scenario(tmp_path, cfg)]) == 0
        cfg["integrator"] = {"retraction": "skewed"}
        assert main(["run", write_scenario(tmp_path, cfg)]) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--fd-step", "1e-4"), ("--fd-levels", "2"),
        ("--quadrature-order", "8"), ("--quadrature-panels", "16"),
        ("--base-point", "0,0"), ("--retraction", "skewed"),
        ("--domain-radius", "1")])
    def test_tuning_flags_are_rejected(self, tmp_path, capsys, flag, value):
        # Every setting of a run lives in the scenario file.
        path = write_scenario(tmp_path, minimal())
        with pytest.raises(SystemExit) as stop:
            main(["run", path, flag, value])
        assert stop.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify-all"])
    def test_help_lists_only_format(self, capsys, command):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        out = capsys.readouterr().out
        options = {word.rstrip(",") for word in out.split()
                   if word.startswith("-")}
        assert options == {"-h", "--help", "--format"}
