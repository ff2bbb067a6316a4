"""Scenario parsing, deterministic sampling, and the command-line interface."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from disconn import cli, scenarios
from disconn.bundles import TrivialBundle
from disconn.cli import emit_report, main, run_scenario
from disconn.errors import ParseError
from disconn.groups import Translation
from disconn.manifolds import EuclideanChart
from disconn.scenarios import (CHECKS, GATE_STREAM, ScenarioContext, _forms,
                               load_scenario, one_form_builtin,
                               pair_map_builtin, run_check)

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
         r"checks\[3\] \(derive_roundtrip\) needs a connection"),
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
                                             (7, GATE_STREAM)])
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
        # The Hopf scenario has no gate samples: its set-up draws nothing,
        # so it neither builds a bit generator nor imports numpy.random.
        path = SCENARIO_DIR / "hopf_roundtrip.json"
        code = ("import sys\n"
                "from disconn import cli, scenarios\n"
                f"ctx = scenarios.ScenarioContext("
                f"scenarios.load_scenario({str(path)!r}))\n"
                "print('numpy.random' in sys.modules, ctx._generator)\n"
                "ctx.rng(0)\n"
                "print('numpy.random' in sys.modules)\n")
        src = str(Path(scenarios.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.split() == ["False", "None", "True"]

    def test_gate_stream_is_no_check_stream(self):
        # The flat and matched gates draw from a stream of their own, past
        # every index a list of checks can have, and so not from that of
        # the check at index 997.
        ctx = ScenarioContext(minimal(box=[[-1.0, 1.0]] * 2))
        gate = ctx._gate_samples()
        check = _forms(ctx, ctx.rng(997), 25)
        assert not any(np.array_equal(a, b) for a, b in zip(gate, check))
        assert GATE_STREAM >= 2 ** 63


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
