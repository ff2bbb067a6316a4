"""Scenario parsing, deterministic sampling, and the command-line interface."""

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from disconn import cli
from disconn.bundles import TrivialBundle
from disconn.cli import emit_report, main, run_scenario
from disconn.errors import ParseError, UnknownBuiltin
from disconn.groups import Translation
from disconn.manifolds import EuclideanChart
from disconn.scenarios import (GATE_STREAM, ScenarioContext, _forms,
                               load_scenario, one_form_builtin,
                               pair_map_builtin, rng_for)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


def write_scenario(tmp_path, payload, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


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

    @pytest.mark.parametrize("name", ["no_such_check", ["closed_form"]])
    def test_unknown_check_name_rejected_at_load(self, tmp_path, monkeypatch,
                                                 name):
        # The unknown name comes last: no check of the file may run first.
        cfg = json.loads((SCENARIO_DIR / "curvature_matched.json")
                         .read_text())
        cfg["checks"].append({"name": name})
        path = write_scenario(tmp_path, cfg)
        with pytest.raises(ParseError, match=r"checks\[\d+\]\.name"):
            load_scenario(path)
        ran = []
        monkeypatch.setattr(cli, "run_check",
                            lambda *args: ran.append(args))
        assert main(["verify-all", str(tmp_path)]) == 2
        assert ran == []

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
        with pytest.raises(UnknownBuiltin):
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
        with pytest.raises(UnknownBuiltin):
            pair_map_builtin("no_such_map",
                             TrivialBundle(EuclideanChart(1), Translation(1)),
                             1.0)

    def test_quadratic_pair_map_const(self):
        Ad = pair_map_builtin(
            {"name": "quadratic_f", "f": {"const": 2.0}},
            TrivialBundle(EuclideanChart(1), Translation(1)), 1.0)
        assert Ad.name == "quadratic_f"
        assert Ad.pair_map(np.array([0.0]),
                           np.array([3.0]))[0] == pytest.approx(18.0)


class TestSampling:
    def test_stream_determinism(self):
        a = rng_for(42, 3).uniform(size=5)
        b = rng_for(42, 3).uniform(size=5)
        assert np.array_equal(a, b)

    def test_streams_independent(self):
        a = rng_for(42, 3).uniform(size=5)
        b = rng_for(42, 4).uniform(size=5)
        assert not np.array_equal(a, b)

    def test_gate_stream_is_no_check_stream(self):
        # The flat and matched gates draw from a stream of their own, past
        # every index a list of checks can have, and so not from that of
        # the check at index 997.
        ctx = ScenarioContext(minimal(box=[[-1.0, 1.0]] * 2))
        gate = ctx._gate_samples()
        check = _forms(ctx, rng_for(ctx.seed, 997), 25)
        assert not any(np.array_equal(a, b) for a, b in zip(gate, check))
        assert GATE_STREAM >= 2 ** 63


class TestRunScenario:
    def test_bundled_nonuniqueness_passes(self):
        report = run_scenario(str(SCENARIO_DIR / "nonuniqueness.json"))
        assert report.passed
        assert any(c.name == "distinctness" for c in report.checks)

    def test_zero_checks_is_trivially_passing(self, tmp_path):
        report = run_scenario(write_scenario(tmp_path, minimal()))
        assert report.passed
        assert report.checks == []

    def test_failing_check_reported(self, tmp_path):
        cfg = minimal(connection={"kind": "local", "omega": "x_dy"},
                      checks=[{"name": "closed_form", "tolerance": 1e-8,
                               "samples": 3}])
        report = run_scenario(write_scenario(tmp_path, cfg))
        assert not report.passed
        assert report.checks[0].max_defect > 0.1


class TestEmitReport:
    def make_report(self, tmp_path):
        cfg = minimal(checks=[{"name": "exp_log_roundtrip",
                               "tolerance": 1e-10, "samples": 5}])
        return run_scenario(write_scenario(tmp_path, cfg))

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
        def failing(path):
            raise error

        monkeypatch.setattr(cli, "run_scenario", failing)
        assert main(["run", write_scenario(tmp_path, minimal())]) == 2
        assert capsys.readouterr().err == (
            f"error: {type(error).__name__}: {error}\n")

    @pytest.mark.parametrize("error", [OSError("disk went away"),
                                       ValueError("no finite value")])
    def test_os_and_value_errors_print_only_the_message(
            self, tmp_path, capsys, monkeypatch, error):
        def failing(path):
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
