"""The verdict JSON of the bundled scenarios, pinned byte for byte.

`tests/data/verify_all_scenarios.json` is the exact standard output of

    disconn verify-all scenarios --format json

and `tests/data/workload_<name>.json` that of the benchmark workload
`<name>` at seed 0, generated by `bench/workloads.py`.
`tests/data/demo_<name>.txt` is the exact standard output of
`python demos/<name>_demo.py`.

A change that moves any digit of any defect fails here and shows the
diff; regenerate a file only together with an account of every digit
that moved.
"""

import difflib
import importlib.util
import runpy
from pathlib import Path

import pytest

from disconn.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"


def assert_verify_all_matches(capsys, directory, pinned):
    assert main(["verify-all", str(directory), "--format", "json"]) == 0
    assert_output_matches(capsys.readouterr().out, pinned)


def assert_output_matches(got, pinned):
    want = pinned.read_text()
    diff = "".join(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True),
        str(pinned.relative_to(ROOT)), "output"))
    assert got == want, diff


def test_verify_all_scenarios_json_is_unchanged(capsys):
    assert_verify_all_matches(capsys, ROOT / "scenarios",
                              DATA / "verify_all_scenarios.json")


@pytest.mark.parametrize("workload",
                         ["matched-deep", "hopf-newton", "breadth"])
def test_benchmark_workload_json_is_unchanged(capsys, tmp_path, workload):
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workloads.write(workloads.generate(workload, 0), tmp_path)
    assert_verify_all_matches(capsys, tmp_path,
                              DATA / f"workload_{workload}.json")


@pytest.mark.parametrize("demo", ["nonuniqueness", "roundtrip"])
def test_demo_output_is_unchanged(capsys, demo):
    runpy.run_path(str(ROOT / "demos" / f"{demo}_demo.py"),
                   run_name="__main__")
    assert_output_matches(capsys.readouterr().out,
                          DATA / f"demo_{demo}.txt")
