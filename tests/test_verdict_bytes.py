"""The verdict JSON of the bundled scenarios, pinned byte for byte.

`tests/data/verify_all_scenarios.json` is the exact standard output of

    disconn verify-all scenarios --format json

and `tests/data/workload_<name>.json` that of the benchmark workload
`<name>` at seed 0, generated by `bench/workloads.py`.

A change that moves any digit of any defect fails here and shows the
diff; regenerate a file only together with an account of every digit
that moved.
"""

import difflib
import importlib.util
from pathlib import Path

import pytest

from disconn.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"


def assert_verify_all_matches(capsys, directory, pinned):
    assert main(["verify-all", str(directory), "--format", "json"]) == 0
    got = capsys.readouterr().out
    want = pinned.read_text()
    diff = "".join(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True),
        str(pinned.relative_to(ROOT)), "verify-all output"))
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
