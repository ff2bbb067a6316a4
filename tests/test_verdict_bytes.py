"""The verdict JSON of the bundled scenarios, pinned byte for byte.

`tests/data/verify_all_scenarios.json` is the exact standard output of

    disconn verify-all scenarios --format json

`tests/data/verify_all_negative.json` that of the negative controls,

    disconn verify-all scenarios/negative --format json

and `tests/data/workload_<name>.json` that of the benchmark workload
`<name>` at seed 0, generated by `bench/workloads.py`.
`tests/data/workload_digests.json` holds the sha256 of that output for
each workload at seeds 0-20, which

    PYTHONPATH=src python tests/test_verdict_bytes.py

prints.  With `--rows` it prints instead one tab-separated line per check
of those runs, (workload, seed, scenario, check, max_defect) with the
defect's repr, so two checkouts' rows can be compared with `diff`.
`tests/data/demo_<name>.txt` is the exact standard output of
`python demos/<name>_demo.py`.

A change that moves any digit of any defect fails here and shows the
diff; regenerate a file only together with an account of every digit
that moved.
"""

import argparse
import contextlib
import difflib
import hashlib
import importlib.util
import io
import json
import runpy
import sys
import tempfile
from pathlib import Path

import pytest

from disconn.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
WORKLOADS = ["matched-deep", "hopf-newton", "breadth"]
DIGEST_SEEDS = range(21)


def bench_workloads():
    """bench/workloads.py, loaded from its file and only read."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def workload_outputs(directory):
    """(workload, seed, verify-all JSON output) over WORKLOADS and
    DIGEST_SEEDS, the scenario files written under directory."""
    workloads = bench_workloads()
    for name in WORKLOADS:
        for seed in DIGEST_SEEDS:
            files = Path(directory) / f"{name}-{seed}"
            workloads.write(workloads.generate(name, seed), files)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main(["verify-all", str(files), "--format", "json"])
            yield name, seed, out.getvalue()


def workload_digests(directory):
    """{workload: {seed: sha256 of the verify-all JSON output}}."""
    digests = {name: {} for name in WORKLOADS}
    for name, seed, output in workload_outputs(directory):
        digests[name][str(seed)] = hashlib.sha256(output.encode()).hexdigest()
    return digests


def workload_rows(directory):
    """One (workload, seed, scenario, check, max_defect) row per check of
    the verify-all runs of `workload_outputs`; verify-all joins its
    reports with a blank line."""
    for name, seed, output in workload_outputs(directory):
        for report in output.strip().split("\n\n"):
            report = json.loads(report)
            for check in report["checks"]:
                yield (name, seed, report["scenario"], check["name"],
                       check["max_defect"])


def assert_verify_all_matches(capsys, directory, pinned, code=0):
    assert main(["verify-all", str(directory), "--format", "json"]) == code
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


def test_verify_all_negative_json_is_unchanged(capsys):
    # Every negative control FAILs, so verify-all exits 1.
    assert_verify_all_matches(capsys, ROOT / "scenarios" / "negative",
                              DATA / "verify_all_negative.json", code=1)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_json_is_unchanged(capsys, tmp_path, workload):
    workloads = bench_workloads()
    workloads.write(workloads.generate(workload, 0), tmp_path)
    assert_verify_all_matches(capsys, tmp_path,
                              DATA / f"workload_{workload}.json")


@pytest.mark.parametrize("demo", ["nonuniqueness", "roundtrip"])
def test_demo_output_is_unchanged(capsys, demo):
    runpy.run_path(str(ROOT / "demos" / f"{demo}_demo.py"),
                   run_name="__main__")
    assert_output_matches(capsys.readouterr().out,
                          DATA / f"demo_{demo}.txt")


def test_workload_digests_are_unchanged(tmp_path):
    pinned = json.loads((DATA / "workload_digests.json").read_text())
    assert workload_digests(tmp_path) == pinned


def test_rows_are_the_pinned_checks(monkeypatch, tmp_path):
    # Seed 0 of each workload: its rows are the checks of its pinned JSON.
    monkeypatch.setitem(globals(), "DIGEST_SEEDS", range(1))
    want = []
    for name in WORKLOADS:
        for text in (DATA / f"workload_{name}.json").read_text().split(
                "\n\n"):
            report = json.loads(text)
            want += [(name, 0, report["scenario"], c["name"], c["max_defect"])
                     for c in report["checks"]]
    assert list(workload_rows(tmp_path)) == want


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rows", action="store_true",
                        help="print every check's row instead of digests")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as scratch:
        if args.rows:
            for row in workload_rows(scratch):
                print("\t".join(map(repr, row)))
        else:
            json.dump(workload_digests(scratch), sys.stdout, indent=2)
            print()
