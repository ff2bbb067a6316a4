"""The verdict JSON of the bundled scenarios, pinned byte for byte.

`tests/data/verify_all_scenarios.json` is the exact standard output of

    disconn verify-all scenarios --format json

A change that moves any digit of any defect fails here and shows the
diff; regenerate the file only together with an account of every digit
that moved.
"""

import difflib
from pathlib import Path

from disconn.cli import main

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "data" / "verify_all_scenarios.json"


def test_verify_all_scenarios_json_is_unchanged(capsys):
    assert main(["verify-all", str(ROOT / "scenarios"),
                 "--format", "json"]) == 0
    got = capsys.readouterr().out
    want = PINNED.read_text()
    diff = "".join(difflib.unified_diff(
        want.splitlines(keepends=True), got.splitlines(keepends=True),
        str(PINNED.relative_to(ROOT)), "verify-all output"))
    assert got == want, diff
