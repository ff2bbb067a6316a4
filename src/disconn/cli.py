"""Command-line front end.

    disconn run <scenario.json> [--format table|json]
    disconn verify-all <dir> [--format table|json]

Every setting of a run lives in the scenario file; the command line picks
only the files and the report format.  `main` loads every file and
builds every context before it runs any check, so a malformed file exits
2 before any check runs.

Exit codes: 0 when every check passes, 1 when a check fails, 2 on
configuration or runtime errors, any exception a run raises included.
`main(argv)` returns the exit code and may be called any number of times
in one process; the parser is built once, at import, and keeps no state
between calls.  Usage errors still raise `SystemExit(2)` and `--help`
raises `SystemExit(0)`, as argparse does.

JSON reports are strict JSON and deterministic for a fixed config and
seed; a defect that is not finite prints as null, and per-check wall
times are shown only in the table format so the JSON bytes stay stable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

from .scenarios import (DEFAULT_TOLERANCE, ScenarioContext, load_scenario,
                        run_check)


@dataclass
class CheckResult:
    name: str
    max_defect: float
    tolerance: float
    passed: bool
    samples: int
    wall_time_ms: int


@dataclass
class Report:
    scenario: str
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def passed(self):
        return all(c.passed for c in self.checks)


def run_scenario(cfg, ctx) -> Report:
    """Run every check of a loaded scenario config on its built context."""
    report = Report(ctx.name)
    for index, check_cfg in enumerate(cfg.get("checks", [])):
        start = time.perf_counter()
        defect, samples = run_check(ctx, index, check_cfg)
        elapsed_ms = int(round(1000.0 * (time.perf_counter() - start)))
        tolerance = float(check_cfg.get("tolerance", DEFAULT_TOLERANCE))
        report.checks.append(CheckResult(
            name=check_cfg["name"],
            max_defect=defect,
            tolerance=tolerance,
            passed=defect <= tolerance,
            samples=samples,
            wall_time_ms=elapsed_ms,
        ))
    return report


def emit_report(report: Report, fmt: str = "table") -> str:
    if fmt == "json":
        payload = {
            "scenario": report.scenario,
            "checks": [
                {
                    "name": c.name,
                    "max_defect": (c.max_defect if math.isfinite(c.max_defect)
                                   else None),
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                    "samples": c.samples,
                }
                for c in report.checks
            ],
            "passed": report.passed,
        }
        return json.dumps(payload, indent=2, allow_nan=False)
    lines = [f"scenario: {report.scenario}"]
    header = (f"{'check':<26} {'max_defect':>12} {'tolerance':>10} "
              f"{'samples':>7} {'ms':>6} {'status':>6}")
    lines.append(header)
    lines.append("-" * len(header))
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{c.name:<26} {c.max_defect:>12.3e} {c.tolerance:>10.1e} "
            f"{c.samples:>7d} {c.wall_time_ms:>6d} {status:>6}")
    return "\n".join(lines)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="disconn",
        description="Verification harness for connections on principal "
                    "bundles and their discrete counterparts.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario file")
    run_p.add_argument("scenario")

    all_p = sub.add_parser("verify-all",
                           help="run every *.json scenario in a directory")
    all_p.add_argument("directory")
    for p in (run_p, all_p):
        p.add_argument("--format", choices=("table", "json"),
                       default="table")
    return parser


# The grammar never changes between calls, so it is built once, at import.
_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        paths = ([args.scenario] if args.command == "run"
                 else sorted(Path(args.directory).glob("*.json")))
        if not paths:
            print(f"no scenario files in {args.directory}", file=sys.stderr)
            return 2
        configs = [load_scenario(str(path)) for path in paths]
        contexts = [ScenarioContext(cfg) for cfg in configs]
        reports = [run_scenario(cfg, ctx)
                   for cfg, ctx in zip(configs, contexts)]
        print("\n\n".join(emit_report(r, args.format) for r in reports))
        return 0 if all(r.passed for r in reports) else 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
