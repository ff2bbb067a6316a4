"""Command-line front end.

    disconn run <scenario.json> [--format table|json] [options]
    disconn verify-all <dir> [--format table|json] [options]

Exit codes: 0 when every check passes, 1 when a check fails, 2 on
configuration or runtime errors.

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

import numpy as np

from .errors import DisconnError
from .numdiff import DerivativeSpec
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


def run_scenario(path, integrator=None, **options) -> Report:
    """Run every check of one scenario file.  `integrator` entries replace
    those of the file's integrator block; `options` go to ScenarioContext."""
    cfg = load_scenario(path)
    cfg["integrator"] = {**cfg.get("integrator", {}), **(integrator or {})}
    ctx = ScenarioContext(cfg, **options)
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


def _add_common_options(parser):
    parser.add_argument("--format", choices=("table", "json"),
                        default="table")
    parser.add_argument("--fd-step", type=float, default=None,
                        help="finite-difference base step")
    parser.add_argument("--fd-levels", type=int, default=None,
                        help="Richardson extrapolation levels")
    parser.add_argument("--quadrature-order", type=int, default=None)
    parser.add_argument("--quadrature-panels", type=int, default=None)
    parser.add_argument("--base-point", type=str, default=None,
                        help="comma-separated primitive anchor coordinates")
    parser.add_argument("--retraction",
                        choices=("straight", "exp", "great_circle", "skewed",
                                 "chart"),
                        default=None)
    parser.add_argument("--domain-radius", type=float, default=None)


def _given(**options):
    """The options set on the command line."""
    return {key: value for key, value in options.items() if value is not None}


def _run_one(path, args):
    return run_scenario(
        path,
        integrator=_given(retraction=args.retraction,
                          domain_radius=args.domain_radius),
        fd_spec=DerivativeSpec(**_given(base_step=args.fd_step,
                                        richardson_levels=args.fd_levels)),
        anchor=(None if args.base_point is None else
                np.array([float(x) for x in args.base_point.split(",")])),
        **_given(quadrature_order=args.quadrature_order,
                 quadrature_panels=args.quadrature_panels))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="disconn",
        description="Verification harness for connections on principal "
                    "bundles and their discrete counterparts.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario file")
    run_p.add_argument("scenario")
    _add_common_options(run_p)

    all_p = sub.add_parser("verify-all",
                           help="run every *.json scenario in a directory")
    all_p.add_argument("directory")
    _add_common_options(all_p)

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            report = _run_one(args.scenario, args)
            print(emit_report(report, args.format))
            return 0 if report.passed else 1
        paths = sorted(Path(args.directory).glob("*.json"))
        if not paths:
            print(f"no scenario files in {args.directory}", file=sys.stderr)
            return 2
        all_passed = True
        outputs = []
        for path in paths:
            report = _run_one(str(path), args)
            outputs.append(emit_report(report, args.format))
            all_passed = all_passed and report.passed
        print("\n\n".join(outputs))
        return 0 if all_passed else 1
    except DisconnError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
