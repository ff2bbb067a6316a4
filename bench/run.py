"""disconn benchmark: time to verdict of `disconn verify-all`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.  The
workload's scenario files are generated from the seed into .bench_work/,
then `disconn.cli.main(["verify-all", DIR, "--format", "json"])` runs in
this process, repeatedly, for S seconds.  One warm-up repetition is not
timed.  Every repetition must exit 0 with every check PASS and the same
verdict bytes.

--trace 0 prints the end-to-end metrics.  Set-up is also timed in fresh
interpreters, and one more verify-all runs the workload generated from
the fixed reference seed, whose worst defect gives defect_margin_decades.

--trace 1 runs untraced for half the time, then installs the outside-in
tracer (tracer.py) and prints the per-layer metrics (layers.py) of the
traced repetitions, whose counts must repeat exactly.

The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it say
what was measured.
"""

from __future__ import annotations

import os

# One process, one thread: pin BLAS/OpenMP pools before numpy is imported
# here or in a set-up probe.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 9       # set-ups (this process and fresh ones) for setup_s
REFERENCE_SEED = 0      # inputs of defect_margin_decades, the same every run
MARGIN_CAP = 20.0       # decades reported for a zero defect
# Median seconds of calibration() on the machine the baseline was recorded
# on; end-to-end times are reported at that speed (see calibration).
CALIBRATION_REFERENCE_S = 0.014
MIN_REPS = 3
MIN_TRACED_REPS = 2


def setup(directory):
    """Seconds from the first `import disconn` to a built ScenarioContext
    for every scenario file in `directory`."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import disconn
    from disconn import cli  # noqa: F401  (the entry point the runs use)
    from disconn.scenarios import ScenarioContext, load_scenario
    for path in sorted(Path(directory).glob("*.json")):
        ScenarioContext(load_scenario(str(path)))
    elapsed = time.perf_counter() - start
    if Path(disconn.__file__).resolve().parent != (SRC / "disconn").resolve():
        raise SystemExit(f"imported disconn from {disconn.__file__}, "
                         f"not from {SRC}")
    return elapsed


def calibration():
    """Seconds of a fixed kernel with the operation mix of the library's
    hot paths: small numpy arrays driven from Python.

    The speed of a shared host drifts by tens of percent over minutes.
    Timing this kernel next to each measurement and scaling the measurement
    by CALIBRATION_REFERENCE_S / kernel time takes most of that drift out
    of the end-to-end times, while a change to disconn still moves them.
    """
    import numpy as np
    start = time.perf_counter()
    x = np.array([1.0, 2.0, 3.0])
    for _ in range(1500):
        y = np.asarray(x * 1.0001, dtype=float)
        x = y / np.linalg.norm(y - x + 1.0)
    return time.perf_counter() - start


def probe_setup(directory):
    """(set-up seconds, calibration seconds) from a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe", str(directory)],
        capture_output=True, text=True, timeout=120, check=True)
    setup_s, calibration_s = done.stdout.split()[-2:]
    return float(setup_s), float(calibration_s)


def at_reference_speed(seconds, calibration_s):
    return seconds * CALIBRATION_REFERENCE_S / calibration_s


def verify_all(cli, directory):
    """One `verify-all`: (wall seconds, exit code, verdict text).  An
    exception that escapes the program counts as exit code -1."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            code = cli.main(["verify-all", str(directory), "--format", "json"])
        except Exception:
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - start
    return wall, code, out.getvalue()


def parse_verdicts(text):
    """The JSON reports that verify-all prints one after another."""
    decoder, pos, reports = json.JSONDecoder(), 0, []
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        if pos == len(text):
            return reports
        report, pos = decoder.raw_decode(text, pos)
        reports.append(report)


class Verdict:
    """What one verdict text says, measured against the generated checks.
    Text that is not a sequence of well-formed reports counts as no check
    run."""

    def __init__(self, code, text, configs):
        expected = [(cfg["name"], c["name"], c["samples"])
                    for cfg in configs for c in cfg["checks"]]
        self.attempted = len(expected)
        try:
            checks = [dict(c, scenario=r["scenario"])
                      for r in parse_verdicts(text) for c in r["checks"]]
            got = [(c["scenario"], c["name"], c["samples"]) for c in checks]
            passed = [c["passed"] is True and c["max_defect"] <= c["tolerance"]
                      for c in checks]
            margins = [_margin(c) for c in checks]
        except (ValueError, KeyError, TypeError):
            checks, got, passed, margins = [], [], [], []
        self.passed = sum(passed)
        self.ok = code == 0 and got == expected and all(passed)
        self.samples = sum(c["samples"] for c in checks)
        self.samples_by_check = Counter()
        for c in checks:
            self.samples_by_check[c["name"]] += c["samples"]
        self.margin = min(margins, default=-MARGIN_CAP)


def _margin(check):
    """Decades between a check's tolerance and its worst defect."""
    defect, tolerance = check["max_defect"], check["tolerance"]
    if not math.isfinite(defect):
        return -MARGIN_CAP
    if defect <= 0.0:
        return MARGIN_CAP
    return min(MARGIN_CAP, math.log10(tolerance / defect))


def tail(times):
    """(percentile, value) with ten repetitions beyond it, when the
    percentile lies above the median; otherwise None."""
    n = len(times)
    if n < 21:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


def recorded_digest(workload, seed):
    path = BENCH / "baseline.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get("digests", {}) \
        .get(workload, {}).get(str(seed))


class Runner:
    """Repeats verify-all and keeps every verdict it has seen."""

    def __init__(self, cli, directory, configs):
        self.cli, self.directory, self.configs = cli, directory, configs
        self.verdicts = {}
        self.history = []

    def rep(self):
        wall, code, text = verify_all(self.cli, self.directory)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if (digest, code) not in self.verdicts:
            self.verdicts[(digest, code)] = Verdict(code, text, self.configs)
        self.history.append((digest, code))
        return wall, self.verdicts[(digest, code)]

    def reps_until(self, deadline, minimum):
        times = []
        while len(times) < minimum or time.perf_counter() < deadline:
            times.append(self.rep()[0])
        return times

    @property
    def attempted(self):
        return sum(self.verdicts[d].attempted for d in self.history)

    @property
    def failed(self):
        return sum(self.verdicts[d].attempted - self.verdicts[d].passed
                   for d in self.history)

    @property
    def verdict(self):
        return self.verdicts[self.history[0]]

    @property
    def correct(self):
        return len(self.verdicts) == 1 and self.verdict.ok


def end_to_end(runner, reference, seconds, setups, log):
    runner.rep()  # warm-up, not timed
    deadline = time.perf_counter() + seconds
    calibrations, walls, times = [calibration()], [], []
    while len(times) < MIN_REPS or time.perf_counter() < deadline:
        walls.append(runner.rep()[0])
        calibrations.append(calibration())
        times.append(at_reference_speed(
            walls[-1], (calibrations[-2] + calibrations[-1]) / 2.0))
    reference.rep()
    median = statistics.median(times)
    log(f"verify_all_s: median {median:.4f} s at reference speed over "
        f"{len(times)} reps (warm-up excluded); raw wall median "
        f"{statistics.median(walls):.4f} s, calibration median "
        f"{1e3 * statistics.median(calibrations):.2f} ms")
    t = tail(times)
    log(f"verify_all_s: p{t[0]:.0f} {t[1]:.4f} s (10 reps beyond it)" if t
        else "verify_all_s: too few reps for a tail above the median")
    log("setup_s samples (raw s, calibration ms): " + " ".join(
        f"{s:.4f}/{1e3 * c:.2f}" for s, c in setups))
    attempted = runner.attempted + reference.attempted
    return {
        "verify_all_s": (median, "s"),
        "samples_per_s": (runner.verdict.samples / median, "samples/s"),
        "setup_s": (statistics.median(
            at_reference_speed(s, c) for s, c in setups), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "passed_share": (
            (attempted - runner.failed - reference.failed) / attempted,
            "share"),
        "defect_margin_decades": (reference.verdict.margin, "decades"),
    }


def per_layer(runner, seconds, workload, log):
    import layers
    import tracer as tracing

    runner.rep()  # warm-up, not timed
    start = time.perf_counter()
    plain = runner.reps_until(start + seconds / 2.0, MIN_REPS)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    check_names = sorted({c["name"] for w in workloads.WORKLOADS
                          for cfg in workloads.generate(w, REFERENCE_SEED)
                          for c in cfg["checks"]})
    reps = []
    while len(reps) < MIN_TRACED_REPS or time.perf_counter() < start + seconds:
        tracer.reset()
        wall, verdict = runner.rep()
        summary = tracing.summarize(tracer)
        reps.append((wall, summary[0], layers.layer_metrics(
            summary, tracer.counts, tracer.errors, wall,
            verdict.samples_by_check, check_names)))
    WORK.mkdir(exist_ok=True)
    tracer.save(WORK / f"spans-{workload}.npz")

    counts = [{k: v for k, (v, _, kind) in m.items() if kind == "count"}
              for _, _, m in reps]
    repeat = all(c == counts[0] for c in counts)
    traced = [wall for wall, _, _ in reps]
    log(f"traced reps: {len(reps)}, counts identical: {repeat}; "
        f"untraced reps: {len(plain)} (warm-up excluded)")
    wall, per_name, typical = sorted(reps, key=lambda r: r[0])[len(reps) // 2]
    self_ms = sum(v for k, (v, _, _) in typical.items()
                  if k.endswith(".self_ms"))
    outside_ms = typical["trace.outside_ms"][0]
    log(f"accounting (median traced rep): layer self times {self_ms:.3f} ms "
        f"+ outside {outside_ms:.3f} ms = {self_ms + outside_ms:.3f} ms; "
        f"traced wall {1e3 * wall:.3f} ms")
    for name, (calls, incl, own) in sorted(per_name.items(),
                                           key=lambda item: -item[1][2]):
        log(f"span {name}: {calls} calls, {1e6 * incl / calls:.2f} us "
            f"incl/call, {1e3 * own:.3f} ms self")
    metrics = {k: (counts[0][k] if kind == "count" else
                   statistics.median(m[k][0] for _, _, m in reps), unit)
               for k, (_, unit, kind) in typical.items()}
    metrics["trace.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    return metrics, repeat


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every check's sample count")
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(f"{setup(args.setup_probe):.9f} {calibration():.9f}")
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not (SRC / "disconn" / "__init__.py").is_file():
        print(f"error: no disconn sources under {SRC}", file=sys.stderr)
        return 2

    def log(line):
        print(f"# {line}", flush=True)

    seeds = {"seeded": args.seed, "reference": REFERENCE_SEED}
    configs = {label: workloads.generate(args.workload, seed, args.scale)
               for label, seed in seeds.items()}
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    for label, cfgs in configs.items():
        workloads.write(cfgs, run_dir / label)
    try:
        setups = [(setup(run_dir / "seeded"), calibration())]
        from disconn import cli
        import numpy
        log(f"machine: nproc {os.cpu_count()}, python "
            f"{platform.python_version()}, numpy {numpy.__version__}")
        log(f"workload {args.workload}, seed {args.seed}: "
            f"{len(configs['seeded'])} scenarios, "
            f"{sum(len(c['checks']) for c in configs['seeded'])} checks")
        runners = {label: Runner(cli, run_dir / label, cfgs)
                   for label, cfgs in configs.items()}
        if args.trace:
            del runners["reference"]
            metrics, repeat = per_layer(runners["seeded"], args.seconds,
                                        args.workload, log)
        else:
            setups += [probe_setup(run_dir / "seeded")
                       for _ in range(SETUP_SAMPLES - 1)]
            metrics = end_to_end(runners["seeded"], runners["reference"],
                                 args.seconds, setups, log)
            repeat = True
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for label, runner in runners.items():
        digest, code = runner.history[0]
        recorded = recorded_digest(args.workload, seeds[label]) \
            if args.scale == 1.0 else None
        verdict = runner.verdict
        log(f"{label} verdict (seed {seeds[label]}): exit {code}, "
            f"{verdict.passed}/{verdict.attempted} checks PASS, "
            f"{verdict.samples} samples, identical over "
            f"{len(runner.history)} reps: {len(runner.verdicts) == 1}")
        log(f"{label} verdict sha256 {digest}; recorded: "
            + ("none" if recorded is None else
               "match" if recorded == digest else f"MISMATCH {recorded}"))
    print(json.dumps({
        "correct": repeat and all(r.correct for r in runners.values()),
        "attempted": sum(r.attempted for r in runners.values()),
        "failed": sum(r.failed for r in runners.values()),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
