"""Per-layer metrics from one traced `verify-all`.

Each layer is a disconn module.  The comment on each group names the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS, function_of, layer_of


def _per_function(per_name):
    """Aggregate span names that differ only by a [presentation] suffix."""
    out = {}
    for name, (calls, incl, own) in per_name.items():
        c, i, o = out.get(function_of(name), (0, 0.0, 0.0))
        out[function_of(name)] = (c + calls, i + incl, o + own)
    return out


def _incl_us(fn, name):
    calls, incl, _ = fn.get(name, (0, 0.0, 0.0))
    return 1e6 * incl / calls if calls else 0.0


def layer_metrics(summary, counts, errors, wall_s, samples_by_check,
                  check_names):
    """Metric name -> (value, unit, kind) where kind is 'count' for values
    that must repeat exactly between traced runs and 'time' otherwise."""
    per_name, covered_s, under, durations = summary
    fn = _per_function(per_name)
    layer = {name: [0, 0.0] for name in LAYERS}
    for name, (calls, _, own) in per_name.items():
        layer[layer_of(name)][0] += calls
        layer[layer_of(name)][1] += own

    def calls_of(name):
        return fn.get(name, (0, 0.0, 0.0))[0]

    def incl_ms(*names):
        return 1e3 * sum(fn.get(n, (0, 0.0, 0.0))[1] for n in names)

    out = {}

    def count(name, value):
        out[name] = (value, "count", "count")

    def ms(name, value):
        out[name] = (value, "ms", "time")

    def us(name, value):
        out[name] = (value, "us", "time")

    def self_ms(name):
        ms(f"{name}.self_ms", 1e3 * layer[name][1])

    # groups, bundles: samples_per_s on breadth and matched-deep (stacked
    # abelian ops); bundles also verify_all_s on hopf-newton (any_lift).
    for name in ("groups", "bundles"):
        calls, own = layer[name]
        count(f"{name}.calls", calls)
        self_ms(name)
        us(f"{name}.self_us_per_call", 1e6 * own / calls if calls else 0.0)
    us("bundles.any_lift.incl_us", _incl_us(fn, "bundles.any_lift"))

    # manifolds: verify_all_s on hopf-newton; no change on matched-deep.
    solves = calls_of("manifolds.invert_extended")
    residuals = under("integration.reduced_step", "manifolds.invert_extended")
    count("manifolds.newton_solves", solves)
    out["manifolds.newton_residuals_per_solve"] = (
        residuals / solves if solves else 0.0, "count/solve", "count")
    count("manifolds.newton_failures",
          errors.get(("manifolds.invert_extended", "NewtonDivergence"), 0))
    us("manifolds.invert_extended.incl_us",
       _incl_us(fn, "manifolds.invert_extended"))
    self_ms("manifolds")

    # connections, discrete, derivation: verify_all_s on matched-deep and
    # hopf-newton; eval_discrete per call gives the local / integrated
    # table, pair_derivative the cost of one derived-connection value.
    for name in ("connections.eval_connection", "discrete.eval_discrete",
                 "derivation.pair_derivative"):
        count(f"{name}.calls", calls_of(name))
        us(f"{name}.incl_us", _incl_us(fn, name))
    count("derivation.nondifferentiable", sum(
        n for (span, exc), n in errors.items()
        if exc == "NonDifferentiable" and layer_of(span) == "derivation"))
    for name in ("connections", "discrete", "derivation"):
        self_ms(name)

    # integration: verify_all_s on hopf-newton.
    count("integration.retract_bundle.calls",
          calls_of("integration.retract_bundle"))
    self_ms("integration")

    # abelian: verify_all_s and peak_rss_mb on matched-deep.
    lookups = calls_of("abelian.primitive_lookup")
    misses = under("numdiff.gauss_legendre_line_integral",
                   "abelian.primitive_lookup")
    count("abelian.primitive_lookups", lookups)
    count("abelian.segment_integrals", misses)
    out["abelian.primitive_hit_ratio"] = (
        (lookups - misses) / lookups if lookups else 0.0, "ratio", "count")
    self_ms("abelian")

    # numdiff: verify_all_s on matched-deep (Richardson in quadrature in
    # Richardson); little change on hopf-newton.
    for short, name in (("richardson", "numdiff.richardson_derivative"),
                        ("quadrature", "numdiff.gauss_legendre_line_integral")):
        count(f"numdiff.{short}.calls", calls_of(name))
        count(f"numdiff.{short}.f_evals",
              counts.get(f"numdiff.{short}.f_evals", 0))
    self_ms("numdiff")

    # scenarios, cli: setup_s and verify_all_s on breadth.
    ms("scenarios.setup_ms",
       incl_ms("scenarios.load_scenario", "scenarios.context"))
    checks_ms = [1e3 * d for d in durations("scenarios.check.")]
    ms("scenarios.check_ms_p50", statistics.median(checks_ms))
    ms("scenarios.check_ms_max", max(checks_ms))
    for check in check_names:
        samples = samples_by_check.get(check, 0)
        out[f"scenarios.check.{check}.ms_per_sample"] = (
            incl_ms(f"scenarios.check.{check}") / samples if samples else 0.0,
            "ms/sample", "time")
    self_ms("scenarios")
    ms("cli.report_ms", incl_ms("cli.emit_report"))
    self_ms("cli")

    ms("trace.outside_ms", 1e3 * (wall_s - covered_s))
    return out
