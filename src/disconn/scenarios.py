"""Scenario configuration: builtins, deterministic sampling, named checks.

A scenario is a JSON object describing a bundle, optionally a connection
and one or more discrete connections, and a list of named checks with
tolerances; it is the only source of a run's settings.  Sampling is
driven by a counter-based PRNG (Philox) keyed by the scenario seed and the
check index, so reports are deterministic for a fixed config.

The sampling rule.  Each context owns one Philox bit generator, built
(and `numpy.random` imported) on its first draw; `ScenarioContext.rng`
re-keys it for each check, to the stream a fresh `Philox(key=[seed, k])`
gives.  A check takes its raw values in the order of a loop over the
samples: the blocks of sample i in a fixed order (the
`ScenarioContext` `*_block` fields: base point, algebra vector,
tangent, ...), then those of sample i + 1, so sample i takes the
same values whatever the sample count.  Every block is uniform, so a
stack is one generator call, split per block (`_draws`), and sample i of
K values starts at raw value i * K of the stream.  A sphere base is the
radial projection of a uniform point of the cube [-1, 1)^d: every point
of the sphere can be drawn, at a density that varies by at most 3 sqrt 3
on S^2 between corner and face-centre directions.  The check then builds
its points, tangents and group elements once on the stacked draws, sample
axis last, and makes one library call per evaluation.  `run_check`
hands a check at most STACK_SAMPLES samples per call, all from the
check's one stream, and reports the worst defect over the calls
(`distinctness`, which evaluates one designated pair, is called once); a
sample gets the bits of its column whatever the stack it is in, so
neither the stack size nor the split changes a verdict.
Sample i of check k can thus be replayed from (seed, k, i).

Schema (`load_scenario` rejects unknown keys, unknown `integrator` and
builtin keys included, malformed values, and a scenario that lacks what
one of its checks reads, with a `ParseError`):

    {
      "name": str,
      "seed": int in [0, 2**64),
      "sample_count": int in [1, MAX_SAMPLES], # default 100
      "box": [[lo, hi], ...],                  # base sampling box, optional,
                                               # only on an R^d base
      "bundle": {"kind": "trivial",
                 "base": {"kind": "R^d", "dim": int in [1, MAX_DIM]}
                         | {"kind": "S2"},
                 "group": {"kind": "R^k"|"T^n", "dim": int in [1, MAX_DIM]}
                          | {"kind": "U1"|"SO3"}}
                | {"kind": "hopf"},  # only with hopf_* and integrated kinds
      "connection": {"kind": "local", "omega": <builtin>}
                    | {"kind": "hopf_canonical"}
                    | {"kind": "hopf_perturbed", "epsilon": float},
      "discrete": <spec> | [<spec>, ...] where <spec> is
                  {"kind": "local", "pair_map": <builtin>}
                  | {"kind": "integrated"}  # needs a connection
                  | {"kind": "flat", "omega": <builtin>}  # the matched
                    # integral of omega against the "zero" pair map
                  | {"kind": "matched",     # needs a local connection
                     "reference": <spec> of kind local},  # the same
                    # curvature, decided on the tables (_require_closed);
                    # flat and matched need an R^d base
      "integrator": {"retraction": "straight"|"exp"|"skewed"  # trivial
                                   |"great_circle"|"chart",  # hopf
                     "domain_radius": float > 0},  # default from the
                                                   # base: pi/2 on spheres
      "checks": [{"name": key of CHECKS, "tolerance": float > 0,  # default 1e-8
                  "samples": int in [1, MAX_SAMPLES],
                  "pair": [[x, ...], [x, ...]],  # these three on
                  "fiber": [[g, ...], [g, ...]],  # distinctness only
                  "min_difference": float > 0}, ...]
    }

The default retraction is "straight", on the Hopf bundle "great_circle".
Each check's `_check` declares what it reads besides the bundle
(retraction_axioms uses a connection if one is given).

A builtin is a table of terms (c, p, r), c * prod x^p * prod y^r, on the
blocks (x, y) = (m, v) of a one-form or (mid, delta) = (0.5 * (m0 + m1),
m1 - m0) of a pair map, whose derived connection is its part linear in
delta (trapezoid_x_dy is x_dy's table); one that reads more coordinates
than the base has is rejected.  One-forms: "zero", "x_dy", "y_dx",
"closed_xy", "x_dy_plus_dx2", or {"name": "polynomial", "terms": [{"coeff":
c, "powers": p, "dx": j}, ...]}, the terms (c, p, e_j) on d coordinates:
c finite, at most d non-negative integer powers of total degree at most
MAX_DEGREE, 0 <= j < d.  Pair maps: "zero", "trapezoid_x_dy", "left_x_dy",
or {"name": "quadratic_f", "f": "zero" | "one"}, delta_0^2 f with f = 0 or
1.  Builtin objects take no other keys.

A flat or matched discrete is a pair-map table too: the reference's terms
("zero"'s none for flat), then the integral over the segment m0 -> m1 of
eps = omega - omega_ref, which `_segment_integral` expands exactly; one
whose expansion overflows a coefficient is a `ParseError`.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys

import numpy as np

from . import (abelian, bundles, connections, derivation, discrete, groups,
               integration, manifolds)
from .bundles import BundlePoint, HopfBundle, TrivialBundle
from .errors import CurvatureMismatch, ParseError
from .manifolds import EuclideanChart, Sphere
from .numdiff import _column_norm, worst_defect


# ---------------------------------------------------------------------------
# Builtins

# Largest total degree of a polynomial term.  It bounds the segment
# integral's expansion: a term of degree K expands into at most 2^K
# binomial terms, one per subset of its K linear factors, and
# `_segment_integral` keeps those of even degree in s, at most 2^14.
MAX_DEGREE = 15


def _is_term(term, size):
    """A polynomial term on `size` coordinates: a finite coefficient, at
    most `size` non-negative integer powers of total degree at most
    MAX_DEGREE, and a differential index."""
    return (isinstance(term, dict) and set(term) == {"coeff", "powers", "dx"}
            and _is_number(term["coeff"])
            and isinstance(term["powers"], list)
            and len(term["powers"]) <= size
            and all(_is_int(p) and p >= 0 for p in term["powers"])
            and sum(term["powers"]) <= MAX_DEGREE
            and _is_int(term["dx"]) and 0 <= term["dx"] < size)


# The builtin tables (see the module docstring) of each kind: on (m, v)
# for a one-form and on (mid, delta) for a pair map; quadratic_f's by its f.
_X_DY = [(1, [1], [0, 1])]
_BUILTINS = {
    "one-form": {"zero": [], "x_dy": _X_DY, "y_dx": [(1, [0, 1], [1])],
                 "closed_xy": [(1, [0, 1], [1]), *_X_DY],
                 "x_dy_plus_dx2": [*_X_DY, (2, [1], [1])]},
    "pair-map": {"zero": [], "trapezoid_x_dy": _X_DY,
                 "left_x_dy": [*_X_DY, (-0.5, [], [1, 1])]}}
_QUADRATIC_F = {"zero": [], "one": [(1, [], [2])]}


def _builtin_table(spec, bundle, kind):
    """(table, name) of a builtin of the kind, "one-form" or "pair-map",
    checked to fit the bundle: its group is one-dimensional, and no term
    reads more coordinates than the base has.  A one-form object is a
    polynomial, a pair-map object a quadratic_f."""
    size = bundle.base.coord_size
    one_form = kind == "one-form"
    name, key = ("polynomial", "terms") if one_form else ("quadratic_f", "f")
    if isinstance(spec, str):
        if spec not in _BUILTINS[kind]:
            raise ParseError(f"unknown {kind} builtin {spec!r}")
        table, name = _BUILTINS[kind][spec], spec
    elif isinstance(spec, dict) and spec.get("name") == name:
        unknown = set(spec) - {"name", key}
        if unknown:
            raise ParseError(f"unknown {name} keys: {sorted(unknown)}")
        value = spec.get(key)
        if not one_form:
            if not (isinstance(value, str) and value in _QUADRATIC_F):
                raise ParseError(f"unknown f table {value!r}")
            table = _QUADRATIC_F[value]
        elif isinstance(value, list) and all(_is_term(t, size)
                                             for t in value):
            table = [(t["coeff"], t["powers"], [0] * t["dx"] + [1])
                     for t in value]
        else:
            raise ParseError(f"bad polynomial terms: {value!r}")
    else:
        raise ParseError(f"unknown {kind} spec {spec!r}")
    if bundle.group.dim != 1:
        raise ParseError(f"builtin {kind}s target one-dimensional "
                         f"{'algebras' if one_form else 'groups'}")
    if any(max(len(p), len(r)) > size for _, p, r in table):
        raise ParseError(f"builtin {name!r} reads too many coordinates")
    return table, name


def _polynomial(table):
    """The evaluator (x, y) -> sum of the table's terms, 0.0 for none.  A
    term keeps only the factors that cost work: its coefficient unless it
    is 1, and each coordinate of non-zero power, read as is at power 1."""
    terms = []
    for c, p, r in table:
        factors = [(block, i, e) for block, powers in enumerate((p, r))
                   for i, e in enumerate(powers) if e]
        terms.append((None if c == 1 and factors else float(c), factors))

    def evaluate(x, y):
        blocks = (x, y)
        total = None
        for value, factors in terms:
            for block, i, e in factors:
                f = blocks[block][i] if e == 1 else blocks[block][i] ** e
                value = f if value is None else value * f
            total = value if total is None else total + value
        return 0.0 if total is None else total

    return evaluate


def _local_connection(bundle, table):
    omega = _polynomial(table)
    return connections.TrivialLocalConnection(
        bundle, lambda m, v: np.array([omega(m, v)]))


def one_form_builtin(spec, bundle):
    """Resolve a one-form builtin to a local connection and its table, which
    a matched discrete reads."""
    table, _ = _builtin_table(spec, bundle, "one-form")
    return _local_connection(bundle, table), table


def _pair_map(bundle, table, name, domain_radius):
    """The local discrete connection of a pair-map table."""
    rule = _polynomial(table)
    # A block that no term reads is not computed.
    mid, delta = (any(any(term[b]) for term in table) for b in (1, 2))
    return discrete.TrivialLocalDiscrete(
        bundle, lambda m0, m1: np.array([rule(
            0.5 * (m0 + m1) if mid else None, m1 - m0 if delta else None)]),
        domain_radius, name=name)


def pair_map_builtin(spec, bundle,
                     domain_radius) -> discrete.TrivialLocalDiscrete:
    """Resolve a pair-map builtin to a local discrete connection on the
    trivial bundle."""
    return _pair_map(bundle, *_builtin_table(spec, bundle, "pair-map"),
                     domain_radius)


def _linear_terms(table):
    """A pair map's terms of degree 1 in delta, its derived connection's:
    none is free of delta, so C(m, m + t v) = t `_linear_terms` + O(t^2)."""
    return [(c, p, r) for c, p, r in table if sum(r) == 1]


def _segment_integral(table):
    """The pair-map table of the integral of the one-form table over the
    segment m0 -> m1, exact up to the rounding of its coefficients.  On
    x = mid + s delta, s in [-1/2, 1/2], the term c x^p dx_j is c prod_i
    (mid_i + s delta_i)^p_i delta_j ds; each binomial term of s^K
    integrates to 0 for odd K and to 1 / ((K + 1) 2^K) for even K.  The
    factor is rounded before it scales c, so a finite c near the float
    limit stays finite where the factor is below 1."""
    terms = []
    for c, p, r in table:
        j = r.index(1)
        for k in itertools.product(*(range(e + 1) for e in p)):
            K = sum(k)
            if K % 2 == 0:
                factor = math.prod(map(math.comb, p, k)) / ((K + 1) << K)
                delta = [*k, *[0] * (j + 1 - len(k))]
                delta[j] += 1
                terms.append((c * factor, [e - i for e, i in zip(p, k)],
                              delta))
    return terms


# Relative tolerance of the curvature-matched gate, `_require_closed`.
MATCH_TOL = 1e-8


def _require_closed(table):
    """Raise CurvatureMismatch unless the one-form table is closed, decided
    on its terms, whatever the box.  d(c x^p dx_j) is the sum over i of
    c p_i x^(p - e_i) dx_i ^ dx_j; each coefficient of the table's d must
    cancel to within MATCH_TOL of the sum of its terms' magnitudes, summed
    exactly: a float is an integer over a power of two, as is each term."""
    coefficients = {}  # i < j and the monomial's (k, non-zero power) pairs
    for c, p, r in table:
        n, d = float(c).as_integer_ratio()
        j = r.index(1)
        for i, e in enumerate(p):
            if e and i != j:  # dx_i ^ dx_j = -dx_j ^ dx_i
                key = (min(i, j), max(i, j), *((k, x - (k == i))
                       for k, x in enumerate(p) if x - (k == i)))
                coefficients.setdefault(key, []).append(
                    (n * e * (1 if i < j else -1), d))
    tol_n, tol_d = MATCH_TOL.as_integer_ratio()
    for (i, j, *_), terms in coefficients.items():
        common = max(d for _, d in terms)
        terms = [n * (common // d) for n, d in terms]
        total, size = abs(sum(terms)), sum(map(abs, terms))
        if total * tol_d > tol_n * size:
            raise CurvatureMismatch(
                f"curvature differs from the reference's: d(A - A_ref) has "
                f"a dx{i}^dx{j} coefficient of {total / size:.3e} times its "
                f"terms' magnitude, beyond {MATCH_TOL:.0e}")


# ---------------------------------------------------------------------------
# Context construction

DEFAULT_TOLERANCE = 1e-8
# Largest sample count and largest R^d, R^k or T^n dimension a scenario may
# ask for.  A check's time grows with its samples and its arrays with the
# dimension; the bundled scenarios and the benchmark stay at 100 samples
# and dimension 3.
MAX_SAMPLES = 100_000
MAX_DIM = 16
# Most samples a check evaluates in one stack: `run_check` hands it the
# samples in stacks of at most this many, so memory does not grow with the
# sample count.  The bundled scenarios and the benchmark fit in one stack.
STACK_SAMPLES = 100


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_count(value, most):
    return _is_int(value) and 0 < value <= most


def _is_number(value):
    if _is_int(value):  # math.isfinite raises on an int beyond float range
        return abs(value) <= sys.float_info.max
    return isinstance(value, float) and math.isfinite(value)


def _is_positive(value):
    return _is_number(value) and value > 0


def _is_numbers(value, size=None):
    return isinstance(value, list) and all(map(_is_number, value)) \
        and size in (None, len(value))


def _is_rows(value, rows=None, size=None):
    """A list of `rows` lists of `size` numbers each; None means any."""
    return isinstance(value, list) and rows in (None, len(value)) \
        and all(_is_numbers(row, size) for row in value)


_is_sample_count = functools.partial(_is_count, most=MAX_SAMPLES)
_is_dim = functools.partial(_is_count, most=MAX_DIM)

_LOCAL = {"pair_map": (str, dict)}

# Object types of the schema: {key: test}, or {"kind": {tag: {key: test}}}
# for a tagged object.  A test is a predicate, a tuple of Python types, a
# type name, or [type name] for a list; a key ending in "?" is optional.
_SCHEMA = {
    "scenario": {
        "name": (str,), "seed": lambda v: _is_int(v) and 0 <= v < 2 ** 64,
        "sample_count?": _is_sample_count, "bundle": "bundle",
        "box?": functools.partial(_is_rows, size=2),
        "connection?": "connection", "integrator?": "integrator",
        "discrete?": (dict, list),
        "checks?": ["check"]},
    "bundle": {"kind": {"trivial": {"base": "base", "group": "group"},
                        "hopf": {}}},
    "base": {"kind": {"R^d": {"dim": _is_dim}, "S2": {}}},
    "group": {"kind": {"R^k": {"dim": _is_dim}, "T^n": {"dim": _is_dim},
                       "U1": {}, "SO3": {}}},
    "connection": {"kind": {"local": {"omega": (str, dict)},
                            "hopf_canonical": {},
                            "hopf_perturbed": {"epsilon?": _is_number}}},
    "discrete": {"kind": {"local": _LOCAL, "integrated": {},
                          "flat": {"omega": (str, dict)},
                          "matched": {"reference": "reference"}}},
    # Local only: the matched gate reads its derived connection's table.
    "reference": {"kind": {"local": _LOCAL}},
    "integrator": {"retraction?": (str,), "domain_radius?": _is_positive},
    "check": {"name": lambda v: isinstance(v, str) and v in CHECKS,
              "samples?": _is_sample_count,
              "tolerance?": _is_positive,
              "pair?": functools.partial(_is_rows, rows=2),
              "fiber?": functools.partial(_is_rows, rows=2),
              "min_difference?": _is_positive},
}


def _table(fields):
    """(allowed keys, [(name, optional, test), ...]) of an object type."""
    tests = [(key.rstrip("?"), key.endswith("?"), test)
             for key, test in fields.items()]
    return frozenset(name for name, _, _ in tests), tests


# _SCHEMA compiled once, at import: a table per type, and per tag of a
# tagged type, whose "kind" is then known to be a str.
_TABLES = {name: {tag: _table({**tagged, "kind": (str,)})
                  for tag, tagged in fields["kind"].items()}
           if "kind" in fields else _table(fields)
           for name, fields in _SCHEMA.items()}


def _require(ok, message):
    # A message that must be formatted is raised explicitly, on failure.
    if not ok:
        raise ParseError(message)


def _validate(value, test, where):
    """Raise a ParseError unless value is of the type test names, or a
    list of that type for [type name], by its table in _TABLES.  Messages
    and the paths of leaf tests are formatted only when a test fails; the
    path of a nested object or list item is formatted as it is entered."""
    if isinstance(test, list):
        if not isinstance(value, list):
            raise ParseError(f"{where} must be a list")
        for i, item in enumerate(value):
            _validate(item, test[0], f"{where}[{i}]")
        return
    if not isinstance(value, dict):
        raise ParseError(f"{where} must be an object")
    table = _TABLES[test]
    if isinstance(table, dict):
        kind = value.get("kind")
        if not (isinstance(kind, str) and kind in table):
            raise ParseError(f"{where} needs a kind among {sorted(table)}")
        table = table[kind]
    allowed, fields = table
    unknown = value.keys() - allowed
    if unknown:
        raise ParseError(f"unknown {where} keys: {sorted(unknown)}")
    for name, optional, test in fields:
        if optional and name not in value:
            continue
        item = value.get(name)
        if isinstance(test, (str, list)):
            _validate(item, test, f"{where}.{name}")
        elif not (isinstance(item, test) if isinstance(test, tuple)
                  else test(item)):
            raise ParseError(f"bad {where}.{name}: {item!r}")


def _hopf_chart_retraction(bundle):
    """Straight steps in a fixed stereographic chart of S^3; breaks
    equivariance (negative control)."""
    sphere = bundle.total_space

    def step(q, v):
        return BundlePoint.hopf(
            bundle, sphere.chart_line_step(q.ambient, v))

    return manifolds.Retraction(bundle, step, np.pi / 2.0)


# The retraction rule each (bundle kind, integrator.retraction tag) names.
_RETRACTIONS = {
    ("trivial", "straight"): integration.trivial_product_retraction,
    ("trivial", "exp"): integration.trivial_product_retraction,
    ("trivial", "skewed"): integration.trivial_skewed_retraction,
    ("hopf", "great_circle"): integration.hopf_geodesic_retraction,
    ("hopf", "chart"): _hopf_chart_retraction,
}

# The manifold or group each base or group tag names, from its "dim".
_KINDS = {"R^d": EuclideanChart, "S2": lambda dim: Sphere(3),
          "R^k": groups.Translation, "T^n": groups.Torus,
          "U1": lambda dim: groups.Torus(1), "SO3": lambda dim: groups.SO3()}


def _discrete_specs(cfg):
    raw = cfg.get("discrete", [])
    return [raw] if isinstance(raw, dict) else raw


def _retraction_key(cfg):
    """(bundle kind, retraction tag), the tag "straight" or, on the Hopf
    bundle, "great_circle" by default."""
    kind = cfg["bundle"]["kind"]
    return kind, cfg.get("integrator", {}).get(
        "retraction", "great_circle" if kind == "hopf" else "straight")


def load_scenario(path):
    """Read a scenario file and check it against the schema, and that it
    holds what each of its checks reads (`_READS`)."""
    try:
        with open(path, encoding="utf-8") as fh:  # RFC 8259: JSON is UTF-8
            cfg = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot parse scenario {path}: {exc}") from exc
    _validate(cfg, "scenario", "scenario")
    hopf = cfg["bundle"]["kind"] == "hopf"
    connection = cfg.get("connection")
    _require(connection is None
             or connection["kind"].startswith("hopf") == hopf,
             "connection kind does not fit the bundle")
    euclidean = not hopf and cfg["bundle"]["base"]["kind"] == "R^d"
    specs = _discrete_specs(cfg)
    for i, spec in enumerate(specs):
        _validate(spec, "discrete", f"discrete[{i}]")
        _require(not hopf or spec["kind"] == "integrated",
                 "the Hopf bundle takes only integrated discretes")
        if connection is None and spec["kind"] in ("integrated", "matched"):
            raise ParseError(f"{spec['kind']} discrete needs a connection")
        # The segment m0 -> m1 that a flat or matched pair integrates over
        # must lie in the base.
        if spec["kind"] in ("flat", "matched") and not euclidean:
            raise ParseError(f"{spec['kind']} discrete needs an R^d base")
    kind, tag = _retraction_key(cfg)
    if (kind, tag) not in _RETRACTIONS:
        raise ParseError(f"unknown retraction {tag!r} on the {kind} bundle")
    has = {"a connection": connection is not None,
           "a local connection": (connection or {}).get("kind") == "local",
           "a discrete": len(specs) > 0, "two discretes": len(specs) > 1,
           "a Euclidean base": euclidean}
    for i, check in enumerate(cfg.get("checks", [])):
        has["a pair"] = "pair" in check
        missing = [need for need in sorted(_READS[check["name"]])
                   if not has[need]]
        if missing:
            raise ParseError(f"scenario.checks[{i}] ({check['name']}) "
                             f"needs {' and '.join(missing)}")
        if check["name"] == "distinctness":
            _require_pair_rows(cfg["bundle"], check)
        elif check.keys() & _PAIR_KEYS:
            raise ParseError(f"unknown scenario.checks[{i}] keys: "
                             f"{sorted(check.keys() & _PAIR_KEYS)} "
                             f"(only distinctness takes them)")
    return cfg


# The keys only a distinctness entry takes.
_PAIR_KEYS = {"pair", "fiber", "min_difference"}
_PAIR_MESSAGE = "distinctness pair is not a pair of points of the bundle"


def _require_pair_rows(spec, check):
    """A distinctness entry's pair and fiber rows are rows of two points
    of a trivial bundle, of the sizes of its base and its group; the
    context builds the points (`_pair_points`)."""
    _require(spec["kind"] == "trivial",
             "distinctness pair needs a trivial bundle")
    base, group = spec["base"], spec["group"]
    sizes = {"pair": _KINDS[base["kind"]](base.get("dim")).coord_size,
             "fiber": np.size(
                 _KINDS[group["kind"]](group.get("dim")).identity())}
    for key, size in sizes.items():
        if not _is_rows(check.get(key, []), size=size):
            raise ParseError(f"{_PAIR_MESSAGE}: {key} rows must have "
                             f"length {size}")


def _pair_points(bundle, check):
    """The distinctness pair's two points, by default at the identity: a
    ParseError if a row is not on the base or not in the group."""
    fiber = check.get("fiber") or [bundle.group.identity()] * 2
    try:
        return [BundlePoint.trivial(bundle, m, g)
                for m, g in zip(check["pair"], fiber)]
    except ValueError as exc:
        raise ParseError(f"{_PAIR_MESSAGE}: {exc}") from exc


def _build_bundle(spec):
    if spec["kind"] == "hopf":
        return HopfBundle()
    base, group = spec["base"], spec["group"]
    return TrivialBundle(_KINDS[base["kind"]](base.get("dim")),
                         _KINDS[group["kind"]](group.get("dim")))


class ScenarioContext:
    """Everything a check needs, built from a config load_scenario passed."""

    def __init__(self, cfg):
        self.name = cfg["name"]
        self.seed = int(cfg["seed"])
        self.sample_count = int(cfg.get("sample_count", 100))

        self.bundle = _build_bundle(cfg["bundle"])
        # The two points of each distinctness entry, built once, with the
        # context: (entry, points) pairs, found by the entry itself.
        self.pairs = [(check, _pair_points(self.bundle, check))
                      for check in cfg.get("checks", [])
                      if check["name"] == "distinctness"]
        # The blocks of values one sample takes (`_draws`): a base point, on
        # a sphere a point of the cube [-1, 1)^d that `base_points` projects
        # radially; an algebra vector, also the raw values of a group
        # element; a base tangent; a bundle tangent, a base and a fiber
        # block (on the Hopf bundle an ambient R^4 vector); a scale.
        base, group = self.bundle.base, self.bundle.group
        self.box, self.base_block = self._resolve_box(cfg.get("box"))
        self.algebra_block = _symmetric(group.dim)
        self.base_tangent_block = _symmetric(base.coord_size)
        self.tangent_block = _symmetric(base.coord_size + group.dim)
        self.scale_block = 0.05, 1.0 - 0.05
        self._generator = None

        self.domain_radius = float(cfg.get("integrator", {}).get(
            "domain_radius", self.bundle.base.default_radius))
        self.connection, self.omega_table = self._build_connection(
            cfg.get("connection"))
        self.retraction = _RETRACTIONS[_retraction_key(cfg)](self.bundle)
        self.discretes = [self._build_discrete(spec)
                          for spec in _discrete_specs(cfg)]

    # -- config resolution -------------------------------------------------
    def _resolve_box(self, box):
        """The base box, None on a sphere, and the base block: the box
        rows' read-only (low, span) columns, or on a sphere the cube
        [-1, 1)^d of its ambient coordinates."""
        base = self.bundle.base
        if not isinstance(base, EuclideanChart):
            _require(box is None, "box needs an R^d base")
            return None, _symmetric(base.coord_size)
        if box is None:
            box = [[-1.0, 1.0]] * base.dim
        _require(len(box) == base.dim, "box does not match base dimension")
        box = np.asarray(box, dtype=float)
        box.flags.writeable = False
        with np.errstate(over="ignore"):
            span = box[:, 1:] - box[:, :1]
        span.flags.writeable = False
        if not (np.all(span >= 0.0) and np.all(np.isfinite(span))):
            raise ParseError(f"box rows need lo <= hi and a width in float "
                             f"range: {box.tolist()}")
        return box, (box[:, :1], span)

    def _build_connection(self, spec):
        """The connection and, for a local one, its one-form's table."""
        if spec is None:
            return None, None
        kind = spec["kind"]
        if kind == "local":
            return one_form_builtin(spec["omega"], self.bundle)
        epsilon = spec.get("epsilon", 0.1) if kind == "hopf_perturbed" else 0
        return connections.HopfConnection(self.bundle, float(epsilon)), None

    def _build_discrete(self, spec):
        kind = spec["kind"]
        if kind == "local":
            return pair_map_builtin(spec["pair_map"], self.bundle,
                                    self.domain_radius)
        if kind == "integrated":
            return integration.integrate_connection(
                self.connection, self.retraction, self.domain_radius)
        if kind == "flat":
            table, _ = _builtin_table(spec["omega"], self.bundle, "one-form")
            reference = []  # the "zero" pair map's table
        else:
            table = self.omega_table
            reference, _ = _builtin_table(spec["reference"]["pair_map"],
                                          self.bundle, "pair-map")
        # eps = omega - omega_ref, the reference's derived connection.
        eps = [*table, *((-c, p, r) for c, p, r in _linear_terms(reference))]
        _require_closed(eps)
        integral = _segment_integral(eps)
        if not all(math.isfinite(c) for c, _, _ in integral):
            raise ParseError(f"{kind} discrete: its segment integral overflows")
        return _pair_map(self.bundle, [*reference, *integral], "matched",
                         self.domain_radius)

    def rng(self, stream):
        """The generator of one stream of the scenario seed, a check's
        index.  The context has one Philox bit generator, built on its
        first draw; each call re-keys it to counter 0 and key (seed,
        stream), the state of a fresh `Philox(key=[seed, stream])`.  So
        the generator returned is valid until the next call."""
        key = np.array([self.seed, stream], dtype=np.uint64)
        if self._generator is None:
            self._generator = np.random.Generator(np.random.Philox(key=key))
        self._generator.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": np.zeros(4, np.uint64), "key": key},
            "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
        return self._generator

    # -- samples built from raw draws, on stacks ---------------------------
    def base_points(self, raw):
        base = self.bundle.base
        if self.box is not None:
            return base.validate(raw)
        return base.validate(raw / _column_norm(raw))

    def points(self, raw_base, raw_group):
        q = bundles.section_over(self.bundle, self.base_points(raw_base))
        return bundles.act(self.bundle.group.exp(raw_group), q)

    def bundle_tangents(self, q, raw):
        if isinstance(self.bundle, TrivialBundle):
            size = self.bundle.base.coord_size
            base = self.bundle.base.project_tangent(q.base_point, raw[:size])
            return bundles.make_trivial_tangent(q, base, raw[size:])
        return self.bundle.total_space.project_tangent(q.ambient, raw)

    def nearby_points(self, q, raw_direction, raw_scale, raw_group,
                      radius_fraction):
        """Second points whose base distance from q stays inside the
        domain, from the draws (base tangent, scale, algebra)."""
        base = self.bundle.base
        m = bundles.project(q)
        direction = base.project_tangent(m, raw_direction)
        norm = _column_norm(direction)
        cap = min(self.domain_radius, 2.0)
        scale = np.where(norm > 1e-12, radius_fraction * cap * raw_scale
                         / np.maximum(norm, 1e-12), 0.0)
        stepped = base.validate(base.geodesic_step(m, scale * direction))
        over = bundles.section_over(self.bundle, stepped)
        return bundles.act(self.bundle.group.exp(raw_group), over)


# ---------------------------------------------------------------------------
# Named checks

@functools.cache
def _symmetric(size):
    """The uniform block of `size` values in [-1, 1), built once per size
    (at most 2 * MAX_DIM sizes) and read-only, since every context shares
    it."""
    low, span = np.full((size, 1), -1.0), np.full((size, 1), 2.0)
    low.flags.writeable = span.flags.writeable = False
    return low, span


def _draws(rng, n, *blocks):
    """The raw values of n samples, one array per block with the sample
    axis last: the blocks of a sample in the order given, then the next
    sample's, in the order of a loop over the samples.  A block (the
    `ScenarioContext` `*_block` fields) is its read-only (low, span)
    columns, one row per value, each value low + span * U for U uniform on
    [0, 1), as `rng.uniform(low, low + span)` draws it; a scalar (low,
    span) is one value per sample.  One generator call fills a
    sample-major stream, a row of K values per sample, so sample i starts
    at raw value i * K; it is split per block, each block's values low +
    span * U computed once on its whole stack."""
    shapes = [np.shape(low)[:-1] for low, _ in blocks]
    sizes = [math.prod(shape) for shape in shapes]
    ends = list(itertools.accumulate(sizes))
    stream = np.empty((n, ends[-1]))
    rng.random(out=stream)
    # Each block's rows are laid out C-contiguous, as a loop's np.stack of
    # the samples would lay them out.
    stream = np.ascontiguousarray(stream.T)
    return [low + span * stream[end - size:end].reshape(shape + (n,))
            for (low, span), shape, size, end in zip(blocks, shapes, sizes,
                                                     ends)]


def _forms(ctx, rng, n):
    """(m, u, w) stacks of base points and two tangents at them, for
    exterior derivatives and curvatures."""
    m, u, w = _draws(rng, n, ctx.base_block, ctx.base_tangent_block,
                     ctx.base_tangent_block)
    m = ctx.base_points(m)
    return m, *(ctx.bundle.base.project_tangent(m, x) for x in (u, w))


# What each check reads beyond the bundle and its own stream, and each
# check by name, both filled by `_check`; load_scenario rejects a scenario
# that lacks any read, so a check only evaluates.  "a pair" is the check
# entry's designated "pair".
_READS, CHECKS = {}, {}


def _check(*reads):
    """Register the decorated check_<name> as the check <name>, reading
    `reads`; the function itself stays the module's, which the benchmark
    tracer wraps."""
    def register(fn):
        name = fn.__name__.removeprefix("check_")
        _READS[name], CHECKS[name] = set(reads), fn
        return fn
    return register


@_check("a connection")
def check_connection_axioms(ctx, params, rng, n):
    A = ctx.connection
    m, h, v, xi, g = _draws(rng, n, ctx.base_block, ctx.algebra_block,
                            ctx.tangent_block, ctx.algebra_block,
                            ctx.algebra_block)
    q = ctx.points(m, h)
    return worst_defect([
        connections.verticality_defect(A, q, xi),
        connections.equivariance_defect(A, ctx.bundle.group.exp(g), q,
                                        ctx.bundle_tangents(q, v))])


@_check("a discrete")
def check_discrete_axioms(ctx, params, rng, n):
    Ad = ctx.discretes[0]
    m, h, d, s, h1, g, g2 = _draws(
        rng, n, ctx.base_block, ctx.algebra_block, ctx.base_tangent_block,
        ctx.scale_block, ctx.algebra_block, ctx.algebra_block,
        ctx.algebra_block)
    q0 = ctx.points(m, h)
    q1 = ctx.nearby_points(q0, d, s, h1, 0.4)
    return worst_defect(discrete.axiom_defects(
        Ad, ctx.bundle.group.exp(g), ctx.bundle.group.exp(g2), q0, q1))


@_check()
def check_retraction_axioms(ctx, params, rng, n):
    m, v = _draws(rng, n, ctx.base_block, ctx.base_tangent_block)
    m = ctx.base_points(m)
    if ctx.connection is not None:
        q = bundles.section_over(ctx.bundle, m)
        rule = integration.reduced_retraction(
            ctx.retraction, q, connections.horizontal_lifts(ctx.connection, q))
    else:
        rule = manifolds.metric_exponential(ctx.bundle.base)
    v = ctx.bundle.base.project_tangent(m, v)
    norm = _column_norm(v)
    cap = 0.2 * min(rule.domain_radius, 2.0)
    v = np.where(norm > cap, (cap / np.maximum(norm, cap)) * v, v)
    return worst_defect(manifolds.check_retraction_axioms(rule, m, v))


@_check()
def check_exp_log_roundtrip(ctx, params, rng, n):
    G = ctx.bundle.group
    xi, g = _draws(rng, n, ctx.algebra_block, ctx.algebra_block)
    xi = xi * 2.8 / np.sqrt(G.dim)
    g = G.exp(g)
    return worst_defect([_column_norm(G.log(G.exp(xi)) - xi),
                         G.distance(G.exp(G.log(g)), g)])


@_check("a connection", "a discrete")
def check_derive_roundtrip(ctx, params, rng, n):
    A = ctx.connection
    derived = derivation.derive_connection(ctx.discretes[0])
    m, h, v = _draws(rng, n, ctx.base_block, ctx.algebra_block,
                     ctx.tangent_block)
    q = ctx.points(m, h)
    v = ctx.bundle_tangents(q, v)
    lhs = connections.eval_connection(derived, q, v)
    rhs = connections.eval_connection(A, q, v)
    return worst_defect(_column_norm(lhs - rhs))


def _lift_defect(ctx, rng, n, A, Ad):
    """Worst distance between the derivative of the discrete horizontal
    lift of Ad and the horizontal lift of A, over n sampled points and
    base directions."""
    m, h, dm = _draws(rng, n, ctx.base_block, ctx.algebra_block,
                      ctx.base_tangent_block)
    q = ctx.points(m, h)
    dm = ctx.bundle.base.project_tangent(bundles.project(q), dm)
    direct = derivation.derive_horizontal(Ad, q, dm)
    lifted = connections.horizontal_lift(A, q, dm)
    return worst_defect(_column_norm(direct - lifted))


@_check("a connection", "a discrete")
def check_lift_roundtrip(ctx, params, rng, n):
    return _lift_defect(ctx, rng, n, ctx.connection, ctx.discretes[0])


@_check("a discrete")
def check_diagram(ctx, params, rng, n):
    """The lift round trip against the connection derived from Ad."""
    Ad = ctx.discretes[0]
    return _lift_defect(ctx, rng, n, derivation.derive_connection(Ad), Ad)


def _holonomy_gap(ctx, rng, n, d1, d2=None):
    """Worst distance between the triangle holonomies of d1 and d2, or of
    d1 and the identity when d2 is None, over n sampled triangles."""
    G = ctx.bundle.group
    nearby = (ctx.base_tangent_block, ctx.scale_block, ctx.algebra_block)
    m, h, *raw = _draws(rng, n, ctx.base_block, ctx.algebra_block, *nearby,
                        *nearby)
    q0 = ctx.points(m, h)
    q1 = ctx.nearby_points(q0, *raw[:3], 0.2)
    q2 = ctx.nearby_points(q0, *raw[3:], 0.2)
    pairs = discrete.triangle_pairs(q0, q1, q2)
    b1 = discrete.discrete_curvature(d1, pairs)
    b2 = (G.identity() if d2 is None
          else discrete.discrete_curvature(d2, pairs))
    return worst_defect(G.distance(b1, b2))


def _derived_curvature_gap(ctx, rng, n, *discretes):
    """Worst norm of the curvature of the connection derived from one
    discrete, or of the difference of two, over n sampled base points and
    pairs of directions."""
    derived = [derivation.derive_connection(Ad) for Ad in discretes]
    m, u, w = _forms(ctx, rng, n)
    values = [connections.curvature(A, m, u, w) for A in derived]
    return worst_defect(_column_norm(functools.reduce(np.subtract, values)))


@_check("a discrete")
def check_discrete_flatness(ctx, params, rng, n):
    return _holonomy_gap(ctx, rng, n, ctx.discretes[0])


@_check("a discrete", "a Euclidean base")
def check_derived_curvature(ctx, params, rng, n):
    return _derived_curvature_gap(ctx, rng, n, ctx.discretes[0])


@_check("two discretes", "a pair")
def check_distinctness(ctx, params, rng, n):
    q0, q1 = next(points for check, points in ctx.pairs if check is params)
    observed = ctx.bundle.group.distance(
        *(discrete.eval_discrete(Ad, q0, q1) for Ad in ctx.discretes[:2]))
    required = float(params.get("min_difference", 0.1))
    return worst_defect([required - observed])


@_check("two discretes", "a Euclidean base")
def check_same_derived_curvature(ctx, params, rng, n):
    return _derived_curvature_gap(ctx, rng, n, *ctx.discretes[:2])


@_check("two discretes")
def check_same_discrete_curvature(ctx, params, rng, n):
    return _holonomy_gap(ctx, rng, n, *ctx.discretes[:2])


@_check("a local connection")
def check_closed_form(ctx, params, rng, n):
    return abelian.worst_exterior_defect(ctx.connection, _forms(ctx, rng, n))


@_check("a connection")
def check_metric_invariance(ctx, params, rng, n):
    gm = integration.build_invariant_metric(ctx.connection)
    m, h, u, w, g = _draws(rng, n, ctx.base_block, ctx.algebra_block,
                           ctx.tangent_block, ctx.tangent_block,
                           ctx.algebra_block)
    q = ctx.points(m, h)
    u, w = (ctx.bundle_tangents(q, x) for x in (u, w))
    return worst_defect(integration.metric_invariance_defect(
        gm, ctx.bundle.group.exp(g), q, u, w))


@_check()
def check_retraction_equivariance(ctx, params, rng, n):
    m, h, v, g = _draws(rng, n, ctx.base_block, ctx.algebra_block,
                        ctx.tangent_block, ctx.algebra_block)
    q = ctx.points(m, h)
    v = ctx.bundle_tangents(q, v)
    norm = _column_norm(v)
    cap = 0.2 * min(ctx.retraction.domain_radius, 2.0)
    v = np.where(norm > cap, v * cap / np.maximum(norm, cap), v)
    return worst_defect(integration.equivariance_defect(
        ctx.retraction, ctx.bundle.group.exp(g), q, v))


def run_check(ctx, index, check_cfg):
    """Run one named check, an entry of the config ctx was built from;
    returns (max_defect, samples_used)."""
    name = check_cfg["name"]
    n = int(check_cfg.get("samples", ctx.sample_count))
    rng = ctx.rng(index)
    check = CHECKS[name]
    # distinctness evaluates one designated pair: one call, whatever n.
    starts = range(0, 1 if name == "distinctness" else n, STACK_SAMPLES)
    defect = worst_defect([
        check(ctx, check_cfg, rng, min(STACK_SAMPLES, n - start))
        for start in starts])
    return defect, n
