"""Scenario configuration: builtins, deterministic sampling, named checks.

A scenario is a JSON object describing a bundle, optionally a connection
and one or more discrete connections, and a list of named checks with
tolerances; it is the only source of a run's settings.  Sampling is
driven by a counter-based PRNG (Philox) keyed by the scenario seed and the
check index, so reports are deterministic for a fixed config.

Schema (`load_scenario` rejects unknown keys, unknown `integrator` and
builtin keys included, and malformed values with a `ParseError`):

    {
      "name": str,
      "seed": int in [0, 2**64),
      "sample_count": int in [1, MAX_SAMPLES], # default 100
      "box": [[lo, hi], ...],                  # base sampling box, optional,
                                               # only on an R^d base
      "bundle": {"kind": "trivial",
                 "base": {"kind": "R^d", "dim": int in [1, MAX_DIM]}
                         | {"kind": "S2"|"S3"},
                 "group": {"kind": "R^k"|"T^n", "dim": int in [1, MAX_DIM]}
                          | {"kind": "U1"|"SO3"}}
                | {"kind": "hopf"},  # only with hopf_* and integrated kinds
      "connection": {"kind": "local", "omega": <builtin>}
                    | {"kind": "hopf_canonical"}
                    | {"kind": "hopf_perturbed", "epsilon": float},
      "discrete": <spec> | [<spec>, ...] where <spec> is
                  {"kind": "local", "pair_map": <builtin>}
                  | {"kind": "integrated"}
                  | {"kind": "flat", "omega": <builtin>}
                  | {"kind": "matched",
                     "reference": <spec> other than matched},
      "integrator": {"retraction": "straight"|"exp"|"great_circle"
                                   |"skewed"|"chart",
                     "domain_radius": float},  # default from the base:
                                               # pi/2 on spheres
      "checks": [{"name": str, "tolerance": float > 0,  # default 1e-8
                  "samples": int in [1, MAX_SAMPLES],
                  "pair": [[x, ...], [x, ...]],
                  "fiber": [[g, ...], [g, ...]],
                  "min_difference": float > 0}, ...]
    }

One-form builtins: "zero", "x_dy", "closed_xy", "x_dy_plus_dx2", "dy",
"dx", "y_dx", or {"name": "polynomial", "terms": [{"coeff": c,
"powers": [...], "dx": j}, ...]} on d base coordinates, with c finite,
at most d non-negative integer powers in float range and 0 <= j < d.
Pair-map builtins: "zero", "trapezoid_x_dy", "left_x_dy", or {"name":
"quadratic_f", "f": "zero" | "one" | "sin_product" | {"const": value}}.
Builtin objects take no other keys.
"""

from __future__ import annotations

import functools
import json
import math
import sys

import numpy as np

from . import (abelian, bundles, connections, derivation, discrete, groups,
               integration, manifolds)
from .bundles import BundlePoint, DomainSpec, HopfBundle, TrivialBundle
from .errors import ParseError, UnknownBuiltin
from .manifolds import EuclideanChart, Sphere
from .numdiff import worst_defect


def rng_for(seed, stream):
    """Counter-based generator for one check of one scenario."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Builtins

def _is_term(term, size):
    """A polynomial term on `size` coordinates: a finite coefficient, at
    most `size` non-negative integer powers in float range and a
    differential index."""
    return (isinstance(term, dict) and set(term) == {"coeff", "powers", "dx"}
            and _is_number(term["coeff"])
            and isinstance(term["powers"], list)
            and len(term["powers"]) <= size
            and all(_is_int(p) and p >= 0 and _is_number(p)
                    for p in term["powers"])
            and _is_int(term["dx"]) and 0 <= term["dx"] < size)


def _polynomial_rule(terms, size):
    _require(isinstance(terms, list)
             and all(_is_term(t, size) for t in terms),
             f"bad polynomial terms: {terms!r}")
    terms = [(float(t["coeff"]), t["powers"], t["dx"]) for t in terms]

    def rule(m, v):
        total = 0.0
        for coeff, powers, dx in terms:
            mono = coeff
            for x, p in zip(m, powers):
                mono *= x ** p
            total += mono * v[dx]
        return total

    return rule


_OMEGA_BUILTINS = {
    "zero": lambda m, v: 0.0,
    "x_dy": lambda m, v: m[0] * v[1],
    "y_dx": lambda m, v: m[1] * v[0],
    "closed_xy": lambda m, v: m[1] * v[0] + m[0] * v[1],
    "x_dy_plus_dx2": lambda m, v: m[0] * v[1] + 2.0 * m[0] * v[0],
    "dy": lambda m, v: v[1],
    "dx": lambda m, v: v[0],
}


def one_form_builtin(spec, bundle) -> connections.TrivialLocalConnection:
    """Resolve a one-form builtin (string tag or polynomial table) to a
    local connection on the trivial bundle."""
    if isinstance(spec, str):
        if spec not in _OMEGA_BUILTINS:
            raise UnknownBuiltin(f"unknown one-form builtin {spec!r}")
        scalar = _OMEGA_BUILTINS[spec]
        name = spec
    elif isinstance(spec, dict) and spec.get("name") == "polynomial":
        _require_keys(spec, {"name", "terms"}, "polynomial")
        scalar = _polynomial_rule(spec.get("terms"), bundle.base.coord_size)
        name = "polynomial"
    else:
        raise UnknownBuiltin(f"unknown one-form spec {spec!r}")
    if bundle.group.dim != 1:
        raise ParseError("builtin one-forms target one-dimensional algebras")
    _probe(scalar, bundle.base.coord_size, name)
    return connections.TrivialLocalConnection(
        bundle, lambda m, v: np.array([scalar(m, v)]))


def pair_map_builtin(spec, group):
    """Resolve a pair-map builtin to (m0, m1) -> group element data."""
    if isinstance(spec, str):
        name = spec
        if spec == "zero":
            rule = lambda m0, m1: 0.0
        elif spec == "trapezoid_x_dy":
            rule = lambda m0, m1: 0.5 * (m0[0] + m1[0]) * (m1[1] - m0[1])
        elif spec == "left_x_dy":
            rule = lambda m0, m1: m0[0] * (m1[1] - m0[1])
        else:
            raise UnknownBuiltin(f"unknown pair-map builtin {spec!r}")
    elif isinstance(spec, dict) and spec.get("name") == "quadratic_f":
        name = "quadratic_f"
        _require_keys(spec, {"name", "f"}, "quadratic_f")
        f_spec = spec.get("f", "one")
        if f_spec == "zero":
            f = lambda x0, x1: 0.0
        elif f_spec == "one":
            f = lambda x0, x1: 1.0
        elif f_spec == "sin_product":
            f = lambda x0, x1: np.sin(x0 * x1)
        elif isinstance(f_spec, dict) and _is_number(f_spec.get("const")):
            _require_keys(f_spec, {"const"}, "f table")
            c = float(f_spec["const"])
            f = lambda x0, x1: c
        else:
            raise UnknownBuiltin(f"unknown f table {f_spec!r}")
        rule = lambda m0, m1: (m1[0] - m0[0]) ** 2 * f(m0[0], m1[0])
    else:
        raise UnknownBuiltin(f"unknown pair-map spec {spec!r}")
    if group.dim != 1:
        raise ParseError("builtin pair maps target one-dimensional groups")
    return (lambda m0, m1: np.array([rule(m0, m1)])), name


def _require_keys(spec, allowed, what):
    unknown = set(spec) - allowed
    _require(not unknown, f"unknown {what} keys: {sorted(unknown)}")


def _probe(rule, size, name):
    """Evaluate a builtin once, so one reading too many coordinates fails."""
    try:
        rule(np.zeros(size), np.zeros(size))
    except IndexError as exc:
        raise ParseError(f"builtin {name!r} reads too many coordinates") \
            from exc


# ---------------------------------------------------------------------------
# Context construction

DEFAULT_TOLERANCE = 1e-8
# Largest sample count and largest R^d, R^k or T^n dimension a scenario may
# ask for.  closed_form keeps all its samples in one stack, and arrays are
# sized by the dimension; the bundled scenarios and the benchmark stay at
# 100 samples and dimension 3.
MAX_SAMPLES = 100_000
MAX_DIM = 16


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

_REFERENCE_KINDS = {"local": {"pair_map": (str, dict)}, "integrated": {},
                    "flat": {"omega": (str, dict)}}

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
    "base": {"kind": {"R^d": {"dim": _is_dim}, "S2": {}, "S3": {}}},
    "group": {"kind": {"R^k": {"dim": _is_dim}, "T^n": {"dim": _is_dim},
                       "U1": {}, "SO3": {}}},
    "connection": {"kind": {"local": {"omega": (str, dict)},
                            "hopf_canonical": {},
                            "hopf_perturbed": {"epsilon?": _is_number}}},
    "discrete": {"kind": {**_REFERENCE_KINDS,
                          "matched": {"reference": "reference"}}},
    # Not matched: each level of nesting multiplies the evaluation cost.
    "reference": {"kind": _REFERENCE_KINDS},
    "integrator": {"retraction?": (str,), "domain_radius?": _is_number},
    "check": {"name": (str,), "samples?": _is_sample_count,
              "tolerance?": _is_positive,
              "pair?": functools.partial(_is_rows, rows=2),
              "fiber?": functools.partial(_is_rows, rows=2),
              "min_difference?": _is_positive},
}


def _require(ok, message):
    if not ok:
        raise ParseError(message)


def _validate(value, test, where):
    """Raise a ParseError unless value passes test (see _SCHEMA)."""
    if isinstance(test, list):
        _require(isinstance(value, list), f"{where} must be a list")
        for i, item in enumerate(value):
            _validate(item, test[0], f"{where}[{i}]")
    elif not isinstance(test, str):
        ok = isinstance(value, test) if isinstance(test, tuple) else test(value)
        _require(ok, f"bad {where}: {value!r}")
    else:
        fields = _SCHEMA[test]
        _require(isinstance(value, dict), f"{where} must be an object")
        if "kind" in fields:
            tags, kind = fields["kind"], value.get("kind")
            _require(isinstance(kind, str) and kind in tags,
                     f"{where} needs a kind among {sorted(tags)}")
            fields = dict(tags[kind], kind=(str,))
        keys = {key.rstrip("?"): key for key in fields}
        unknown = set(value) - set(keys)
        _require(not unknown, f"unknown {where} keys: {sorted(unknown)}")
        for name, key in keys.items():
            if name in value or name == key:
                _validate(value.get(name), fields[key], f"{where}.{name}")


def _discrete_specs(cfg):
    raw = cfg.get("discrete", [])
    return [raw] if isinstance(raw, dict) else raw


def load_scenario(path):
    """Read a scenario file and check it against the schema."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"cannot parse scenario {path}: {exc}") from exc
    _validate(cfg, "scenario", "scenario")
    hopf = cfg["bundle"]["kind"] == "hopf"
    connection = cfg.get("connection")
    _require(connection is None
             or connection["kind"].startswith("hopf") == hopf,
             "connection kind does not fit the bundle")
    for i, spec in enumerate(_discrete_specs(cfg)):
        _validate(spec, "discrete", f"discrete[{i}]")
        _require(not hopf or spec["kind"] == "integrated",
                 "the Hopf bundle takes only integrated discretes")
    return cfg


def _build_bundle(spec):
    if spec["kind"] == "hopf":
        return HopfBundle()
    base, group = spec["base"], spec["group"]
    return TrivialBundle(
        manifolds.kind_from_tag(base["kind"], dim=base.get("dim")),
        groups.kind_from_tag(group["kind"], dim=group.get("dim")))


class ScenarioContext:
    """Everything a check needs, built from a config load_scenario passed."""

    def __init__(self, cfg):
        self.name = cfg["name"]
        self.seed = int(cfg["seed"])
        self.sample_count = int(cfg.get("sample_count", 100))

        self.bundle = _build_bundle(cfg["bundle"])
        self.box = self._resolve_box(cfg.get("box"))

        hopf = isinstance(self.bundle, HopfBundle)
        integ = cfg.get("integrator", {})
        self.domain = DomainSpec(self.bundle, float(integ.get(
            "domain_radius", manifolds.default_radius(self.bundle.base))))
        self.connection = self._build_connection(cfg.get("connection"))
        self.retraction = self._build_retraction(
            integ.get("retraction", "great_circle" if hopf else "straight"))
        self.discretes = [self._build_discrete(spec)
                          for spec in _discrete_specs(cfg)]

    # -- config resolution -------------------------------------------------
    def _resolve_box(self, box):
        if not isinstance(self.bundle.base, EuclideanChart):
            _require(box is None, "box needs an R^d base")
            return None
        dim = self.bundle.base.dim
        if box is None:
            box = [[-1.0, 1.0]] * dim
        _require(len(box) == dim, "box does not match base dimension")
        return np.asarray(box, dtype=float)

    def _build_connection(self, spec):
        if spec is None:
            return None
        kind = spec["kind"]
        if kind == "local":
            return one_form_builtin(spec["omega"], self.bundle)
        epsilon = spec.get("epsilon", 0.1) if kind == "hopf_perturbed" else 0
        return connections.HopfConnection(self.bundle, float(epsilon))

    def _build_retraction(self, tag):
        if isinstance(self.bundle, HopfBundle):
            if tag in ("great_circle", "exp"):
                return integration.hopf_geodesic_retraction(self.bundle)
            if tag == "chart":
                return _hopf_chart_retraction(self.bundle)
            raise ParseError(f"unknown Hopf retraction {tag!r}")
        if tag in ("straight", "exp"):
            return integration.trivial_product_retraction(self.bundle)
        if tag == "skewed":
            return integration.trivial_skewed_retraction(self.bundle)
        raise ParseError(f"unknown retraction {tag!r}")

    def _build_discrete(self, spec):
        kind = spec["kind"]
        if kind == "local":
            pair_map, name = pair_map_builtin(spec["pair_map"],
                                              self.bundle.group)
            _probe(pair_map, self.bundle.base.coord_size, name)
            return discrete.TrivialLocalDiscrete(self.bundle, pair_map,
                                                 self.domain, name=name)
        if kind == "integrated":
            if self.connection is None:
                raise ParseError("integrated discrete needs a connection")
            return integration.integrate_connection(
                self.connection, self.retraction, self.domain)
        if kind == "flat":
            return abelian.flat_integrate_local(
                one_form_builtin(spec["omega"], self.bundle), self.domain,
                closedness_samples=self._gate_samples())
        if kind == "matched":
            if self.connection is None:
                raise ParseError("matched discrete needs a connection")
            reference = self._build_discrete(spec["reference"])
            return abelian.curvature_matched_integrate(
                self.connection, reference,
                match_samples=self._gate_samples())

    def _gate_samples(self):
        """(m, u, w) samples of the flat and matched constructors' gates."""
        return self.sample_forms(rng_for(self.seed, 997), 25)

    # -- samplers ----------------------------------------------------------
    def sample_forms(self, rng, n):
        """n samples (m, u, w) of a base point and two constant base
        directions, drawn in that order, for exterior derivatives."""
        size = self.bundle.base.coord_size
        return [(self.sample_base_point(rng), rng.uniform(-1.0, 1.0, size),
                 rng.uniform(-1.0, 1.0, size)) for _ in range(n)]

    def sample_base_point(self, rng):
        base = self.bundle.base
        if self.box is not None:
            return base.validate(rng.uniform(self.box[:, 0], self.box[:, 1]))
        vec = rng.normal(size=base.coord_size)
        return base.validate(vec / np.linalg.norm(vec))

    def sample_group(self, rng):
        G = self.bundle.group
        if isinstance(G, groups.SO3):
            return G.exp(rng.uniform(-1.0, 1.0, 3))
        return G.wrap(rng.uniform(-1.0, 1.0, G.dim))

    def sample_point(self, rng):
        q = bundles.section_over(self.bundle, self.sample_base_point(rng))
        return bundles.act(self.sample_group(rng), q)

    def sample_base_tangent(self, rng, m):
        comps = rng.uniform(-1.0, 1.0, self.bundle.base.coord_size)
        return self.bundle.base.project_tangent(m, comps)

    def sample_bundle_tangent(self, rng, q):
        if isinstance(self.bundle, TrivialBundle):
            base = rng.uniform(-1.0, 1.0, self.bundle.base.coord_size)
            fiber = rng.uniform(-1.0, 1.0, self.bundle.group.dim)
            base = self.bundle.base.project_tangent(q.base_point, base)
            return bundles.make_trivial_tangent(q, base, fiber)
        vec = rng.uniform(-1.0, 1.0, 4)
        vec -= np.dot(vec, q.ambient) * q.ambient
        return bundles.BundleTangent(q, vec)

    def sample_nearby_point(self, rng, q, radius_fraction=0.4):
        """Second point whose base distance from q stays inside the domain."""
        m = bundles.project(q)
        direction = self.sample_base_tangent(rng, m)
        norm = float(np.linalg.norm(direction))
        cap = min(self.domain.base_radius, 2.0)
        if norm > 1e-12:
            scale = radius_fraction * cap * rng.uniform(0.05, 1.0) / norm
        else:
            scale = 0.0
        base = self.bundle.base
        stepped = base.validate(base.geodesic_step(m, scale * direction))
        over = bundles.section_over(self.bundle, stepped)
        return bundles.act(self.sample_group(rng), over)


def _hopf_chart_retraction(bundle):
    """Straight steps in a fixed stereographic chart of S^3; breaks
    equivariance (negative control)."""
    sphere = Sphere(4)

    def step(q, v):
        return BundlePoint.hopf(
            bundle, sphere.chart_line_step(q.ambient, v.components))

    return integration.BundleRetraction(bundle, step, np.pi / 2.0)


# ---------------------------------------------------------------------------
# Named checks

def _first_discrete(ctx):
    if not ctx.discretes:
        raise ParseError("check needs a discrete connection in the scenario")
    return ctx.discretes[0]


def _need_connection(ctx):
    if ctx.connection is None:
        raise ParseError("check needs a connection in the scenario")
    return ctx.connection


def check_connection_axioms(ctx, params, rng, n):
    A = _need_connection(ctx)
    defects = []
    for _ in range(n):
        q = ctx.sample_point(rng)
        v = ctx.sample_bundle_tangent(rng, q)
        xi = rng.uniform(-1.0, 1.0, ctx.bundle.group.dim)
        g = ctx.sample_group(rng)
        defects.append(connections.verticality_defect(A, q, xi))
        defects.append(connections.equivariance_defect(A, g, v))
    return worst_defect(defects)


def check_discrete_axioms(ctx, params, rng, n):
    Ad = _first_discrete(ctx)
    defects = []
    for _ in range(n):
        q0 = ctx.sample_point(rng)
        q1 = ctx.sample_nearby_point(rng, q0)
        g = ctx.sample_group(rng)
        g2 = ctx.sample_group(rng)
        defects.append(discrete.identity_defect(Ad, q0))
        defects.append(discrete.discrete_equivariance_defect(
            Ad, g, g2, q0, q1))
    return worst_defect(defects)


def check_retraction_axioms(ctx, params, rng, n):
    if ctx.connection is not None:
        rule = integration.reduced_retraction(ctx.connection, ctx.retraction)
    else:
        rule = manifolds.metric_exponential(ctx.bundle.base)
    defects = []
    for _ in range(n):
        m = ctx.sample_base_point(rng)
        v = ctx.sample_base_tangent(rng, m)
        cap = 0.2 * min(rule.domain_radius, 2.0)
        norm = float(np.linalg.norm(v))
        if norm > cap:
            v = (cap / norm) * v
        defects.append(manifolds.check_retraction_axioms(rule, m, v))
    return worst_defect(defects)


def check_exp_log_roundtrip(ctx, params, rng, n):
    G = ctx.bundle.group
    defects = []
    for _ in range(n):
        xi = rng.uniform(-1.0, 1.0, G.dim) * 2.8 / np.sqrt(G.dim)
        defects.append(float(np.linalg.norm(G.log(G.exp(xi)) - xi)))
        g = ctx.sample_group(rng)
        defects.append(G.distance(G.exp(G.log(g)), g))
    return worst_defect(defects)


def check_derive_roundtrip(ctx, params, rng, n):
    A = _need_connection(ctx)
    Ad = _first_discrete(ctx)
    derived = derivation.derive_connection(Ad)
    defects = []
    for _ in range(n):
        q = ctx.sample_point(rng)
        v = ctx.sample_bundle_tangent(rng, q)
        lhs = connections.eval_connection(derived, v)
        rhs = connections.eval_connection(A, v)
        defects.append(float(np.linalg.norm(lhs - rhs)))
    return worst_defect(defects)


def check_lift_roundtrip(ctx, params, rng, n):
    A = _need_connection(ctx)
    Ad = _first_discrete(ctx)
    defects = []
    for _ in range(n):
        q = ctx.sample_point(rng)
        dm = ctx.sample_base_tangent(rng, bundles.project(q))
        direct = derivation.derive_horizontal(Ad, q, dm)
        lifted = connections.horizontal_lift(A, q, dm)
        defects.append(float(np.linalg.norm(
            direct.components - lifted.components)))
    return worst_defect(defects)


def check_diagram(ctx, params, rng, n):
    Ad = _first_discrete(ctx)
    defects = []
    for _ in range(n):
        q = ctx.sample_point(rng)
        dm = ctx.sample_base_tangent(rng, bundles.project(q))
        defects.append(derivation.check_diagram(Ad, q, dm))
    return worst_defect(defects)


def check_discrete_flatness(ctx, params, rng, n):
    Ad = _first_discrete(ctx)
    defects = []
    for _ in range(n):
        q0 = ctx.sample_point(rng)
        q1 = ctx.sample_nearby_point(rng, q0, radius_fraction=0.2)
        q2 = ctx.sample_nearby_point(rng, q0, radius_fraction=0.2)
        defects.append(discrete.flatness_defect(Ad, q0, q1, q2))
    return worst_defect(defects)


def check_derived_curvature(ctx, params, rng, n):
    Ad = _first_discrete(ctx)
    derived = derivation.derive_connection(Ad)
    defects = []
    for _ in range(n):
        m = ctx.sample_base_point(rng)
        u = ctx.sample_base_tangent(rng, m)
        w = ctx.sample_base_tangent(rng, m)
        value = connections.curvature(derived, m, u, w)
        defects.append(float(np.linalg.norm(value)))
    return worst_defect(defects)


def check_distinctness(ctx, params, rng, n):
    if len(ctx.discretes) < 2:
        raise ParseError("distinctness check needs two discrete connections")
    pair = params.get("pair")
    if pair is None:
        raise ParseError("distinctness check needs a designated pair")
    G = ctx.bundle.group
    fiber = params.get("fiber") or [G.identity()] * 2
    q0 = BundlePoint.trivial(ctx.bundle, pair[0], fiber[0])
    q1 = BundlePoint.trivial(ctx.bundle, pair[1], fiber[1])
    v0 = discrete.eval_discrete(ctx.discretes[0], q0, q1)
    v1 = discrete.eval_discrete(ctx.discretes[1], q0, q1)
    observed = G.distance(v0, v1)
    required = float(params.get("min_difference", 0.1))
    return worst_defect([required - observed])


def check_same_derived_curvature(ctx, params, rng, n):
    if len(ctx.discretes) < 2:
        raise ParseError("check needs two discrete connections")
    d1 = derivation.derive_connection(ctx.discretes[0])
    d2 = derivation.derive_connection(ctx.discretes[1])
    defects = []
    for _ in range(n):
        m = ctx.sample_base_point(rng)
        u = ctx.sample_base_tangent(rng, m)
        w = ctx.sample_base_tangent(rng, m)
        c1 = connections.curvature(d1, m, u, w)
        c2 = connections.curvature(d2, m, u, w)
        defects.append(float(np.linalg.norm(c1 - c2)))
    return worst_defect(defects)


def check_same_discrete_curvature(ctx, params, rng, n):
    if len(ctx.discretes) < 2:
        raise ParseError("check needs two discrete connections")
    d1, d2 = ctx.discretes[0], ctx.discretes[1]
    defects = []
    for _ in range(n):
        q0 = ctx.sample_point(rng)
        q1 = ctx.sample_nearby_point(rng, q0, radius_fraction=0.2)
        q2 = ctx.sample_nearby_point(rng, q0, radius_fraction=0.2)
        b1 = discrete.discrete_curvature(d1, q0, q1, q2)
        b2 = discrete.discrete_curvature(d2, q0, q1, q2)
        defects.append(ctx.bundle.group.distance(b1, b2))
    return worst_defect(defects)


def check_closed_form(ctx, params, rng, n):
    if not isinstance(ctx.connection, connections.TrivialLocalConnection):
        raise ParseError("closed_form check needs a local connection")
    return abelian.worst_exterior_defect(ctx.connection,
                                         ctx.sample_forms(rng, n))


def check_uniqueness_pair(ctx, params, rng, n):
    """Agreement of a reference discrete connection with the
    curvature-matched integral of its own derived connection."""
    Ad_ref = _first_discrete(ctx)
    A = derivation.derive_connection(Ad_ref)
    rebuilt = abelian.curvature_matched_integrate(A, Ad_ref)
    defects = []
    for _ in range(n):
        q0 = ctx.sample_point(rng)
        q1 = ctx.sample_nearby_point(rng, q0, radius_fraction=0.5)
        v_ref = discrete.eval_discrete(Ad_ref, q0, q1)
        v_new = discrete.eval_discrete(rebuilt, q0, q1)
        defects.append(ctx.bundle.group.distance(v_ref, v_new))
    return worst_defect(defects)


def check_metric_invariance(ctx, params, rng, n):
    A = _need_connection(ctx)
    gm = integration.build_invariant_metric(A)
    defects = []
    for _ in range(n):
        q = ctx.sample_point(rng)
        u = ctx.sample_bundle_tangent(rng, q)
        w = ctx.sample_bundle_tangent(rng, q)
        g = ctx.sample_group(rng)
        defects.append(integration.metric_invariance_defect(gm, g, u, w))
    return worst_defect(defects)


def check_retraction_equivariance(ctx, params, rng, n):
    defects = []
    for _ in range(n):
        q = ctx.sample_point(rng)
        v = ctx.sample_bundle_tangent(rng, q)
        cap = 0.2 * min(ctx.retraction.domain_radius, 2.0)
        if v.norm > cap:
            v = bundles.BundleTangent(q, v.components * cap / v.norm)
        g = ctx.sample_group(rng)
        defects.append(integration.equivariance_defect(
            ctx.retraction, g, v))
    return worst_defect(defects)


CHECKS = {
    "connection_axioms": check_connection_axioms,
    "discrete_axioms": check_discrete_axioms,
    "retraction_axioms": check_retraction_axioms,
    "exp_log_roundtrip": check_exp_log_roundtrip,
    "derive_roundtrip": check_derive_roundtrip,
    "lift_roundtrip": check_lift_roundtrip,
    "diagram": check_diagram,
    "discrete_flatness": check_discrete_flatness,
    "derived_curvature": check_derived_curvature,
    "distinctness": check_distinctness,
    "same_derived_curvature": check_same_derived_curvature,
    "same_discrete_curvature": check_same_discrete_curvature,
    "closed_form": check_closed_form,
    "uniqueness_pair": check_uniqueness_pair,
    "metric_invariance": check_metric_invariance,
    "retraction_equivariance": check_retraction_equivariance,
}


def run_check(ctx, index, check_cfg):
    """Run one named check; returns (max_defect, samples_used)."""
    name = check_cfg["name"]
    if name not in CHECKS:
        raise UnknownBuiltin(f"unknown check {name!r}")
    n = int(check_cfg.get("samples", ctx.sample_count))
    rng = rng_for(ctx.seed, index)
    defect = CHECKS[name](ctx, check_cfg, rng, n)
    return float(defect), n
