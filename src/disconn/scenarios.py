"""Scenario configuration: builtins, deterministic sampling, named checks.

A scenario is a JSON object describing a bundle, optionally a connection
and one or more discrete connections, and a list of named checks with
tolerances.  Sampling is driven by a counter-based PRNG (Philox) keyed by
the scenario seed and the check index, so reports are deterministic for a
fixed config.

Schema (all unknown keys rejected):

    {
      "name": str,
      "seed": int,
      "sample_count": int > 0,                 # default 100
      "box": [[lo, hi], ...],                  # base sampling box, optional
      "bundle": {"kind": "trivial",
                 "base": {"kind": "R^d"|"S2"|"S3", "dim": int},
                 "group": {"kind": "R^k"|"U1"|"T^n"|"SO3", "dim": int}}
                | {"kind": "hopf"},
      "connection": {"kind": "local", "omega": <builtin>}
                    | {"kind": "hopf_canonical"}
                    | {"kind": "hopf_perturbed", "epsilon": float},
      "discrete": <spec> | [<spec>, ...] where <spec> is
                  {"kind": "local", "pair_map": <builtin>}
                  | {"kind": "integrated"}
                  | {"kind": "flat", "omega": <builtin>}
                  | {"kind": "matched", "reference": <spec>},
      "integrator": {"metric": "product"|"invariant"|"round",
                     "retraction": "straight"|"exp"|"great_circle"
                                   |"skewed"|"chart",
                     "domain_radius": float},
      "checks": [{"name": str, "tolerance": float > 0,
                  "samples": int > 0, ...params}, ...]
    }

One-form builtins: "zero", "x_dy", "closed_xy", "x_dy_plus_dx2", "dy",
"dx", "y_dx", or {"name": "polynomial", "terms": [{"coeff": c,
"powers": [...], "dx": j}, ...]}.  Pair-map builtins: "zero",
"trapezoid_x_dy", "left_x_dy", or {"name": "quadratic_f", "f": "zero" |
"one" | "sin_product" | {"const": value}}.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import (abelian, bundles, connections, derivation, discrete, groups,
               integration, manifolds)
from .abelian import BaseOneForm
from .bundles import BundlePoint, DomainSpec, HopfBundle, TrivialBundle
from .errors import DisconnError, ParseError, UnknownBuiltin
from .manifolds import (EUCLIDEAN_RADIUS_SENTINEL, EuclideanChart,
                        ManifoldPoint, Sphere, TangentVector)
from .numdiff import DerivativeSpec, worst_defect


def rng_for(seed, stream):
    """Counter-based generator for one check of one scenario."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


# ---------------------------------------------------------------------------
# Builtins

def _polynomial_rule(terms):
    terms = [(float(t["coeff"]), tuple(int(p) for p in t["powers"]),
              int(t["dx"])) for t in terms]

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


def one_form_builtin(spec, base, group) -> BaseOneForm:
    """Resolve a one-form builtin (string tag or polynomial table)."""
    if isinstance(spec, str):
        if spec not in _OMEGA_BUILTINS:
            raise UnknownBuiltin(f"unknown one-form builtin {spec!r}")
        scalar = _OMEGA_BUILTINS[spec]
        name = spec
    elif isinstance(spec, dict) and spec.get("name") == "polynomial":
        scalar = _polynomial_rule(spec["terms"])
        name = "polynomial"
    else:
        raise UnknownBuiltin(f"unknown one-form spec {spec!r}")
    if group.dim != 1:
        raise ParseError("builtin one-forms target one-dimensional algebras")
    return BaseOneForm(base, group,
                       lambda m, v: np.array([scalar(m, v)]), name=name)


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
        f_spec = spec.get("f", "one")
        if f_spec == "zero":
            f = lambda x0, x1: 0.0
        elif f_spec == "one":
            f = lambda x0, x1: 1.0
        elif f_spec == "sin_product":
            f = lambda x0, x1: np.sin(x0 * x1)
        elif isinstance(f_spec, dict) and "const" in f_spec:
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


# ---------------------------------------------------------------------------
# Context construction

_TOP_LEVEL_KEYS = {"name", "seed", "sample_count", "box", "bundle",
                   "connection", "discrete", "integrator", "checks"}


def load_scenario(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot parse scenario {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ParseError("scenario must be a JSON object")
    unknown = set(cfg) - _TOP_LEVEL_KEYS
    if unknown:
        raise ParseError(f"unknown scenario keys: {sorted(unknown)}")
    for key in ("name", "seed", "bundle"):
        if key not in cfg:
            raise ParseError(f"scenario is missing required key {key!r}")
    if not _is_positive_int(cfg.get("sample_count", 1)):
        raise ParseError("sample_count must be a positive integer")
    for check in cfg.get("checks", []):
        if "name" not in check:
            raise ParseError("every check needs a name")
        try:
            tolerance = float(check.get("tolerance", 1.0))
        except (TypeError, ValueError) as exc:
            raise ParseError(f"bad check tolerance: {exc}") from exc
        if not (math.isfinite(tolerance) and tolerance > 0):
            raise ParseError("check tolerances must be positive and finite")
        if not _is_positive_int(check.get("samples", 1)):
            raise ParseError("check samples must be a positive integer")
    return cfg


def _is_positive_int(value):
    return isinstance(value, int) and not isinstance(value, bool) \
        and value > 0


def _build_base(spec):
    kind = spec["kind"]
    if kind == "R^d":
        return EuclideanChart(int(spec["dim"]))
    if kind in ("S2", "S3"):
        return manifolds.kind_from_tag(kind)
    raise ParseError(f"unknown base kind {kind!r}")


def _build_group(spec):
    kind = spec["kind"]
    if kind in ("R^k", "T^n"):
        return groups.kind_from_tag(kind, dim=int(spec["dim"]))
    if kind in ("U1", "SO3"):
        return groups.kind_from_tag(kind)
    raise ParseError(f"unknown group kind {kind!r}")


def _build_bundle(spec):
    if spec["kind"] == "trivial":
        return TrivialBundle(_build_base(spec["base"]),
                             _build_group(spec["group"]))
    if spec["kind"] == "hopf":
        return HopfBundle()
    raise ParseError(f"unknown bundle kind {spec['kind']!r}")


class ScenarioContext:
    """Everything a check needs, built from the parsed config."""

    def __init__(self, cfg, fd_spec=None, quadrature_order=None,
                 quadrature_panels=None, anchor=None,
                 retraction_override=None, metric_override=None,
                 domain_radius_override=None):
        self.cfg = cfg
        self.name = cfg["name"]
        self.seed = int(cfg["seed"])
        self.sample_count = int(cfg.get("sample_count", 100))
        self.fd_spec = fd_spec or DerivativeSpec()
        self.quadrature_order = quadrature_order or abelian.QUADRATURE_ORDER
        self.quadrature_panels = quadrature_panels or abelian.QUADRATURE_PANELS

        self.bundle = _build_bundle(cfg["bundle"])
        self.box = self._resolve_box(cfg.get("box"))
        self.anchor = np.asarray(
            anchor if anchor is not None
            else np.zeros(self.bundle.base.coord_size), dtype=float)

        integ = dict(cfg.get("integrator", {}))
        if retraction_override:
            integ["retraction"] = retraction_override
        if metric_override:
            integ["metric"] = metric_override
        if domain_radius_override is not None:
            integ["domain_radius"] = domain_radius_override
        self.integrator_cfg = integ

        self.domain = DomainSpec(self.bundle, self._domain_radius())
        self.connection = self._build_connection(cfg.get("connection"))
        self.omega = self._connection_omega(cfg.get("connection"))
        self.retraction = self._build_retraction(
            integ.get("retraction", self._default_retraction_tag()))
        raw = cfg.get("discrete")
        if raw is None:
            raw = []
        elif isinstance(raw, dict):
            raw = [raw]
        self.discretes = [self._build_discrete(spec) for spec in raw]

    # -- config resolution -------------------------------------------------
    def _resolve_box(self, box):
        if isinstance(self.bundle.base, EuclideanChart):
            dim = self.bundle.base.dim
            if box is None:
                box = [[-1.0, 1.0]] * dim
            if len(box) != dim:
                raise ParseError("box does not match base dimension")
            return np.asarray(box, dtype=float)
        return None

    def _domain_radius(self):
        radius = self.integrator_cfg.get("domain_radius")
        if radius is not None:
            return float(radius)
        if isinstance(self.bundle, HopfBundle):
            return np.pi / 2.0
        return EUCLIDEAN_RADIUS_SENTINEL

    def _default_retraction_tag(self):
        return "great_circle" if isinstance(self.bundle, HopfBundle) \
            else "straight"

    def _build_connection(self, spec):
        if spec is None:
            return None
        kind = spec["kind"]
        if kind == "local":
            omega = one_form_builtin(spec["omega"], self.bundle.base,
                                     self.bundle.group)
            return connections.TrivialLocalConnection(
                self.bundle, omega.value, name=omega.name)
        if kind == "hopf_canonical":
            return connections.HopfCanonicalConnection(self.bundle)
        if kind == "hopf_perturbed":
            return connections.HopfPerturbedConnection(
                self.bundle, float(spec.get("epsilon", 0.1)))
        raise ParseError(f"unknown connection kind {kind!r}")

    def _connection_omega(self, spec):
        if spec and spec["kind"] == "local":
            return one_form_builtin(spec["omega"], self.bundle.base,
                                    self.bundle.group)
        return None

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
            return discrete.TrivialLocalDiscrete(self.bundle, pair_map,
                                                 self.domain, name=name)
        if kind == "integrated":
            if self.connection is None:
                raise ParseError("integrated discrete needs a connection")
            return integration.integrate_connection(
                self.connection, self.retraction, self.domain)
        if kind == "flat":
            omega = one_form_builtin(spec["omega"], self.bundle.base,
                                     self.bundle.group)
            return abelian.flat_integrate_local(
                self.bundle, omega, self.domain,
                closedness_samples=self._closedness_samples(),
                order=self.quadrature_order, panels=self.quadrature_panels)
        if kind == "matched":
            if self.connection is None:
                raise ParseError("matched discrete needs a connection")
            reference = self._build_discrete(spec["reference"])
            return abelian.curvature_matched_integrate(
                self.connection, reference, anchor=self.anchor,
                match_samples=self._closedness_samples(),
                spec=self.fd_spec, order=self.quadrature_order,
                panels=self.quadrature_panels)
        raise ParseError(f"unknown discrete kind {kind!r}")

    def _closedness_samples(self, count=25):
        rng = rng_for(self.seed, 997)
        out = []
        for _ in range(count):
            m = self.sample_base_coords(rng)
            u = rng.uniform(-1.0, 1.0, self.bundle.base.coord_size)
            w = rng.uniform(-1.0, 1.0, self.bundle.base.coord_size)
            out.append((m, u, w))
        return out

    # -- samplers ----------------------------------------------------------
    def sample_base_coords(self, rng):
        if self.box is not None:
            return rng.uniform(self.box[:, 0], self.box[:, 1])
        vec = rng.normal(size=self.bundle.base.coord_size)
        return vec / np.linalg.norm(vec)

    def sample_base_point(self, rng):
        return ManifoldPoint.of(self.bundle.base,
                                self.sample_base_coords(rng))

    def sample_group(self, rng):
        g = self.bundle.group
        if isinstance(g, groups.SO3):
            vec = rng.uniform(-1.0, 1.0, 3)
            return groups.exp(groups.AlgebraElement.of(g, vec))
        return groups.GroupElement.of(g, rng.uniform(-1.0, 1.0, g.dim))

    def sample_algebra(self, rng, scale=1.0):
        g = self.bundle.group
        return groups.AlgebraElement.of(g, scale * rng.uniform(-1.0, 1.0,
                                                               g.dim))

    def sample_point(self, rng):
        q = bundles.section_over(self.bundle, self.sample_base_point(rng))
        return bundles.act(self.sample_group(rng), q)

    def sample_base_tangent(self, rng, m):
        comps = rng.uniform(-1.0, 1.0, self.bundle.base.coord_size)
        return TangentVector(m, self.bundle.base.project_tangent(m.coords,
                                                                 comps))

    def sample_bundle_tangent(self, rng, q):
        if isinstance(self.bundle, TrivialBundle):
            base = rng.uniform(-1.0, 1.0, self.bundle.base.coord_size)
            fiber = rng.uniform(-1.0, 1.0, self.bundle.group.dim)
            base = self.bundle.base.project_tangent(q.base_point.coords, base)
            return bundles.make_trivial_tangent(q, base, fiber)
        vec = rng.uniform(-1.0, 1.0, 4)
        vec -= np.dot(vec, q.ambient) * q.ambient
        return bundles.BundleTangent(q, vec)

    def sample_nearby_point(self, rng, q, radius_fraction=0.4):
        """Second point whose base distance from q stays inside the domain."""
        m = bundles.project(q)
        direction = self.sample_base_tangent(rng, m)
        cap = min(self.domain.base_radius, 2.0)
        if direction.norm > 1e-12:
            scale = radius_fraction * cap * rng.uniform(0.05, 1.0) \
                / direction.norm
        else:
            scale = 0.0
        stepped = ManifoldPoint.of(
            m.kind, m.kind.geodesic_step(m.coords,
                                         scale * direction.components))
        over = bundles.section_over(self.bundle, stepped)
        return bundles.act(self.sample_group(rng), over)


def _hopf_chart_retraction(bundle):
    """Straight steps in a fixed stereographic chart of S^3; breaks
    equivariance (negative control)."""
    sphere = Sphere(4)

    def step(q, v):
        return BundlePoint.hopf(
            bundle, sphere.chart_line_step(q.ambient, v.components))

    return integration.BundleRetraction(bundle, "chart", step, np.pi / 2.0)


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
        xi = ctx.sample_algebra(rng)
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
        if v.norm > cap:
            v = v.scaled(cap / v.norm)
        defects.append(manifolds.check_retraction_axioms(rule, m, v,
                                                        ctx.fd_spec))
    return worst_defect(defects)


def check_exp_log_roundtrip(ctx, params, rng, n):
    kind = ctx.bundle.group
    defects = []
    for _ in range(n):
        xi = groups.AlgebraElement.of(
            kind, rng.uniform(-1.0, 1.0, kind.dim) * 2.8 / np.sqrt(kind.dim))
        back = groups.log(groups.exp(xi))
        defects.append(float(np.linalg.norm(back.vector - xi.vector)))
        g = ctx.sample_group(rng)
        defects.append(groups.group_distance(groups.exp(groups.log(g)), g))
    return worst_defect(defects)


def check_derive_roundtrip(ctx, params, rng, n):
    A = _need_connection(ctx)
    Ad = _first_discrete(ctx)
    derived = derivation.derive_connection(Ad, ctx.fd_spec)
    defects = []
    for _ in range(n):
        q = ctx.sample_point(rng)
        v = ctx.sample_bundle_tangent(rng, q)
        lhs = connections.eval_connection(derived, v).vector
        rhs = connections.eval_connection(A, v).vector
        defects.append(float(np.linalg.norm(lhs - rhs)))
    return worst_defect(defects)


def check_lift_roundtrip(ctx, params, rng, n):
    A = _need_connection(ctx)
    Ad = _first_discrete(ctx)
    defects = []
    for _ in range(n):
        q = ctx.sample_point(rng)
        dm = ctx.sample_base_tangent(rng, bundles.project(q))
        direct = derivation.derive_horizontal(Ad, q, dm, ctx.fd_spec)
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
        defects.append(derivation.check_diagram(Ad, q, dm, ctx.fd_spec))
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
    derived = derivation.derive_connection(Ad, ctx.fd_spec)
    defects = []
    for _ in range(n):
        m = ctx.sample_base_point(rng)
        u = ctx.sample_base_tangent(rng, m)
        w = ctx.sample_base_tangent(rng, m)
        value = connections.curvature(derived, u, w, ctx.fd_spec)
        defects.append(float(np.linalg.norm(value.vector)))
    return worst_defect(defects)


def check_distinctness(ctx, params, rng, n):
    if len(ctx.discretes) < 2:
        raise ParseError("distinctness check needs two discrete connections")
    pair = params.get("pair")
    if pair is None:
        raise ParseError("distinctness check needs a designated pair")
    fiber = params.get("fiber")
    if fiber is None:
        e = groups.identity(ctx.bundle.group)
        g0 = g1 = e
    else:
        g0 = groups.GroupElement.of(ctx.bundle.group, fiber[0])
        g1 = groups.GroupElement.of(ctx.bundle.group, fiber[1])
    q0 = BundlePoint.trivial(ctx.bundle, np.asarray(pair[0], dtype=float), g0)
    q1 = BundlePoint.trivial(ctx.bundle, np.asarray(pair[1], dtype=float), g1)
    v0 = discrete.eval_discrete(ctx.discretes[0], q0, q1)
    v1 = discrete.eval_discrete(ctx.discretes[1], q0, q1)
    observed = groups.group_distance(v0, v1)
    required = float(params.get("min_difference", 0.1))
    return worst_defect([required - observed])


def check_same_derived_curvature(ctx, params, rng, n):
    if len(ctx.discretes) < 2:
        raise ParseError("check needs two discrete connections")
    d1 = derivation.derive_connection(ctx.discretes[0], ctx.fd_spec)
    d2 = derivation.derive_connection(ctx.discretes[1], ctx.fd_spec)
    defects = []
    for _ in range(n):
        m = ctx.sample_base_point(rng)
        u = ctx.sample_base_tangent(rng, m)
        w = ctx.sample_base_tangent(rng, m)
        c1 = connections.curvature(d1, u, w, ctx.fd_spec)
        c2 = connections.curvature(d2, u, w, ctx.fd_spec)
        defects.append(float(np.linalg.norm(c1.vector - c2.vector)))
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
        defects.append(groups.group_distance(b1, b2))
    return worst_defect(defects)


def check_closed_form(ctx, params, rng, n):
    if ctx.omega is None:
        raise ParseError("closed_form check needs a local connection")
    defects = []
    for _ in range(n):
        m = ctx.sample_base_coords(rng)
        u = rng.uniform(-1.0, 1.0, ctx.bundle.base.coord_size)
        w = rng.uniform(-1.0, 1.0, ctx.bundle.base.coord_size)
        defects.append(abelian.exterior_defect(ctx.omega, m, u, w,
                                               ctx.fd_spec))
    return worst_defect(defects)


def check_uniqueness_pair(ctx, params, rng, n):
    """Agreement of a reference discrete connection with the
    curvature-matched integral of its own derived connection."""
    Ad_ref = _first_discrete(ctx)
    A = derivation.derive_connection(Ad_ref, ctx.fd_spec)
    rebuilt = abelian.curvature_matched_integrate(
        A, Ad_ref, anchor=ctx.anchor, spec=ctx.fd_spec,
        order=ctx.quadrature_order, panels=ctx.quadrature_panels)
    defects = []
    for _ in range(n):
        q0 = ctx.sample_point(rng)
        q1 = ctx.sample_nearby_point(rng, q0, radius_fraction=0.5)
        v_ref = discrete.eval_discrete(Ad_ref, q0, q1)
        v_new = discrete.eval_discrete(rebuilt, q0, q1)
        defects.append(groups.group_distance(v_ref, v_new))
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
