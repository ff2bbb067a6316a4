"""Stacks of samples: per-column distances, the Hopf section on a stack,
every sampled check, which evaluates its samples as one stack, against the
loop over single samples that it replaces, and the bound on the stacks
that `run_check` hands a check."""

import numpy as np
import pytest

from disconn import (bundles, connections, derivation, discrete,
                     integration, manifolds, scenarios)
from disconn.bundles import (BundlePoint, HopfBundle, TrivialBundle,
                             hopf_projection_coords, hopf_section,
                             point_distance)
from disconn.errors import ParseError
from disconn.groups import SO3, Torus, Translation
from disconn.manifolds import EuclideanChart
from disconn.numdiff import _column_norm, exterior_derivative, worst_defect
from disconn.scenarios import CHECKS, ScenarioContext

K = 7


def group_stack(G, rng, k=K):
    if isinstance(G, SO3):
        return G.exp(rng.uniform(-1.0, 1.0, (3, k)))
    return G.wrap(rng.uniform(-3.0, 3.0, (G.dim, k)))


class TestPerColumnDistances:
    @pytest.mark.parametrize("G", [Translation(1), Translation(3), Torus(1),
                                   Torus(2), SO3()], ids=repr)
    def test_group_distance_is_the_loop_over_columns(self, G):
        rng = np.random.default_rng(5)
        a, b = group_stack(G, rng), group_stack(G, rng)
        stacked = G.distance(a, b)
        loop = [G.distance(a[..., i], b[..., i]) for i in range(K)]
        assert stacked.shape == (K,)
        assert all(np.shape(d) == () for d in loop)
        assert np.array_equal(stacked, loop)
        # A single element broadcasts over a stack.
        assert np.array_equal(G.distance(a[..., 0], b),
                              [G.distance(a[..., 0], b[..., i])
                               for i in range(K)])

    @pytest.mark.parametrize("G", [Translation(3), Translation(9), Torus(2),
                                   SO3()], ids=repr)
    def test_a_single_element_equals_its_column_of_a_stack(self, G):
        # Bit for bit in every layout: a stack of one column, a stack laid
        # out column-major, and two stack axes.  From eight coordinates on
        # (Translation(9), SO(3)'s nine entries) np.add.reduce would sum a
        # single vector pairwise and a column of a stack one by one.
        rng = np.random.default_rng(6)
        a, b = group_stack(G, rng, 6), group_stack(G, rng, 6)
        singles = [G.distance(a[..., i], b[..., i]) for i in range(6)]
        assert np.array_equal(G.distance(a, b), singles)
        assert np.array_equal(G.distance(np.asfortranarray(a), b), singles)
        grid = [x.reshape(x.shape[:-1] + (2, 3)) for x in (a, b)]
        assert np.array_equal(G.distance(*grid).ravel(), singles)
        for i in range(6):
            assert np.array_equal(
                G.distance(a[..., i:i + 1], b[..., i:i + 1]), [singles[i]])

    @pytest.mark.parametrize("bundle", [
        TrivialBundle(EuclideanChart(2), Torus(2)),
        TrivialBundle(EuclideanChart(3), Translation(1)),
        HopfBundle()], ids=["R2xT2", "R3xR", "hopf"])
    def test_point_distance_is_the_loop_over_columns(self, bundle):
        rng = np.random.default_rng(8)

        def points():
            if isinstance(bundle, HopfBundle):
                q = rng.normal(size=(4, K))
                q /= np.linalg.norm(q, axis=0)
                return BundlePoint.hopf(bundle, q)
            return BundlePoint(bundle,
                               rng.uniform(-1.0, 1.0, (bundle.base.dim, K)),
                               group_stack(bundle.group, rng))

        def column(q, i):
            if q.ambient is not None:
                return BundlePoint(q.bundle, q.base_point[:, i],
                                   ambient=q.ambient[:, i])
            return BundlePoint(q.bundle, q.base_point[:, i],
                               q.group_part[:, i])

        p, q = points(), points()
        stacked = point_distance(p, q)
        loop = [point_distance(column(p, i), column(q, i)) for i in range(K)]
        assert stacked.shape == (K,)
        assert all(np.shape(d) == () for d in loop)
        assert np.array_equal(stacked, loop)


def section_by_branch(m):
    """The Hopf section of one point, one branch at a time."""
    x, y, z = m
    if z > -0.5:
        z1 = np.sqrt((1.0 + z) / 2.0)
        return np.array([z1, 0.0, x / (2.0 * z1), -y / (2.0 * z1)])
    s = np.sqrt((1.0 - z) / 2.0)
    return np.array([x / (2.0 * s), y / (2.0 * s), s, 0.0])


class TestHopfSectionStack:
    def test_stack_is_the_single_calls_at_the_chart_edges(self):
        rng = np.random.default_rng(9)
        random = rng.normal(size=(3, 6))
        edges = np.array([[np.sqrt(0.75), 0.0, -0.5], [0.0, 0.6, -0.8],
                          [0.0, 0.0, -1.0], [0.0, 0.0, 1.0],
                          [0.0, np.sqrt(0.75), -0.5]]).T
        m = np.concatenate([edges, random / np.linalg.norm(random, axis=0)],
                           axis=1)
        with np.errstate(all="raise"):
            stacked = hopf_section(m)
            singles = [hopf_section(m[:, i]) for i in range(m.shape[1])]
        assert stacked.shape == (4, m.shape[1])
        for i, single in enumerate(singles):
            assert single.shape == (4,)
            assert np.array_equal(single, section_by_branch(m[:, i]))
            assert np.array_equal(stacked[:, i], single)
        assert np.max(np.abs(hopf_projection_coords(stacked) - m)) <= 1e-15

    def test_two_stack_axes(self):
        rng = np.random.default_rng(10)
        m = rng.normal(size=(3, 2, 3))
        m /= np.linalg.norm(m, axis=0)
        assert np.array_equal(hopf_section(m).reshape(4, 6),
                              hopf_section(m.reshape(3, 6)))


# ---------------------------------------------------------------------------
# Stacked checks against the per-sample loops they replace.  A loop draws
# each sample through the checks' own raw draws with n = 1, then builds it
# and calls the library on that single sample.

def draw(rng, *draws):
    """One sample's raw values: each draw's column of a stack of one."""
    return [x[..., 0] for x in scenarios._draws(rng, 1, *draws)]


def nearby(ctx, rng, q, fraction):
    """A second point near q, one sample as the checks drew it before they
    stacked: the scale is a Python float, and a zero direction stays put."""
    d, s, h = draw(rng, ctx.base_tangent_block, ctx.scale_block,
                   ctx.algebra_block)
    base = ctx.bundle.base
    m = bundles.project(q)
    direction = base.project_tangent(m, d)
    norm = float(_column_norm(direction))
    cap = min(ctx.domain_radius, 2.0)
    scale = fraction * cap * float(s) / norm if norm > 1e-12 else 0.0
    stepped = base.validate(base.geodesic_step(m, scale * direction))
    return bundles.act(ctx.bundle.group.exp(h),
                       bundles.section_over(ctx.bundle, stepped))


def point(ctx, rng):
    return ctx.points(*draw(rng, ctx.base_block, ctx.algebra_block))


def bundle_tangent(ctx, rng, q):
    return ctx.bundle_tangents(q, *draw(rng, ctx.tangent_block))


def group(ctx, rng):
    return ctx.bundle.group.exp(*draw(rng, ctx.algebra_block))


def capped(v, cap, scaled):
    norm = float(_column_norm(v))
    return scaled(v, cap, norm) if norm > cap else v


def separate_axiom_defects(Ad, g, g2, q0, q1):
    """The two axiom defects, one eval_discrete call per pair."""
    G = Ad.bundle.group
    diagonal = discrete.eval_discrete(Ad, q0, q0)
    moved = discrete.eval_discrete(Ad, bundles.act(g, q0),
                                   bundles.act(g2, q1))
    expected = G.compose(
        g2, G.compose(discrete.eval_discrete(Ad, q0, q1), G.inverse(g)))
    return G.distance(diagonal, G.identity()), G.distance(moved, expected)


def separate_curvature(Ad, q0, q1, q2):
    """The triangle holonomy, one eval_discrete call per pair."""
    G = Ad.bundle.group
    return G.compose(G.inverse(discrete.eval_discrete(Ad, q0, q2)),
                     G.compose(discrete.eval_discrete(Ad, q1, q2),
                               discrete.eval_discrete(Ad, q0, q1)))


def loop_connection_axioms(ctx, rng, n):
    A = ctx.connection
    defects = []
    for _ in range(n):
        q = point(ctx, rng)
        v = bundle_tangent(ctx, rng, q)
        xi, = draw(rng, ctx.algebra_block)
        g = group(ctx, rng)
        defects.append(connections.verticality_defect(A, q, xi))
        defects.append(connections.equivariance_defect(A, g, q, v))
    return worst_defect(defects)


def loop_discrete_axioms(ctx, rng, n):
    Ad = ctx.discretes[0]
    defects = []
    for _ in range(n):
        q0 = point(ctx, rng)
        q1 = nearby(ctx, rng, q0, 0.4)
        g = group(ctx, rng)
        g2 = group(ctx, rng)
        defects.extend(separate_axiom_defects(Ad, g, g2, q0, q1))
    return worst_defect(defects)


def loop_retraction_axioms(ctx, rng, n):
    defects = []
    for _ in range(n):
        m, v = draw(rng, ctx.base_block, ctx.base_tangent_block)
        m = ctx.base_points(m)
        if ctx.connection is not None:
            q = bundles.section_over(ctx.bundle, m)
            rule = integration.reduced_retraction(
                ctx.retraction, q,
                connections.horizontal_lifts(ctx.connection, q))
        else:
            rule = manifolds.metric_exponential(ctx.bundle.base)
        v = capped(ctx.bundle.base.project_tangent(m, v),
                   0.2 * min(rule.domain_radius, 2.0),
                   lambda v, cap, norm: (cap / norm) * v)
        defects.append(manifolds.check_retraction_axioms(rule, m, v))
    return worst_defect(defects)


def loop_exp_log_roundtrip(ctx, rng, n):
    G = ctx.bundle.group
    defects = []
    for _ in range(n):
        xi, = draw(rng, ctx.algebra_block)
        xi = xi * 2.8 / np.sqrt(G.dim)
        defects.append(_column_norm(G.log(G.exp(xi)) - xi))
        g = group(ctx, rng)
        defects.append(G.distance(G.exp(G.log(g)), g))
    return worst_defect(defects)


def loop_derive_roundtrip(ctx, rng, n):
    derived = derivation.derive_connection(ctx.discretes[0])
    defects = []
    for _ in range(n):
        q = point(ctx, rng)
        v = bundle_tangent(ctx, rng, q)
        lhs = connections.eval_connection(derived, q, v)
        rhs = connections.eval_connection(ctx.connection, q, v)
        defects.append(_column_norm(lhs - rhs))
    return worst_defect(defects)


def loop_lift_defect(ctx, rng, n, A):
    Ad = ctx.discretes[0]
    defects = []
    for _ in range(n):
        q = point(ctx, rng)
        dm, = draw(rng, ctx.base_tangent_block)
        dm = ctx.bundle.base.project_tangent(bundles.project(q), dm)
        direct = derivation.derive_horizontal(Ad, q, dm)
        lifted = connections.horizontal_lift(A, q, dm)
        defects.append(_column_norm(direct - lifted))
    return worst_defect(defects)


def loop_holonomy_gap(ctx, rng, n, d1, d2=None):
    G = ctx.bundle.group
    defects = []
    for _ in range(n):
        q0 = point(ctx, rng)
        q1 = nearby(ctx, rng, q0, 0.2)
        q2 = nearby(ctx, rng, q0, 0.2)
        b1 = separate_curvature(d1, q0, q1, q2)
        b2 = (G.identity() if d2 is None
              else separate_curvature(d2, q0, q1, q2))
        defects.append(G.distance(b1, b2))
    return worst_defect(defects)


def loop_derived_curvature_gap(ctx, rng, n, *discretes):
    derived = [derivation.derive_connection(Ad) for Ad in discretes]
    defects = []
    for _ in range(n):
        m, u, w = draw(rng, ctx.base_block, ctx.base_tangent_block,
                       ctx.base_tangent_block)
        m = ctx.base_points(m)
        u, w = (ctx.bundle.base.project_tangent(m, x) for x in (u, w))
        values = [connections.curvature(A, m, u, w) for A in derived]
        defects.append(_column_norm(values[0] - values[-1]
                                    if len(values) > 1 else values[0]))
    return worst_defect(defects)


def loop_closed_form(ctx, rng, n):
    defects = []
    for _ in range(n):
        m, u, w = draw(rng, ctx.base_block, ctx.base_tangent_block,
                       ctx.base_tangent_block)
        m = ctx.base_points(m)
        u, w = (ctx.bundle.base.project_tangent(m, x) for x in (u, w))
        defects.append(_column_norm(exterior_derivative(
            ctx.connection.value, m, u, w)))
    return worst_defect(defects)


def loop_metric_invariance(ctx, rng, n):
    gm = integration.build_invariant_metric(ctx.connection)
    defects = []
    for _ in range(n):
        q = point(ctx, rng)
        u = bundle_tangent(ctx, rng, q)
        w = bundle_tangent(ctx, rng, q)
        g = group(ctx, rng)
        defects.append(integration.metric_invariance_defect(gm, g, q, u, w))
    return worst_defect(defects)


def loop_retraction_equivariance(ctx, rng, n):
    defects = []
    for _ in range(n):
        q = point(ctx, rng)
        v = capped(bundle_tangent(ctx, rng, q),
                   0.2 * min(ctx.retraction.domain_radius, 2.0),
                   lambda v, cap, norm: v * cap / norm)
        g = group(ctx, rng)
        defects.append(integration.equivariance_defect(
            ctx.retraction, g, q, v))
    return worst_defect(defects)


LOOPS = {
    "connection_axioms": loop_connection_axioms,
    "discrete_axioms": loop_discrete_axioms,
    "retraction_axioms": loop_retraction_axioms,
    "exp_log_roundtrip": loop_exp_log_roundtrip,
    "derive_roundtrip": loop_derive_roundtrip,
    "lift_roundtrip": lambda ctx, rng, n: loop_lift_defect(
        ctx, rng, n, ctx.connection),
    "diagram": lambda ctx, rng, n: loop_lift_defect(
        ctx, rng, n, derivation.derive_connection(ctx.discretes[0])),
    "discrete_flatness": lambda ctx, rng, n: loop_holonomy_gap(
        ctx, rng, n, ctx.discretes[0]),
    "derived_curvature": lambda ctx, rng, n: loop_derived_curvature_gap(
        ctx, rng, n, ctx.discretes[0]),
    "same_derived_curvature": lambda ctx, rng, n: loop_derived_curvature_gap(
        ctx, rng, n, *ctx.discretes[:2]),
    "same_discrete_curvature": lambda ctx, rng, n: loop_holonomy_gap(
        ctx, rng, n, *ctx.discretes[:2]),
    "closed_form": loop_closed_form,
    "metric_invariance": loop_metric_invariance,
    "retraction_equivariance": loop_retraction_equivariance,
}


def test_every_sampled_check_has_a_loop():
    # distinctness evaluates one designated pair and draws nothing.
    assert set(LOOPS) == set(CHECKS) - {"distinctness"}


SCENARIOS = {
    "R2xU1": {"name": "r2-u1", "seed": 11, "box": [[-1.5, 1.5]] * 2,
              "bundle": {"kind": "trivial",
                         "base": {"kind": "R^d", "dim": 2},
                         "group": {"kind": "U1"}},
              "connection": {"kind": "local", "omega": "x_dy"},
              "discrete": {"kind": "integrated"},
              "integrator": {"retraction": "straight"}},
    "hopf-perturbed": {"name": "hopf-perturbed", "seed": 12,
                       "bundle": {"kind": "hopf"},
                       "connection": {"kind": "hopf_perturbed",
                                      "epsilon": 0.1},
                       "discrete": {"kind": "integrated"},
                       "integrator": {"retraction": "great_circle"}},
    "R3xSO3": {"name": "r3-so3", "seed": 13, "box": [[-1.0, 1.0]] * 3,
               "bundle": {"kind": "trivial",
                          "base": {"kind": "R^d", "dim": 3},
                          "group": {"kind": "SO3"}}},
    # Base points: uniform points of the cube, projected onto the sphere.
    "S2xU1": {"name": "s2-u1", "seed": 14,
              "bundle": {"kind": "trivial", "base": {"kind": "S2"},
                         "group": {"kind": "U1"}},
              "connection": {"kind": "local", "omega": "x_dy"},
              "discrete": {"kind": "integrated"},
              "integrator": {"retraction": "straight",
                             "domain_radius": 1.0}},
    "matched-R2xR": {"name": "matched", "seed": 15,
                     "bundle": {"kind": "trivial",
                                "base": {"kind": "R^d", "dim": 2},
                                "group": {"kind": "R^k", "dim": 1}},
                     "connection": {"kind": "local",
                                    "omega": "x_dy_plus_dx2"},
                     "discrete": [
                         {"kind": "matched",
                          "reference": {"kind": "local",
                                        "pair_map": "trapezoid_x_dy"}},
                         {"kind": "local", "pair_map": "trapezoid_x_dy"}]},
    "flat-R2xR": {"name": "flat", "seed": 16,
                  "bundle": {"kind": "trivial",
                             "base": {"kind": "R^d", "dim": 2},
                             "group": {"kind": "R^k", "dim": 1}},
                  "discrete": {"kind": "flat", "omega": "closed_xy"}},
}
FIRST_FIVE = ["derive_roundtrip", "diagram", "discrete_axioms",
              "exp_log_roundtrip", "lift_roundtrip"]
CASES = [(scenario, check) for scenario in ("R2xU1", "hopf-perturbed")
         for check in FIRST_FIVE] + [("R3xSO3", "exp_log_roundtrip")]
CASES += [(scenario, check) for scenario, checks in [
    ("R2xU1", ["closed_form", "connection_axioms", "derived_curvature",
               "discrete_flatness", "metric_invariance",
               "retraction_axioms", "retraction_equivariance"]),
    ("hopf-perturbed", ["connection_axioms", "discrete_flatness",
                        "metric_invariance", "retraction_axioms",
                        "retraction_equivariance"]),
    ("R3xSO3", ["retraction_axioms"]),
    ("S2xU1", ["closed_form", "connection_axioms", "derive_roundtrip",
               "discrete_axioms", "metric_invariance", "retraction_axioms",
               "retraction_equivariance"]),
    ("matched-R2xR", ["closed_form", "derived_curvature",
                      "discrete_flatness", "same_derived_curvature",
                      "same_discrete_curvature"]),
] for check in checks]


# The loops take the library's norm of each sample, so the stacked check
# must give their worst defect bit for bit.
@pytest.mark.parametrize("scenario,check", CASES)
def test_stacked_check_is_the_per_sample_loop(scenario, check):
    ctx = ScenarioContext(SCENARIOS[scenario])
    for index in range(3):
        n = 6
        stacked = CHECKS[check](ctx, {}, ctx.rng(index), n)
        loop = LOOPS[check](ctx, ctx.rng(index), n)
        assert stacked == loop


def test_run_check_hands_out_bounded_stacks(monkeypatch):
    # 250 samples reach the check as stacks of 100, 100 and 50 drawn from
    # one generator, and give the defect of one 250-column stack.
    ctx = ScenarioContext(SCENARIOS["R2xU1"])
    check = CHECKS["discrete_axioms"]
    sizes = []

    def recording(ctx, params, rng, n):
        sizes.append(n)
        return check(ctx, params, rng, n)

    monkeypatch.setitem(CHECKS, "discrete_axioms", recording)
    defect, n = scenarios.run_check(ctx, 2, {"name": "discrete_axioms",
                                             "samples": 250})
    assert (sizes, n) == ([100, 100, 50], 250)
    assert scenarios.STACK_SAMPLES == 100
    assert defect == check(ctx, {}, ctx.rng(2), 250)


def test_distinctness_evaluates_its_pair_once(monkeypatch):
    # distinctness draws nothing: 250 samples make one call, whose two
    # eval_discrete are the two discretes at the designated pair, and the
    # report still reads 250 samples.  The context builds the pair.
    entry = {"name": "distinctness", "samples": 250,
             "pair": [[0.1, 0.2], [0.4, -0.3]], "min_difference": 1e-3}
    ctx = ScenarioContext(dict(SCENARIOS["matched-R2xR"], checks=[entry]))
    calls = []
    original = discrete.eval_discrete

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(discrete, "eval_discrete", counting)
    defect, n = scenarios.run_check(ctx, 0, entry)
    assert (len(calls), n) == (2, 250)


# ---------------------------------------------------------------------------
# Sampling: the blocks of a check against the per-sample draws they replace.

def reference_draw(ctx, rng, name):
    """One sample's values of one block, one generator call each."""
    if name == "base":
        if ctx.box is not None:
            return rng.uniform(ctx.box[:, 0], ctx.box[:, 1])
        return rng.uniform(-1.0, 1.0, ctx.bundle.base.coord_size)
    if name == "scale":
        return rng.uniform(0.05, 1.0)
    size = {"algebra": ctx.bundle.group.dim,
            "base_tangent": ctx.bundle.base.coord_size,
            "tangent": (4 if isinstance(ctx.bundle, HopfBundle) else
                        ctx.bundle.base.coord_size + ctx.bundle.group.dim)}
    return rng.uniform(-1.0, 1.0, size[name])


BLOCKS = ["base", "algebra", "tangent", "scale", "base_tangent", "algebra",
          "scale"]


def reference_draws(ctx, rng, n, names):
    rows = [[reference_draw(ctx, rng, name) for name in names]
            for _ in range(n)]
    return [np.stack(column, axis=-1) for column in zip(*rows)]


def blocks(ctx, names):
    return [getattr(ctx, f"{name}_block") for name in names]


class CallCounter:
    """A generator that counts the calls made to its methods."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


class TestDraws:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_blocks_are_the_per_sample_draws(self, scenario):
        # Box R^2 and R^3 bases, U(1), R and SO(3) groups, a cube S^2 base
        # and the Hopf bundle, whose tangent block has four values.
        ctx = ScenarioContext(SCENARIOS[scenario])
        got = scenarios._draws(ctx.rng(0), 9, *blocks(ctx, BLOCKS))
        want = reference_draws(ctx, ctx.rng(0), 9, BLOCKS)
        assert [x.shape for x in got] == [x.shape for x in want]
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("scenario", ["R2xU1", "S2xU1"])
    def test_stacks_of_one_check_continue_one_stream(self, scenario):
        # 250 samples in stacks of 100, 100 and 50 from one generator.
        ctx = ScenarioContext(SCENARIOS[scenario])
        rng = ctx.rng(3)
        parts = [scenarios._draws(rng, n, *blocks(ctx, BLOCKS))
                 for n in (100, 100, 50)]
        got = [np.concatenate(x, axis=-1) for x in zip(*parts)]
        want = reference_draws(ctx, ctx.rng(3), 250, BLOCKS)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))

    # 250 samples in stacks of 100, 100 and 50: one call per stack, on a box
    # base, a sphere base and the Hopf bundle alike.
    @pytest.mark.parametrize("scenario", ["R2xU1", "S2xU1", "hopf-perturbed"])
    def test_one_generator_call_per_uniform_stack(self, monkeypatch,
                                                  scenario):
        ctx = ScenarioContext(SCENARIOS[scenario])
        generators = []
        rng = ctx.rng

        def counting_rng(stream):
            generators.append(CallCounter(rng(stream)))
            return generators[-1]

        monkeypatch.setattr(ctx, "rng", counting_rng)
        scenarios.run_check(ctx, 1, {"name": "discrete_axioms",
                                     "samples": 250})
        assert [g.calls for g in generators] == [["random"] * 3]

    @pytest.mark.parametrize("scenario", ["S2xU1", "hopf-perturbed"])
    def test_sample_is_replayed_from_its_offset(self, scenario):
        # Sample i of a stack is the one-sample draw that follows the i * K
        # values of the samples before it in a freshly re-keyed stream.
        ctx = ScenarioContext(SCENARIOS[scenario])
        draws = blocks(ctx, BLOCKS)
        K = sum(np.size(low) for low, _ in draws)
        stack = scenarios._draws(ctx.rng(4), 9, *draws)
        for i in range(9):
            rng = ctx.rng(4)
            rng.random(i * K)
            one = scenarios._draws(rng, 1, *draws)
            assert all(np.array_equal(x[..., i], y[..., 0])
                       for x, y in zip(stack, one))

    @pytest.mark.parametrize("box", [[[1.0, -1.0], [0.0, 1.0]],
                                     [[-1e308, 1e308], [0.0, 1.0]]])
    def test_box_rows_uniform_refuses(self, box):
        # A reversed row, or one whose width overflows: rng.uniform raises
        # on both, so the box is refused where the context is built.
        with pytest.raises(ParseError, match="box rows"):
            ScenarioContext(dict(SCENARIOS["R2xU1"], box=box))


# ---------------------------------------------------------------------------
# Joined pairs: one eval_discrete call on the pairs joined on a new stack
# axis, against one call per pair.

FORMS = {
    "local": ("matched-R2xR", 1),
    "matched": ("matched-R2xR", 0),
    "flat": ("flat-R2xR", 0),
    "integrated-R2xU1": ("R2xU1", 0),
    "integrated-hopf-perturbed": ("hopf-perturbed", 0),
}


@pytest.mark.parametrize("form", sorted(FORMS))
@pytest.mark.parametrize("n", [None, 6])
def test_joined_pairs_are_the_separate_calls(form, n):
    # n = None draws single points, n = 6 stacks of six.
    scenario, index = FORMS[form]
    ctx = ScenarioContext(SCENARIOS[scenario])
    Ad = ctx.discretes[index]
    rng = ctx.rng(0)
    algebra = ctx.algebra_block
    nearby = (ctx.base_tangent_block, ctx.scale_block, algebra)
    m, h, *raw, g, g2 = scenarios._draws(rng, n or 1, ctx.base_block,
                                         algebra, *nearby, *nearby,
                                         algebra, algebra)
    if n is None:
        m, h, *raw, g, g2 = (x[..., 0] for x in (m, h, *raw, g, g2))
    q0 = ctx.points(m, h)
    q1 = ctx.nearby_points(q0, *raw[:3], 0.2)
    q2 = ctx.nearby_points(q0, *raw[3:], 0.2)
    g, g2 = ctx.bundle.group.exp(g), ctx.bundle.group.exp(g2)
    assert np.array_equal(
        discrete.discrete_curvature(Ad, discrete.triangle_pairs(q0, q1, q2)),
        separate_curvature(Ad, q0, q1, q2))
    joined = discrete.axiom_defects(Ad, g, g2, q0, q1)
    separate = separate_axiom_defects(Ad, g, g2, q0, q1)
    assert all(np.shape(x) == np.shape(m)[1:] for x in joined)
    assert all(np.array_equal(a, b) for a, b in zip(joined, separate))


@pytest.mark.parametrize("n", [None, 6])
def test_joined_matched_rule_is_exact_on_the_diagonal(n):
    # The axiom pairs, joined as the laws join them: the diagonal pair
    # (q0, q0) gets the reference's value bit for bit, since the increment
    # over a segment of length zero is exactly zero.
    ctx = ScenarioContext(SCENARIOS["matched-R2xR"])
    Ad, Ad_ref = ctx.discretes
    rng = ctx.rng(0)
    algebra = ctx.algebra_block
    nearby = (ctx.base_tangent_block, ctx.scale_block, algebra)
    m, h, *raw, g, g2 = scenarios._draws(rng, n or 1, ctx.base_block,
                                         algebra, *nearby, algebra, algebra)
    if n is None:
        m, h, *raw, g, g2 = (x[..., 0] for x in (m, h, *raw, g, g2))
    q0 = ctx.points(m, h)
    q1 = ctx.nearby_points(q0, *raw, 0.2)
    g, g2 = ctx.bundle.group.exp(g), ctx.bundle.group.exp(g2)
    joined = bundles.join([q0, bundles.act(g, q0), q0],
                          [q0, bundles.act(g2, q1), q1])
    got = discrete.eval_discrete(Ad, *joined)
    want = discrete.eval_discrete(Ad_ref, *joined)
    assert got.shape == want.shape
    assert got[..., 0].tobytes() == want[..., 0].tobytes()
