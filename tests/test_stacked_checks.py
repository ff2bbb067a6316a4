"""Stacks of samples: per-column distances, the Hopf section on a stack,
and checks that evaluate all their samples as one stack against the loop
over single samples that they replace."""

import numpy as np
import pytest

from disconn import bundles, connections, derivation, discrete
from disconn.bundles import (BundlePoint, HopfBundle, TrivialBundle,
                             hopf_projection_coords, hopf_section,
                             point_distance)
from disconn.groups import SO3, Circle, Torus, Translation
from disconn.manifolds import EuclideanChart
from disconn.numdiff import _column_norm, worst_defect
from disconn.scenarios import CHECKS, ScenarioContext, rng_for

K = 7


def group_stack(G, rng, k=K):
    if isinstance(G, SO3):
        return G.exp(rng.uniform(-1.0, 1.0, (3, k)))
    return G.wrap(rng.uniform(-3.0, 3.0, (G.dim, k)))


class TestPerColumnDistances:
    @pytest.mark.parametrize("G", [Translation(1), Translation(3), Circle(),
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
                return BundlePoint(bundle, ambient=q)
            return BundlePoint(bundle,
                               rng.uniform(-1.0, 1.0, (bundle.base.dim, K)),
                               group_stack(bundle.group, rng))

        def column(q, i):
            if q.ambient is not None:
                return BundlePoint(q.bundle, ambient=q.ambient[:, i])
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
# Stacked checks against the per-sample loops they replace.

def loop_discrete_axioms(ctx, rng, n):
    Ad = ctx.discretes[0]
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


def loop_derive_roundtrip(ctx, rng, n):
    derived = derivation.derive_connection(ctx.discretes[0])
    defects = []
    for _ in range(n):
        q = ctx.sample_point(rng)
        v = ctx.sample_bundle_tangent(rng, q)
        lhs = connections.eval_connection(derived, q, v)
        rhs = connections.eval_connection(ctx.connection, q, v)
        defects.append(_column_norm(lhs - rhs))
    return worst_defect(defects)


def loop_lift_defect(ctx, rng, n, A):
    Ad = ctx.discretes[0]
    defects = []
    for _ in range(n):
        q = ctx.sample_point(rng)
        dm = ctx.sample_base_tangent(rng, bundles.project(q))
        direct = derivation.derive_horizontal(Ad, q, dm)
        lifted = connections.horizontal_lift(A, q, dm)
        defects.append(_column_norm(direct - lifted))
    return worst_defect(defects)


def loop_exp_log_roundtrip(ctx, rng, n):
    G = ctx.bundle.group
    defects = []
    for _ in range(n):
        xi = rng.uniform(-1.0, 1.0, G.dim) * 2.8 / np.sqrt(G.dim)
        defects.append(_column_norm(G.log(G.exp(xi)) - xi))
        g = ctx.sample_group(rng)
        defects.append(G.distance(G.exp(G.log(g)), g))
    return worst_defect(defects)


LOOPS = {
    "discrete_axioms": loop_discrete_axioms,
    "derive_roundtrip": loop_derive_roundtrip,
    "lift_roundtrip": lambda ctx, rng, n: loop_lift_defect(
        ctx, rng, n, ctx.connection),
    "diagram": lambda ctx, rng, n: loop_lift_defect(
        ctx, rng, n, derivation.derive_connection(ctx.discretes[0])),
    "exp_log_roundtrip": loop_exp_log_roundtrip,
}

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
}
# Every check runs on the U(1) scenarios; the SO(3) one has no connection.
CASES = [(scenario, check) for scenario in ("R2xU1", "hopf-perturbed")
         for check in sorted(LOOPS)] + [("R3xSO3", "exp_log_roundtrip")]
# The loops take the library's norm of each sample, so the stacked check
# must give their worst defect bit for bit.
@pytest.mark.parametrize("scenario,check", CASES)
def test_stacked_check_is_the_per_sample_loop(scenario, check):
    ctx = ScenarioContext(SCENARIOS[scenario])
    for index in range(3):
        n = 6
        stacked = CHECKS[check](ctx, {}, rng_for(ctx.seed, index), n)
        loop = LOOPS[check](ctx, rng_for(ctx.seed, index), n)
        assert stacked == loop
