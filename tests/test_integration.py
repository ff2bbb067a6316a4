"""Retraction-based integration of continuous connections."""

import numpy as np
import pytest

from disconn import bundles, connections
from disconn.bundles import (BundlePoint, HopfBundle, TrivialBundle,
                             make_trivial_tangent)
from disconn.connections import (HopfConnection, TrivialLocalConnection,
                                 eval_connection, horizontal_lift)
from disconn.derivation import derive_connection
from disconn.discrete import axiom_defects, eval_discrete
from disconn.errors import BundleMismatch, OutsideDomain
from disconn.groups import Torus, Translation
from disconn.integration import (build_invariant_metric, equivariance_defect,
                                 hopf_geodesic_retraction,
                                 integrate_connection, metric_invariance_defect,
                                 reduced_retraction, retract_bundle,
                                 trivial_product_retraction,
                                 trivial_skewed_retraction)
from disconn.manifolds import (EuclideanChart, Sphere, metric_exponential,
                               retract)
from disconn.scenarios import ScenarioContext


def x_dy_setup(group=None):
    B = TrivialBundle(EuclideanChart(2), group or Translation(1))
    A = TrivialLocalConnection(B, lambda m, v: np.array([m[0] * v[1]]))
    return B, A, 1e18


class TestMetric:
    def test_horizontal_vertical_orthogonal(self):
        # For omega = x dy the lift of (0, 1) at x has fiber part -x; it
        # must be orthogonal to the vertical generator.
        B, A, _ = x_dy_setup()
        gm = build_invariant_metric(A)
        x = 0.8
        q = BundlePoint.trivial(B, [x, 0.0], [0.0])
        h = horizontal_lift(A, q, np.array([0.0, 1.0]))
        vert = bundles.infinitesimal_generator(
            q, np.array([1.0]))
        assert abs(gm(q, h, vert)) <= 1e-12

    def test_gram_values(self):
        # At x = 1, the lift h = (0, 1, -1) has |h|^2 = base + fiber = 1,
        # since A(h) = 0; the vertical generator has |.|^2 = 1.
        B, A, _ = x_dy_setup()
        gm = build_invariant_metric(A)
        q = BundlePoint.trivial(B, [1.0, 0.0], [0.0])
        h = make_trivial_tangent(q, [0.0, 1.0], [-1.0])
        vert = make_trivial_tangent(q, [0.0, 0.0], [1.0])
        assert gm(q, h, h) == pytest.approx(1.0)
        assert gm(q, vert, vert) == pytest.approx(1.0)

    def test_invariance(self):
        B, A, _ = x_dy_setup(Torus(1))
        gm = build_invariant_metric(A)
        rng = np.random.default_rng(97)
        for _ in range(20):
            q = BundlePoint.trivial(B, rng.uniform(-1, 1, 2),
                                    rng.uniform(-3, 3, 1))
            u = make_trivial_tangent(q, rng.uniform(-1, 1, 2),
                                     rng.uniform(-1, 1, 1))
            w = make_trivial_tangent(q, rng.uniform(-1, 1, 2),
                                     rng.uniform(-1, 1, 1))
            g = B.group.wrap(rng.uniform(-3, 3, 1))
            assert metric_invariance_defect(gm, g, q, u, w) <= 1e-12


PLANE = TrivialBundle(EuclideanChart(2), Torus(1))
HOPF = HopfBundle()

BUNDLE_RETRACTIONS = {
    "straight": lambda: trivial_product_retraction(PLANE),
    "skewed": lambda: trivial_skewed_retraction(PLANE),
    "great_circle": lambda: hopf_geodesic_retraction(HOPF),
    "chart": lambda: ScenarioContext({
        "name": "chart", "seed": 0, "bundle": {"kind": "hopf"},
        "integrator": {"retraction": "chart"}}).retraction,
}


def point_of(bundle):
    """A point of the bundle and the length of its tangent arrays."""
    if bundle == HOPF:
        return bundles.section_over(bundle, np.array([0.0, 0.0, 1.0])), 4
    return bundles.section_over(bundle, np.zeros(2)), 3


def at_radius(R, size):
    """A tangent whose length is exactly the retraction's radius."""
    v = np.zeros(size)
    v[1] = R.domain_radius
    return v


class TestSharedRadiusRule:
    # Base and bundle retractions are one type with one radius test.
    @pytest.mark.parametrize("kind, x", [
        (EuclideanChart(2), [0.0, 0.0]), (Sphere(3), [0.0, 0.0, 1.0])])
    def test_retract_rejects_a_tangent_at_the_radius(self, kind, x):
        R = metric_exponential(kind)
        with pytest.raises(OutsideDomain):
            retract(R, np.array(x), at_radius(R, kind.coord_size))

    @pytest.mark.parametrize("name", BUNDLE_RETRACTIONS)
    def test_retract_bundle_rejects_a_tangent_at_the_radius(self, name):
        R = BUNDLE_RETRACTIONS[name]()
        q, size = point_of(R.space)
        with pytest.raises(OutsideDomain):
            retract_bundle(R, q, at_radius(R, size))

    @pytest.mark.parametrize("name", BUNDLE_RETRACTIONS)
    def test_retract_bundle_rejects_a_point_of_another_bundle(self, name):
        R = BUNDLE_RETRACTIONS[name]()
        q, size = point_of(PLANE if R.space == HOPF else HOPF)
        with pytest.raises(BundleMismatch):
            retract_bundle(R, q, np.zeros(size))


class TestRetractions:
    def test_product_retraction_equivariant(self):
        B, _, _ = x_dy_setup(Torus(1))
        R = trivial_product_retraction(B)
        rng = np.random.default_rng(101)
        for _ in range(30):
            q = BundlePoint.trivial(B, rng.uniform(-1, 1, 2),
                                    rng.uniform(-3, 3, 1))
            v = make_trivial_tangent(q, rng.uniform(-1, 1, 2),
                                     rng.uniform(-1, 1, 1))
            g = B.group.wrap(rng.uniform(-3, 3, 1))
            assert equivariance_defect(R, g, q, v) <= 1e-12

    def test_skewed_retraction_rejected(self):
        B, _, _ = x_dy_setup(Torus(1))
        R = trivial_skewed_retraction(B)
        q = BundlePoint.trivial(B, [0.0, 0.0], [1.0])
        v = make_trivial_tangent(q, [0.1, 0.0], [0.5])
        g = B.group.wrap([1.0])
        assert equivariance_defect(R, g, q, v) > 1e-4

    def test_hopf_retraction_equivariant(self):
        H = HopfBundle()
        R = hopf_geodesic_retraction(H)
        rng = np.random.default_rng(103)
        for _ in range(30):
            x = rng.normal(size=4)
            q = BundlePoint.hopf(H, x / np.linalg.norm(x))
            v = rng.normal(size=4)
            v -= np.dot(v, q.ambient) * q.ambient
            g = H.group.wrap(rng.uniform(-3, 3, 1))
            assert equivariance_defect(R, g, q, 0.3 * v) <= 1e-12

    def test_hopf_retraction_stays_on_sphere(self):
        H = HopfBundle()
        R = hopf_geodesic_retraction(H)
        q = BundlePoint.hopf(H, np.array([1.0, 0.0, 0.0, 0.0]))
        out = retract_bundle(R, q, np.array([0.0, 0.3, -0.2, 0.1]))
        assert abs(np.linalg.norm(out.ambient) - 1.0) <= 1e-14


class TestReducedRetraction:
    def test_trivial_reduction_is_base_rule(self):
        # With the product retraction the reduced map is just the base
        # exponential, whatever the connection.
        B, A, _ = x_dy_setup()
        red = reduced_retraction(A, trivial_product_retraction(B))
        out = red.step(np.array([1.0, 2.0]), np.array([0.5, -1.0]))
        assert np.allclose(out, [1.5, 1.0], atol=1e-12)

    @pytest.mark.parametrize("bundle, retraction, radius", [
        ({"kind": "trivial", "base": {"kind": "R^d", "dim": 2},
          "group": {"kind": "U1"}}, "straight", 1e18),
        ({"kind": "trivial", "base": {"kind": "R^d", "dim": 2},
          "group": {"kind": "U1"}}, "skewed", 1e18),
        ({"kind": "trivial", "base": {"kind": "S2"},
          "group": {"kind": "U1"}}, "straight", np.pi / 2.0),
        ({"kind": "hopf"}, "great_circle", np.pi / 2.0),
        ({"kind": "hopf"}, "chart", np.pi / 2.0),
    ])
    def test_reduced_radius_is_capped_by_the_base(self, bundle, retraction,
                                                  radius):
        hopf = bundle["kind"] == "hopf"
        ctx = ScenarioContext({
            "name": "radius", "seed": 0, "bundle": bundle,
            "connection": ({"kind": "hopf_canonical"} if hopf else
                           {"kind": "local", "omega": "x_dy"}),
            "integrator": {"retraction": retraction}})
        R = reduced_retraction(ctx.connection, ctx.retraction)
        assert R.domain_radius == radius

    def test_hopf_reduction_moves_base_isometrically(self):
        # The horizontal lift of a base tangent of norm t has ambient norm
        # t/2, and projection doubles speeds again: the reduced step moves
        # the base by exactly t along a geodesic.
        H = HopfBundle()
        A = HopfConnection(H)
        red = reduced_retraction(A, hopf_geodesic_retraction(H))
        m = np.array([0.0, 0.0, 1.0])
        t = 0.3
        out = red.step(m, np.array([t, 0.0, 0.0]))
        assert Sphere(3).distance(m, out) == pytest.approx(t, abs=1e-12)


class TestIntegration:
    def test_zero_connection_recovers_fiber_offset(self):
        # A = fiber projection only: the integrated pair map is constant
        # identity, so A_d((m0,y0),(m1,y1)) = y1 - y0.
        B = TrivialBundle(EuclideanChart(2), Translation(1))
        A = TrivialLocalConnection(B, lambda m, v: np.array([0.0]))
        Ad = integrate_connection(A, trivial_product_retraction(B),
                                  1e18)
        q0 = BundlePoint.trivial(B, [0.0, 0.0], [1.5])
        q1 = BundlePoint.trivial(B, [2.0, -1.0], [4.0])
        assert eval_discrete(Ad, q0, q1)[0] == pytest.approx(2.5,
                                                                  abs=1e-9)

    def test_x_dy_straight_segment_value(self):
        # Straight-line base retraction: the horizontal lift of the segment
        # accumulates integral of x dy with x frozen at x0, i.e.
        # C(m0, m1) = x0 (y1 - y0) ... the fiber then shows -C.
        B, A, U = x_dy_setup()
        Ad = integrate_connection(A, trivial_product_retraction(B), U)
        q0 = BundlePoint.trivial(B, [0.4, 0.0], [0.0])
        q1 = BundlePoint.trivial(B, [0.4, 0.5], [0.0])
        assert eval_discrete(Ad, q0, q1)[0] == pytest.approx(0.2,
                                                                  abs=1e-9)

    def test_axioms_hold(self):
        B, A, U = x_dy_setup(Torus(1))
        Ad = integrate_connection(A, trivial_product_retraction(B), U)
        rng = np.random.default_rng(107)
        for _ in range(10):
            q0 = BundlePoint.trivial(B, rng.uniform(-1, 1, 2),
                                     rng.uniform(-3, 3, 1))
            q1 = BundlePoint.trivial(B, rng.uniform(-1, 1, 2),
                                     rng.uniform(-3, 3, 1))
            g0 = B.group.wrap(rng.uniform(-3, 3, 1))
            g1 = B.group.wrap(rng.uniform(-3, 3, 1))
            identity, equivariance = axiom_defects(Ad, g0, g1, q0, q1)
            assert identity <= 1e-9
            assert equivariance <= 1e-9

    def test_roundtrip_trivial(self):
        B, A, U = x_dy_setup()
        Ad = integrate_connection(A, trivial_product_retraction(B), U)
        A_back = derive_connection(Ad)
        rng = np.random.default_rng(109)
        for _ in range(10):
            q = BundlePoint.trivial(B, rng.uniform(-1, 1, 2),
                                    rng.uniform(-2, 2, 1))
            v = make_trivial_tangent(q, rng.uniform(-1, 1, 2),
                                     rng.uniform(-1, 1, 1))
            diff = eval_connection(A_back, q, v) - eval_connection(A, q, v)
            assert np.linalg.norm(diff) <= 1e-8

    def test_roundtrip_hopf(self):
        H = HopfBundle()
        A = HopfConnection(H)
        Ad = integrate_connection(A, hopf_geodesic_retraction(H),
                                  np.pi / 2)
        A_back = derive_connection(Ad)
        rng = np.random.default_rng(113)
        for _ in range(5):
            x = rng.normal(size=4)
            q = BundlePoint.hopf(H, x / np.linalg.norm(x))
            v = rng.normal(size=4)
            v -= np.dot(v, q.ambient) * q.ambient
            diff = eval_connection(A_back, q, v) - eval_connection(A, q, v)
            assert np.linalg.norm(diff) <= 1e-5
