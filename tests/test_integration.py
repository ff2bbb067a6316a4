"""Retraction-based integration of continuous connections."""

from dataclasses import replace

import numpy as np
import pytest

from disconn import bundles, connections
from disconn.bundles import (BundlePoint, HopfBundle, TrivialBundle,
                             make_trivial_tangent)
from disconn.connections import (HopfConnection, TrivialLocalConnection,
                                 eval_connection, horizontal_lift,
                                 horizontal_lifts)
from disconn.derivation import derive_connection
from disconn.discrete import axiom_defects, eval_discrete
from disconn.errors import BundleMismatch, OutsideDomain
from disconn.groups import SO3, Torus, Translation
from disconn.integration import (build_invariant_metric, equivariance_defect,
                                 hopf_geodesic_retraction,
                                 integrate_connection, metric_invariance_defect,
                                 reduced_retraction, retract_bundle,
                                 trivial_product_retraction,
                                 trivial_skewed_retraction)
from disconn.manifolds import (EuclideanChart, Retraction, Sphere,
                               invert_extended, metric_exponential, retract)
from disconn.numdiff import _column_norm, _matvec
from disconn.scenarios import ScenarioContext, one_form_builtin


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


def reduced_at(A, R, q):
    """The reduced retraction of A and R at the fiber point q."""
    return reduced_retraction(R, q, horizontal_lifts(A, q))


class TestReducedRetraction:
    def test_trivial_reduction_is_base_rule(self):
        # With the product retraction the reduced map is just the base
        # exponential, whatever the connection and the fiber point.
        B, A, _ = x_dy_setup()
        q = BundlePoint.trivial(B, [1.0, 2.0], [0.7])
        red = reduced_at(A, trivial_product_retraction(B), q)
        out = red.step(q.base_point, np.array([0.5, -1.0]))
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
        base = ctx.bundle.base
        m = np.eye(base.coord_size)[-1]
        R = reduced_at(ctx.connection, ctx.retraction,
                       bundles.section_over(ctx.bundle, m))
        assert R.domain_radius == radius

    def test_hopf_reduction_moves_base_isometrically(self):
        # The horizontal lift of a base tangent of norm t has ambient norm
        # t/2, and projection doubles speeds again: the reduced step moves
        # the base by exactly t along a geodesic.
        H = HopfBundle()
        A = HopfConnection(H)
        m = np.array([0.0, 0.0, 1.0])
        red = reduced_at(A, hopf_geodesic_retraction(H),
                         bundles.section_over(H, m))
        t = 0.3
        out = red.step(m, np.array([t, 0.0, 0.0]))
        assert Sphere(3).distance(m, out) == pytest.approx(t, abs=1e-12)

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_hopf_reduction_does_not_depend_on_the_fiber_point(self, epsilon):
        # By equivariance of A and R, the step at g . q is the step at q.
        H = HopfBundle()
        A = HopfConnection(H, epsilon)
        R = hopf_geodesic_retraction(H)
        rng = np.random.default_rng(113)
        for _ in range(10):
            m = rng.normal(size=3)
            m /= np.linalg.norm(m)
            q = bundles.section_over(H, m)
            u = 0.4 * Sphere(3).project_tangent(m, rng.normal(size=3))
            g = H.group.wrap(rng.uniform(-3, 3, 1))
            moved = reduced_at(A, R, bundles.act(g, q)).step(m, u)
            assert np.max(np.abs(moved - reduced_at(A, R, q).step(m, u))) \
                <= 1e-15

    def test_a_point_of_another_bundle_is_rejected(self):
        B, A, _ = x_dy_setup()
        H = HopfBundle()
        q = bundles.section_over(H, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(BundleMismatch):
            reduced_retraction(trivial_product_retraction(B), q,
                               horizontal_lifts(HopfConnection(H), q))


def so3_local(B):
    # A non-abelian one-form, linear in the tangent, on the whole stack.
    return TrivialLocalConnection(B, lambda m, v: SO3().adjoint(
        SO3().exp([m[1], m[2], m[0]]),
        [v[0] + m[2] * v[1], v[1] - m[0] * v[2], 0.5 * v[2]]))


# (connection, bundle retraction): local one-forms on every trivial family
# a scenario integrates, and both Hopf connections.
LIFT_CASES = {
    "R2xU1": (lambda: one_form_builtin(
        "x_dy", TrivialBundle(EuclideanChart(2), Torus(1))),
        trivial_product_retraction),
    "R2xT1": (lambda: one_form_builtin(
        "closed_xy", TrivialBundle(EuclideanChart(2), Torus(1))),
        trivial_skewed_retraction),
    "R2xR": (lambda: one_form_builtin(
        "x_dy_plus_dx2", TrivialBundle(EuclideanChart(2), Translation(1))),
        trivial_product_retraction),
    "S2xU1": (lambda: one_form_builtin(
        "x_dy", TrivialBundle(Sphere(3), Torus(1))),
        trivial_product_retraction),
    "R3xSO3": (lambda: so3_local(TrivialBundle(EuclideanChart(3), SO3())),
               trivial_product_retraction),
    "hopf_canonical": (lambda: HopfConnection(HopfBundle()),
                       hopf_geodesic_retraction),
    "hopf_perturbed": (lambda: HopfConnection(HopfBundle(), 0.1),
                       hopf_geodesic_retraction),
}
# L u against the lift of u, in ulps of the lift's norm; 2 is the largest
# gap seen over 200 columns of each case.
LIFT_ULPS = 4


def random_points(rng, A, n):
    """n points of A's bundle as one stack, anywhere in their fibers, and
    their base points."""
    B = A.bundle
    if isinstance(B.base, Sphere):
        m = rng.normal(size=(3, n))
        m /= np.linalg.norm(m, axis=0)
    else:
        m = rng.uniform(-1.0, 1.0, (B.base.dim, n))
    g = B.group.exp(rng.uniform(-1.0, 1.0, (B.group.dim, n)))
    return bundles.act(g, bundles.section_over(B, m)), m


def column(q, i):
    """Point i of a stack of points, with its column of the base point."""
    if isinstance(q.bundle, TrivialBundle):
        return BundlePoint(q.bundle, q.base_point[:, i], q.group_part[..., i])
    return BundlePoint(q.bundle, q.base_point[:, i], ambient=q.ambient[:, i])


def reference_rule(A, R, q0, q1):
    """The integrated rule that lifts inside every reduced step, at the
    section over its base point, and once more after the solve."""
    bundle, base = A.bundle, A.bundle.base

    def step(m, components):
        q = bundles.section_over(bundle, m)
        h = horizontal_lift(A, q, base.project_tangent(m, components))
        return bundles.project(R.step(q, h))

    reduced = Retraction(base, step,
                         min(R.domain_radius, base.default_radius))
    m0, m1 = bundles.project(q0), bundles.project(q1)
    delta = invert_extended(reduced, m0, m1)
    return bundles.fiber_translation(
        retract_bundle(R, q0, horizontal_lift(A, q0, delta)), q1)


class TestLiftMatrix:
    @pytest.mark.parametrize("name", sorted(LIFT_CASES))
    def test_lift_matrix_applies_the_horizontal_lift(self, name):
        A = LIFT_CASES[name][0]()
        base = A.bundle.base
        rng = np.random.default_rng(127)
        q, m = random_points(rng, A, 50)
        u = base.project_tangent(m, rng.uniform(-1.0, 1.0,
                                                (base.coord_size, 50)))
        L = horizontal_lifts(A, q)
        lift = horizontal_lift(A, q, u)
        assert L.shape == (len(lift), base.coord_size, 50)
        gap = np.abs(_matvec(L, u) - lift)
        assert np.all(gap <= LIFT_ULPS * np.spacing(_column_norm(lift)))
        for i in range(0, 50, 7):
            single = horizontal_lifts(A, column(q, i))
            assert np.array_equal(single, L[..., i])
            gap = np.abs(_matvec(single, u[:, i]) - lift[:, i])
            assert np.all(gap <= LIFT_ULPS * np.spacing(
                _column_norm(lift[:, i])))

    @pytest.mark.parametrize("name", sorted(LIFT_CASES))
    def test_integrated_rule_matches_the_lift_per_step(self, name):
        make, retraction = LIFT_CASES[name]
        A = make()
        R = retraction(A.bundle)
        base = A.bundle.base
        rng = np.random.default_rng(131)
        q0, m = random_points(rng, A, 20)
        v = base.project_tangent(m, rng.uniform(-1.0, 1.0,
                                                (base.coord_size, 20)))
        m1 = base.geodesic_step(m, 0.3 * v / np.maximum(_column_norm(v), 1.0))
        g1 = A.bundle.group.exp(rng.uniform(-1.0, 1.0, (A.bundle.group.dim,
                                                       20)))
        q1 = bundles.act(g1, bundles.section_over(A.bundle, m1))
        Ad = integrate_connection(A, R, 1.0)
        got = eval_discrete(Ad, q0, q1)
        want = reference_rule(A, R, q0, q1)
        assert np.max(A.bundle.group.distance(got, want)) <= 1e-14


def same_point(p, q):
    """The two bundle points have the same coordinates, bit for bit."""
    fields = (("base_point", "group_part")
              if isinstance(p.bundle, TrivialBundle) else ("ambient",))
    return all(getattr(p, f).shape == getattr(q, f).shape
               and getattr(p, f).tobytes() == getattr(q, f).tobytes()
               for f in fields)


class TestRuleReadsTheLastStep:
    """The integrated rule takes its horizontal representative from the
    last step of its Newton solve, a residual's, instead of retracting
    L delta from q0 again: the point must be the one that retraction gives,
    bit for bit, and the retraction's radius must still be tested on L
    delta."""

    @staticmethod
    def pairs(A, stack):
        """A stack of stack[0] points q0 and, over their base points, a
        `stack` of points q1 within 0.3 of them on the base."""
        base, group = A.bundle.base, A.bundle.group
        rng = np.random.default_rng(137)
        q0, m = random_points(rng, A, stack[0])
        v = base.project_tangent(m, rng.uniform(
            -1.0, 1.0, (base.coord_size,) + stack))
        m1 = base.geodesic_step(m, 0.3 * v / np.maximum(_column_norm(v), 1.0))
        g1 = group.exp(rng.uniform(-1.0, 1.0, (group.dim,) + stack))
        return q0, bundles.act(g1, bundles.section_over(A.bundle, m1))

    # Newton iterates on the perturbed Hopf bundle, and returns at its
    # first residual on the trivial bundles, straight or skewed.
    @pytest.mark.parametrize("name", ["hopf_perturbed", "R2xU1", "R2xT1"])
    @pytest.mark.parametrize("stack", [(12,), (12, 4)])
    def test_point_is_the_retraction_of_the_solved_lift(self, name, stack,
                                                        monkeypatch):
        make, retraction = LIFT_CASES[name]
        A = make()
        R = retraction(A.bundle)
        q0, q1 = self.pairs(A, stack)
        read = []
        translation = bundles.fiber_translation
        monkeypatch.setattr(bundles, "fiber_translation",
                            lambda q_h, q: read.append(q_h)
                            or translation(q_h, q))
        got = eval_discrete(integrate_connection(A, R, 1.0), q0, q1)
        L = horizontal_lifts(A, q0)
        delta = invert_extended(reduced_retraction(R, q0, L),
                                bundles.project(q0), bundles.project(q1))
        want = retract_bundle(R, q0, _matvec(L, delta))
        assert len(read) == 1 and same_point(read[0], want)
        assert got.tobytes() == translation(want, q1).tobytes()

    @pytest.mark.parametrize("stencil", [(), (4,)])
    def test_a_lift_beyond_the_radius_is_still_refused(self, stencil):
        # omega = x dy at x = 10 lifts delta = (0, 0.1) to a tangent of
        # length ~1.005: the base pair is inside the solve's test
        # (0.1 < 0.5 / 2), but L delta is outside the radius 0.5.
        B, A, _ = x_dy_setup(Torus(1))
        R = replace(trivial_product_retraction(B), domain_radius=0.5)
        Ad = integrate_connection(A, R, 1.0)
        m0 = np.array([[10.0, 0.0], [0.0, 0.0]])
        m1 = np.array([[10.0, 0.0], [0.1, 0.1]]).reshape((2, 2) + (1,) * len(
            stencil)) + np.zeros(stencil)
        q0, q1 = (bundles.section_over(B, m) for m in (m0, m1))
        L = horizontal_lifts(A, q0)
        delta = invert_extended(reduced_retraction(R, q0, L), m0, m1)
        with pytest.raises(OutsideDomain):
            retract_bundle(R, q0, _matvec(L, delta))
        with pytest.raises(OutsideDomain):
            eval_discrete(Ad, q0, q1)
        # The column at x = 0 alone lifts inside the radius.
        q0, q1 = (bundles.section_over(B, m[:, 1]) for m in (m0, m1))
        assert np.all(np.isfinite(eval_discrete(Ad, q0, q1)))


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
