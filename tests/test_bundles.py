"""Bundle points, actions, fiber translations, and the Hopf fibration."""

import numpy as np
import pytest

from disconn import bundles
from disconn.bundles import (BundlePoint, BundleTangent, DomainSpec,
                             HopfBundle, TrivialBundle, act, any_lift,
                             base_distance, bundle_curve, domain_contains,
                             fiber_translation, hopf_projection_coords,
                             infinitesimal_generator, local_coords,
                             make_trivial_tangent, point_distance, project,
                             section_over, split_trivial,
                             tangent_lift_action, tangent_projection)
from disconn.errors import NotSameFiber
from disconn.groups import Circle, SO3, Translation
from disconn.manifolds import EuclideanChart, Sphere


def make_trivial():
    return TrivialBundle(EuclideanChart(2), Circle())


def random_hopf_point(rng):
    x = rng.normal(size=4)
    return BundlePoint.hopf(HopfBundle(), x / np.linalg.norm(x))


class TestTrivialBundle:
    def test_project(self):
        B = make_trivial()
        q = BundlePoint.trivial(B, [1.0, 2.0], [0.5])
        assert np.allclose(project(q), [1.0, 2.0])

    def test_act_left_multiplies(self):
        B = make_trivial()
        q = BundlePoint.trivial(B, [0.0, 0.0], [0.3])
        g = B.group.wrap([0.4])
        assert act(g, q).group_part[0] == pytest.approx(0.7)

    def test_fiber_translation(self):
        B = make_trivial()
        q1 = BundlePoint.trivial(B, [1.0, 1.0], [0.2])
        q2 = BundlePoint.trivial(B, [1.0, 1.0], [1.1])
        g = fiber_translation(q1, q2)
        assert g[0] == pytest.approx(0.9)
        assert point_distance(act(g, q1), q2) <= 1e-12

    def test_fiber_translation_rejects_different_fibers(self):
        B = make_trivial()
        q1 = BundlePoint.trivial(B, [0.0, 0.0], [0.0])
        q2 = BundlePoint.trivial(B, [1.0, 0.0], [0.0])
        with pytest.raises(NotSameFiber):
            fiber_translation(q1, q2)

    def test_generator_is_vertical(self):
        B = make_trivial()
        q = BundlePoint.trivial(B, [1.0, 2.0], [0.0])
        v = infinitesimal_generator(q, np.array([1.7]))
        assert np.allclose(tangent_projection(v), 0.0)
        _, fiber = split_trivial(v)
        assert fiber[0] == pytest.approx(1.7)

    def test_tangent_lift_adjoint_so3(self):
        B = TrivialBundle(EuclideanChart(1), SO3())
        e = B.group.identity()
        q = BundlePoint.trivial(B, [0.0], e)
        v = make_trivial_tangent(q, [0.0], [1.0, 0.0, 0.0])
        g = B.group.exp([0.0, 0.0, np.pi / 2])
        moved = tangent_lift_action(g, v)
        _, fiber = split_trivial(moved)
        assert np.allclose(fiber, [0.0, 1.0, 0.0], atol=1e-14)

    def test_curve_velocity(self):
        B = make_trivial()
        q = BundlePoint.trivial(B, [0.5, -0.5], [0.1])
        v = make_trivial_tangent(q, [1.0, 2.0], [0.3])
        h = 1e-6
        plus = bundle_curve(q, v, h)
        slope = local_coords(q, plus) / h
        assert np.allclose(slope, v.components, atol=1e-5)


class TestHopf:
    def test_projection_lands_on_sphere(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            q = random_hopf_point(rng)
            m = project(q)
            assert abs(np.linalg.norm(m) - 1.0) <= 1e-12

    def test_base_and_group_are_shared_constants(self):
        H = HopfBundle()
        assert H.base is HopfBundle.base and H.group is HopfBundle.group
        assert H.base == Sphere(3) and H.group == Circle()

    def test_projection_north_pole(self):
        # (1, 0, 0, 0) is |z1| = 1, z2 = 0, over the north pole.
        assert np.allclose(hopf_projection_coords(np.array([1.0, 0, 0, 0])),
                           [0.0, 0.0, 1.0])

    def test_action_preserves_fiber(self):
        rng = np.random.default_rng(29)
        H = HopfBundle()
        q = random_hopf_point(rng)
        g = H.group.wrap([1.234])
        assert base_distance(q, act(g, q)) <= 1e-12

    def test_fiber_translation_recovers_angle(self):
        rng = np.random.default_rng(31)
        H = HopfBundle()
        q = random_hopf_point(rng)
        theta = 0.77
        q2 = act(H.group.wrap([theta]), q)
        assert fiber_translation(q, q2)[0] == pytest.approx(theta)

    def test_generator_matches_action_derivative(self):
        rng = np.random.default_rng(37)
        H = HopfBundle()
        q = random_hopf_point(rng)
        xi = np.array([1.0])
        v = infinitesimal_generator(q, xi)
        h = 1e-6
        fd = (act(H.group.wrap([h]), q).ambient - q.ambient) / h
        assert np.allclose(v.components, fd, atol=1e-5)

    def test_generator_projects_to_zero(self):
        rng = np.random.default_rng(41)
        q = random_hopf_point(rng)
        v = infinitesimal_generator(q, np.array([2.0]))
        assert np.allclose(tangent_projection(v), 0.0, atol=1e-12)

    def test_any_lift_projects_back(self):
        rng = np.random.default_rng(43)
        H = HopfBundle()
        for _ in range(20):
            q = random_hopf_point(rng)
            m = project(q)
            u = H.base.project_tangent(m, rng.normal(size=3))
            lift = any_lift(q, u)
            assert np.allclose(tangent_projection(lift), u, atol=1e-9)
            assert abs(np.dot(lift.components, q.ambient)) <= 1e-9

    def test_section_covers_sphere(self):
        H = HopfBundle()
        rng = np.random.default_rng(47)
        for _ in range(50):
            x = rng.normal(size=3)
            m = x / np.linalg.norm(x)
            q = section_over(H, m)
            assert np.allclose(project(q), m, atol=1e-12)

    def test_section_near_south_pole(self):
        H = HopfBundle()
        m = np.array([1e-8, 0.0, -np.sqrt(1 - 1e-16)])
        q = section_over(H, m)
        assert np.allclose(project(q), m, atol=1e-12)


class TestDomain:
    def test_domain_contains(self):
        B = make_trivial()
        U = DomainSpec(B, 1.0)
        q0 = BundlePoint.trivial(B, [0.0, 0.0], [0.0])
        q1 = BundlePoint.trivial(B, [0.5, 0.0], [2.0])
        q2 = BundlePoint.trivial(B, [2.0, 0.0], [0.0])
        assert domain_contains(U, q0, q1)
        assert not domain_contains(U, q0, q2)

    def test_positive_radius_required(self):
        with pytest.raises(ValueError):
            DomainSpec(make_trivial(), 0.0)

    def test_action_invariance_of_domain(self):
        # Membership depends only on base points, hence is G x G invariant.
        B = make_trivial()
        U = DomainSpec(B, 1.0)
        q0 = BundlePoint.trivial(B, [0.0, 0.0], [0.0])
        q1 = BundlePoint.trivial(B, [0.5, 0.0], [0.0])
        g = B.group.wrap([2.0])
        assert domain_contains(U, act(g, q0), q1)


class TestBoundaryValidation:
    """Points are validated where they enter, by the two constructors;
    the bundle operations build points from arrays that are already valid."""

    def test_trivial_rejects_non_unit_sphere_point(self):
        B = TrivialBundle(Sphere(3), Circle())
        with pytest.raises(ValueError):
            BundlePoint.trivial(B, [1.0, 1.0, 0.0], [0.0])
        q = BundlePoint.trivial(B, [0.0, 1.0, 0.0], [0.0])
        assert np.array_equal(project(q), [0.0, 1.0, 0.0])

    def test_hopf_rejects_non_unit_point(self):
        with pytest.raises(ValueError):
            BundlePoint.hopf(HopfBundle(), [1.0, 1.0, 0.0, 0.0])

    def test_hopf_generator_rejects_wrong_length(self):
        q = random_hopf_point(np.random.default_rng(53))
        with pytest.raises(ValueError):
            infinitesimal_generator(q, np.array([1.0, 2.0]))

    def test_trivial_generator_rejects_wrong_length(self):
        q = BundlePoint.trivial(make_trivial(), [0.0, 0.0], [0.0])
        with pytest.raises(ValueError):
            infinitesimal_generator(q, np.array([1.0, 2.0]))
