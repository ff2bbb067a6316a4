"""Manifolds, retractions, and the Newton inversion of extended retractions."""

import numpy as np
import pytest

from disconn import manifolds
from disconn.errors import NewtonDivergence, OutsideDomain
from disconn.manifolds import (EuclideanChart, Retraction, Sphere,
                               check_retraction_axioms,
                               invert_extended, metric_exponential, retract)


def sphere_chart_rule():
    """Straight steps in the fixed stereographic chart of S^2."""
    return Retraction(Sphere(3), Sphere(3).chart_line_step, np.pi / 2)


def random_sphere_point(rng, n=3):
    x = rng.normal(size=n)
    return x / np.linalg.norm(x)


def random_sphere_tangent(rng, p, scale=1.0):
    kind = Sphere(len(p))
    v = kind.project_tangent(p, rng.normal(size=kind.coord_size))
    return scale * v


class TestEuclidean:
    def test_geodesic_is_straight(self):
        kind = EuclideanChart(2)
        assert np.allclose(
            kind.geodesic_step(np.array([1.0, 2.0]), np.array([0.5, -1.0])),
            [1.5, 1.0])

    def test_distance(self):
        kind = EuclideanChart(3)
        assert kind.distance(np.zeros(3), np.array([3.0, 4.0, 0.0])) == 5.0


class TestSphere:
    def test_validation_rejects_non_unit(self):
        with pytest.raises(ValueError):
            Sphere(3).validate([1.0, 1.0, 0.0])

    def test_validation_rejects_nan(self):
        with pytest.raises(ValueError):
            Sphere(3).validate([np.nan, 0.0, 0.0])
        with pytest.raises(ValueError):
            Sphere(3).validate(np.stack([np.eye(3)[0], [np.nan, 0.0, 0.0]],
                                        axis=-1))

    def test_distance_quarter_circle(self):
        kind = Sphere(3)
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        assert kind.distance(a, b) == pytest.approx(np.pi / 2)

    def test_distance_conditioning_near_zero(self):
        # Chord formula keeps full precision where arccos(dot) loses half.
        kind = Sphere(3)
        a = np.array([1.0, 0.0, 0.0])
        step = 1e-9
        b = kind.geodesic_step(a, np.array([0.0, step, 0.0]))
        assert kind.distance(a, b) == pytest.approx(step, rel=1e-6)
        assert kind.distance(a, a) == 0.0

    def test_geodesic_step_quarter_turn(self):
        kind = Sphere(3)
        p = np.array([1.0, 0.0, 0.0])
        v = np.array([0.0, np.pi / 2, 0.0])
        assert np.allclose(kind.geodesic_step(p, v), [0.0, 1.0, 0.0],
                           atol=1e-15)

    def test_tangent_basis_orthonormal(self):
        kind = Sphere(4)
        rng = np.random.default_rng(3)
        p = random_sphere_point(rng, 4)
        B = kind.tangent_basis(p)
        assert np.allclose(B.T @ B, np.eye(3), atol=1e-12)
        assert np.allclose(B.T @ p, 0.0, atol=1e-12)

    def test_chart_roundtrip(self):
        kind = Sphere(3)
        rng = np.random.default_rng(5)
        center = random_sphere_point(rng)
        other = random_sphere_point(rng)
        to_chart, from_chart = kind.chart_at(center)
        u = to_chart(other)
        # Invert the normal chart by hand: p = cos|u| x + sin|u| B u / |u|.
        r = float(np.linalg.norm(u))
        back = np.cos(r) * center + np.sin(r) * from_chart(u) / r
        assert np.allclose(back, other, rtol=0.0, atol=1e-12)


class TestRetraction:
    def test_zero_vector_is_exact(self):
        kind = Sphere(3)
        R = metric_exponential(kind)
        p = np.array([0.0, 0.0, 1.0])
        assert np.array_equal(retract(R, p, np.zeros(3)), p)

    def test_step_leaving_the_sphere_is_rejected(self):
        # The step is supplied by the caller, so retract validates its output.
        kind = Sphere(3)
        R = Retraction(kind, lambda p, v: p + v, np.pi / 2)
        p = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            retract(R, p, np.array([0.0, 0.5, 0.0]))

    def test_domain_radius_enforced(self):
        kind = Sphere(3)
        R = metric_exponential(kind)
        p = np.array([1.0, 0.0, 0.0])
        with pytest.raises(OutsideDomain):
            retract(R, p, np.array([0.0, 2.0, 0.0]))

    def test_nan_tangent_is_outside_the_domain(self):
        R = metric_exponential(Sphere(3))
        p = np.array([1.0, 0.0, 0.0])
        with pytest.raises(OutsideDomain):
            retract(R, p, np.array([0.0, np.nan, 0.0]))

    def test_axioms_euclidean(self):
        kind = EuclideanChart(2)
        p = np.array([0.3, -0.4])
        v = np.array([0.8, 0.1])
        assert check_retraction_axioms(metric_exponential(kind), p, v) <= 1e-9

    def test_axioms_sphere(self):
        kind = Sphere(3)
        rng = np.random.default_rng(9)
        for _ in range(10):
            p = random_sphere_point(rng)
            v = random_sphere_tangent(rng, p, scale=0.3)
            for R in (metric_exponential(kind), sphere_chart_rule()):
                assert check_retraction_axioms(R, p, v) <= 1e-7

    def test_shifted_rule_fails_the_base_axiom(self):
        # R_x(v) = x + v + 1 is off by (1, 1) at v = 0; the zero tangent
        # must reach the rule for the defect to show.  A step takes one
        # point with a stack of tangents, so x + v is the straight step.
        kind = EuclideanChart(2)
        R = Retraction(kind, lambda p, v: kind.geodesic_step(p, v) + 1.0,
                       1e18)
        p = np.array([0.3, -0.4])
        v = np.array([0.8, 0.1])
        assert check_retraction_axioms(R, p, v) >= 1.0
        assert check_retraction_axioms(R, p, np.zeros(2)) >= 1.0


class TestInvertExtended:
    def test_euclidean_exact(self):
        kind = EuclideanChart(2)
        R = metric_exponential(kind)
        x = np.array([1.0, 1.0])
        y = np.array([1.4, 0.2])
        v = invert_extended(R, x, y)
        assert np.allclose(v, [0.4, -0.8], atol=1e-12)

    def test_sphere_exponential_roundtrip(self):
        kind = Sphere(3)
        R = metric_exponential(kind)
        rng = np.random.default_rng(13)
        for _ in range(25):
            x = random_sphere_point(rng)
            v = random_sphere_tangent(rng, x, scale=0.2)
            y = retract(R, x, v)
            back = invert_extended(R, x, y)
            assert np.linalg.norm(back - v) <= 1e-10

    def test_sphere_chart_rule_roundtrip(self):
        R = sphere_chart_rule()
        rng = np.random.default_rng(17)
        for _ in range(10):
            x = random_sphere_point(rng)
            if x[2] < -0.5:
                continue
            v = random_sphere_tangent(rng, x, scale=0.1)
            y = retract(R, x, v)
            back = invert_extended(R, x, y)
            assert np.linalg.norm(back - v) <= 1e-9

    def test_small_steps_resolved_accurately(self):
        # Tangent recovery error must stay far below the finite-difference
        # step used downstream, or derived connections pick up noise.
        kind = Sphere(3)
        R = metric_exponential(kind)
        rng = np.random.default_rng(19)
        x = random_sphere_point(rng)
        v = random_sphere_tangent(rng, x, scale=1e-4)
        y = retract(R, x, v)
        back = invert_extended(R, x, y)
        assert np.linalg.norm(back - v) <= 1e-13

    def test_far_target_rejected(self):
        kind = Sphere(3)
        R = metric_exponential(kind)
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([-1.0, 0.0, 0.0])
        with pytest.raises(OutsideDomain):
            invert_extended(R, x, y)
