"""Manifolds, retractions, and the Newton inversion of extended retractions."""

import numpy as np
import pytest

from disconn.errors import OutsideDomain
from disconn.manifolds import (EuclideanChart, Retraction, Sphere,
                               check_retraction_axioms,
                               invert_extended, metric_exponential, retract)
from disconn.numdiff import _column_dot, _column_norm


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


def random_points(rng, kind, count):
    """`count` points of the kind as one stack: unit columns on a sphere,
    the cube [-1, 1)^d on R^d."""
    x = rng.uniform(-1.0, 1.0, size=(kind.coord_size, count))
    if isinstance(kind, Sphere):
        x /= np.linalg.norm(x, axis=0)
    return x


KINDS = [EuclideanChart(2), Sphere(3)]


class TestLog:
    """The Riemannian log, through which Newton reads points."""

    @pytest.mark.parametrize("kind", KINDS, ids=repr)
    def test_geodesic_step_inverts_the_log(self, kind):
        rng = np.random.default_rng(5)
        x, y = random_points(rng, kind, 500), random_points(rng, kind, 500)
        stacked = kind.log(x, y)
        assert np.max(np.abs(kind.geodesic_step(x, stacked) - y)) <= 1e-15
        for i in range(0, 500, 37):
            v = kind.log(x[:, i], y[:, i])
            assert np.max(np.abs(kind.geodesic_step(x[:, i], v)
                                 - y[:, i])) <= 1e-15

    @pytest.mark.parametrize("kind", KINDS, ids=repr)
    def test_stack_gives_the_bits_of_its_columns(self, kind):
        # A stack of anchors with a stack of targets, and one anchor
        # broadcast over a (d, 4, 3) stack.
        rng = np.random.default_rng(7)
        x, y = random_points(rng, kind, 12), random_points(rng, kind, 12)
        stacked = kind.log(x, y)
        for i in range(12):
            assert same_bits(kind.log(x[:, i], y[:, i]), stacked[:, i])
        square = kind.log(x[:, 0], y.reshape(-1, 4, 3))
        assert same_bits(square.reshape(-1, 12), kind.log(x[:, 0], y))

    @pytest.mark.parametrize("kind", KINDS, ids=repr)
    def test_log_at_the_anchor_is_zero(self, kind):
        x = random_points(np.random.default_rng(9), kind, 200)
        assert np.max(_column_norm(kind.log(x, x))) <= 1e-15
        for column in x.T[:20]:
            assert np.max(np.abs(kind.log(column, column))) <= 1e-15

    def test_log_is_tangent_with_the_geodesic_distance_as_norm(self):
        kind = Sphere(3)
        rng = np.random.default_rng(11)
        x, y = random_points(rng, kind, 200), random_points(rng, kind, 200)
        v = kind.log(x, y)
        # Near an antipode the log scales rounding by up to pi / sin.
        assert np.max(np.abs(_column_dot(x, v))) <= 1e-14
        assert np.max(np.abs(_column_norm(v) - kind.distance(x, y))) <= 1e-14

    def test_antipodal_point_raises_naming_the_anchor(self):
        kind = Sphere(3)
        x = random_points(np.random.default_rng(13), kind, 3)
        y = x.copy()
        y[:, 1] = -x[:, 1]
        for args in ((x[:, 1], -x[:, 1]), (x, y)):
            with pytest.raises(OutsideDomain, match="antipodal to the anchor"):
                kind.log(*args)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


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
