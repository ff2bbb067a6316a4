"""Discrete connection forms, lifts, and discrete curvature."""

import numpy as np
import pytest

from disconn import bundles, discrete
from disconn.bundles import BundlePoint, TrivialBundle, act
from disconn.discrete import (ComposedDiscrete, TrivialLocalDiscrete,
                              axiom_defects, discrete_curvature,
                              discrete_horizontal_lift, eval_discrete,
                              triangle_pairs)
from disconn.errors import OutsideDomain
from disconn.groups import Translation
from disconn.manifolds import EuclideanChart


def line_bundle():
    """R x R: base coordinate x, fiber coordinate y with additive action."""
    B = TrivialBundle(EuclideanChart(1), Translation(1))
    return B, 1e18


def plane_bundle():
    B = TrivialBundle(EuclideanChart(2), Translation(1))
    return B, 1e18


def quadratic_family(B, U, f):
    """C(x0, x1) = (x1 - x0)^2 f(x0, x1)."""
    return TrivialLocalDiscrete(
        B, lambda m0, m1: np.array([(m1[0] - m0[0]) ** 2 * f(m0[0], m1[0])]),
        U)


def trapezoid(B, U):
    return TrivialLocalDiscrete(
        B, lambda m0, m1: np.array([0.5 * (m0[0] + m1[0]) * (m1[1] - m0[1])]),
        U)


class TestEval:
    def test_diagonal_is_identity(self):
        B, U = line_bundle()
        Ad = quadratic_family(B, U, lambda x0, x1: np.sin(x0 * x1))
        q = BundlePoint.trivial(B, [0.8], [2.0])
        assert B.group.distance(eval_discrete(Ad, q, q),
                                B.group.identity()) <= 1e-15

    def test_quadratic_family_spot_value(self):
        # C = (x1 - x0)^2 with unit f: value at ((0,0), (2,5)) is
        # 5 + 4 - 0 = 9 for the additive fiber group.
        B, U = line_bundle()
        Ad = quadratic_family(B, U, lambda x0, x1: 1.0)
        q0 = BundlePoint.trivial(B, [0.0], [0.0])
        q1 = BundlePoint.trivial(B, [2.0], [5.0])
        assert eval_discrete(Ad, q0, q1)[0] == pytest.approx(9.0)

    def test_equivariance_spot_value(self):
        B, U = line_bundle()
        Ad = quadratic_family(B, U, lambda x0, x1: 1.0)
        q0 = act(B.group.wrap([1.0]),
                 BundlePoint.trivial(B, [0.0], [0.0]))
        q1 = act(B.group.wrap([2.0]),
                 BundlePoint.trivial(B, [2.0], [5.0]))
        assert eval_discrete(Ad, q0, q1)[0] == pytest.approx(10.0)

    def test_outside_domain_rejected(self):
        B = TrivialBundle(EuclideanChart(1), Translation(1))
        Ad = quadratic_family(B, 1.0, lambda x0, x1: 1.0)
        q0 = BundlePoint.trivial(B, [0.0], [0.0])
        q1 = BundlePoint.trivial(B, [2.0], [0.0])
        with pytest.raises(OutsideDomain):
            eval_discrete(Ad, q0, q1)


class TestLift:
    def test_lift_to_own_fiber_is_identity(self):
        B, U = line_bundle()
        Ad = quadratic_family(B, U, lambda x0, x1: np.cos(x1))
        q = BundlePoint.trivial(B, [0.4], [1.2])
        lifted = discrete_horizontal_lift(Ad, q, bundles.project(q))
        assert bundles.point_distance(lifted, q) <= 1e-12

    def test_zero_c_translates_fiber_coordinate(self):
        # C = 0, q = (0, 3), m = 1: the lift lands at (1, 3).
        B, U = line_bundle()
        Ad = TrivialLocalDiscrete(B, lambda m0, m1: np.array([0.0]), U)
        q = BundlePoint.trivial(B, [0.0], [3.0])
        lifted = discrete_horizontal_lift(Ad, q,
                                          np.array([1.0]))
        assert np.allclose(lifted.base_point, [1.0])
        assert lifted.group_part[0] == pytest.approx(3.0)

    def test_lift_consistency(self):
        B, U = plane_bundle()
        Ad = trapezoid(B, U)
        rng = np.random.default_rng(71)
        for _ in range(25):
            q = BundlePoint.trivial(B, rng.uniform(-1, 1, 2),
                                    rng.uniform(-2, 2, 1))
            m = rng.uniform(-1, 1, 2)
            lifted = discrete_horizontal_lift(Ad, q, m)
            assert B.group.distance(eval_discrete(Ad, q, lifted),
                                    B.group.identity()) <= 1e-12

    def test_reference_point_independence(self):
        # The lift uses an arbitrary point over m; equivariance makes the
        # result independent of that choice.
        B, U = line_bundle()
        Ad = quadratic_family(B, U, lambda x0, x1: np.sin(3 * x1) + 2)
        q = BundlePoint.trivial(B, [0.2], [0.9])
        m = np.array([0.7])
        direct = discrete_horizontal_lift(Ad, q, m)
        # Same computation routed through a different reference point.
        ref = BundlePoint.trivial(B, [0.7], [13.5])
        g = eval_discrete(Ad, q, ref)
        other = act(B.group.inverse(g), ref)
        assert bundles.point_distance(direct, other) <= 1e-12


class TestCurvature:
    def test_degenerate_triples(self):
        B, U = plane_bundle()
        Ad = trapezoid(B, U)
        q0 = BundlePoint.trivial(B, [0.1, 0.2], [0.0])
        q2 = BundlePoint.trivial(B, [0.4, -0.3], [1.0])
        G = B.group
        for qs in [(q0, q0, q2), (q0, q2, q2)]:
            assert G.distance(discrete_curvature(Ad, triangle_pairs(*qs)),
                              G.identity()) <= 1e-12

    def test_trapezoid_triangle_half(self):
        # Triangle (0,0), (1,0), (0,1): the three C values are 0, 0.5, 0,
        # and the holonomy equals the enclosed area of dx dy.
        B, U = plane_bundle()
        Ad = trapezoid(B, U)
        mk = lambda m: BundlePoint.trivial(B, m, [0.0])
        value = discrete_curvature(Ad, triangle_pairs(
            mk([0.0, 0.0]), mk([1.0, 0.0]), mk([0.0, 1.0])))
        assert abs(value[0] - 0.5) <= 1e-12

    def test_curvature_invariant_under_action_abelian(self):
        B, U = plane_bundle()
        Ad = trapezoid(B, U)
        rng = np.random.default_rng(73)
        mk = lambda m, y: BundlePoint.trivial(B, m, [y])
        for _ in range(20):
            ms = rng.uniform(-1, 1, (3, 2))
            b0 = discrete_curvature(Ad, triangle_pairs(
                mk(ms[0], 0.0), mk(ms[1], 0.0), mk(ms[2], 0.0)))
            b1 = discrete_curvature(Ad, triangle_pairs(
                mk(ms[0], rng.uniform(-2, 2)), mk(ms[1], rng.uniform(-2, 2)),
                mk(ms[2], rng.uniform(-2, 2))))
            assert abs(b0[0] - b1[0]) <= 1e-10


class TestAxioms:
    def test_random_family_defects(self):
        B, U = line_bundle()
        rng = np.random.default_rng(79)
        Ad = quadratic_family(B, U, lambda x0, x1: np.sin(x0 * x1))
        for _ in range(50):
            q0 = BundlePoint.trivial(B, rng.uniform(-1, 1, 1),
                                     rng.uniform(-2, 2, 1))
            q1 = BundlePoint.trivial(B, rng.uniform(-1, 1, 1),
                                     rng.uniform(-2, 2, 1))
            g = B.group.wrap(rng.uniform(-1, 1, 1))
            g2 = B.group.wrap(rng.uniform(-1, 1, 1))
            identity, equivariance = axiom_defects(Ad, g, g2, q0, q1)
            assert identity <= 1e-10
            assert equivariance <= 1e-10

    def test_broken_diagonal_flagged(self):
        B, U = line_bundle()
        broken = TrivialLocalDiscrete(
            B, lambda m0, m1: np.array([1.0 + (m1[0] - m0[0])]), U)
        q = BundlePoint.trivial(B, [0.0], [0.0])
        e = B.group.identity()
        assert axiom_defects(broken, e, e, q, q)[0] == pytest.approx(1.0)
