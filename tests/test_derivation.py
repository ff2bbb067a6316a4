"""Differentiating discrete connections back to continuous ones."""

import numpy as np
import pytest

from disconn import bundles, derivation
from disconn.bundles import BundlePoint, TrivialBundle, make_trivial_tangent
from disconn.connections import (TrivialLocalConnection, eval_connection,
                                 horizontal_lift)
from disconn.derivation import (derive_connection, derive_horizontal,
                                pair_derivative)
from disconn.discrete import TrivialLocalDiscrete
from disconn.errors import NonDifferentiable
from disconn.groups import SO3, Translation
from disconn.manifolds import EuclideanChart
from disconn.numdiff import STEP, richardson_derivative


def plane_bundle():
    B = TrivialBundle(EuclideanChart(2), Translation(1))
    return B, 1e18


def trapezoid(B, U):
    return TrivialLocalDiscrete(
        B, lambda m0, m1: np.array([0.5 * (m0[0] + m1[0]) * (m1[1] - m0[1])]),
        U)


class TestPairDerivative:
    def test_trapezoid_gives_x_dy(self):
        # d/dt 0.5 (2x + t u_x)(t u_y) |_0 = x u_y: the trapezoid family
        # derives to omega = x dy.
        B, U = plane_bundle()
        Ad = trapezoid(B, U)
        q = BundlePoint.trivial(B, [2.0, 3.0], [0.0])
        v = make_trivial_tangent(q, [0.0, 1.0], [0.0])
        value = pair_derivative(Ad, q, v)
        assert value[0] == pytest.approx(2.0, abs=1e-9)

    def test_fiber_direction_gives_identity(self):
        B, U = plane_bundle()
        Ad = trapezoid(B, U)
        q = BundlePoint.trivial(B, [0.7, -0.4], [1.0])
        v = make_trivial_tangent(q, [0.0, 0.0], [1.3])
        value = pair_derivative(Ad, q, v)
        assert value[0] == pytest.approx(1.3, abs=1e-9)

    def test_quadratic_families_share_derivative(self):
        # C = (x1 - x0)^2 f(x0, x1) is second order in the step, so every f
        # yields the same derived form: the pure fiber term.
        B = TrivialBundle(EuclideanChart(1), Translation(1))
        U = 1e18
        q = BundlePoint.trivial(B, [0.5], [0.0])
        v = make_trivial_tangent(q, [1.0], [2.0])
        for f in (lambda x0, x1: 0.0, lambda x0, x1: 1.0,
                  lambda x0, x1: np.sin(x0) * np.cos(x1)):
            Ad = TrivialLocalDiscrete(
                B,
                lambda m0, m1, f=f: np.array(
                    [(m1[0] - m0[0]) ** 2 * f(m0[0], m1[0])]),
                U)
            value = pair_derivative(Ad, q, v)
            assert value[0] == pytest.approx(2.0, abs=1e-8)

    def test_richardson_consistency_rejects_kinks(self):
        # t |t|^(1/2) is C^1 but not C^2 on the diagonal, so the central
        # slope depends on the step and the Richardson levels disagree.
        B = TrivialBundle(EuclideanChart(1), Translation(1))
        U = 1e18
        Ad = TrivialLocalDiscrete(
            B, lambda m0, m1: np.array(
                [(m1[0] - m0[0]) * abs(m1[0] - m0[0]) ** 0.5]), U)
        q = BundlePoint.trivial(B, [0.0], [0.0])
        v = make_trivial_tangent(q, [1.0], [0.0])
        with pytest.raises(NonDifferentiable):
            pair_derivative(Ad, q, v)


class TestDeriveConnection:
    def test_derived_form_is_local(self):
        B, U = plane_bundle()
        A = derive_connection(trapezoid(B, U))
        assert isinstance(A, TrivialLocalConnection)

    def test_derived_values_match_x_dy(self):
        B, U = plane_bundle()
        A = derive_connection(trapezoid(B, U))
        exact = TrivialLocalConnection(B, lambda m, v: np.array([m[0] * v[1]]))
        rng = np.random.default_rng(83)
        for _ in range(20):
            q = BundlePoint.trivial(B, rng.uniform(-1, 1, 2),
                                    rng.uniform(-2, 2, 1))
            v = make_trivial_tangent(q, rng.uniform(-1, 1, 2),
                                     rng.uniform(-1, 1, 1))
            got = eval_connection(A, q, v)
            want = eval_connection(exact, q, v)
            assert np.linalg.norm(got - want) <= 1e-8

    def test_zero_family_derives_to_fiber_projection(self):
        B, U = plane_bundle()
        Ad = TrivialLocalDiscrete(B, lambda m0, m1: np.array([0.0]), U)
        A = derive_connection(Ad)
        q = BundlePoint.trivial(B, [0.3, 0.3], [0.0])
        v = make_trivial_tangent(q, [5.0, -2.0], [0.7])
        assert eval_connection(A, q, v)[0] == pytest.approx(0.7, abs=1e-9)


class TestNonAbelianPairMap:
    # C(m0, m1) = exp(m1_x - m0_x, m0_x (m1_y - m0_y), 0) in SO(3), a pair
    # map on stacks of pairs: it derives to omega(m)(u) = (u_x, m_x u_y, 0).
    @staticmethod
    def local_form():
        G = SO3()
        B = TrivialBundle(EuclideanChart(2), G)
        return TrivialLocalDiscrete(
            B, lambda m0, m1: G.exp([m1[0] - m0[0],
                                     m0[0] * (m1[1] - m0[1]),
                                     0.0 * m1[0]]), 1e18)

    def test_pair_derivative(self):
        Ad = self.local_form()
        g = SO3().exp([0.1, 0.2, 0.3])
        q = BundlePoint.trivial(Ad.bundle, [0.7, -0.2], g)
        v = make_trivial_tangent(q, [0.4, -0.9], [0.0, 0.0, 0.0])
        value = pair_derivative(Ad, q, v)
        # At group part g the value is Ad_g omega(m)(u).
        expected = SO3().adjoint(g, [0.4, 0.7 * -0.9, 0.0])
        assert np.max(np.abs(value - expected)) <= 1e-9

    def test_derived_form_on_a_stack(self, monkeypatch):
        # The whole stack goes through one pair_derivative call.
        calls = []

        def counting(*args):
            calls.append(1)
            return pair_derivative(*args)

        monkeypatch.setattr(derivation, "pair_derivative", counting)
        derived = derive_connection(self.local_form())
        rng = np.random.default_rng(71)
        m, u = rng.uniform(-1.0, 1.0, (2, 2, 5))
        expected = np.stack([u[0], m[0] * u[1], np.zeros(5)])
        assert np.max(np.abs(derived.value(m, u) - expected)) <= 1e-9
        assert len(calls) == 1


class TestDeriveHorizontal:
    def test_trapezoid_lift_velocity(self):
        # Discrete lifts of the trapezoid family along (0, 1) at x = 2 move
        # the fiber with velocity -x.
        B, U = plane_bundle()
        Ad = trapezoid(B, U)
        q = BundlePoint.trivial(B, [2.0, 0.0], [0.0])
        dm = np.array([0.0, 1.0])
        h = derive_horizontal(Ad, q, dm)
        base, fiber = bundles.split_trivial(q, h)
        assert np.allclose(base, [0.0, 1.0], atol=1e-9)
        assert fiber[0] == pytest.approx(-2.0, abs=1e-8)

    def test_diagram_commutes(self):
        # The derived lift is the horizontal lift of the derived form.
        B, U = plane_bundle()
        Ad = trapezoid(B, U)
        A = derive_connection(Ad)
        rng = np.random.default_rng(89)
        for _ in range(10):
            q = BundlePoint.trivial(B, rng.uniform(-1, 1, 2),
                                    rng.uniform(-2, 2, 1))
            dm = rng.uniform(-1, 1, 2)
            assert np.linalg.norm(derive_horizontal(Ad, q, dm)
                                  - horizontal_lift(A, q, dm)) <= 1e-8


def central_slope(f, h):
    return (f(h) - f(-h)) / (2.0 * h)


class TestRichardson:
    def test_one_extrapolation_step(self):
        f = lambda t: np.array([np.sin(1.0 + t), np.exp(2.0 * t)])
        coarse = central_slope(f, STEP)
        want = (4.0 * central_slope(f, STEP / 2) - coarse) / 3.0
        got = richardson_derivative(f, check_consistency=True)
        assert np.array_equal(got, want)
        assert got == pytest.approx([np.cos(1.0), 2.0], rel=1e-9)

    def test_f_is_called_once_on_the_stencil(self):
        calls = []

        def f(t):
            calls.append(np.array(t))
            return np.array([np.sin(1.0 + t)])

        richardson_derivative(f)
        assert len(calls) == 1
        assert np.array_equal(calls[0], [STEP, -STEP, STEP / 2, -STEP / 2])
