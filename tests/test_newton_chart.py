"""Newton in the normal chart, one chart per solve, and the closed-form
Hopf horizontal lift."""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from disconn.bundles import (BundlePoint, HopfBundle, any_lift,
                             hopf_projection_coords, hopf_projection_jacobian)
from disconn.connections import HopfConnection, eval_connection
from disconn.errors import OutsideDomain
from disconn.integration import hopf_geodesic_retraction, reduced_retraction
from disconn.manifolds import (EuclideanChart, Retraction, Sphere,
                               invert_extended, metric_exponential,
                               retract)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def explicit_to_chart(kind, x, p):
    if isinstance(kind, Sphere):
        sin_part = kind.tangent_basis(x).T @ p
        s = float(np.linalg.norm(sin_part))
        return np.arctan2(s, np.dot(x, p)) / s * sin_part
    return p - x


def explicit_from_chart(kind, x, c):
    if isinstance(kind, Sphere):
        return kind.tangent_basis(x) @ c
    return np.array(c, dtype=float)


def random_point(rng, kind):
    if isinstance(kind, Sphere):
        return unit(rng.normal(size=kind.ambient_dim))
    return rng.normal(size=kind.dim)


class TestChartAt:
    @pytest.mark.parametrize("kind", [Sphere(3), Sphere(4), EuclideanChart(2)])
    def test_closures_equal_the_explicit_formulas(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = random_point(rng, kind)
            to_chart, from_chart = kind.chart_at(x)
            p = random_point(rng, kind)
            c = rng.normal(size=kind.dim)
            assert np.array_equal(to_chart(p), explicit_to_chart(kind, x, p))
            assert np.array_equal(from_chart(c),
                                  explicit_from_chart(kind, x, c))


def hopf_reduced(connection):
    H = HopfBundle()
    return reduced_retraction(connection(H), hopf_geodesic_retraction(H))


def random_tangent(rng, kind, x, length):
    v = kind.project_tangent(x, rng.normal(size=kind.coord_size))
    return length * unit(v)


class TestNormalChartNewton:
    @pytest.mark.parametrize("make", [
        lambda: hopf_reduced(HopfConnection),
        lambda: metric_exponential(Sphere(3)),
        lambda: metric_exponential(Sphere(4)),
        lambda: Retraction(EuclideanChart(3),
                           EuclideanChart(3).geodesic_step, 2.0),
    ])
    def test_exact_retractions_take_one_residual_per_solve(self, make):
        # The target's normal coordinates are the solution, so Newton
        # returns at its first residual, with no Jacobian.
        R = make()
        calls = []

        def counting(point, components):
            calls.append(1)
            return R.step(point, components)

        counted = dataclasses.replace(R, step=counting)
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = random_point(rng, R.kind)
            v = random_tangent(rng, R.kind, x, 0.4 * R.domain_radius)
            y = retract(R, x, v)
            calls.clear()
            w = invert_extended(counted, x, y)
            assert len(calls) == 1
            assert np.max(np.abs(w - v)) <= 1e-12

    @pytest.mark.parametrize("kind", [Sphere(3), Sphere(4)])
    def test_center_is_zero_and_antipode_is_outside(self, kind):
        for x in [np.eye(kind.ambient_dim)[0],
                  unit(np.arange(1.0, kind.ambient_dim + 1.0))]:
            to_chart, _ = kind.chart_at(x)
            # At the center itself (B^T x is exactly 0 at e_0) the chart
            # reads 0, not 0/0.
            assert np.max(np.abs(to_chart(x))) <= 1e-15
            with pytest.raises(OutsideDomain):
                to_chart(-x)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_householder_basis_is_orthonormal_and_tangent(self, n):
        kind = Sphere(n)
        rng = np.random.default_rng(n)
        # At +-e_k a reflection vector x - e_k would vanish.
        points = [sign * np.eye(n)[k] for k in range(n) for sign in (1, -1)]
        points += [unit(rng.normal(size=n)) for _ in range(50)]
        for x in points:
            B = kind.tangent_basis(x)
            assert B.shape == (n, n - 1)
            assert np.max(np.abs(B.T @ B - np.eye(n - 1))) <= 1e-15
            assert np.max(np.abs(B.T @ x)) <= 1e-15

    def test_perturbed_hopf_solves_to_the_edge_of_the_domain(self):
        R = hopf_reduced(lambda H: HopfConnection(H, 0.1))
        kind = R.kind
        reach = 0.99 * R.domain_radius / 2.0
        rng = np.random.default_rng(23)
        for _ in range(300):
            x = unit(rng.normal(size=3))
            y = kind.geodesic_step(x, random_tangent(rng, kind, x, reach))
            v = invert_extended(R, x, y)
            assert np.max(np.abs(R.step(x, v) - y)) <= 1e-11


class TestOneBasisPerSolve:
    @pytest.fixture
    def basis_count(self, monkeypatch):
        calls = []
        original = Sphere.tangent_basis

        def counting(self, center):
            calls.append(1)
            return original(self, center)

        monkeypatch.setattr(Sphere, "tangent_basis", counting)
        return calls

    def solve_and_count(self, calls, R, x, v):
        calls.clear()
        y = retract(R, x, v)
        w = invert_extended(R, x, y)
        assert np.allclose(w, v, atol=1e-9)
        return len(calls)

    def test_sphere_geodesic(self, basis_count):
        kind = Sphere(4)
        R = metric_exponential(kind)
        rng = np.random.default_rng(13)
        for _ in range(5):
            x = unit(rng.normal(size=4))
            v = 0.3 * unit(kind.project_tangent(x, rng.normal(size=4)))
            assert self.solve_and_count(basis_count, R, x, v) == 1

    def test_reduced_hopf_retraction(self, basis_count):
        H = HopfBundle()
        R = reduced_retraction(HopfConnection(H),
                               hopf_geodesic_retraction(H))
        x = unit([0.3, -0.5, 0.8])
        v = Sphere(3).project_tangent(x, np.array([0.1, 0.2, 0.05]))
        assert self.solve_and_count(basis_count, R, x, v) == 1


coordinate = st.floats(-1.0, 1.0, allow_nan=False)


def lstsq_lift(q, delta):
    # Minimum-norm least-squares solution of J v = delta, q . v = 0.
    A = np.vstack([hopf_projection_jacobian(q), q.reshape(1, 4)])
    sol, *_ = np.linalg.lstsq(A, np.concatenate([delta, [0.0]]), rcond=None)
    return sol


class TestClosedFormHopfLift:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(coordinate, min_size=4, max_size=4),
           st.lists(coordinate, min_size=3, max_size=3))
    def test_lift_is_the_horizontal_minimum_norm_solution(self, q_raw, d_raw):
        assume(np.linalg.norm(q_raw) > 0.1)
        H = HopfBundle()
        q = BundlePoint.hopf(H, unit(q_raw))
        m = hopf_projection_coords(q.ambient)
        delta = np.asarray(d_raw) - np.dot(m, d_raw) * m
        tangent = any_lift(q, delta)
        lift = tangent.components
        # A direction off the tangent plane is projected onto it first.
        off_plane = any_lift(q, np.asarray(d_raw))
        assert np.max(np.abs(off_plane.components - lift)) <= 1e-14
        J = hopf_projection_jacobian(q.ambient)
        assert np.max(np.abs(J @ lift - delta)) <= 1e-14
        assert abs(np.dot(q.ambient, lift)) <= 1e-14
        value = eval_connection(HopfConnection(H), tangent)
        assert abs(value[0]) <= 1e-14
        assert np.max(np.abs(lift - lstsq_lift(q.ambient, delta))) <= 1e-14
