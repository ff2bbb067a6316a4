"""Connection one-forms: evaluation, horizontal lifts, curvature, axioms."""

import numpy as np
import pytest

from disconn import bundles, connections
from disconn.bundles import (BundlePoint, HopfBundle, TrivialBundle,
                             infinitesimal_generator, make_trivial_tangent,
                             split_trivial, tangent_projection)
from disconn.connections import (GenericConnection, HopfConnection,
                                 TrivialLocalConnection, curvature,
                                 equivariance_defect, eval_connection,
                                 horizontal_lift, verticality_defect)
from disconn.derivation import derive_connection
from disconn.errors import UnsupportedPresentation
from disconn.groups import SO3, Torus, Translation
from disconn.integration import (integrate_connection,
                                 trivial_product_retraction)
from disconn.manifolds import EuclideanChart


def x_dy_bundle(group=None):
    B = TrivialBundle(EuclideanChart(2), group or Translation(1))
    A = TrivialLocalConnection(B, lambda m, v: np.array([m[0] * v[1]]))
    return B, A


def random_hopf(rng):
    x = rng.normal(size=4)
    return BundlePoint.hopf(HopfBundle(), x / np.linalg.norm(x))


def random_hopf_tangent(rng, q):
    v = rng.normal(size=4)
    v -= np.dot(v, q.ambient) * q.ambient
    return v


def orthonormal_tangents(m):
    """An orthonormal pair of tangents at the point m of S^2: the
    coordinate axis least aligned with m, made orthogonal to m, and its
    cross product with m."""
    axis = np.eye(3)[np.argmin(np.abs(m))]
    u = axis - np.dot(axis, m) * m
    u /= np.linalg.norm(u)
    return u, np.cross(m, u)


class TestEvalTrivial:
    def test_x_dy_spot_value(self):
        # omega = x dy at base (2, 3), base tangent (0, 1), no fiber part.
        B, A = x_dy_bundle()
        q = BundlePoint.trivial(B, [2.0, 3.0], [0.0])
        v = make_trivial_tangent(q, [0.0, 1.0], [0.0])
        assert eval_connection(A, q, v)[0] == pytest.approx(2.0)

    def test_vertical_reproduces_generator(self):
        B, A = x_dy_bundle()
        q = BundlePoint.trivial(B, [0.7, -0.1], [4.0])
        xi = np.array([1.7])
        value = eval_connection(A, q, infinitesimal_generator(q, xi))
        assert value[0] == pytest.approx(1.7)

    def test_adjoint_twist_nonabelian(self):
        # At group element g, the base contribution is Ad_g omega(dm).
        B = TrivialBundle(EuclideanChart(1), SO3())
        A = TrivialLocalConnection(
            B, lambda m, v: np.array([v[0], 0.0 * v[0], 0.0 * v[0]]))
        g = SO3().exp([0.0, 0.0, np.pi / 2])
        q = BundlePoint.trivial(B, [0.0], g)
        v = make_trivial_tangent(q, [1.0], [0.0, 0.0, 0.0])
        assert np.allclose(eval_connection(A, q, v), [0.0, 1.0, 0.0],
                           atol=1e-14)


class TestHorizontalLift:
    def test_projects_back(self):
        B, A = x_dy_bundle()
        q = BundlePoint.trivial(B, [1.0, 1.0], [0.3])
        dm = np.array([0.4, -0.2])
        h = horizontal_lift(A, q, dm)
        assert np.allclose(tangent_projection(q, h), dm, atol=1e-12)
        assert np.linalg.norm(eval_connection(A, q, h)) <= 1e-12

    def test_fiber_part_minus_x(self):
        # omega = x dy: lifting (0, 1) at base x forces fiber part -x.
        B, A = x_dy_bundle()
        x = 1.37
        q = BundlePoint.trivial(B, [x, 0.0], [0.0])
        dm = np.array([0.0, 1.0])
        _, fiber = split_trivial(q, horizontal_lift(A, q, dm))
        assert fiber[0] == pytest.approx(-x)

    def test_zero_gives_zero(self):
        B, A = x_dy_bundle()
        q = BundlePoint.trivial(B, [2.0, 3.0], [1.0])
        dm = np.zeros(2)
        assert np.linalg.norm(horizontal_lift(A, q, dm)) == 0.0

    def test_hopf_lift_annihilated(self):
        rng = np.random.default_rng(53)
        A = HopfConnection(HopfBundle())
        for _ in range(20):
            q = random_hopf(rng)
            m = bundles.project(q)
            u = A.bundle.base.project_tangent(m, rng.normal(size=3))
            h = horizontal_lift(A, q, u)
            assert abs(eval_connection(A, q, h)[0]) <= 1e-12
            assert np.allclose(tangent_projection(q, h), u, atol=1e-9)


class TestCurvature:
    def setup_method(self):
        self.B, self.A = x_dy_bundle()
        self.m = np.array([0.4, -0.2])
        self.u = np.array([1.0, 0.0])
        self.w = np.array([0.0, 1.0])

    def test_x_dy_unit_curvature(self):
        value = curvature(self.A, self.m, self.u, self.w)
        assert value[0] == pytest.approx(1.0, abs=1e-9)

    def test_abelian_curvature_skips_the_bracket(self):
        # One Richardson derivative takes both slopes, on a pair axis, and
        # their whole stencil: 1 evaluation, none for the zero bracket of R.
        calls = []

        def omega(m, v):
            calls.append(1)
            return np.array([m[0] * v[1]])

        A = TrivialLocalConnection(self.B, omega)
        value = curvature(A, self.m, self.u, self.w)
        assert len(calls) == 1
        assert value[0] == curvature(self.A, self.m, self.u, self.w)[0]

    def test_closed_form_flat(self):
        B = self.B
        A = TrivialLocalConnection(
            B, lambda m, v: np.array([m[1] * v[0] + m[0] * v[1]]))
        value = curvature(A, self.m, self.u, self.w)
        assert abs(value[0]) <= 1e-7

    def test_antisymmetry_diagonal(self):
        value = curvature(self.A, self.m, self.u, self.u)
        assert abs(value[0]) <= 1e-12

    def test_hopf_canonical_constant(self):
        # The round connection has curvature -? constant magnitude: the
        # value on an orthonormal base pair is independent of the point.
        rng = np.random.default_rng(59)
        A = HopfConnection(HopfBundle())
        values = []
        for _ in range(10):
            q = random_hopf(rng)
            m = bundles.project(q)
            u, w = orthonormal_tangents(m)
            values.append(abs(curvature(A, m, u, w)[0]))
        assert np.std(values) <= 1e-10

    def test_perturbation_shifts_curvature(self):
        eps = 0.1
        A0 = HopfConnection(HopfBundle())
        A1 = HopfConnection(HopfBundle(), eps)
        m = np.array([0.0, 0.0, 1.0])
        u = np.array([1.0, 0.0, 0.0])
        w = np.array([0.0, 1.0, 0.0])
        delta = curvature(A1, m, u, w)[0] - curvature(A0, m, u, w)[0]
        # d(x dy - y dx) = 2 dx dy on the base.
        assert delta == pytest.approx(2.0 * eps, abs=1e-12)

    def test_generic_presentation_rejected(self):
        A = GenericConnection(self.B, lambda v: np.array([0.0]))
        with pytest.raises(UnsupportedPresentation):
            curvature(A, self.m, self.u, self.w)


class TestHopfConnection:
    """One class for the family A + epsilon * pullback(beta); epsilon = 0
    is the canonical connection and evaluates without projecting."""

    def samples(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            q = random_hopf(rng)
            yield q, random_hopf_tangent(rng, q)

    @staticmethod
    def canonical(q, v):
        a, b, c, d = q.ambient
        va, vb, vc, vd = v
        return a * vb - b * va + c * vd - d * vc

    def test_canonical_is_the_round_formula_without_projecting(
            self, monkeypatch):
        calls = []
        project = bundles.project
        monkeypatch.setattr(bundles, "project",
                            lambda q: calls.append(q) or project(q))
        A = HopfConnection(HopfBundle())
        for q, v in self.samples():
            assert eval_connection(A, q, v)[0] == self.canonical(q, v)
        assert calls == []

    def test_perturbed_adds_epsilon_beta(self):
        A = HopfConnection(HopfBundle(), 0.1)
        for q, v in self.samples():
            m = bundles.project(q)
            u = tangent_projection(q, v)
            beta = m[0] * u[1] - m[1] * u[0]
            assert (eval_connection(A, q, v)[0]
                    == self.canonical(q, v) + 0.1 * beta)

    def test_epsilon_defaults_to_zero(self):
        H = HopfBundle()
        assert HopfConnection(H) == HopfConnection(H, 0.0)
        assert HopfConnection(H) != HopfConnection(H, 0.1)


def pure_gauge_so3():
    """omega = -h^{-1} dh for h = exp(x X) exp(y Y) on R^2 x SO(3), with X,
    Y the first two so(3) basis vectors: v_x Ad_{exp(-y Y)} X + v_y Y,
    negated."""
    G = SO3()
    Y = np.eye(3)[1]

    def omega(m, v):
        # exp(-y Y) X is the first column of exp(-y Y), on the stack.
        return -(v[0] * G.exp(np.multiply.outer(-Y, m[1]))[:, 0]
                 + np.multiply.outer(Y, v[1]))

    return TrivialLocalConnection(TrivialBundle(EuclideanChart(2), G), omega)


def max_curvature(A, rng, count):
    worst = 0.0
    for _ in range(count):
        m = rng.uniform(-1, 1, 2)
        u = rng.uniform(-1, 1, 2)
        w = rng.uniform(-1, 1, 2)
        worst = max(worst, float(np.linalg.norm(curvature(A, m, u, w))))
    return worst


class TestNonAbelianCurvature:
    def test_pure_gauge_is_flat(self):
        A = pure_gauge_so3()
        assert max_curvature(A, np.random.default_rng(61), 20) <= 1e-9

    def test_constant_form_reads_minus_the_bracket(self):
        # omega = dx e_x + dy e_y: d omega = 0, [e_x, e_y] = e_z.
        B = TrivialBundle(EuclideanChart(2), SO3())
        A = TrivialLocalConnection(
            B, lambda m, v: np.array([v[0], v[1], 0.0 * v[0]]))
        m = np.array([0.3, -0.7])
        value = curvature(A, m, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.max(np.abs(value - [0.0, 0.0, -1.0])) <= 1e-9

    def test_derived_connection_of_pure_gauge_is_flat(self):
        A = pure_gauge_so3()
        B = A.bundle
        Ad = integrate_connection(A, trivial_product_retraction(B),
                                  1e18)
        derived = derive_connection(Ad)
        assert max_curvature(derived, np.random.default_rng(67), 10) <= 1e-9


class TestAxioms:
    def test_trivial_defects_zero(self):
        B, A = x_dy_bundle(Torus(1))
        rng = np.random.default_rng(61)
        for _ in range(50):
            q = BundlePoint.trivial(B, rng.uniform(-1, 1, 2),
                                    rng.uniform(-3, 3, 1))
            v = make_trivial_tangent(q, rng.uniform(-1, 1, 2),
                                     rng.uniform(-1, 1, 1))
            xi = rng.uniform(-1, 1, 1)
            g = B.group.wrap(rng.uniform(-3, 3, 1))
            assert verticality_defect(A, q, xi) <= 1e-12
            assert equivariance_defect(A, g, q, v) <= 1e-12

    def test_hopf_defects_zero(self):
        rng = np.random.default_rng(67)
        H = HopfBundle()
        for A in (HopfConnection(H),
                  HopfConnection(H, 0.1)):
            for _ in range(50):
                q = random_hopf(rng)
                v = random_hopf_tangent(rng, q)
                xi = rng.uniform(-1, 1, 1)
                g = H.group.wrap(rng.uniform(-3, 3, 1))
                assert verticality_defect(A, q, xi) <= 1e-9
                assert equivariance_defect(A, g, q, v) <= 1e-9

    def test_broken_form_flagged(self):
        # A fiber-dependent "omega" breaks equivariance for U1... the group
        # is abelian, so break verticality instead with a scaled fiber term.
        B = TrivialBundle(EuclideanChart(2), Torus(1))

        def rule(q, v):
            base, fiber = split_trivial(q, v)
            return 0.5 * fiber

        A = GenericConnection(B, rule)
        q = BundlePoint.trivial(B, [0.0, 0.0], [0.0])
        xi = np.array([1.0])
        assert verticality_defect(A, q, xi) == pytest.approx(0.5)
