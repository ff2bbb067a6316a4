"""Stacked evaluation: a stack of points gives the same bits as a loop
over its columns, on the abelian route and for SO(3) forms alike, and a
stack of tangents steps every retraction column by column."""

import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from disconn import bundles, scenarios
from disconn.abelian import (curvature_matched_integrate,
                             primitive_on_segments)
from disconn.bundles import (BundlePoint, HopfBundle, TrivialBundle, act,
                             make_trivial_tangent, section_over)
from disconn.connections import (HopfConnection, TrivialLocalConnection,
                                 horizontal_lifts)
from disconn.derivation import derive_connection, pair_derivative
from disconn.discrete import TrivialLocalDiscrete, eval_discrete
from disconn.errors import NonDifferentiable, OutsideDomain
from disconn.groups import SO3, Torus, Translation
from disconn.integration import (hopf_geodesic_retraction,
                                 integrate_connection, reduced_retraction,
                                 trivial_product_retraction,
                                 trivial_skewed_retraction)
from disconn.manifolds import EuclideanChart, Sphere, metric_exponential
from disconn.numdiff import (QUADRATURE_ORDER, _column_dot, _column_norm,
                             _columns, _matvec, exterior_derivative,
                             gauss_legendre_line_integral, lost_step,
                             richardson_derivative, worst_defect)
from disconn.scenarios import _hopf_chart_retraction

# One (group, one-form, pair map) per structure group: R^1, U(1), T^2.
CASES = {
    "R1": (Translation(1),
           lambda m, v: np.array([m[0] * v[1] + np.sin(m[1]) * v[0]]),
           lambda m0, m1: np.array([0.5 * (m0[0] + m1[0]) * (m1[1] - m0[1])])),
    "U1": (Torus(1),
           lambda m, v: np.array([m[1] * m[1] * v[0]]),
           lambda m0, m1: np.array([np.cos(m0[1]) * (m1[0] - m0[0])
                                    + m1[1] - m0[1]])),
    "T2": (Torus(2),
           lambda m, v: np.array([m[0] * v[1], m[1] * v[1] - v[0]]),
           lambda m0, m1: np.array([m0[0] * (m1[1] - m0[1]),
                                    (m1[0] - m0[0]) * (1.0 + m1[1])])),
}


def so3_form(m, v):
    # A non-abelian one-form, evaluated on the whole stack.
    return SO3().adjoint(SO3().exp([m[1], 0.0 * m[0], m[0]]),
                         [v[0], v[1] - v[0], 0.5 * v[1]])


# CASES and an SO(3) case, for the tests that build nothing abelian.
ANY_GROUP_CASES = {**CASES, "SO3": (
    SO3(), so3_form,
    lambda m0, m1: SO3().exp([m1[0] - m0[0], m0[0] * (m1[1] - m0[1]),
                              0.5 * (m1[1] - m0[1])]))}


def stack_of(n, d=2, seed=7):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (d, n)), rng.uniform(-1.0, 1.0, (d, n))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def two_call_exterior_derivative(form, m, u, w):
    """d form (u, w) at m with one Richardson call per slope."""
    m0, u0, w0 = (np.asarray(x, dtype=float)[..., None] for x in (m, u, w))
    d_uw = richardson_derivative(lambda t: form(m0 + t * u0, w0))
    d_wu = richardson_derivative(lambda t: form(m0 + t * w0, u0))
    return np.where(lost_step(m, (u, w)), np.nan, d_uw - d_wu)


def by_loop(fn, m, v):
    return np.stack([fn(m[:, i], v[:, i]) for i in range(m.shape[1])],
                    axis=-1)


def flat_integrate(A):
    """The flat discrete of A: its curvature-matched integral against the
    zero reference, whose derived connection is zero, so that the
    descended difference is A itself."""
    B, k = A.bundle, A.bundle.group.dim
    zero = TrivialLocalDiscrete(
        B, lambda m0, m1: np.zeros((k,) + np.shape(m1 - m0)[1:]), 1e18)
    return curvature_matched_integrate(A, zero)


def difference(A, A_ref):
    """The descended difference A - A_ref of two local connections."""
    return TrivialLocalConnection(
        A.bundle, lambda m, v: A.value(m, v) - A_ref.value(m, v))


def reference_quadrature(f, a, b):
    """One Gauss-Legendre panel as a loop over the nodes, one call each."""
    nodes, weights = np.polynomial.legendre.leggauss(QUADRATURE_ORDER)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    total = None
    for t, w in zip(nodes, weights):
        value = half * w * np.asarray(f(mid + half * t), dtype=float)
        total = value if total is None else total + value
    return total


@pytest.fixture(params=sorted(CASES))
def case(request):
    group, form, pair_map = CASES[request.param]
    B = TrivialBundle(EuclideanChart(2), group)
    return B, form, pair_map


@pytest.fixture(params=sorted(ANY_GROUP_CASES))
def any_case(request):
    group, form, pair_map = ANY_GROUP_CASES[request.param]
    B = TrivialBundle(EuclideanChart(2), group)
    return B, form, pair_map


class TestStackedEqualsLoop:
    def test_one_form(self, any_case):
        B, form, _ = any_case
        A = TrivialLocalConnection(B, form)
        m, v = stack_of(9)
        got = A.value(m, v)
        assert got.shape == (B.group.dim, 9)
        assert np.array_equal(got, by_loop(A.value, m, v))

    def test_derived_omega(self, any_case):
        B, _, pair_map = any_case
        Ad = TrivialLocalDiscrete(B, pair_map, 1e18)
        omega = derive_connection(Ad).omega
        m, v = stack_of(9)
        assert np.array_equal(omega(m, v), by_loop(omega, m, v))

    def test_derived_omega_equals_pair_derivative(self, any_case):
        # The derived one-form of a local discrete form is pair_derivative
        # at the identity section, in the direction of the base tangent.
        B, _, pair_map = any_case
        Ad = TrivialLocalDiscrete(B, pair_map, 1e18)
        omega = derive_connection(Ad).omega
        m, v = stack_of(5)
        for i in range(5):
            q = bundles.section_over(B, m[:, i])
            lift = make_trivial_tangent(q, v[:, i], np.zeros(B.group.dim))
            assert np.array_equal(omega(m[:, i], v[:, i]),
                                  pair_derivative(Ad, q, lift))

    def test_trivial_tangent_broadcasts_a_block(self, any_case):
        # A single base block over a stack of fiber blocks, the reverse,
        # and a stack over two axes whose first axis the other block's
        # stack fills: the tangents of the columns, bit for bit.
        B = any_case[0]
        q = section_over(B, np.zeros(2))
        rng = np.random.default_rng(12)
        base = rng.uniform(-1.0, 1.0, (2, 6))
        fiber = rng.uniform(-1.0, 1.0, (B.group.dim, 6))

        def columns(b, f):
            return np.stack([make_trivial_tangent(q, b(i), f(i))
                             for i in range(6)], axis=-1)

        assert np.array_equal(
            make_trivial_tangent(q, base[:, 0], fiber),
            columns(lambda i: base[:, 0], lambda i: fiber[:, i]))
        assert np.array_equal(
            make_trivial_tangent(q, base, fiber[:, 0]),
            columns(lambda i: base[:, i], lambda i: fiber[:, 0]))
        grid = make_trivial_tangent(q, base.reshape(2, 2, 3), fiber[:, :2])
        assert grid.shape == (2 + B.group.dim, 2, 3)
        assert np.array_equal(
            grid.reshape(-1, 6),
            columns(lambda i: base[:, i], lambda i: fiber[:, i // 3]))

    def test_increment_of_a_difference(self, case):
        # The increments of A - A_ref, A_ref derived from the case's pair
        # map, over a stack of segments are the per-segment calls' bits.
        B, form, pair_map = case
        eps = difference(TrivialLocalConnection(B, form), derive_connection(
            TrivialLocalDiscrete(B, pair_map, 1e18)))
        increment = primitive_on_segments(eps)
        m, v = stack_of(9)
        got = increment(m, m + 0.3 * v)
        assert got.shape == (B.group.dim, 9)
        assert np.array_equal(got, by_loop(increment, m, m + 0.3 * v))

    def test_flat_pair_map_broadcasts(self, case):
        # The flat discrete on a stack of pairs is its values column by
        # column, bit for bit.
        B, form, _ = case
        Ad = flat_integrate(TrivialLocalConnection(B, form))
        m0, m1 = stack_of(6)
        g0, g1 = stack_of(6, d=B.group.dim, seed=9)
        pairs = [(BundlePoint.trivial(B, m0[:, i], g0[:, i]),
                  BundlePoint.trivial(B, m1[:, i], g1[:, i]))
                 for i in (slice(None), *range(6))]
        got, *columns = (eval_discrete(Ad, *pair) for pair in pairs)
        assert np.array_equal(got, np.stack(columns, axis=-1))

    def test_exterior_derivative_is_the_two_call_reference(self, any_case):
        # Both slopes in one Richardson call, on a pair axis: the bits of
        # one call per slope, for a one-form and a derived one, on a
        # stack, on two stack axes and at a single point.
        B, form, pair_map = any_case
        forms = [form, derive_connection(
            TrivialLocalDiscrete(B, pair_map, 1e18)).omega]
        (m, u), (w, _) = stack_of(6), stack_of(6, seed=8)
        for value in forms:
            for x in ((m, u, w), tuple(y.reshape(2, 2, 3) for y in (m, u, w)),
                      (m[:, 0], u[:, 0], w[:, 0])):
                assert same_bits(exterior_derivative(value, *x),
                                 two_call_exterior_derivative(value, *x))


class TestQuadrature:
    def test_one_call_equals_node_loop(self):
        calls = []

        def f(x):
            calls.append(np.shape(x))
            return np.array([np.sin(3.0 * x), x ** 2 - x])

        got = gauss_legendre_line_integral(f, -0.3, 1.7)
        assert calls == [(QUADRATURE_ORDER,)]
        want = reference_quadrature(f, -0.3, 1.7)
        assert np.array_equal(got, want)

    def test_rule_is_built_once_at_import(self, monkeypatch):
        f = lambda x: np.array([np.sin(3.0 * x)])
        want = reference_quadrature(f, -0.3, 1.7)

        def no_eigensolve(order):
            raise AssertionError("Gauss-Legendre rule rebuilt per call")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_eigensolve)
        for _ in range(2):
            assert np.array_equal(
                gauss_legendre_line_integral(f, -0.3, 1.7), want)

    def test_exact_up_to_degree_15(self):
        # One panel of eight nodes integrates degree 2 * 8 - 1 exactly.
        got = gauss_legendre_line_integral(lambda x: x ** 15, -0.3, 1.7)
        want = (1.7 ** 16 - 0.3 ** 16) / 16.0
        assert got == pytest.approx(want, rel=1e-13)

    def test_not_exact_at_degree_16(self):
        # Exactness ends at degree 15, the cap on a scenario's polynomial
        # terms: on x^16 the rule misses by its error term
        # (b - a)^17 (8!)^4 16! / (17 (16!)^3), here 4.65e-5, far above
        # rounding.
        got = gauss_legendre_line_integral(lambda x: x ** 16, -0.3, 1.7)
        want = (1.7 ** 17 + 0.3 ** 17) / 17.0
        error = 2.0 ** 17 * math.factorial(8) ** 4 / (
            17 * math.factorial(16) ** 2)
        assert error > 1e-6
        assert got == pytest.approx(want - error, rel=1e-13)

    def test_constant_written_on_the_nodes(self):
        # A constant entry is written on the nodes, as `numdiff` asks of
        # every stacked value: the node axis is always last.
        got = gauss_legendre_line_integral(
            lambda x: np.array([2.0 + 0.0 * x, -1.0 + 0.0 * x]), 0.0, 3.0)
        assert np.allclose(got, [6.0, -3.0], rtol=0, atol=1e-13)


class TestCurvatureMatchedPointwise:
    """The matched form's values equal a node-by-node evaluation of the
    integral of the descended difference over the segment m0 -> m1."""

    def pointwise_matched(self, A, Ad_ref, q0, q1):
        eps = difference(A, derive_connection(Ad_ref))
        m0, m1 = q0.base_point, q1.base_point
        direction = m1 - m0
        # The form on the unit direction, the integral times the length.
        length = np.sqrt(direction[0] * direction[0]
                         + direction[1] * direction[1])
        unit = direction / length
        increment = reference_quadrature(
            lambda t: eps.value(m0 + t * direction, unit), 0.0, 1.0) * length
        correction = A.bundle.group.exp(increment)
        return A.bundle.group.compose(eval_discrete(Ad_ref, q0, q1),
                                      correction)

    def check(self, A, Ad_ref):
        Ad = curvature_matched_integrate(
            difference(A, derive_connection(Ad_ref)), Ad_ref)
        B = A.bundle
        for m0, m1, y in (([0.2, -0.3], [0.5, 0.1], 0.4),
                          ([-0.6, 0.4], [-0.2, 0.9], -1.1)):
            q0 = BundlePoint.trivial(B, m0, [y])
            q1 = BundlePoint.trivial(B, m1, [0.3])
            got = eval_discrete(Ad, q0, q1).data
            want = self.pointwise_matched(A, Ad_ref, q0, q1).data
            assert np.array_equal(got, want)

    def test_flat_reference(self):
        B = TrivialBundle(EuclideanChart(2), Translation(1))
        closed = TrivialLocalConnection(
            B, lambda m, v: np.array([m[1] * v[0] + m[0] * v[1]]))
        Ad_ref = flat_integrate(closed)
        # d(x^2): closed, so its curvature matches the flat reference.
        A = TrivialLocalConnection(B, lambda m, v: np.array([2 * m[0] * v[0]]))
        self.check(A, Ad_ref)

    def test_integrated_reference(self):
        B = TrivialBundle(EuclideanChart(2), Torus(1))
        A0 = TrivialLocalConnection(B, lambda m, v: np.array([m[0] * v[1]]))
        Ad_ref = integrate_connection(A0, trivial_product_retraction(B),
                                      1e18)
        A = TrivialLocalConnection(
            B, lambda m, v: np.array([m[0] * v[1] + 2 * m[0] * v[0]]))
        self.check(A, Ad_ref)


class TestClosedFormCheck:
    """closed_form draws its samples in the order of a per-sample loop and
    evaluates them as one stack; the verdict is the loop's, bit for bit."""

    POLYNOMIAL = {"name": "polynomial",
                  "terms": [{"coeff": 3.0, "powers": [2, 1], "dx": 1},
                            {"coeff": -0.7, "powers": [0, 3], "dx": 0}]}

    def context(self, omega, box):
        return scenarios.ScenarioContext({
            "name": "closed", "seed": 21, "box": box,
            "bundle": {"kind": "trivial", "base": {"kind": "R^d", "dim": 2},
                       "group": {"kind": "R^k", "dim": 1}},
            "connection": {"kind": "local", "omega": omega}})

    def per_sample_loop(self, ctx, n):
        rng = ctx.rng(0)
        defects = []
        for _ in range(n):
            m, u, w = (x[..., 0] for x in scenarios._draws(
                rng, 1, ctx.draw_base(), ctx.draw_base_tangent(),
                ctx.draw_base_tangent()))
            m = ctx.base_points(m)
            defects.append(float(np.linalg.norm(exterior_derivative(
                ctx.connection.value, m, u, w))))
        return worst_defect(defects)

    @pytest.mark.parametrize("omega", ["x_dy", "closed_xy", POLYNOMIAL])
    def test_equals_per_sample_loop(self, omega):
        ctx = self.context(omega, [[-1.0, 1.0], [-2.0, 0.5]])
        got, n = scenarios.run_check(ctx, 0, {"name": "closed_form",
                                              "samples": 40})
        assert got == self.per_sample_loop(ctx, n)

    def test_lost_step_reads_nan_in_both(self):
        ctx = self.context("x_dy", [[-1.0, 1.0], [1e200, 1e300]])
        got, n = scenarios.run_check(ctx, 0, {"name": "closed_form",
                                              "samples": 7})
        assert np.isnan(got) and np.isnan(self.per_sample_loop(ctx, n))


class TestStackedFailures:
    def test_kink_in_one_column_raises(self):
        # The pair map is smooth where x0 <= 0 and has a t |t|^(1/2) kink
        # on the diagonal where x0 > 0.
        B = TrivialBundle(EuclideanChart(1), Translation(1))
        Ad = TrivialLocalDiscrete(
            B, lambda m0, m1: np.array(
                [(m1[0] - m0[0]) * np.abs(m1[0] - m0[0]) ** 0.5
                 * (m0[0] > 0)]), 1e18)
        omega = derive_connection(Ad).omega
        smooth = np.array([[-1.0, -0.5, -0.1]])
        omega(smooth, np.ones_like(smooth))
        with pytest.raises(NonDifferentiable):
            kinked = np.array([[-1.0, 0.5, -0.1]])
            omega(kinked, np.ones_like(kinked))

    def test_pair_outside_domain_raises(self):
        B = TrivialBundle(EuclideanChart(2), Translation(1))
        Ad = TrivialLocalDiscrete(
            B, lambda m0, m1: np.array([m0[0] * (m1[1] - m0[1])]),
            1e-5)
        omega = derive_connection(Ad).omega
        m = np.zeros((2, 3))
        short = np.full((2, 3), 1e-3)
        omega(m, short)
        far = short.copy()
        far[:, 1] = 1.0  # step h * |delta| exceeds the radius
        with pytest.raises(OutsideDomain):
            omega(m, far)


class TestIncrementStack:
    """A stack of segments gets, column by column, the bits of a call on
    that segment alone."""

    def test_stack_is_the_per_column_calls(self):
        B = TrivialBundle(EuclideanChart(2), Translation(1))
        _, form, pair_map = CASES["R1"]
        increment = primitive_on_segments(difference(
            TrivialLocalConnection(B, form),
            derive_connection(TrivialLocalDiscrete(B, pair_map, 1e18))))
        p, q = stack_of(2)[0].T
        # Repeats, a zero-length segment and a 0.0 / -0.0 pair, on two
        # stack axes.
        starts = [p, q, [0.0, 0.5], p, [-0.0, 0.5], q, p, [0.3, -0.0]]
        ends = [q, p, [0.0, 0.5], q, [0.0, 0.5], q, [0.3, 0.0], p]
        m0, m1 = (np.array(x).T.reshape(2, 2, 4) for x in (starts, ends))
        got = increment(m0, m1)
        assert got.shape == (1, 2, 4)
        for i in np.ndindex(m0.shape[1:]):
            column = (slice(None),) + i
            assert same_bits(got[column],
                             increment(m0[column], m1[column]))
        # A single start point is broadcast over a stack of end points.
        alone = increment(p, m1)
        for i in np.ndindex(m1.shape[1:]):
            column = (slice(None),) + i
            assert same_bits(alone[column], increment(p, m1[column]))


# ---------------------------------------------------------------------------
# Stacked retraction steps: every column steps on its own.

STEP_TOL = 1e-15


def unit(v):
    return v / np.linalg.norm(v)


def tangent_stack(rng, kind, x, k, length=0.3):
    """k tangents at x as a (coord_size, k) stack, the last one zero."""
    v = rng.normal(size=(kind.coord_size, k))
    v = np.stack([kind.project_tangent(x, v[:, i]) for i in range(k)], -1)
    v = length * v / np.linalg.norm(v, axis=0)
    v[:, -1] = 0.0
    return v


def point_array(p):
    """The coordinates of a stepped point, or of a stack of them: a base
    point, a Hopf point's ambient vector, or a trivial bundle point's base
    and group parts."""
    if not isinstance(p, BundlePoint):
        return p
    if p.ambient is not None:
        return p.ambient
    stack = p.base_point.shape[1:]
    return np.concatenate([p.base_point,
                           p.group_part.reshape((-1,) + stack)])


def assert_columns_step_alone(step, x, v):
    stacked = point_array(step(x, v))
    assert stacked.shape[1:] == v.shape[1:]
    for i in range(v.shape[1]):
        single = point_array(step(x, v[:, i]))
        assert single.shape == stacked[:, i].shape
        assert np.max(np.abs(stacked[:, i] - single)) <= STEP_TOL


TORUS_PLANE = TrivialBundle(EuclideanChart(2), Torus(2))


def torus_form(m, v):
    return np.array([m[0] * v[1], m[1] * v[1] - v[0]])


SO3_PLANE = TrivialBundle(EuclideanChart(2), SO3())


BUNDLE_RULES = {
    "straight": (TORUS_PLANE, trivial_product_retraction,
                 lambda B: TrivialLocalConnection(B, torus_form)),
    "skewed": (TORUS_PLANE, trivial_skewed_retraction,
               lambda B: TrivialLocalConnection(B, torus_form)),
    "straight_so3": (SO3_PLANE, trivial_product_retraction,
                     lambda B: TrivialLocalConnection(B, so3_form)),
    "great_circle": (HopfBundle(), hopf_geodesic_retraction,
                     lambda B: HopfConnection(B, 0.1)),
    "hopf_chart": (HopfBundle(), _hopf_chart_retraction,
                   lambda B: HopfConnection(B, 0.1)),
}


class TestStackedStepsKeepColumnsApart:
    @pytest.mark.parametrize("kind", [EuclideanChart(2), Sphere(3)])
    def test_metric_exponential(self, kind):
        rng = np.random.default_rng(31)
        R = metric_exponential(kind)
        for _ in range(5):
            x = rng.normal(size=kind.coord_size)
            if isinstance(kind, Sphere):
                x = unit(x)
            assert_columns_step_alone(R.step, x, tangent_stack(rng, kind, x, 6))

    def test_sphere_chart_line_step(self):
        rng = np.random.default_rng(37)
        kind = Sphere(3)
        for _ in range(5):
            x = unit(rng.normal(size=3) + [0.0, 0.0, 1.0])
            assert_columns_step_alone(kind.chart_line_step, x,
                                      tangent_stack(rng, kind, x, 6))

    @pytest.mark.parametrize("name", sorted(BUNDLE_RULES))
    def test_bundle_retraction(self, name):
        B, make, _ = BUNDLE_RULES[name]
        R = make(B)
        rng = np.random.default_rng(41)
        for _ in range(5):
            if isinstance(B, HopfBundle):
                m = unit(rng.normal(size=3) + [0.0, 0.0, 1.5])
                q = act(rng.uniform(-1.0, 1.0, 1), section_over(B, m))
                v = tangent_stack(rng, B.total_space, q.ambient, 6)
            else:
                G = B.group
                q = BundlePoint.trivial(B, rng.uniform(-1.0, 1.0, 2),
                                        G.exp(rng.uniform(-1.0, 1.0, G.dim)))
                v = 0.3 * rng.uniform(-1.0, 1.0, (2 + G.dim, 6))
                v[:, -1] = 0.0
            assert_columns_step_alone(R.step, q, v)

    @pytest.mark.parametrize("name", sorted(BUNDLE_RULES))
    def test_reduced_retraction(self, name):
        B, make, connection = BUNDLE_RULES[name]
        A = connection(B)
        rng = np.random.default_rng(43)
        for _ in range(5):
            if isinstance(B, HopfBundle):
                m = unit(rng.normal(size=3) + [0.0, 0.0, 1.5])
            else:
                m = rng.uniform(-1.0, 1.0, 2)
            q = section_over(B, m)
            R = reduced_retraction(make(B), q, horizontal_lifts(A, q))
            assert_columns_step_alone(R.step, m,
                                      tangent_stack(rng, B.base, m, 6))

    def test_zero_great_circle_step_returns_the_point_exactly(self):
        B = HopfBundle()
        R = hopf_geodesic_retraction(B)
        q = act(np.array([0.4]), section_over(B, unit(np.array([0.2, -0.3,
                                                                0.9]))))
        rng = np.random.default_rng(47)
        v = tangent_stack(rng, B.total_space, q.ambient, 3)
        assert np.array_equal(R.step(q, v).ambient[:, -1], q.ambient)
        assert np.array_equal(R.step(q, np.zeros(4)).ambient, q.ambient)


def python_dot(a, b):
    """Column dot products of (d, *stack) arrays (the shorter stack a
    prefix, as `_columns` makes it), as a plain row-by-row Python sum of
    Python floats, one column at a time."""
    a, b = np.broadcast_arrays(*_columns(a, b))
    out = np.empty(a.shape[1:])
    for index in np.ndindex(out.shape):
        column = (slice(None),) + index
        total = None
        for x, y in zip(a[column].tolist(), b[column].tolist()):
            total = x * y if total is None else total + x * y
        out[index] = total
    return out


def kernel_layouts(rng, d):
    """(name, a, b) pairs of every layout the kernels meet, with entries
    spread over twelve decades so that the order of the sum shows."""
    def draw(*shape):
        return (rng.standard_normal(shape)
                * 10.0 ** rng.integers(-6, 7, shape))

    stack = draw(d, 5, 3)
    return [("single", draw(d), draw(d)),
            ("stack", stack, draw(d, 5, 3)),
            ("transposed", draw(3, 5, d).T, draw(3, 5, d).T),
            ("single over a stack", draw(d), stack),
            ("prefix stack", draw(d, 5), stack)]


class TestKernelSummationRule:
    """`_column_dot`, `_column_norm` and `_matvec` add the coordinates one
    after another, bit for bit, in every layout and at every coordinate
    count up to two whole MAX_DIM axes and one more.  Below eight rows
    the kernels rely on np.add.reduce adding in order; a numpy release
    that changes that order fails here."""

    @pytest.mark.parametrize("d", range(1, 2 * scenarios.MAX_DIM + 2))
    # A smaller seed is no simpler input: no shrinking.
    @settings(max_examples=8, deadline=None, derandomize=True,
              phases=[Phase.generate])
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_kernels_add_row_by_row(self, d, seed):
        rng = np.random.default_rng(seed)
        for name, a, b in kernel_layouts(rng, d):
            assert same_bits(_column_dot(a, b), python_dot(a, b)), name
            assert same_bits(_column_norm(b), np.sqrt(python_dot(b, b))), \
                name
            # Rows of a (2, d, *stack) matrix stack against b: each entry
            # is the column dot of one row with b.
            M = np.stack([a, a[::-1]])
            assert same_bits(_matvec(M, b), np.stack(
                [python_dot(row, b) for row in M])), name
