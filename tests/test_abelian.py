"""Curvature-matched integration of a descended difference, flat
integration (the matched integral against the zero reference) included."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disconn import scenarios
from disconn.abelian import (curvature_matched_integrate,
                             primitive_on_segments, worst_exterior_defect)
from disconn.bundles import (BundlePoint, HopfBundle, TrivialBundle,
                             make_trivial_tangent)
from disconn.cli import run_scenario
from disconn.connections import (HopfConnection, TrivialLocalConnection,
                                 eval_connection)
from disconn.derivation import derive_connection
from disconn.discrete import (ComposedDiscrete, TrivialLocalDiscrete,
                              discrete_curvature, eval_discrete,
                              triangle_pairs)
from disconn.errors import (BundleMismatch, CurvatureMismatch,
                            UnsupportedGroup, UnsupportedPresentation)
from disconn.groups import SO3, Translation
from disconn.manifolds import EuclideanChart, Sphere
from disconn.scenarios import (ScenarioContext, load_scenario,
                               one_form_builtin, pair_map_builtin)


def plane_bundle():
    B = TrivialBundle(EuclideanChart(2), Translation(1))
    return B, 1e18


def flat_integrate(A, U):
    """The flat discrete of A: its curvature-matched integral against the
    zero reference, whose derived connection is zero, so that the
    descended difference is A itself."""
    return curvature_matched_integrate(A, pair_map_builtin("zero", A.bundle,
                                                           U))


def difference(A, A_ref):
    """The descended difference A - A_ref of two local connections."""
    return TrivialLocalConnection(
        A.bundle, lambda m, v: A.value(m, v) - A_ref.value(m, v))


def plane_context(discrete, omega=None, dim=2):
    """A context on R^dim x R with one discrete; building it runs the
    curvature-matched gate of a flat or matched discrete on the tables."""
    cfg = {"name": "gate", "seed": 0, "discrete": discrete,
           "bundle": {"kind": "trivial", "base": {"kind": "R^d", "dim": dim},
                      "group": {"kind": "R^k", "dim": 1}}}
    if omega is not None:
        cfg["connection"] = {"kind": "local", "omega": omega}
    return ScenarioContext(cfg)


def trapezoid(B, U):
    return TrivialLocalDiscrete(
        B, lambda m0, m1: np.array([0.5 * (m0[0] + m1[0]) * (m1[1] - m0[1])]),
        U)


class TestGuards:
    """curvature_matched_integrate refuses what its route cannot integrate:
    another bundle, a non-abelian group, a base without a global Euclidean
    chart."""

    def test_bundle_mismatch(self):
        B, U = plane_bundle()
        C = TrivialBundle(EuclideanChart(3), Translation(1))
        with pytest.raises(BundleMismatch):
            curvature_matched_integrate(
                TrivialLocalConnection(B, lambda m, v: np.array([0.0])),
                pair_map_builtin("zero", C, U))

    def test_nonabelian_rejected(self):
        B = TrivialBundle(EuclideanChart(1), SO3())
        eps = TrivialLocalConnection(B, lambda m, v: np.zeros(3))
        Ad_ref = TrivialLocalDiscrete(B, lambda m0, m1: np.eye(3), 1.0)
        with pytest.raises(UnsupportedGroup):
            curvature_matched_integrate(eps, Ad_ref)

    def test_hopf_base_unsupported(self):
        # S^2 has no global Euclidean chart: the segments m0 -> m1 leave
        # it, and a closed form need not be exact there.
        H = HopfBundle()
        Ad_ref = ComposedDiscrete(H, lambda q0, q1: np.array([0.0]), 1.0)
        with pytest.raises(UnsupportedPresentation):
            curvature_matched_integrate(HopfConnection(H, 0.1), Ad_ref)


class TestClosedness:
    def test_exact_form_closed(self):
        B, _ = plane_bundle()
        A = TrivialLocalConnection(
            B, lambda m, v: np.array([m[1] * v[0] + m[0] * v[1]]))
        samples = np.array([[[0.3], [-0.2]], [[1.0], [0.0]], [[0.0], [1.0]]])
        assert worst_exterior_defect(A, samples) <= 1e-9

    def test_x_dy_rejected(self):
        with pytest.raises(CurvatureMismatch):
            plane_context({"kind": "flat", "omega": "x_dy"})


def polynomial(terms):
    """A polynomial one-form builtin of (coeff, powers, dx) terms."""
    return {"name": "polynomial", "terms": [
        {"coeff": c, "powers": list(p), "dx": j} for c, p, j in terms]}


@st.composite
def exact_forms(draw):
    """(d, the table of df) for a polynomial potential f on R^d of degree
    at most 8, one term per monomial: d(c x^p) = sum_i c p_i x^(p - e_i)
    dx_i."""
    d = draw(st.integers(1, 3))
    f = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 8)] * d).filter(lambda p: sum(p) <= 8),
        st.floats(-1e3, 1e3, allow_nan=False).filter(lambda c: c != 0),
        min_size=1, max_size=6))
    return d, [(c * p[i], tuple(e - (k == i) for k, e in enumerate(p)), i)
               for p, c in f.items() for i in range(d) if p[i]]


class TestTableGate:
    """The curvature-matched gate decides closedness on the polynomial
    tables, exactly up to the rounding of their coefficients."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(exact_forms())
    def test_an_exact_form_passes(self, form):
        d, table = form
        plane_context({"kind": "flat", "omega": polynomial(table)}, dim=d)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(exact_forms(), st.data())
    def test_one_open_term_fails(self, form, data):
        # c x^q dx_j with q_i > 0 for some i != j is not closed, and adding
        # it to df leaves d of the sum equal to its own d.
        d, table = form
        if d == 1:
            d, table = 2, [(c, p + (0,), j) for c, p, j in table]
        j = data.draw(st.integers(0, d - 1))
        i = data.draw(st.integers(0, d - 1).filter(lambda i: i != j))
        q = [data.draw(st.integers(0, 5)) for _ in range(d)]  # <= 15
        q[i] = max(q[i], 1)
        largest = max([abs(c) for c, _, _ in table], default=1.0)
        scale = data.draw(st.floats(1e-6, 1e3))
        sign = data.draw(st.sampled_from([-1.0, 1.0]))
        opened = [*table, (sign * scale * largest, tuple(q), j)]
        with pytest.raises(CurvatureMismatch):
            plane_context({"kind": "flat", "omega": polynomial(opened)},
                          dim=d)

    @pytest.mark.parametrize("scale", [1e-290, 1.0, 1e290])
    def test_tolerance_is_relative_to_the_terms(self, scale):
        # y dx + x dy + t x dy has d = t dx^dy against terms of magnitude
        # 2 + t: t = 1e-8 is within MATCH_TOL = 1e-8 of them, 2.5e-8 is
        # not, at every scale of the coefficients.
        def tilted(t):
            return [(scale, [0, 1], [1]), (scale, [1], [0, 1]),
                    (scale * t, [1], [0, 1])]

        scenarios._require_closed(tilted(1e-8))
        with pytest.raises(CurvatureMismatch):
            scenarios._require_closed(tilted(2.5e-8))


class TestFlatIntegration:
    def setup_method(self):
        self.B, self.U = plane_bundle()
        self.A = TrivialLocalConnection(
            self.B, lambda m, v: np.array([m[1] * v[0] + m[0] * v[1]]))
        self.Ad = flat_integrate(self.A, self.U)

    def q(self, m, y=0.0):
        return BundlePoint.trivial(self.B, m, [y])

    def test_primitive_values(self):
        # omega = d(xy): C(m0, m1) = x1 y1 - x0 y0.
        got = eval_discrete(self.Ad, self.q([0.3, 0.4]), self.q([1.2, 0.8]))
        assert got[0] == pytest.approx(1.2 * 0.8 - 0.3 * 0.4, abs=1e-12)

    def test_triangle_identity(self):
        rng = np.random.default_rng(127)
        for _ in range(10):
            a, b, c = (self.q(rng.uniform(-1, 1, 2)) for _ in range(3))
            hol = discrete_curvature(self.Ad, triangle_pairs(a, b, c))
            G = self.Ad.bundle.group
            assert G.distance(hol, G.identity()) <= 1e-12

    def test_derived_form_matches_omega(self):
        A = derive_connection(self.Ad)
        q = self.q([0.5, -0.7], 0.0)
        v = make_trivial_tangent(q, [1.0, 0.0], [0.0])
        got = eval_connection(A, q, v)[0]
        assert got == pytest.approx(-0.7, abs=1e-9)

    def test_sphere_base_rejected(self):
        B = TrivialBundle(Sphere(3), Translation(1))
        A = TrivialLocalConnection(B, lambda m, v: np.array([0.0]))
        with pytest.raises(UnsupportedPresentation):
            flat_integrate(A, 1.0)


class TestIncrement:
    """primitive_on_segments(A) integrates the one-form of A over the
    straight segments m0 -> m1."""

    def exact(self):
        # d(x^2 + x y + sin(x) y), with a primitive f for reference.
        B, _ = plane_bundle()
        A = TrivialLocalConnection(B, lambda m, v: np.array(
            [(2 * m[0] + m[1] + np.cos(m[0]) * m[1]) * v[0]
             + (m[0] + np.sin(m[0])) * v[1]]))
        return primitive_on_segments(A), (
            lambda m: m[0] ** 2 + m[0] * m[1] + np.sin(m[0]) * m[1])

    def test_increment_of_x_dy(self):
        # Along x = 2 from y = 3 to y = 4, x dy integrates to 2; across,
        # along y = 3, to 0.
        B, _ = plane_bundle()
        increment = primitive_on_segments(
            TrivialLocalConnection(B, lambda m, v: m[0] * v[1]))
        assert increment([2.0, 3.0], [2.0, 4.0])[0] == pytest.approx(2.0)
        assert increment([2.0, 3.0], [5.0, 3.0])[0] == 0.0

    def test_increment_of_an_exact_form(self):
        increment, f = self.exact()
        a, b = np.array([0.3, -1.2]), np.array([1.5, 0.7])
        assert increment(a, b)[0] == pytest.approx(f(b) - f(a), abs=1e-12)
        # The segment from the origin gives the primitive vanishing there.
        assert increment(np.zeros(2), b)[0] == pytest.approx(f(b),
                                                             abs=1e-12)

    def test_zero_on_the_diagonal(self):
        # Exactly zero, so a discrete connection built on the increment
        # meets its diagonal axiom exactly.
        increment, _ = self.exact()
        m = np.random.default_rng(7).uniform(-2.0, 2.0, (2, 3, 4))
        got = increment(m, m)
        assert got.shape == (1, 3, 4)
        assert np.all(got == 0.0)
        assert increment(m[:, 0, 0], m[:, 0, 0])[0] == 0.0

    def test_additive_along_a_chain(self):
        # A closed form: the increments of a -> b and b -> c add up to
        # that of a -> c, on a stack of chains.
        increment, _ = self.exact()
        a, b, c = np.random.default_rng(8).uniform(-1.5, 1.5, (3, 2, 20))
        chain = increment(a, b) + increment(b, c)
        assert np.max(np.abs(chain - increment(a, c))) <= 1e-14

    def test_exact_at_the_degree_cap(self):
        # d(x^8 y^8) as polynomial terms of degree 15, the largest a
        # scenario may give: one quadrature panel is exact on it, so the
        # increment is the primitive's difference up to rounding.
        B, _ = plane_bundle()
        A = one_form_builtin({"name": "polynomial", "terms": [
            {"coeff": 8, "powers": [7, 8], "dx": 0},
            {"coeff": 8, "powers": [8, 7], "dx": 1}]}, B)
        m0, m1 = np.random.default_rng(9).uniform(0.0, 1.0, (2, 2, 200))
        want = m1[0] ** 8 * m1[1] ** 8 - m0[0] ** 8 * m0[1] ** 8
        got = primitive_on_segments(A)(m0, m1)
        assert got.shape == (1, 200)
        assert np.max(np.abs(got[0] - want)) <= 1e-14


class TestCurvatureMatched:
    def setup_method(self):
        self.B, self.U = plane_bundle()
        self.Ad_ref = trapezoid(self.B, self.U)
        # A = x dy + 2x dx shares the trapezoid's derived curvature dx dy;
        # the difference from its Richardson-derived connection is 2x dx.
        self.A = TrivialLocalConnection(
            self.B, lambda m, v: np.array([m[0] * v[1] + 2 * m[0] * v[0]]))
        self.eps = difference(self.A, derive_connection(self.Ad_ref))

    def q(self, m, y=0.0):
        return BundlePoint.trivial(self.B, m, [y])

    def test_mismatch_defect_small(self):
        # The (m, u, w) stacks of two samples, one column each.
        samples = np.array([[[0.2, -0.4], [-0.1, 0.3]],
                            [[1.0, 1.0], [0.0, 0.0]],
                            [[0.0, 0.0], [1.0, 1.0]]])
        assert worst_exterior_defect(self.eps, samples) <= 1e-6

    def test_matched_rule_value(self):
        # The increment of 2x dx over m0 -> m1 is x1^2 - x0^2:
        # C = trapezoid + (x1^2 - x0^2).
        Ad = curvature_matched_integrate(self.eps, self.Ad_ref)
        got = eval_discrete(Ad, self.q([0.3, 0.4]), self.q([1.0, 1.0]))
        expected = 0.5 * (0.3 + 1.0) * (1.0 - 0.4) + (1.0 - 0.09)
        assert got[0] == pytest.approx(expected, abs=1e-10)

    def test_derives_back_to_a(self):
        Ad = curvature_matched_integrate(self.eps, self.Ad_ref)
        A_back = derive_connection(Ad)
        rng = np.random.default_rng(131)
        for _ in range(5):
            q = self.q(rng.uniform(-1, 1, 2), rng.uniform(-2, 2))
            v = make_trivial_tangent(q, rng.uniform(-1, 1, 2),
                                     rng.uniform(-1, 1, 1))
            diff = (eval_connection(A_back, q, v)
                    - eval_connection(self.A, q, v))
            assert np.linalg.norm(diff) <= 1e-7

    def test_bundled_scenario_derives_back_to_rounding(self):
        # The derived reference is the trapezoid's closed form x dy, so the
        # descended difference takes no derivative and only the round
        # trip's own derivative rounds, far below STEP-scale rounding.
        cfg = load_scenario(Path(__file__).resolve().parents[1]
                            / "scenarios" / "curvature_matched.json")
        report = run_scenario(cfg, ScenarioContext(cfg))
        (defect,) = [c.max_defect for c in report.checks
                     if c.name == "derive_roundtrip"]
        assert defect <= 1e-10

    def test_wrong_closed_reference_shows_in_the_round_trip(self,
                                                           monkeypatch):
        # A derived reference off by the closed form 1e-3 dx0 passes the
        # matching gate, but the matched discrete then derives to A -
        # 1e-3 dx0, and derive_roundtrip FAILs by far more than its
        # tolerance: a wrong closed form cannot hide behind the gate.
        linear = scenarios._linear_terms
        monkeypatch.setattr(scenarios, "_linear_terms", lambda table: [
            *linear(table), (1e-3, [], [1])])
        cfg = load_scenario(Path(__file__).resolve().parents[1]
                            / "scenarios" / "curvature_matched.json")
        report = run_scenario(cfg, ScenarioContext(cfg))
        (check,) = [c for c in report.checks if c.name == "derive_roundtrip"]
        assert not check.passed
        assert 10 * check.tolerance <= check.max_defect <= 1e-3

    def test_curvature_mismatch_rejected(self):
        # 2x dy has derived curvature 2 dx dy, twice the trapezoid's.
        with pytest.raises(CurvatureMismatch):
            plane_context({"kind": "matched", "reference": {
                "kind": "local", "pair_map": "trapezoid_x_dy"}},
                omega=polynomial([(2.0, (1, 0), 1)]))
