"""Curvature-matched integration of a descended difference, flat
integration (the matched integral against the zero reference) included,
built by `ScenarioContext` as one pair-map table."""

import json
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disconn import scenarios
from disconn.abelian import worst_exterior_defect
from disconn.bundles import BundlePoint, TrivialBundle, make_trivial_tangent
from disconn.cli import run_scenario
from disconn.connections import TrivialLocalConnection, eval_connection
from disconn.derivation import derive_connection
from disconn.discrete import (TrivialLocalDiscrete, discrete_curvature,
                              eval_discrete, triangle_pairs)
from disconn.errors import CurvatureMismatch, ParseError
from disconn.groups import Translation
from disconn.manifolds import EuclideanChart
from disconn.scenarios import ScenarioContext, load_scenario

ROOT = Path(__file__).resolve().parents[1]


def plane_bundle():
    B = TrivialBundle(EuclideanChart(2), Translation(1))
    return B, 1e18


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


def flat(omega, dim=2):
    """The flat discrete of the one-form builtin omega on R^dim x R."""
    ctx = plane_context({"kind": "flat", "omega": omega}, dim=dim)
    return ctx.discretes[0]


MATCHED = {"kind": "matched",
           "reference": {"kind": "local", "pair_map": "trapezoid_x_dy"}}


def trapezoid(B, U):
    return TrivialLocalDiscrete(
        B, lambda m0, m1: np.array([0.5 * (m0[0] + m1[0]) * (m1[1] - m0[1])]),
        U)


def loaded(tmp_path, cfg):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    return load_scenario(path)


class TestGuards:
    """load_scenario refuses what the segment integral cannot serve: a
    non-abelian group, a base without a global Euclidean chart."""

    def test_nonabelian_rejected(self):
        # Builtin one-forms take one-dimensional groups only, all abelian.
        with pytest.raises(ParseError, match="one-dimensional"):
            ScenarioContext({
                "name": "so3", "seed": 0,
                "bundle": {"kind": "trivial",
                           "base": {"kind": "R^d", "dim": 1},
                           "group": {"kind": "SO3"}},
                "discrete": {"kind": "flat", "omega": "zero"}})

    def test_hopf_base_unsupported(self, tmp_path):
        with pytest.raises(ParseError, match="only integrated"):
            loaded(tmp_path, {
                "name": "hopf", "seed": 0, "bundle": {"kind": "hopf"},
                "connection": {"kind": "hopf_canonical"},
                "discrete": MATCHED})

    @pytest.mark.parametrize("discrete", [
        {"kind": "flat", "omega": "closed_xy"}, MATCHED])
    def test_sphere_base_rejected(self, tmp_path, discrete):
        # S^2 has no global Euclidean chart: the segments m0 -> m1 leave
        # it, and a table would integrate along chords of R^3.
        message = f"{discrete['kind']} discrete needs an R^d base"
        with pytest.raises(ParseError, match=re.escape(message)):
            loaded(tmp_path, {
                "name": "sphere", "seed": 0,
                "bundle": {"kind": "trivial", "base": {"kind": "S2"},
                           "group": {"kind": "U1"}},
                "connection": {"kind": "local", "omega": "x_dy"},
                "discrete": discrete})


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
        self.Ad = flat("closed_xy")
        self.B = self.Ad.bundle

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

    def test_huge_coefficients_stay_finite(self):
        # d(0.85e308 x^2 y^2): coefficients 1.7e308, 5% below the float
        # limit.  Each expansion factor is rounded before it scales its
        # coefficient, so no coefficient overflows.
        Ad = flat(polynomial([(1.7e308, (1, 2), 0), (1.7e308, (2, 1), 1)]))
        m0, m1 = np.random.default_rng(11).uniform(-1.0, 1.0, (2, 2, 1000))
        got = Ad.pair_map(m0, m1)[0]
        want = 0.85e308 * (m1[0] ** 2 * m1[1] ** 2 - m0[0] ** 2 * m0[1] ** 2)
        assert np.all(np.isfinite(got))
        # Relative to 0.85e308, the primitive's bound on the unit box.
        assert np.max(np.abs(got - want)) <= 1e-15 * 0.85e308
        got = Ad.pair_map(np.array([0.3, -0.2]), np.array([0.5, 0.1]))[0]
        assert got == pytest.approx(-9.35e304, rel=0, abs=1e-15 * 0.85e308)


def segment(table, m0, m1):
    """The pair map of the segment integral of the one-form table at the
    pairs (m0, m1)."""
    B = TrivialBundle(EuclideanChart(len(m0)), Translation(1))
    return scenarios._pair_map(B, scenarios._segment_integral(table),
                               "segment", 1e18).pair_map(m0, m1)[0]


class TestIncrement:
    """The segment integral's table integrates the one-form table over the
    straight segments m0 -> m1."""

    # d(x^2 + x y + x^3 y), with its primitive f for reference.
    EXACT = [(2, [1], [1]), (1, [0, 1], [1]), (3, [2, 1], [1]),
             (1, [1], [0, 1]), (1, [3], [0, 1])]

    @staticmethod
    def f(m):
        return m[0] ** 2 + m[0] * m[1] + m[0] ** 3 * m[1]

    def test_increment_of_x_dy(self):
        # Along x = 2 from y = 3 to y = 4, x dy integrates to 2; across,
        # along y = 3, to 0.
        x_dy = scenarios._X_DY
        assert segment(x_dy, np.array([2.0, 3.0]),
                       np.array([2.0, 4.0])) == pytest.approx(2.0)
        assert segment(x_dy, np.array([2.0, 3.0]),
                       np.array([5.0, 3.0])) == 0.0

    def test_increment_of_an_exact_form(self):
        a, b = np.array([0.3, -1.2]), np.array([1.5, 0.7])
        assert segment(self.EXACT, a, b) == pytest.approx(
            self.f(b) - self.f(a), abs=1e-12)
        # The segment from the origin gives the primitive vanishing there.
        assert segment(self.EXACT, np.zeros(2), b) == pytest.approx(
            self.f(b), abs=1e-12)

    def test_zero_on_the_diagonal(self):
        # Exactly zero: every term reads delta, so a discrete connection
        # built on the table meets its diagonal axiom exactly.
        m = np.random.default_rng(7).uniform(-2.0, 2.0, (2, 3, 4))
        got = segment(self.EXACT, m, m)
        assert got.shape == (3, 4)
        assert np.all(got == 0.0)

    def test_additive_along_a_chain(self):
        # A closed form: the integrals over a -> b and b -> c add up to
        # that over a -> c, on a stack of chains.
        a, b, c = np.random.default_rng(8).uniform(-1.5, 1.5, (3, 2, 20))
        chain = segment(self.EXACT, a, b) + segment(self.EXACT, b, c)
        assert np.max(np.abs(chain - segment(self.EXACT, a, c))) <= 1e-14

    def test_exact_at_the_degree_cap(self):
        # d(x^8 y^8) as polynomial terms of degree 15, the largest a
        # scenario may give: the integral is the primitive's difference up
        # to rounding.
        table = [(8, [7, 8], [1]), (8, [8, 7], [0, 1])]
        m0, m1 = np.random.default_rng(9).uniform(0.0, 1.0, (2, 2, 200))
        want = m1[0] ** 8 * m1[1] ** 8 - m0[0] ** 8 * m0[1] ** 8
        got = segment(table, m0, m1)
        assert got.shape == (200,)
        assert np.max(np.abs(got - want)) <= 1e-14


def exact_integral(c, p, j, m0, m1):
    """The integral of c x^p dx_j over the segment m0 -> m1, in Fraction
    arithmetic from the exact float inputs: the polynomial in t of x = m0
    + t (m1 - m0), integrated over [0, 1]."""
    m0, m1 = [Fraction(x) for x in m0], [Fraction(x) for x in m1]
    delta = [b - a for a, b in zip(m0, m1)]
    poly = [Fraction(c) * delta[j]]  # coefficients of t^0, t^1, ...
    for i, e in enumerate(p):
        for _ in range(e):
            poly = [a * m0[i] + b * delta[i]
                    for a, b in zip(poly + [0], [0] + poly)]
    return sum(a / (n + 1) for n, a in enumerate(poly))


def magnitude(c, p, j, m0, m1):
    """A bound on the summed magnitudes of the segment table's terms at
    (m0, m1): |c| prod (|mid_i| + |delta_i| / 2)^p_i |delta_j|."""
    mid = [abs(a + b) / 2 for a, b in zip(m0, m1)]
    half = [abs(b - a) / 2 for a, b in zip(m0, m1)]
    return abs(c) * math.prod((x + h) ** e for x, h, e in zip(mid, half, p)) \
        * 2 * half[j]


def gauss_legendre(c, p, j, m0, m1):
    """The integral by one panel of 8 Gauss-Legendre nodes on [0, 1],
    exact to degree 15."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    t = 0.5 * (nodes + 1.0)
    m0, m1 = np.asarray(m0), np.asarray(m1)
    x = m0[:, None] + t * (m1 - m0)[:, None]
    values = c * np.prod([x[i] ** e for i, e in enumerate(p)], axis=0) \
        * (m1[j] - m0[j])
    return float(np.sum(0.5 * weights * values))


COORD = st.floats(-2.0, 2.0)
TINY = 1e-300


@st.composite
def terms_and_segments(draw):
    """(c, p, j, m0, m1): a term c x^p dx_j on d <= 3 coordinates of
    degree at most MAX_DEGREE, and a segment."""
    d = draw(st.integers(1, 3))
    p = draw(st.lists(st.integers(0, scenarios.MAX_DEGREE), min_size=d,
                      max_size=d).filter(
                          lambda p: sum(p) <= scenarios.MAX_DEGREE))
    c = draw(st.floats(-1e3, 1e3))
    j = draw(st.integers(0, d - 1))
    m0, m1 = (draw(st.lists(COORD, min_size=d, max_size=d))
              for _ in range(2))
    return c, p, j, m0, m1


@settings(max_examples=300, deadline=None, derandomize=True)
@given(terms_and_segments())
def test_segment_integral_is_the_exact_integral(case):
    # Rounding only: mid and delta round once each, a term's factors and
    # coefficient at most 2 * MAX_DEGREE + 4 times, and the sum once per
    # term, each by eps / 2 of a quantity within `magnitude`; TINY covers
    # what underflows.
    c, p, j, m0, m1 = case
    r = [0] * j + [1]
    table = scenarios._segment_integral([(c, p, r)])
    got = float(segment([(c, p, r)], np.array(m0), np.array(m1)))
    want = exact_integral(c, p, j, m0, m1)
    bound = (len(table) + 4 * sum(p) + 8) * sys.float_info.epsilon \
        * magnitude(c, p, j, m0, m1) + TINY
    assert abs(Fraction(got) - want) <= Fraction(bound)
    # An 8-node Gauss-Legendre panel, exact to degree 15, agrees too.
    reference = gauss_legendre(c, p, j, m0, m1)
    assert abs(Fraction(reference) - want) <= Fraction(
        64 * (sum(p) + 8) * sys.float_info.epsilon
        * magnitude(c, p, j, m0, m1) + TINY)


def stripped(terms):
    """The terms with their trailing zero powers, which read nothing,
    dropped, and their coefficients as floats."""
    def strip(powers):
        powers = list(powers)
        while powers and not powers[-1]:
            powers.pop()
        return powers
    return [(float(c), strip(p), strip(r)) for c, p, r in terms]


@pytest.mark.parametrize("omega", sorted(scenarios._BUILTINS["one-form"])
                         + ["polynomial"])
@pytest.mark.parametrize("pair_map", ["zero", "trapezoid_x_dy", "left_x_dy"])
def test_matched_table_derives_to_omega(omega, pair_map):
    # The matched table's part linear in delta, its derived connection,
    # is the reference's linear terms, omega's terms, and the reference's
    # linear terms negated: it sums to omega, on the tables.  The gate is
    # off, so that open differences are built too.
    if omega == "polynomial":
        omega = polynomial([(3.0, (2, 1), 1), (1.5, (3,), 0)])
    tables = []
    build = scenarios._pair_map
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios, "_require_closed", lambda table: None)
        patch.setattr(scenarios, "_pair_map", lambda bundle, table, *rest:
                      tables.append(table) or build(bundle, table, *rest))
        ctx = plane_context({"kind": "matched", "reference": {
            "kind": "local", "pair_map": pair_map}}, omega=omega)
    (table,) = tables
    linear = scenarios._linear_terms(scenarios._BUILTINS["pair-map"][pair_map])
    assert stripped(scenarios._linear_terms(table)) == stripped(
        [*linear, *ctx.omega_table, *((-c, p, r) for c, p, r in linear)])


def test_cli_does_not_import_numpy_polynomial():
    # No line integral is numerical, so nothing loads numpy.polynomial,
    # which importing numpy alone leaves out on numpy >= 2.
    code = ("import sys, numpy; before = 'numpy.polynomial' in sys.modules; "
            "import disconn.cli; "
            "print(before, 'numpy.polynomial' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": str(ROOT / "src")}).stdout
    before, after = out.split()
    assert after == before


class TestCurvatureMatched:
    def setup_method(self):
        self.B, self.U = plane_bundle()
        self.Ad_ref = trapezoid(self.B, self.U)
        # A = x dy + 2x dx shares the trapezoid's derived curvature dx dy;
        # the difference from its Richardson-derived connection is 2x dx.
        self.A = TrivialLocalConnection(
            self.B, lambda m, v: np.array([m[0] * v[1] + 2 * m[0] * v[0]]))
        self.eps = difference(self.A, derive_connection(self.Ad_ref))
        self.Ad = plane_context(MATCHED, omega="x_dy_plus_dx2").discretes[0]

    def q(self, m, y=0.0):
        return BundlePoint.trivial(self.B, m, [y])

    def test_mismatch_defect_small(self):
        # The (m, u, w) stacks of two samples, one column each.
        samples = np.array([[[0.2, -0.4], [-0.1, 0.3]],
                            [[1.0, 1.0], [0.0, 0.0]],
                            [[0.0, 0.0], [1.0, 1.0]]])
        assert worst_exterior_defect(self.eps, samples) <= 1e-6

    def test_matched_rule_value(self):
        # The integral of 2x dx over m0 -> m1 is x1^2 - x0^2:
        # C = trapezoid + (x1^2 - x0^2).
        got = eval_discrete(self.Ad, self.q([0.3, 0.4]), self.q([1.0, 1.0]))
        expected = 0.5 * (0.3 + 1.0) * (1.0 - 0.4) + (1.0 - 0.09)
        assert got[0] == pytest.approx(expected, abs=1e-10)

    def test_derives_back_to_a(self):
        A_back = derive_connection(self.Ad)
        rng = np.random.default_rng(131)
        for _ in range(5):
            q = self.q(rng.uniform(-1, 1, 2), rng.uniform(-2, 2))
            v = make_trivial_tangent(q, rng.uniform(-1, 1, 2),
                                     rng.uniform(-1, 1, 1))
            diff = (eval_connection(A_back, q, v)
                    - eval_connection(self.A, q, v))
            assert np.linalg.norm(diff) <= 1e-7

    def test_bundled_scenario_derives_back_to_rounding(self):
        # The matched discrete is a polynomial pair map, so only the round
        # trip's own derivative rounds, far below STEP-scale rounding.
        cfg = load_scenario(ROOT / "scenarios" / "curvature_matched.json")
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
        cfg = load_scenario(ROOT / "scenarios" / "curvature_matched.json")
        report = run_scenario(cfg, ScenarioContext(cfg))
        (check,) = [c for c in report.checks if c.name == "derive_roundtrip"]
        assert not check.passed
        assert 10 * check.tolerance <= check.max_defect <= 1e-3

    def test_curvature_mismatch_rejected(self):
        # 2x dy has derived curvature 2 dx dy, twice the trapezoid's.
        with pytest.raises(CurvatureMismatch):
            plane_context(MATCHED, omega=polynomial([(2.0, (1, 0), 1)]))
