"""The builtin tables against exact arithmetic.

Every builtin is a polynomial table of terms (c, p, r), c * prod x^p *
prod y^r: a one-form on (x, y) = (m, v), a pair map on (mid, delta) =
((m0 + m1) / 2, m1 - m0).  At random float points, each table evaluated
through `one_form_builtin` or `pair_map_builtin` agrees with the same
table in `fractions.Fraction` arithmetic, from the exact float inputs,
to within ERROR_EPS * eps * sum |term|.  The bound: mid and delta each
round once, a term of at most two factors and a coefficient rounds at
most twice more, and a sum of two terms once, so the error is at most
4 units of roundoff (eps / 2) times the sum of the exact |term|, half
the stated bound.  Each table also equals, exactly, the formula its name
stands for, and each pair map's part linear in delta, its derived
connection, is a one-form table.  That closed form, `_linear_terms`,
which the matched route subtracts from its one-form's table, agrees with
the numerical derivative `derivation.derive_connection` of the pair map
to DERIVED_TOL on R x R^2 and U(1) x R^2; the gap is Richardson rounding,
a few 1e-12.  The table of that difference evaluates, bit for bit, to
the one-form's value less the closed form's.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disconn import abelian, scenarios
from disconn.bundles import TrivialBundle
from disconn.derivation import derive_connection
from disconn.errors import CurvatureMismatch
from disconn.groups import Torus, Translation
from disconn.manifolds import EuclideanChart
from disconn.scenarios import (ScenarioContext, one_form_builtin,
                               pair_map_builtin)

ERROR_EPS = 4
DERIVED_TOL = 1e-10
POINTS = 200
PLANE = TrivialBundle(EuclideanChart(2), Translation(1))
U1_PLANE = TrivialBundle(EuclideanChart(2), Torus(1))

# The formula each name stands for, on exact coordinates.
ONE_FORMS = {
    "zero": lambda m, v: 0,
    "x_dy": lambda m, v: m[0] * v[1],
    "y_dx": lambda m, v: m[1] * v[0],
    "closed_xy": lambda m, v: m[1] * v[0] + m[0] * v[1],
    "x_dy_plus_dx2": lambda m, v: m[0] * v[1] + 2 * m[0] * v[0],
}
PAIR_MAPS = {
    "zero": lambda m0, m1: 0,
    "trapezoid_x_dy": lambda m0, m1: (m0[0] + m1[0]) / 2 * (m1[1] - m0[1]),
    "left_x_dy": lambda m0, m1: m0[0] * (m1[1] - m0[1]),
    "quadratic_f zero": lambda m0, m1: 0,
    "quadratic_f one": lambda m0, m1: (m1[0] - m0[0]) ** 2,
}
# The one-form table of each pair map's part linear in delta.
DERIVED = {"zero": "zero", "trapezoid_x_dy": "x_dy", "left_x_dy": "x_dy",
           "quadratic_f zero": "zero", "quadratic_f one": "zero"}


def pair_map_tables():
    """{name: (spec, table)} of every pair-map builtin, quadratic_f's by
    its f."""
    tables = {name: (name, table)
              for name, table in scenarios._PAIR_MAPS.items()}
    for f, table in scenarios._QUADRATIC_F.items():
        tables[f"quadratic_f {f}"] = ({"name": "quadratic_f", "f": f}, table)
    return tables


def exact_terms(table, x, y):
    """The terms of a table at exact blocks x, y, one list per point."""
    return [[Fraction(c) * math.prod(xi ** e for xi, e in zip(x[:, k], p))
             * math.prod(yi ** e for yi, e in zip(y[:, k], r))
             for c, p, r in table] for k in range(x.shape[1])]


def fractions(a):
    return np.vectorize(Fraction, otypes=[object])(a)


def points(seed):
    """(2, POINTS) float stacks a and b: b is a + a step of size up to 1,
    or in half the columns up to 1e-6, near the diagonal."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-2.0, 2.0, (2, POINTS))
    scale = np.where(np.arange(POINTS) % 2 == 0, 1.0, 1e-6)
    return a, a + scale * rng.uniform(-1.0, 1.0, (2, POINTS))


def assert_within_bound(got, terms):
    for value, exact in zip(got, terms):
        bound = ERROR_EPS * np.finfo(float).eps * sum(map(abs, exact))
        assert abs(Fraction(value) - sum(exact)) <= bound


def linear_in_delta(table):
    """The terms of degree 1 in the second block, trailing zero powers cut,
    as a sorted list of (Fraction c, p, r)."""
    def cut(powers):
        powers = list(powers)
        while powers and powers[-1] == 0:
            powers.pop()
        return tuple(powers)
    return sorted((Fraction(c), cut(p), cut(r)) for c, p, r in table
                  if sum(r) == 1)


@pytest.mark.parametrize("name", sorted(scenarios._ONE_FORMS))
def test_one_form_table(name):
    table = scenarios._ONE_FORMS[name]
    m, v = points(1)
    got = one_form_builtin(name, PLANE).value(m, v)[0]
    x, y = fractions(m), fractions(v)
    terms = exact_terms(table, x, y)
    assert_within_bound(got, terms)
    assert [sum(t) for t in terms] == [
        ONE_FORMS[name](x[:, k], y[:, k]) for k in range(POINTS)]


@pytest.mark.parametrize("name", sorted(PAIR_MAPS))
def test_pair_map_table(name):
    spec, table = pair_map_tables()[name]
    m0, m1 = points(2)
    got = pair_map_builtin(spec, PLANE, 10.0).pair_map(m0, m1)[0]
    x0, x1 = fractions(m0), fractions(m1)
    terms = exact_terms(table, (x0 + x1) / 2, x1 - x0)
    assert_within_bound(np.broadcast_to(got, (POINTS,)), terms)
    assert [sum(t) for t in terms] == [
        PAIR_MAPS[name](x0[:, k], x1[:, k]) for k in range(POINTS)]


def test_every_pair_map_is_named():
    assert set(pair_map_tables()) == set(PAIR_MAPS) == set(DERIVED)


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_no_pair_map_term_is_free_of_delta(name):
    # A term without delta would break C(m, m) = e, and the derivative of
    # C(m, m + t v) at t = 0 would no longer be the part linear in delta.
    _, table = pair_map_tables()[name]
    assert all(sum(r) >= 1 for _, _, r in table)


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_derived_connection_is_the_part_linear_in_delta(name):
    _, table = pair_map_tables()[name]
    assert linear_in_delta(table) == linear_in_delta(
        scenarios._ONE_FORMS[DERIVED[name]])


@pytest.mark.parametrize("bundle", [PLANE, U1_PLANE], ids=["R", "U1"])
@pytest.mark.parametrize("name", sorted(DERIVED))
def test_derived_table_is_the_numerical_derivative(name, bundle):
    spec, table = pair_map_tables()[name]
    rng = np.random.default_rng(3)
    m, v = rng.uniform(-1.0, 1.0, (2, 2, 64))
    closed = scenarios._local_connection(
        bundle, scenarios._linear_terms(table)).value(m, v)
    numerical = derive_connection(
        pair_map_builtin(spec, bundle, 10.0)).value(m, v)
    assert closed.shape == numerical.shape == (1, 64)
    assert np.max(np.abs(closed - numerical)) <= DERIVED_TOL


def matched_context(omega, pair_map, gate=True):
    """The context of a matched discrete of the one-form omega against the
    pair map on R^2 x R, and the descended difference eps that it hands to
    `abelian.curvature_matched_integrate`; without the gate, an open
    difference is built too."""
    handed = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(abelian, "curvature_matched_integrate",
                      lambda eps, Ad_ref: handed.append(eps))
        if not gate:
            patch.setattr(scenarios, "_require_closed", lambda table: None)
        ctx = ScenarioContext({
            "name": "eps", "seed": 0,
            "bundle": {"kind": "trivial", "base": {"kind": "R^d", "dim": 2},
                       "group": {"kind": "R^k", "dim": 1}},
            "connection": {"kind": "local", "omega": omega},
            "discrete": {"kind": "matched", "reference": {
                "kind": "local", "pair_map": pair_map}}})
    return ctx, handed[0]


COORDINATE = st.floats(-4.0, 4.0)
POLYNOMIALS = st.lists(st.fixed_dictionaries({
    "coeff": st.floats(-1e3, 1e3),
    "powers": st.lists(st.integers(0, 7), max_size=2),
    "dx": st.integers(0, 1)}), min_size=1, max_size=5).map(
        lambda terms: {"name": "polynomial", "terms": terms})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(st.sampled_from(sorted(scenarios._ONE_FORMS)), POLYNOMIALS),
       st.sampled_from(sorted(PAIR_MAPS)), st.integers(1, 8), st.data())
def test_difference_table_is_the_difference_of_values(omega, pair_map, n,
                                                      data):
    # eps's table, the one-form's terms and then the negated linear terms
    # of the pair map, sums to (sum of omega's terms) + (-t); IEEE makes
    # that a - t bit for bit, as no pair map has two linear terms.
    spec, table = pair_map_tables()[pair_map]
    ctx, eps = matched_context(omega, spec, gate=False)
    m, v = (np.array(data.draw(st.lists(COORDINATE, min_size=2 * n,
                                        max_size=2 * n))).reshape(2, n)
            for _ in range(2))
    omega_ref = scenarios._local_connection(PLANE,
                                            scenarios._linear_terms(table))
    got = eps.value(m, v)
    want = ctx.connection.value(m, v) - omega_ref.value(m, v)
    if omega == "zero" and scenarios._linear_terms(table):
        # No one-form term: eps is -t where the difference is 0.0 - t,
        # apart in the sign of a zero t.  The gate rejects such an eps, the
        # open -x dy, so no run evaluates it.
        assert np.array_equal(got, want)
        with pytest.raises(CurvatureMismatch):
            matched_context(omega, spec)
    else:
        assert got.tobytes() == want.tobytes()


def test_gate_and_eps_read_one_table_of_one_parse():
    # A matched discrete parses its reference pair map once, and the gate
    # decides on the very table that eps is built from.
    parses, gated, built = [], [], []
    parse, gate, local = (scenarios._pair_map_table,
                          scenarios._require_closed,
                          scenarios._local_connection)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scenarios, "_pair_map_table",
                      lambda spec, bundle: parses.append(spec)
                      or parse(spec, bundle))
        patch.setattr(scenarios, "_require_closed",
                      lambda table: gated.append(table) or gate(table))
        patch.setattr(scenarios, "_local_connection",
                      lambda bundle, table: built.append(table)
                      or local(bundle, table))
        matched_context("x_dy_plus_dx2", "trapezoid_x_dy")
    assert parses == ["trapezoid_x_dy"]
    [table] = gated
    assert [t for t in built if t is table] == [table]
    # x dy + 2x dx less the trapezoid's x dy.
    assert table == [*scenarios._ONE_FORMS["x_dy_plus_dx2"],
                     *((-c, p, r) for c, p, r in scenarios._X_DY)]
