"""Group arithmetic: translations, circle/tori, SO(3)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disconn import scenarios
from disconn.errors import OutsideInjectivityRadius
from disconn.groups import (SO3, Torus, Translation, hat, unhat,
                            reduce_angle)
from disconn.manifolds import EuclideanChart, Sphere
from disconn.scenarios import ScenarioContext


def so3_exp_series(w, terms=30):
    """Reference exponential by truncated power series."""
    W = hat(w)
    out = np.eye(3)
    acc = np.eye(3)
    for k in range(1, terms):
        acc = acc @ W / k
        out = out + acc
    return out


class TestAngles:
    def test_reduce_angle_range(self):
        thetas = np.linspace(-20, 20, 4001)
        reduced = reduce_angle(thetas)
        assert np.all(reduced > -np.pi)
        assert np.all(reduced <= np.pi)

    def test_reduce_angle_congruence(self):
        theta = 7.3
        assert np.isclose(np.sin(reduce_angle(theta)), np.sin(theta))
        assert np.isclose(np.cos(reduce_angle(theta)), np.cos(theta))

    def test_pi_maps_to_pi(self):
        assert reduce_angle(np.pi) == pytest.approx(np.pi)
        assert reduce_angle(-np.pi) == pytest.approx(np.pi)

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=8))
    @example([0.0, -0.0, np.pi, -np.pi, 2 * np.pi, -2 * np.pi, 3 * np.pi,
              -3 * np.pi])
    @example([5e-324, -5e-324, 2.2e-308, -1e-300, 1e308, -1e308, np.inf,
              -np.inf])
    def test_reduce_angle_keeps_the_bits_of_the_negated_form(self, values):
        # pi - theta is -theta + pi bit for bit, so dropping the negation
        # changes no bit; an infinite angle gives NaN either way, with
        # numpy's invalid-value warning.
        theta = np.array(values)
        with np.errstate(invalid="ignore"):
            before = -((-theta + np.pi) % (2.0 * np.pi) - np.pi)
            after = reduce_angle(theta)
        assert np.array_equal(np.isnan(after), np.isnan(before))
        finite = ~np.isnan(before)
        assert after[finite].tobytes() == before[finite].tobytes()


class TestTranslation:
    def test_compose_is_addition(self):
        k = Translation(3)
        a = k.wrap([1.0, 2.0, 3.0])
        b = k.wrap([0.5, -1.0, 2.0])
        assert np.allclose(k.compose(a, b), [1.5, 1.0, 5.0])

    def test_exp_log_identity_maps(self):
        k = Translation(2)
        xi = np.array([0.3, -0.7])
        assert np.allclose(k.log(k.exp(xi)), xi)

    def test_inverse(self):
        k = Translation(1)
        a = k.wrap([4.0])
        assert np.allclose(k.compose(a, k.inverse(a)), [0.0])


class TestCircleTorus:
    def test_circle_wraps(self):
        g = Torus(1).wrap([3 * np.pi])
        assert g[0] == pytest.approx(np.pi)

    def test_compose_wraps(self):
        k = Torus(1)
        a = k.wrap([3.0])
        b = k.wrap([3.0])
        assert k.compose(a, b)[0] == pytest.approx(6.0 - 2 * np.pi)

    def test_distance_respects_wrap(self):
        k = Torus(1)
        a = k.wrap([np.pi - 0.1])
        b = k.wrap([-np.pi + 0.1])
        assert k.distance(a, b) == pytest.approx(0.2)

    def test_torus_is_translation_mod_two_pi(self):
        # Torus subclasses Translation but never equals it: kinds on a
        # bundle compare by class as well as by dimension.
        assert issubclass(Torus, Translation)
        assert Torus(1) != Translation(1)
        x = np.array([2.5, -3.0])
        assert np.array_equal(Torus(2).compose(x, x), reduce_angle(x + x))
        assert np.array_equal(Translation(2).compose(x, x), x + x)

    def test_torus_componentwise(self):
        k = Torus(2)
        a = k.wrap([0.5, -0.5])
        xi = np.array([0.1, 0.2])
        assert np.allclose(k.adjoint(a, xi), xi)


class TestSO3:
    def test_hat_unhat_roundtrip(self):
        w = np.array([0.3, -1.2, 0.8])
        assert np.allclose(unhat(hat(w)), w)

    def test_exp_matches_series(self):
        k = SO3()
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = rng.uniform(-1.5, 1.5, 3)
            got = k.exp(w)
            assert np.allclose(got, so3_exp_series(w), atol=1e-12)

    def test_exp_quarter_turn_z(self):
        # Rotation by pi/2 about the z-axis.
        k = SO3()
        got = k.exp([0, 0, np.pi / 2])
        expected = np.array([[0.0, -1.0, 0.0],
                             [1.0, 0.0, 0.0],
                             [0.0, 0.0, 1.0]])
        assert np.allclose(got, expected, atol=1e-14)

    def test_log_inverts_exp(self):
        k = SO3()
        rng = np.random.default_rng(11)
        for _ in range(200):
            w = rng.uniform(-1.0, 1.0, 3) * 1.7
            back = k.log(k.exp(w))
            assert np.allclose(back, w, atol=1e-10)

    def test_log_near_pi_rejected(self):
        k = SO3()
        g = k.exp([np.pi - 1e-9, 0, 0])
        with pytest.raises(OutsideInjectivityRadius):
            k.log(g)

    def test_adjoint_is_rotation_of_vector(self):
        k = SO3()
        g = k.exp([0.4, -0.2, 0.9])
        xi = np.array([1.0, 0.0, 0.0])
        # Ad_R(hat(w)) = hat(R w) for rotation matrices.
        expected = g @ xi
        assert np.allclose(k.adjoint(g, xi), expected)

    def test_bracket_is_cross_product(self):
        k = SO3()
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        assert np.allclose(k.bracket(x, y), [0.0, 0.0, 1.0])

    def test_wrap_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            SO3().wrap(np.eye(3) + 0.01)

    def test_wrap_rejects_nan_and_reflections(self):
        with pytest.raises(ValueError):
            SO3().wrap(np.full((3, 3), np.nan))
        with pytest.raises(ValueError):
            SO3().wrap(-np.eye(3))
        stack = np.stack([np.eye(3), np.diag([1.0, 1.0, np.nan])], axis=-1)
        with pytest.raises(ValueError):
            SO3().wrap(stack)


class TestSO3Stacks:
    # A (3, *stack) stack of algebra vectors, or a (3, 3, *stack) stack of
    # matrices, gives the bits of the single calls on each column, and a
    # single argument is used for every column.  Column 0 lies below the
    # 1e-12 small-angle threshold of exp and log.
    def columns(self, rng):
        x = rng.uniform(-1.5, 1.5, (3, 7))
        x[:, 0] = [3e-13, -2e-13, 1e-13]
        return x

    def test_stacked_ops_equal_their_columns(self):
        G = SO3()
        rng = np.random.default_rng(53)
        x, y = self.columns(rng), self.columns(rng)
        a, b = G.exp(x), G.exp(y)
        assert a.shape == (3, 3, 7)
        g = G.exp(rng.uniform(-1.0, 1.0, 3))
        stacked = {
            "wrap": G.wrap(a), "exp": a, "log": G.log(a),
            "compose": G.compose(a, b), "compose_g": G.compose(g, b),
            "compose_by_g": G.compose(a, g), "inverse": G.inverse(a),
            "adjoint": G.adjoint(a, y), "adjoint_g": G.adjoint(g, y),
            "adjoint_xi": G.adjoint(a, y[:, 1]),
            "bracket": G.bracket(x, y), "distance": G.distance(a, b),
            "distance_g": G.distance(g, b)}
        for i in range(7):
            ai, bi, xi, yi = a[..., i], b[..., i], x[:, i], y[:, i]
            single = {
                "wrap": G.wrap(ai), "exp": G.exp(xi), "log": G.log(ai),
                "compose": G.compose(ai, bi), "compose_g": G.compose(g, bi),
                "compose_by_g": G.compose(ai, g), "inverse": G.inverse(ai),
                "adjoint": G.adjoint(ai, yi), "adjoint_g": G.adjoint(g, yi),
                "adjoint_xi": G.adjoint(ai, y[:, 1]),
                "bracket": G.bracket(xi, yi), "distance": G.distance(ai, bi),
                "distance_g": G.distance(g, bi)}
            for name, value in single.items():
                assert np.array_equal(stacked[name][..., i], value), name
        # Column 0 takes the small-angle branch of log.
        a0 = a[..., 0]
        assert np.array_equal(stacked["log"][:, 0], 0.5 * unhat(a0 - a0.T))

    def test_two_stack_axes(self):
        G = SO3()
        x = np.random.default_rng(59).uniform(-1.0, 1.0, (3, 2, 2))
        a = G.exp(x)
        assert a.shape == (3, 3, 2, 2)
        assert np.array_equal(G.log(a).reshape(3, 4),
                              G.log(a.reshape(3, 3, 4)))

    def test_one_column_near_pi_raises(self):
        G = SO3()
        x = self.columns(np.random.default_rng(61))
        x[:, 4] = [0.0, np.pi - 5e-7, 0.0]
        G.log(G.exp(x[:, :4]))
        with pytest.raises(OutsideInjectivityRadius):
            G.log(G.exp(x))


class TestKindChecks:
    def test_scenario_tags_name_their_kinds(self):
        # Each base and group tag of the scenario schema builds the kind
        # it names.
        named = {"R^d": EuclideanChart(3), "S2": Sphere(3),
                 "R^k": Translation(3), "T^n": Torus(3), "U1": Torus(1),
                 "SO3": SO3()}
        for part in ("base", "group"):
            for tag, fields in scenarios._SCHEMA[part]["kind"].items():
                bundle = {"kind": "trivial", "base": {"kind": "S2"},
                          "group": {"kind": "U1"}}
                bundle[part] = {"kind": tag, **({"dim": 3} if fields else {})}
                ctx = ScenarioContext({"name": tag, "seed": 0,
                                       "bundle": bundle})
                assert getattr(ctx.bundle, part) == named[tag]

    def test_abelian_flag(self):
        assert Translation(1).abelian and Torus(1).abelian
        assert Torus(2).abelian
        assert not SO3().abelian


class TestExpLogRoundtripBulk:
    def test_thousand_samples_per_kind(self):
        rng = np.random.default_rng(2024)
        for kind in (Translation(3), Torus(2), SO3()):
            for _ in range(1000):
                w = rng.uniform(-1.0, 1.0, kind.dim) * 2.8 / np.sqrt(kind.dim)
                back = kind.log(kind.exp(w))
                assert np.linalg.norm(back - w) <= 1e-10


class TestAlgebraVectorLength:
    """Algebra values are plain arrays; exp and adjoint reshape them to the
    group's dimension, so a vector of the wrong length still raises."""

    @pytest.mark.parametrize("kind", [Translation(2), Torus(1), SO3()])
    def test_exp_rejects_wrong_length(self, kind):
        with pytest.raises(ValueError):
            kind.exp(np.zeros(kind.dim + 1))

    @pytest.mark.parametrize("kind", [Translation(2), Torus(1), SO3()])
    def test_adjoint_rejects_wrong_length(self, kind):
        g = kind.identity()
        with pytest.raises(ValueError):
            kind.adjoint(g, np.zeros(kind.dim + 1))


# Group axioms as properties, on elements exp(x) with x drawn inside the
# injectivity radius: every component below pi in magnitude, and the norm
# below pi - 1e-6 on SO(3), where log stops.  The margin of 1e-6 covers
# the rounding of the angle that log reads back from exp(x).
AXIOM_KINDS = [Translation(2), Torus(1), Torus(3), SO3()]
RADIUS = np.pi - 2e-6


def algebra_vectors(kind):
    if isinstance(kind, SO3):
        directions = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3) \
            .map(np.asarray).filter(lambda w: np.linalg.norm(w) > 0.0)
        return st.tuples(directions, st.floats(0.0, RADIUS)).map(
            lambda wr: wr[1] * wr[0] / np.linalg.norm(wr[0]))
    return st.lists(st.floats(-RADIUS, RADIUS), min_size=kind.dim,
                    max_size=kind.dim).map(np.asarray)


def elements(kind):
    return algebra_vectors(kind).map(kind.exp)


def closes(kind, a, b):
    return kind.distance(a, b) <= 1e-12


def log_tolerance(kind, x):
    """The SO(3) log reads the angle by atan2 of the skew part and the
    trace, so its error grows only like eps / (pi - |x|) near the cut."""
    if isinstance(kind, SO3):
        return 1e-12 + 2e-15 / (np.pi - np.linalg.norm(x))
    return 1e-12


@pytest.mark.parametrize("kind", AXIOM_KINDS, ids=repr)
class TestGroupAxioms:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_compose_is_associative(self, kind, data):
        a, b, c = (data.draw(elements(kind)) for _ in range(3))
        assert closes(kind, kind.compose(kind.compose(a, b), c),
                      kind.compose(a, kind.compose(b, c)))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_inverse_composes_to_the_identity(self, kind, data):
        g = data.draw(elements(kind))
        assert closes(kind, kind.compose(g, kind.inverse(g)),
                      kind.identity())
        assert closes(kind, kind.compose(kind.inverse(g), g),
                      kind.identity())

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_adjoint_is_a_homomorphism(self, kind, data):
        g, h = data.draw(elements(kind)), data.draw(elements(kind))
        x = data.draw(algebra_vectors(kind))
        assert np.allclose(kind.adjoint(kind.compose(g, h), x),
                           kind.adjoint(g, kind.adjoint(h, x)),
                           rtol=0.0, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_log_inverts_exp_in_the_injectivity_radius(self, kind, data):
        x = data.draw(algebra_vectors(kind))
        error = np.max(np.abs(kind.log(kind.exp(x)) - x))
        assert error <= log_tolerance(kind, x)


def test_so3_log_near_the_cut():
    # Random axes at fixed distances d from the cut, down to just outside
    # the 1e-6 guard, where an angle read from the trace alone is off by
    # about eps / d^2.
    G = SO3()
    rng = np.random.default_rng(1709)
    for d in (1e-1, 1e-3, 1.01e-6):
        for _ in range(200):
            axis = rng.normal(size=3)
            x = (np.pi - d) * axis / np.linalg.norm(axis)
            error = np.max(np.abs(G.log(G.exp(x)) - x))
            assert error <= log_tolerance(G, x)
