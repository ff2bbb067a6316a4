"""Group arithmetic: translations, circle/tori, SO(3)."""

import numpy as np
import pytest

from disconn import groups
from disconn.errors import KindMismatch, OutsideInjectivityRadius
from disconn.groups import (SO3, Circle, GroupElement, Torus, Translation,
                            hat, unhat, reduce_angle)


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


class TestTranslation:
    def test_compose_is_addition(self):
        k = Translation(3)
        a = GroupElement.of(k, [1.0, 2.0, 3.0])
        b = GroupElement.of(k, [0.5, -1.0, 2.0])
        assert np.allclose(groups.compose(a, b).data, [1.5, 1.0, 5.0])

    def test_exp_log_identity_maps(self):
        k = Translation(2)
        xi = np.array([0.3, -0.7])
        assert np.allclose(groups.log(groups.exp(k, xi)), xi)

    def test_inverse(self):
        k = Translation(1)
        a = GroupElement.of(k, [4.0])
        assert np.allclose(
            groups.compose(a, groups.inverse(a)).data, [0.0])


class TestCircleTorus:
    def test_circle_wraps(self):
        g = GroupElement.of(Circle(), [3 * np.pi])
        assert g.data[0] == pytest.approx(np.pi)

    def test_compose_wraps(self):
        k = Circle()
        a = GroupElement.of(k, [3.0])
        b = GroupElement.of(k, [3.0])
        assert groups.compose(a, b).data[0] == pytest.approx(6.0 - 2 * np.pi)

    def test_distance_respects_wrap(self):
        k = Circle()
        a = GroupElement.of(k, [np.pi - 0.1])
        b = GroupElement.of(k, [-np.pi + 0.1])
        assert groups.group_distance(a, b) == pytest.approx(0.2)

    def test_torus_is_translation_mod_two_pi(self):
        # Torus subclasses Translation but never equals it: kinds on a
        # bundle compare by class as well as by dimension.
        assert issubclass(Torus, Translation)
        assert Torus(1) != Translation(1)
        assert groups.kind_from_tag("U1") == Torus(1) == Circle()
        assert groups.kind_from_tag("R^k", dim=1) == Translation(1)
        x = np.array([2.5, -3.0])
        assert np.array_equal(Torus(2).compose_data(x, x), reduce_angle(x + x))
        assert np.array_equal(Translation(2).compose_data(x, x), x + x)

    def test_torus_componentwise(self):
        k = Torus(2)
        a = GroupElement.of(k, [0.5, -0.5])
        xi = np.array([0.1, 0.2])
        assert np.allclose(groups.adjoint(a, xi), xi)


class TestSO3:
    def test_hat_unhat_roundtrip(self):
        w = np.array([0.3, -1.2, 0.8])
        assert np.allclose(unhat(hat(w)), w)

    def test_exp_matches_series(self):
        k = SO3()
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = rng.uniform(-1.5, 1.5, 3)
            got = groups.exp(k, w).data
            assert np.allclose(got, so3_exp_series(w), atol=1e-12)

    def test_exp_quarter_turn_z(self):
        # Rotation by pi/2 about the z-axis.
        k = SO3()
        got = groups.exp(k, [0, 0, np.pi / 2]).data
        expected = np.array([[0.0, -1.0, 0.0],
                             [1.0, 0.0, 0.0],
                             [0.0, 0.0, 1.0]])
        assert np.allclose(got, expected, atol=1e-14)

    def test_log_inverts_exp(self):
        k = SO3()
        rng = np.random.default_rng(11)
        for _ in range(200):
            w = rng.uniform(-1.0, 1.0, 3) * 1.7
            back = groups.log(groups.exp(k, w))
            assert np.allclose(back, w, atol=1e-10)

    def test_log_near_pi_rejected(self):
        k = SO3()
        g = groups.exp(k, [np.pi - 1e-9, 0, 0])
        with pytest.raises(OutsideInjectivityRadius):
            groups.log(g)

    def test_adjoint_is_rotation_of_vector(self):
        k = SO3()
        g = groups.exp(k, [0.4, -0.2, 0.9])
        xi = np.array([1.0, 0.0, 0.0])
        # Ad_R(hat(w)) = hat(R w) for rotation matrices.
        expected = g.data @ xi
        assert np.allclose(groups.adjoint(g, xi), expected)

    def test_bracket_is_cross_product(self):
        k = SO3()
        x = np.array([1.0, 0.0, 0.0])
        y = np.array([0.0, 1.0, 0.0])
        assert np.allclose(groups.bracket(k, x, y), [0.0, 0.0, 1.0])

    def test_wrap_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            GroupElement.of(SO3(), np.eye(3) + 0.01)


class TestKindChecks:
    def test_mismatch_raises(self):
        a = GroupElement.of(Translation(1), [1.0])
        b = GroupElement.of(Circle(), [1.0])
        with pytest.raises(KindMismatch):
            groups.compose(a, b)

    def test_kind_from_tag(self):
        assert groups.kind_from_tag("R^k", dim=3) == Translation(3)
        assert groups.kind_from_tag("U1") == Torus(1)
        assert groups.kind_from_tag("SO3") == SO3()

    def test_abelian_flag(self):
        assert Translation(1).abelian and Circle().abelian
        assert Torus(2).abelian
        assert not SO3().abelian


class TestExpLogRoundtripBulk:
    def test_thousand_samples_per_kind(self):
        rng = np.random.default_rng(2024)
        for kind in (Translation(3), Torus(2), SO3()):
            for _ in range(1000):
                w = rng.uniform(-1.0, 1.0, kind.dim) * 2.8 / np.sqrt(kind.dim)
                back = groups.log(groups.exp(kind, w))
                assert np.linalg.norm(back - w) <= 1e-10


class TestAlgebraVectorLength:
    """Algebra values are plain arrays; exp and adjoint reshape them to the
    group's dimension, so a vector of the wrong length still raises."""

    @pytest.mark.parametrize("kind", [Translation(2), Circle(), SO3()])
    def test_exp_rejects_wrong_length(self, kind):
        with pytest.raises(ValueError):
            groups.exp(kind, np.zeros(kind.dim + 1))

    @pytest.mark.parametrize("kind", [Translation(2), Circle(), SO3()])
    def test_adjoint_rejects_wrong_length(self, kind):
        g = groups.identity(kind)
        with pytest.raises(ValueError):
            groups.adjoint(g, np.zeros(kind.dim + 1))
