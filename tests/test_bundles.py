"""Bundle points, actions, fiber translations, and the Hopf fibration."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disconn import bundles, scenarios
from disconn.bundles import (BundlePoint, HopfBundle, TrivialBundle, act,
                             any_lift, base_distance, bundle_curve,
                             fiber_translation, hopf_projection_coords,
                             infinitesimal_generator, local_coords,
                             make_trivial_tangent, point_distance, project,
                             section_over, split_trivial,
                             tangent_lift_action, tangent_projection)
from disconn.discrete import TrivialLocalDiscrete, eval_discrete
from disconn.errors import BundleMismatch, NotSameFiber, OutsideDomain
from disconn.groups import SO3, Torus
from disconn.integration import hopf_geodesic_retraction
from disconn.manifolds import EuclideanChart, Sphere


def make_trivial():
    return TrivialBundle(EuclideanChart(2), Torus(1))


def random_hopf_point(rng):
    x = rng.normal(size=4)
    return BundlePoint.hopf(HopfBundle(), x / np.linalg.norm(x))


class TestTrivialBundle:
    def test_project(self):
        B = make_trivial()
        q = BundlePoint.trivial(B, [1.0, 2.0], [0.5])
        assert np.allclose(project(q), [1.0, 2.0])

    def test_act_left_multiplies(self):
        B = make_trivial()
        q = BundlePoint.trivial(B, [0.0, 0.0], [0.3])
        g = B.group.wrap([0.4])
        assert act(g, q).group_part[0] == pytest.approx(0.7)

    def test_fiber_translation(self):
        B = make_trivial()
        q1 = BundlePoint.trivial(B, [1.0, 1.0], [0.2])
        q2 = BundlePoint.trivial(B, [1.0, 1.0], [1.1])
        g = fiber_translation(q1, q2)
        assert g[0] == pytest.approx(0.9)
        assert point_distance(act(g, q1), q2) <= 1e-12

    def test_fiber_translation_rejects_different_fibers(self):
        B = make_trivial()
        q1 = BundlePoint.trivial(B, [0.0, 0.0], [0.0])
        q2 = BundlePoint.trivial(B, [1.0, 0.0], [0.0])
        with pytest.raises(NotSameFiber):
            fiber_translation(q1, q2)

    def test_generator_is_vertical(self):
        B = make_trivial()
        q = BundlePoint.trivial(B, [1.0, 2.0], [0.0])
        v = infinitesimal_generator(q, np.array([1.7]))
        assert np.allclose(tangent_projection(q, v), 0.0)
        _, fiber = split_trivial(q, v)
        assert fiber[0] == pytest.approx(1.7)

    def test_tangent_lift_adjoint_so3(self):
        B = TrivialBundle(EuclideanChart(1), SO3())
        e = B.group.identity()
        q = BundlePoint.trivial(B, [0.0], e)
        v = make_trivial_tangent(q, [0.0], [1.0, 0.0, 0.0])
        g = B.group.exp([0.0, 0.0, np.pi / 2])
        moved = tangent_lift_action(g, q, v)
        _, fiber = split_trivial(act(g, q), moved)
        assert np.allclose(fiber, [0.0, 1.0, 0.0], atol=1e-14)

    def test_curve_velocity(self):
        B = make_trivial()
        q = BundlePoint.trivial(B, [0.5, -0.5], [0.1])
        v = make_trivial_tangent(q, [1.0, 2.0], [0.3])
        h = 1e-6
        plus = bundle_curve(q, v, h)
        slope = local_coords(q, plus) / h
        assert np.allclose(slope, v, atol=1e-5)


class TestHopf:
    def test_projection_lands_on_sphere(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            q = random_hopf_point(rng)
            m = project(q)
            assert abs(np.linalg.norm(m) - 1.0) <= 1e-12

    def test_point_carries_its_projection_read_only(self):
        # The projection is the point's base_point field: the same bits as
        # projecting the ambient array, the same array on every call, and
        # read-only.
        rng = np.random.default_rng(24)
        one = random_hopf_point(rng)
        x = rng.normal(size=(4, 5, 3))
        stack = BundlePoint.hopf(HopfBundle(), x / np.linalg.norm(x, axis=0))
        for q in (one, stack):
            m = project(q)
            expected = hopf_projection_coords(q.ambient)
            assert m.shape == expected.shape
            assert m.tobytes() == expected.tobytes()
            assert project(q) is m is q.base_point
            with pytest.raises(ValueError):
                m[0] = 0.0

    def test_base_and_group_are_shared_constants(self):
        H = HopfBundle()
        assert H.base is HopfBundle.base and H.group is HopfBundle.group
        assert H.base == Sphere(3) and H.group == Torus(1)

    def test_projection_north_pole(self):
        # (1, 0, 0, 0) is |z1| = 1, z2 = 0, over the north pole.
        assert np.allclose(hopf_projection_coords(np.array([1.0, 0, 0, 0])),
                           [0.0, 0.0, 1.0])

    def test_action_preserves_fiber(self):
        rng = np.random.default_rng(29)
        H = HopfBundle()
        q = random_hopf_point(rng)
        g = H.group.wrap([1.234])
        assert base_distance(q, act(g, q)) <= 1e-12

    def test_fiber_translation_recovers_angle(self):
        rng = np.random.default_rng(31)
        H = HopfBundle()
        q = random_hopf_point(rng)
        theta = 0.77
        q2 = act(H.group.wrap([theta]), q)
        assert fiber_translation(q, q2)[0] == pytest.approx(theta)

    def test_generator_matches_action_derivative(self):
        rng = np.random.default_rng(37)
        H = HopfBundle()
        q = random_hopf_point(rng)
        xi = np.array([1.0])
        v = infinitesimal_generator(q, xi)
        h = 1e-6
        fd = (act(H.group.wrap([h]), q).ambient - q.ambient) / h
        assert np.allclose(v, fd, atol=1e-5)

    def test_generator_projects_to_zero(self):
        rng = np.random.default_rng(41)
        q = random_hopf_point(rng)
        v = infinitesimal_generator(q, np.array([2.0]))
        assert np.allclose(tangent_projection(q, v), 0.0, atol=1e-12)

    def test_any_lift_projects_back(self):
        rng = np.random.default_rng(43)
        H = HopfBundle()
        for _ in range(20):
            q = random_hopf_point(rng)
            m = project(q)
            u = H.base.project_tangent(m, rng.normal(size=3))
            lift = any_lift(q, u)
            assert np.allclose(tangent_projection(q, lift), u, atol=1e-9)
            assert abs(np.dot(lift, q.ambient)) <= 1e-9

    def test_section_covers_sphere(self):
        H = HopfBundle()
        rng = np.random.default_rng(47)
        for _ in range(50):
            x = rng.normal(size=3)
            m = x / np.linalg.norm(x)
            q = section_over(H, m)
            assert np.allclose(project(q), m, atol=1e-12)

    def test_section_near_south_pole(self):
        H = HopfBundle()
        m = np.array([1e-8, 0.0, -np.sqrt(1 - 1e-16)])
        q = section_over(H, m)
        assert np.allclose(project(q), m, atol=1e-12)


class TestDomain:
    """A domain is a radius: a discrete form evaluates pairs whose base
    distance is below it and raises OutsideDomain on the others."""

    @staticmethod
    def zero_form(B, radius):
        return TrivialLocalDiscrete(B, lambda m0, m1: np.array([0.0]),
                                    radius)

    def test_domain_contains(self):
        B = make_trivial()
        Ad = self.zero_form(B, 1.0)
        q0 = BundlePoint.trivial(B, [0.0, 0.0], [0.0])
        q1 = BundlePoint.trivial(B, [0.5, 0.0], [2.0])
        q2 = BundlePoint.trivial(B, [2.0, 0.0], [0.0])
        eval_discrete(Ad, q0, q1)
        with pytest.raises(OutsideDomain):
            eval_discrete(Ad, q0, q2)

    def test_action_invariance_of_domain(self):
        # Membership depends only on base points, hence is G x G invariant.
        B = make_trivial()
        Ad = self.zero_form(B, 1.0)
        q0 = BundlePoint.trivial(B, [0.0, 0.0], [0.0])
        q1 = BundlePoint.trivial(B, [0.5, 0.0], [0.0])
        g = B.group.wrap([2.0])
        eval_discrete(Ad, act(g, q0), q1)

    def test_point_distance_rejects_other_bundles(self):
        q0 = BundlePoint.trivial(make_trivial(), [0.0, 0.0], [0.0])
        with pytest.raises(BundleMismatch):
            point_distance(q0, random_hopf_point(np.random.default_rng(59)))


class TestBoundaryValidation:
    """Points are validated where they enter, by the two constructors;
    the bundle operations build points from arrays that are already valid."""

    def test_trivial_rejects_non_unit_sphere_point(self):
        B = TrivialBundle(Sphere(3), Torus(1))
        with pytest.raises(ValueError):
            BundlePoint.trivial(B, [1.0, 1.0, 0.0], [0.0])
        q = BundlePoint.trivial(B, [0.0, 1.0, 0.0], [0.0])
        assert np.array_equal(project(q), [0.0, 1.0, 0.0])

    def test_hopf_rejects_non_unit_point(self):
        with pytest.raises(ValueError):
            BundlePoint.hopf(HopfBundle(), [1.0, 1.0, 0.0, 0.0])

    def test_hopf_generator_rejects_wrong_length(self):
        q = random_hopf_point(np.random.default_rng(53))
        with pytest.raises(ValueError):
            infinitesimal_generator(q, np.array([1.0, 2.0]))

    def test_trivial_generator_rejects_wrong_length(self):
        q = BundlePoint.trivial(make_trivial(), [0.0, 0.0], [0.0])
        with pytest.raises(ValueError):
            infinitesimal_generator(q, np.array([1.0, 2.0]))


# The tangent API as properties: a bundle tangent is a components array v
# at a point q.  Points are g . section(m) with m in a box (R^d) or on the
# sphere (Hopf); group elements are exponentials of algebra vectors in
# [-1, 1]^dim; tangents have entries in [-2, 2], made orthogonal to q on
# the Hopf bundle.
TANGENT_BUNDLES = [HopfBundle(), TrivialBundle(EuclideanChart(2), Torus(1)),
                   TrivialBundle(EuclideanChart(2), Torus(2)),
                   TrivialBundle(EuclideanChart(3), SO3())]


def floats(size, bound):
    return st.lists(st.floats(-bound, bound), min_size=size,
                    max_size=size).map(np.asarray)


def group_elements(G):
    return floats(G.dim, 1.0).map(G.exp)


def points(B):
    if isinstance(B, HopfBundle):
        base = floats(3, 1.0).filter(lambda x: np.linalg.norm(x) > 0.1) \
            .map(lambda x: x / np.linalg.norm(x))
    else:
        base = floats(B.base.coord_size, 2.0)
    return st.tuples(group_elements(B.group), base).map(
        lambda gm: act(gm[0], section_over(B, gm[1])))


def tangents(q):
    B = q.bundle
    if isinstance(B, HopfBundle):
        return floats(4, 2.0).map(
            lambda v: v - np.dot(v, q.ambient) * q.ambient)
    return floats(B.base.coord_size + B.group.dim, 2.0)


def assert_close(a, b):
    assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= 1e-12


@pytest.mark.parametrize("B", TANGENT_BUNDLES, ids=repr)
class TestTangentActionLaws:
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_action_commutes_with_projection(self, B, data):
        q = data.draw(points(B))
        v = data.draw(tangents(q))
        g = data.draw(group_elements(B.group))
        assert_close(tangent_projection(act(g, q),
                                        tangent_lift_action(g, q, v)),
                     tangent_projection(q, v))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_lift_action_is_an_action(self, B, data):
        q = data.draw(points(B))
        v = data.draw(tangents(q))
        g, h = (data.draw(group_elements(B.group)) for _ in range(2))
        assert_close(
            tangent_lift_action(g, act(h, q), tangent_lift_action(h, q, v)),
            tangent_lift_action(B.group.compose(g, h), q, v))

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_generator_is_vertical(self, B, data):
        q = data.draw(points(B))
        xi = data.draw(floats(B.group.dim, 2.0))
        assert_close(tangent_projection(q, infinitesimal_generator(q, xi)),
                     0.0)


# ---------------------------------------------------------------------------
# join: points that share one stack, each field stacked on a new axis.

def stacked_join(*rows):
    """join written as np.stack over the points of a row, field by field."""
    bundle = rows[0][0].bundle
    names = (("base_point", "group_part") if isinstance(bundle, TrivialBundle)
             else ("base_point", "ambient"))
    return tuple(BundlePoint(bundle, **{
        name: np.stack([getattr(q, name) for q in row], axis=-1)
        for name in names}) for row in rows)


JOIN_BUNDLES = {"R2xU1": TrivialBundle(EuclideanChart(2), Torus(1)),
                "R3xSO3": TrivialBundle(EuclideanChart(3), SO3()),
                "hopf": HopfBundle()}


def stacked_point(B, rng, stack):
    if isinstance(B, HopfBundle):
        x = rng.normal(size=(4,) + stack)
        return BundlePoint.hopf(B, x / np.linalg.norm(x, axis=0))
    return BundlePoint.trivial(
        B, rng.uniform(-1.0, 1.0, (B.base.coord_size,) + stack),
        B.group.exp(rng.uniform(-1.0, 1.0, (B.group.dim,) + stack)))


def assert_same_points(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in ("base_point", "group_part", "ambient"):
            x, y = getattr(a, name), getattr(b, name)
            assert (x is None) == (y is None)
            if x is not None:
                assert x.shape == y.shape and x.tobytes() == y.tobytes()


class TestJoin:
    @pytest.mark.parametrize("name", sorted(JOIN_BUNDLES))
    @pytest.mark.parametrize("stack", [(), (5,), (2, 3)])
    def test_join_stacks_each_field(self, name, stack):
        # Rows as the axiom defects and the discrete curvature join them:
        # every point on the check's one sample stack.
        B, rng = JOIN_BUNDLES[name], np.random.default_rng(7)
        a, b, c, d = (stacked_point(B, rng, stack) for _ in range(4))
        rows = ([a, b, c], [d, a, b])
        assert_same_points(bundles.join(*rows), stacked_join(*rows))

    @pytest.mark.parametrize("name", sorted(JOIN_BUNDLES))
    def test_points_on_different_stacks_are_rejected(self, name):
        B, rng = JOIN_BUNDLES[name], np.random.default_rng(8)
        single = stacked_point(B, rng, ())
        a, b = (stacked_point(B, rng, (5,)) for _ in range(2))
        deep = stacked_point(B, rng, (5, 2))
        for rows in (([single, a], [b, a]), ([a, a, deep], [b, a, a])):
            with pytest.raises(ValueError):
                bundles.join(*rows)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCarriedProjection:
    """Every Hopf point carries its projection in its base_point field: a
    point built over a known base point keeps that one, and one built from
    raw coordinates projects them as it is built."""

    H = HopfBundle()

    def base_points(self, rng, stack):
        m = rng.normal(size=(3,) + stack)
        return m / np.linalg.norm(m, axis=0)

    def test_a_point_needs_its_base_point(self):
        with pytest.raises(TypeError):
            BundlePoint(self.H, ambient=np.array([1.0, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("stack", [(), (5,), (2, 3)])
    def test_section_holds_its_base_point(self, stack):
        m = self.base_points(np.random.default_rng(41), stack)
        q = section_over(self.H, m)
        kept = project(q)
        assert same_bits(kept, m)
        with pytest.raises(ValueError):
            kept[0] = 0.0
        # The point holds a copy: the caller's array stays its own.
        m[0] = 2.0
        assert project(q) is kept and not np.any(kept[0] == 2.0)

    @pytest.mark.parametrize("stack", [(), (5,)])
    def test_act_keeps_its_points_base_point(self, stack):
        rng = np.random.default_rng(43)
        x = rng.normal(size=(4,) + stack)
        g = rng.uniform(-np.pi, np.pi, (1,) + stack)
        for q in (section_over(self.H, self.base_points(rng, stack)),
                  BundlePoint.hopf(self.H, x / np.linalg.norm(x, axis=0))):
            assert act(g, q).base_point is q.base_point

    def test_join_keeps_each_columns_projection(self):
        rng = np.random.default_rng(47)
        over = [section_over(self.H, self.base_points(rng, (5,)))
                for _ in range(2)]
        x = rng.normal(size=(4, 5))
        raw = BundlePoint.hopf(self.H, x / np.linalg.norm(x, axis=0))
        rows = ([over[0], over[1], raw], [raw, over[1], over[0]])
        for row, joined in zip(rows, bundles.join(*rows)):
            assert project(joined).shape == (3, 5, 3)
            with pytest.raises(ValueError):
                project(joined)[0] = 0.0
            for j, q in enumerate(row):
                assert same_bits(project(joined)[..., j],
                                 np.ascontiguousarray(project(q)))

    def test_raw_points_project_their_coordinates(self):
        # BundlePoint.hopf, the great-circle and chart steps and
        # bundle_curve build points from coordinates; each computes its
        # projection from them.
        rng = np.random.default_rng(53)
        q = section_over(self.H, self.base_points(rng, (4,)))
        v = Sphere(4).project_tangent(q.ambient, rng.normal(size=(4, 4)))
        for p in (BundlePoint.hopf(self.H, q.ambient),
                  hopf_geodesic_retraction(self.H).step(q, 0.3 * v),
                  scenarios._hopf_chart_retraction(self.H).step(q, 0.3 * v),
                  bundle_curve(q, v, np.array([0.1, -0.1]))):
            assert same_bits(project(p), hopf_projection_coords(p.ambient))
            with pytest.raises(ValueError):
                project(p)[0] = 0.0

    def test_state_is_the_fields(self):
        # Nothing is kept on a point outside its dataclass fields.
        rng = np.random.default_rng(59)
        q = section_over(self.H, self.base_points(rng, (3,)))
        v = Sphere(4).project_tangent(q.ambient, rng.normal(size=(4, 3)))
        g = rng.uniform(-np.pi, np.pi, (1, 3))
        names = {f.name for f in dataclasses.fields(BundlePoint)}
        for p in (q, act(g, q), BundlePoint.hopf(self.H, q.ambient),
                  hopf_geodesic_retraction(self.H).step(q, v),
                  bundle_curve(q, v, np.array([0.1])), *bundles.join([q, q]),
                  BundlePoint.trivial(make_trivial(), [0.0, 1.0], [0.5])):
            project(p)
            assert set(vars(p)) == names
