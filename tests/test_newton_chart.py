"""Newton on the ambient tangent components at the anchor, read through
the Riemannian log (one anchor, or a stack of anchors each serving its
own targets), the reduced retraction anchored at a fiber point, and the
closed-form Hopf horizontal lift."""

import dataclasses
import functools
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from disconn import scenarios
from disconn.bundles import (BundlePoint, HopfBundle, TrivialBundle,
                             any_lift, hopf_projection_coords, section_over)
from disconn.connections import (HopfConnection, TrivialLocalConnection,
                                 eval_connection, horizontal_lifts)
from disconn.errors import NewtonDivergence, OutsideDomain
from disconn.groups import Torus
from disconn.integration import (hopf_geodesic_retraction, reduced_retraction,
                                 trivial_product_retraction,
                                 trivial_skewed_retraction)
from disconn.manifolds import (EuclideanChart, Retraction, Sphere,
                               invert_extended, metric_exponential,
                               retract)


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def in_order(terms):
    """The terms summed one after another, the library's one order for a
    point alone and for each column of a stack."""
    return functools.reduce(operator.add, terms)


def explicit_log(kind, x, p):
    """The log at x of p, written out with sums in order."""
    if isinstance(kind, Sphere):
        cos = in_order(x * p)
        sin_part = p - cos * x
        s = np.sqrt(in_order(sin_part * sin_part))
        return np.arctan2(s, cos) / s * sin_part
    return p - x


def random_point(rng, kind):
    if isinstance(kind, Sphere):
        return unit(rng.normal(size=kind.ambient_dim))
    return rng.normal(size=kind.dim)


class TestLogFormula:
    @pytest.mark.parametrize("kind", [Sphere(3), Sphere(4), EuclideanChart(2)])
    def test_log_equals_the_explicit_formula(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x, p = random_point(rng, kind), random_point(rng, kind)
            assert np.array_equal(kind.log(x, p), explicit_log(kind, x, p))


def hopf_reduced(connection, x):
    """The reduced great-circle retraction of connection(H) at the section
    over x, one anchor or a stack of anchors."""
    H = HopfBundle()
    q = section_over(H, x)
    return reduced_retraction(hopf_geodesic_retraction(H), q,
                              horizontal_lifts(connection(H), q))


def random_tangent(rng, kind, x, length):
    v = kind.project_tangent(x, rng.normal(size=kind.coord_size))
    return length * unit(v)


class TestAmbientNewton:
    @pytest.mark.parametrize("kind, at", [
        (Sphere(3), lambda x: hopf_reduced(HopfConnection, x)),
        (Sphere(3), lambda x: metric_exponential(Sphere(3))),
        (Sphere(4), lambda x: metric_exponential(Sphere(4))),
        (EuclideanChart(3), lambda x: Retraction(
            EuclideanChart(3), EuclideanChart(3).geodesic_step, 2.0)),
    ])
    def test_exact_retractions_take_one_residual_per_solve(self, kind, at):
        # The target's log is the solution, so Newton returns at its
        # first residual, with no Jacobian.
        calls = []
        rng = np.random.default_rng(17)
        for _ in range(20):
            x = random_point(rng, kind)
            R = at(x)

            def counting(point, components):
                calls.append(1)
                return R.step(point, components)

            v = random_tangent(rng, kind, x, 0.4 * R.domain_radius)
            y = retract(R, x, v)
            calls.clear()
            w = invert_extended(dataclasses.replace(R, step=counting), x, y)
            assert len(calls) == 1
            assert np.max(np.abs(w - v)) <= 1e-12

    @pytest.mark.parametrize("kind", [Sphere(3), Sphere(4)])
    def test_anchor_is_zero_and_antipode_is_outside(self, kind):
        R = metric_exponential(kind)
        for x in [np.eye(kind.ambient_dim)[0],
                  unit(np.arange(1.0, kind.ambient_dim + 1.0))]:
            # At the anchor itself (y - (x . y) x is exactly 0 at e_0) the
            # log reads 0, not 0/0.
            assert np.max(np.abs(kind.log(x, x))) <= 1e-15
            assert np.max(np.abs(invert_extended(R, x, x))) <= 1e-15
            with pytest.raises(OutsideDomain, match="anchor"):
                invert_extended(R, x, -x)

    @pytest.mark.parametrize("tag", ["great_circle", "chart"])
    def test_probed_solves_stay_tangent(self, tag):
        # The probes run along the tangent projector's columns, their
        # difference Jacobian is projected onto T_x, and I - P pins the
        # normal component, so a solve that needs probed Newton returns a
        # tangent at the anchor, to rounding.
        kind = Sphere(3)
        H = HopfBundle()
        rng = np.random.default_rng(37)
        x = np.stack([random_point(rng, kind) for _ in range(40)], axis=-1)
        x = x[:, x[2] > -0.5]
        q = section_over(H, x)
        R = reduced_retraction(scenarios._RETRACTIONS["hopf", tag](H), q,
                               horizontal_lifts(HopfConnection(H, 0.5), q))
        v = np.stack([random_tangent(rng, kind, x[:, i], 0.6)
                      for i in range(x.shape[1])], axis=-1)
        y = kind.geodesic_step(x, v)
        ranks = []

        def step(point, components):
            ranks.append(np.ndim(components))
            return R.step(point, components)

        w = invert_extended(dataclasses.replace(R, step=step), x, y)
        assert 3 in ranks   # a probe call
        assert np.max(np.abs(np.sum(x * w, axis=0))) <= 5e-15
        assert np.max(np.abs(R.step(x, w) - y)) <= 1e-11

    def test_perturbed_hopf_solves_to_the_edge_of_the_domain(self):
        kind = Sphere(3)
        reach = 0.99 * kind.default_radius / 2.0
        rng = np.random.default_rng(23)
        for _ in range(300):
            x = unit(rng.normal(size=3))
            R = hopf_reduced(lambda H: HopfConnection(H, 0.1), x)
            y = kind.geodesic_step(x, random_tangent(rng, kind, x, reach))
            v = invert_extended(R, x, y)
            assert np.max(np.abs(R.step(x, v) - y)) <= 1e-11


def counting_columns(R):
    """R with a step that records the number of columns of each call."""
    widths = []

    def step(point, components):
        widths.append(np.shape(components)[1] if np.ndim(components) > 1
                      else 1)
        return R.step(point, components)

    return dataclasses.replace(R, step=step), widths


class TestStackedNewton:
    def test_columns_stop_at_their_own_residual(self):
        # The anchor itself converges at its first residual; a far target
        # of the perturbed Hopf reduction needs the chord step and two
        # Newton updates.
        kind = Sphere(3)
        x = unit([0.3, -0.5, 0.8])
        R = hopf_reduced(lambda H: HopfConnection(H, 0.1), x)
        far = kind.geodesic_step(
            x, kind.project_tangent(x, [0.0, 0.45, 0.3]))
        counted, widths = counting_columns(R)
        alone = []
        for y in (x, far):
            widths.clear()
            alone.append((invert_extended(counted, x, y), list(widths)))
        widths.clear()
        both = invert_extended(counted, x, np.stack([x, far], axis=-1))
        assert both.shape == (3, 2)
        for i, (v, steps) in enumerate(alone):
            assert np.max(np.abs(both[:, i] - v)) <= 1e-15
        # The anchor converges at its first residual and keeps its
        # iterate; the stack stays whole for as many step calls as the far
        # column takes alone: residual, the chord step's residual, 2d = 6
        # probes along the tangent projector's columns, residual, ...
        assert alone[0][1] == [1]
        assert alone[1][1][:3] == [1, 1, 6]
        assert widths == [2] * len(alone[1][1])

    def test_two_stack_axes_solve_as_their_columns(self):
        # A (3, 2, 2) stack of targets on the sphere gives (3, 2, 2)
        # components, each those of its column in a (3, 4) stack.
        kind = Sphere(3)
        x = unit([0.3, -0.5, 0.8])
        R = hopf_reduced(lambda H: HopfConnection(H, 0.1), x)
        rng = np.random.default_rng(29)
        targets = np.stack([kind.geodesic_step(
            x, random_tangent(rng, kind, x, 0.5)) for _ in range(4)],
            axis=-1)
        flat = invert_extended(R, x, targets)
        square = invert_extended(R, x, targets.reshape(3, 2, 2))
        assert square.shape == (3, 2, 2)
        assert np.array_equal(square.reshape(3, 4), flat)

    def test_one_target_outside_the_domain_raises(self):
        kind = Sphere(3)
        x = unit([0.3, -0.5, 0.8])
        R = hopf_reduced(HopfConnection, x)
        near = kind.geodesic_step(x, kind.project_tangent(x, [0.1, 0.0, 0.0]))
        for bad in (-x, kind.geodesic_step(
                x, kind.project_tangent(x, [0.0, 1.2, 0.9]))):
            with pytest.raises(OutsideDomain):
                invert_extended(R, x, np.stack([near, bad], axis=-1))

    def test_one_diverging_column_raises(self):
        # R_x(v) = x + v^2 reaches no target below x: that column's Newton
        # iteration diverges, while x + 0.25 alone converges to v = 0.5.
        kind = EuclideanChart(1)
        R = Retraction(kind, lambda p, v: kind.geodesic_step(p, v * v), 10.0)
        x = np.array([0.1])
        good, bad = x + 0.25, x - 0.3
        assert invert_extended(R, x, good) == pytest.approx(0.5, abs=1e-12)
        with pytest.raises(NewtonDivergence):
            invert_extended(R, x, np.stack([good, bad], axis=-1))


def plane_reduced(make, x):
    """The reduced retraction of x dy on R^2 x T^1 at the section over x,
    one anchor or a stack of anchors."""
    B = TrivialBundle(EuclideanChart(2), Torus(1))
    A = TrivialLocalConnection(B, lambda m, v: np.array([m[0] * v[1]]))
    q = section_over(B, x)
    return reduced_retraction(make(B), q, horizontal_lifts(A, q))


def quadratic_plane():
    # R_x(v) = x + v + 0.2 (v0^2, v0 v1): Newton iterates on R^2 too.
    kind = EuclideanChart(2)

    def step(x, v):
        v = np.asarray(v, dtype=float)
        bend = 0.2 * np.array([v[0] * v[0], v[0] * v[1]])
        return kind.geodesic_step(x, v + bend)

    return Retraction(kind, step, 2.0)


# A stacked solve is bit for bit the loop of single solves, on R^d and on
# spheres alike: a single point takes the arithmetic of a column.  Each
# case is its base and the retraction at an anchor or a stack of anchors;
# a reduced retraction is anchored at the section over them.
ANCHOR_CASES = {
    "r2_straight": (EuclideanChart(2), lambda x: plane_reduced(
        trivial_product_retraction, x)),
    "r2_skewed": (EuclideanChart(2), lambda x: plane_reduced(
        trivial_skewed_retraction, x)),
    "r2_quadratic": (EuclideanChart(2), lambda x: quadratic_plane()),
    "s2_exp": (Sphere(3), lambda x: metric_exponential(Sphere(3))),
    "hopf_perturbed": (Sphere(3), lambda x: hopf_reduced(
        lambda H: HopfConnection(H, 0.1), x)),
}


def anchors_and_targets(case, rng, k, *stencil):
    """The retraction at k anchors, the anchors and a target near each,
    with a trailing stencil axis of scaled targets when `stencil` gives
    the scales."""
    kind, at = case
    x = np.stack([random_point(rng, kind) for _ in range(k)], axis=-1)
    R = at(x)
    v = np.stack([random_tangent(rng, kind, x[:, i],
                                 rng.uniform(0.05, 0.45) * min(
                                     R.domain_radius, 2.0))
                  for i in range(k)], axis=-1)
    if stencil:
        v = np.multiply.outer(v, stencil)
    return R, x, kind.geodesic_step(x, v)


def single_solves(case, x, y, axis):
    """The solves of each anchor alone, each with the retraction at its
    own anchor, stacked on `axis`."""
    at = case[1]
    return np.stack([invert_extended(at(x[:, i]), x[:, i], y[:, i])
                     for i in range(x.shape[1])], axis=axis)


class TestAnchorStacks:
    @pytest.mark.parametrize("name", sorted(ANCHOR_CASES))
    def test_anchor_stack_gives_the_single_solves(self, name):
        case = ANCHOR_CASES[name]
        rng = np.random.default_rng(53)
        R, x, y = anchors_and_targets(case, rng, 6)
        stacked = invert_extended(R, x, y)
        assert stacked.shape == y.shape
        assert np.array_equal(stacked, single_solves(case, x, y, -1))

    @pytest.mark.parametrize("name", sorted(ANCHOR_CASES))
    def test_anchor_stack_broadcasts_over_a_stencil(self, name):
        # (d, k) anchors with (d, k, 4) targets: each anchor serves its own
        # four targets, as one anchor with a (d, 4) stack does.
        case = ANCHOR_CASES[name]
        rng = np.random.default_rng(59)
        R, x, y = anchors_and_targets(case, rng, 5, 1.0, -1.0, 0.5, -0.5)
        stacked = invert_extended(R, x, y)
        assert stacked.shape == y.shape
        assert np.array_equal(stacked, single_solves(case, x, y, 1))

    @pytest.mark.parametrize("name", ["r2_quadratic", "hopf_perturbed"])
    def test_a_column_that_stops_early_keeps_its_iterate(self, name):
        # The first target is its own anchor and converges at the first
        # residual; the others need Newton updates.  The converged column
        # keeps its iterate, and every step sees all three anchors.
        case = ANCHOR_CASES[name]
        anchors = []
        rng = np.random.default_rng(61)
        R, x, y = anchors_and_targets(case, rng, 3)

        def step(point, components):
            anchors.append(np.shape(point)[1])
            return R.step(point, components)

        y[:, 0] = x[:, 0]
        stacked = invert_extended(dataclasses.replace(R, step=step), x, y)
        assert len(anchors) > 1 and set(anchors) == {3}
        assert np.array_equal(stacked, single_solves(case, x, y, -1))
        assert np.max(np.abs(stacked[:, 0])) <= 1e-15

    def test_one_target_outside_the_domain_raises(self):
        kind = Sphere(3)
        rng = np.random.default_rng(67)
        R, x, y = anchors_and_targets(ANCHOR_CASES["hopf_perturbed"], rng, 3)
        far = kind.geodesic_step(
            x[:, 1], random_tangent(rng, kind, x[:, 1], 0.9))
        for bad in (far, -x[:, 1]):
            y[:, 1] = bad
            with pytest.raises(OutsideDomain):
                invert_extended(R, x, y)


class TestOneProjectorPerSolve:
    """Probed Newton builds the tangent projector of the anchors once per
    solve and projects each Jacobian with it, always on the anchors' own
    stack; a solve that needs no probe projects nothing."""

    @pytest.fixture
    def projections(self, monkeypatch):
        anchor_stacks = []
        original = Sphere.project_tangent

        def recording(self, point, components):
            anchor_stacks.append(np.shape(point)[1:])
            return original(self, point, components)

        monkeypatch.setattr(Sphere, "project_tangent", recording)
        return anchor_stacks

    def test_exact_solves_project_nothing(self, projections):
        rng = np.random.default_rng(13)
        for R, x in [(metric_exponential(Sphere(4)),
                      unit(rng.normal(size=4))),
                     (hopf_reduced(HopfConnection, unit([0.3, -0.5, 0.8])),
                      unit([0.3, -0.5, 0.8]))]:
            kind = R.space
            v = random_tangent(rng, kind, x, 0.3)
            y = retract(R, x, v)
            projections.clear()
            assert np.allclose(invert_extended(R, x, y), v, atol=1e-9)
            assert projections == []

    def test_anchor_stack_whose_columns_stop_apart(self, projections):
        # The first target is its own anchor and converges at the first
        # residual, the others later: the projector of the three anchors
        # is built once for the whole solve, and each probed iteration
        # projects its Jacobian at the same three anchors.
        rng = np.random.default_rng(61)
        R, x, y = anchors_and_targets(ANCHOR_CASES["hopf_perturbed"], rng, 3)
        y[:, 0] = x[:, 0]
        steps = []

        def step(point, components):
            steps.append(np.ndim(components))
            return R.step(point, components)

        projections.clear()
        invert_extended(dataclasses.replace(R, step=step), x, y)
        # At least two Newton updates: one residual call per iteration.
        assert steps.count(2) >= 3
        assert projections == [(3, 1)] * (1 + steps.count(3))

    def test_one_projector_per_distinct_anchor(self, projections):
        # (3, 5) anchors, each serving a stencil of four targets: the
        # solve projects at the five anchors, not at one per target.
        rng = np.random.default_rng(71)
        R, x, y = anchors_and_targets(ANCHOR_CASES["hopf_perturbed"], rng, 5,
                                      1.0, -1.0, 0.5, -0.5)
        projections.clear()
        invert_extended(R, x, y)
        assert len(projections) >= 2
        assert set(projections) == {(5, 1, 1)}


coordinate = st.floats(-1.0, 1.0, allow_nan=False)


def hopf_projection_jacobian(q):
    """The (3, 4) Jacobian of `hopf_projection_coords` at q."""
    a, b, c, d = q
    return np.array([
        [2 * c, 2 * d, 2 * a, 2 * b],
        [-2 * d, 2 * c, 2 * b, -2 * a],
        [2 * a, 2 * b, -2 * c, -2 * d],
    ])


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
        lift = any_lift(q, delta)
        # A direction off the tangent plane is projected onto it first.
        off_plane = any_lift(q, np.asarray(d_raw))
        assert np.max(np.abs(off_plane - lift)) <= 1e-14
        J = hopf_projection_jacobian(q.ambient)
        assert np.max(np.abs(J @ lift - delta)) <= 1e-14
        assert abs(np.dot(q.ambient, lift)) <= 1e-14
        value = eval_connection(HopfConnection(H), q, lift)
        assert abs(value[0]) <= 1e-14
        assert np.max(np.abs(lift - lstsq_lift(q.ambient, delta))) <= 1e-14
