"""The chord step of the Newton inversion (`manifolds.invert_extended`).

Its premise: the residual map v -> log(x, R_x(v)) has a Jacobian J with
J P = P at the anchor, v = 0, for the tangent projector P at x and every
retraction a scenario can name, because DR_x(0) = id and, on a reduced
retraction, dphi L = id for the lift matrix L.  Its fallback: a column
whose residual the chord step does not at least halve goes back to where
it was, and probed Newton starts there.  And a pin of how often far Hopf
pairs make the solve raise."""

import dataclasses

import numpy as np
import pytest

from disconn import scenarios
from disconn.bundles import (BundlePoint, HopfBundle, TrivialBundle, act,
                             project, section_over)
from disconn.connections import HopfConnection, horizontal_lifts
from disconn.discrete import eval_discrete
from disconn.errors import NewtonDivergence, OutsideDomain
from disconn.groups import Torus
from disconn.integration import integrate_connection, reduced_retraction
from disconn.manifolds import EuclideanChart, Sphere, invert_extended

HOPF = HopfBundle()
S2 = Sphere(3)


def unit_columns(v):
    return v / np.linalg.norm(v, axis=0)


def x_dy(epsilon, size):
    """epsilon x dy as a polynomial one-form on `size` base coordinates."""
    return {"name": "polynomial",
            "terms": [{"coeff": epsilon, "powers": [1] + [0] * (size - 1),
                       "dx": 1}]}


def connection(bundle, epsilon):
    """The canonical connection (epsilon = 0) or its perturbation: the Hopf
    connections, and on a trivial bundle the zero form or epsilon x dy."""
    if isinstance(bundle, HopfBundle):
        return HopfConnection(bundle, epsilon)
    if epsilon == 0.0:
        return scenarios.one_form_builtin("zero", bundle)[0]
    return scenarios.one_form_builtin(
        x_dy(epsilon, bundle.base.coord_size), bundle)[0]


def anchors(bundle, rng, count):
    """`count` fiber points over random base points, at random fiber
    angles, as one stack."""
    angles = rng.uniform(-np.pi, np.pi, size=(1, count))
    if isinstance(bundle.base, Sphere):
        m = unit_columns(rng.normal(size=(3, count)))
    else:
        m = rng.uniform(-1.0, 1.0, size=(bundle.base.dim, count))
    if isinstance(bundle, HopfBundle):
        return act(angles, section_over(bundle, m))
    return BundlePoint.trivial(bundle, m, angles)


# Every (bundle kind, retraction tag) a scenario can name, on each base the
# kind has: trivial bundles over R^2 and S^2, and the Hopf bundle.
CASES = [(tag, base) for tag in sorted(scenarios._RETRACTIONS)
         for base in ((EuclideanChart(2), Sphere(3)) if tag[0] == "trivial"
                      else (None,))]


class TestChordPremise:
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    @pytest.mark.parametrize("tag, base", CASES,
                             ids=[f"{k}-{t}-{b}" for (k, t), b in CASES])
    def test_residual_jacobian_at_the_anchor_is_identity_on_tangents(
            self, tag, base, epsilon):
        bundle = (HOPF if base is None else TrivialBundle(base, Torus(1)))
        R = scenarios._RETRACTIONS[tag](bundle)
        q = anchors(bundle, np.random.default_rng(83), 12)
        reduced = reduced_retraction(
            R, q, horizontal_lifts(connection(bundle, epsilon), q))
        kind, x = bundle.base, project(q)
        # Central differences at v = 0 along +- each column P e_j of the
        # tangent projector, the probes on a trailing axis: (d, 12, 2d)
        # ambient components.
        d, h = kind.coord_size, 1e-5
        P = kind.project_tangent(x[..., None], np.eye(d)[:, None, :])
        probes = h * np.concatenate([P, -P], axis=-1)
        f = kind.log(x, reduced.step(x, probes))
        JP = (f[..., :d] - f[..., d:]) / (2.0 * h)
        assert np.max(np.abs(JP - P)) <= 1e-6


def hopf_targets(x, rng, fraction):
    """A target on S^2 at `fraction` of the reduced retraction's radius
    (pi / 2) from each anchor of the stack x, in a random direction."""
    u = unit_columns(S2.project_tangent(x, rng.normal(size=x.shape)))
    return unit_columns(S2.geodesic_step(x, fraction * np.pi / 2.0 * u))


class TestChordFallback:
    def test_a_column_the_chord_step_does_not_contract_goes_back(self):
        # Under the chart retraction with epsilon = 0.5, targets at 0.45 of
        # the radius: the chord step raises some columns' residuals.  Those
        # columns start probed Newton from their first iterate, the others
        # from the chord step, and every column converges.
        rng = np.random.default_rng(89)
        q = anchors(HOPF, rng, 40)
        R = reduced_retraction(
            scenarios._RETRACTIONS["hopf", "chart"](HOPF), q,
            horizontal_lifts(HopfConnection(HOPF, 0.5), q))
        x = project(q)
        y = hopf_targets(x, rng, 0.45)
        calls = []

        def recording(point, components):
            out = R.step(point, components)
            calls.append((components, out))
            return out

        v = invert_extended(dataclasses.replace(R, step=recording), x, y)
        target = S2.log(x, y)
        assert np.max(np.abs(S2.log(x, R.step(x, v)) - target)) <= 1e-11

        # The first residual, the chord step's residual, then the probes.
        (v0, p0), (v1, p1), (probes, _) = calls[:3]
        assert probes.ndim == 3
        before, after = (np.linalg.norm(S2.log(x, p) - target, axis=0)
                         for p in (p0, p1))
        back = ~(after <= 0.5 * before)
        assert np.any(after > before)
        assert 0 < np.sum(back) < back.size
        # The probes are centred on each column's starting point.
        centre = probes.mean(axis=-1)
        assert np.max(np.abs(centre - np.where(back, v0, v1))) <= 1e-12


def hopf_pairs(fraction, count, seed):
    """`count` Hopf pairs (q0, q1) at random fiber angles, their base
    points `fraction` of the radius pi / 2 apart."""
    rng = np.random.default_rng(seed)
    q0 = anchors(HOPF, rng, count)
    m1 = hopf_targets(project(q0), rng, fraction)
    angles = rng.uniform(-np.pi, np.pi, size=(1, count))
    return q0, act(angles, section_over(HOPF, m1))


def raising_pairs(D, q0, q1):
    """How many pairs of the stack make `eval_discrete` raise alone: a
    stacked solve raises when one of its columns would, so a raising stack
    is halved until its raising pairs stand alone."""
    try:
        eval_discrete(D, q0, q1)
        return 0
    except (NewtonDivergence, OutsideDomain):
        count = q0.ambient.shape[1]
        if count == 1:
            return 1
        halves = (slice(None, count // 2), slice(count // 2, None))
        return sum(raising_pairs(D, *(BundlePoint(HOPF, q.base_point[:, s],
                                                  ambient=q.ambient[:, s])
                                      for q in (q0, q1)))
                   for s in halves)


FRACTIONS = (0.05, 0.2, 0.4, 0.45, 0.49)
# Pairs of each set, out of 200, that raised under the probed Newton
# iteration alone, with no chord step.  The great-circle retraction raises
# on none up to epsilon = 0.5; at epsilon = 1 and 2 its rows are the
# counts with the chord step, which the iteration in ambient tangent
# coordinates gives too.  The chart retraction raises near its chart's
# pole and where Newton wanders off far from it.
PROBED_NEWTON_RAISED = {
    ("great_circle", 0.0): (0, 0, 0, 0, 0),
    ("great_circle", 0.1): (0, 0, 0, 0, 0),
    ("great_circle", 0.5): (0, 0, 0, 0, 0),
    ("great_circle", 1.0): (0, 0, 0, 0, 10),
    ("great_circle", 2.0): (0, 0, 42, 54, 65),
    ("chart", 0.0): (1, 0, 2, 9, 2),
    ("chart", 0.1): (1, 0, 1, 8, 2),
    ("chart", 0.5): (1, 0, 2, 8, 8),
}


@pytest.mark.parametrize("tag, epsilon", sorted(PROBED_NEWTON_RAISED))
def test_far_pairs_raise_no_more_often_than_probed_newton(tag, epsilon):
    D = integrate_connection(HopfConnection(HOPF, epsilon),
                             scenarios._RETRACTIONS["hopf", tag](HOPF),
                             np.pi / 2.0)
    raised = tuple(raising_pairs(D, *hopf_pairs(fraction, 200, 1000 + i))
                   for i, fraction in enumerate(FRACTIONS))
    assert all(map(int.__le__, raised, PROBED_NEWTON_RAISED[tag, epsilon]))
