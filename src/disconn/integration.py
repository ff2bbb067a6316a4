"""From continuous connections to discrete ones via retractions.

Given a connection A and a group-equivariant retraction R on the total
space, the induced discrete connection on a pair (q0, q1) is computed in
three steps: invert the reduced retraction at q0 to find the base
direction from phi(q0) to phi(q1), lift it horizontally and retract to get
the horizontal representative over phi(q1), then read off the fiber
translation carrying that representative to q1.  Differentiating the
result recovers A.  The horizontal lift is linear in the base direction,
so each evaluation builds it once, as the matrix L of the lifts of the
base coordinate vectors at q0 (`connections.horizontal_lifts`): the
reduced retraction steps u -> phi(R_q0(L u)).  The solve's last step is
a residual's, at the solved direction delta, so the rule reads its point
R_q0(L delta) there (its radius tested) instead of retracting again.

A bundle retraction is a `manifolds.Retraction` whose space is the
bundle: its step maps a `BundlePoint` and tangent components to a
`BundlePoint`, and `retract_bundle(R, q, v)` applies it after the same
radius test as `manifolds.retract`.  A bundle tangent is its components
array with its point passed beside it, and the induced discrete
connection is defined on pairs closer than ``domain_radius`` on the base.

Every step takes a point with a ``(d, *stack)`` stack of tangents (see
`numdiff`) and steps each column on its own; the point is one point, or a
stack of points whose stack is a prefix of the tangents' and broadcasts
over them.  So does the reduced retraction, anchored at a stack of fiber
points: `manifolds.invert_extended` solves it in one Newton solve with
one chart per anchor, each anchor serving its own targets.  The induced
discrete connection takes stacks of pairs, the stack of q0 a prefix of
the stack of q1.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from . import bundles, manifolds
from .bundles import BundlePoint, HopfBundle, TrivialBundle
from .connections import ConnectionForm, eval_connection, horizontal_lifts
from .discrete import ComposedDiscrete, DiscreteConnectionForm
from .errors import BundleMismatch
from .manifolds import Retraction
from .numdiff import _column_dot, _column_norm, _columns, _matvec


# ---------------------------------------------------------------------------
# Invariant metrics

def build_invariant_metric(A: ConnectionForm) -> Callable:
    """Group-invariant metric splitting tangents with the connection A: the
    pairing (q, u, w) of two bundle tangents at a common point q, one value
    per column of a stack of points and tangents.

    Pairs the base projections with the flat (chart or ambient) metric and
    the connection values with the Euclidean pairing on the algebra, which
    is invariant under the adjoint action for every supported group.
    """
    def pairing(q, u, w):
        pu = bundles.tangent_projection(q, u)
        pw = bundles.tangent_projection(q, w)
        horizontal = _column_dot(pu, pw)
        au = eval_connection(A, q, u)
        aw = eval_connection(A, q, w)
        return horizontal + _column_dot(au, aw)

    return pairing


def metric_invariance_defect(pairing, g, q: BundlePoint, u, w):
    """|pairing(g . u, g . w) - pairing(u, w)| at q and g . q, one per
    column of stacks of points, tangents and group elements."""
    moved = pairing(bundles.act(g, q), bundles.tangent_lift_action(g, q, u),
                    bundles.tangent_lift_action(g, q, w))
    return np.abs(moved - pairing(q, u, w))


# ---------------------------------------------------------------------------
# Bundle retractions

def trivial_product_retraction(bundle: TrivialBundle) -> Retraction:
    """Metric exponential on the base block, group exponential on the fiber.

    Equivariant for every structure group: the fiber step sends (g, xi) to
    exp(xi) g, and exp intertwines the adjoint action with conjugation.
    """
    G = bundle.group

    def step(q, v):
        base, fiber = bundles.split_trivial(q, v)
        m = bundle.base.geodesic_step(q.base_point, base)
        g = G.compose(G.exp(fiber), q.group_part)
        return BundlePoint(bundle, m, g)

    return Retraction(bundle, step, bundle.base.default_radius)


def trivial_skewed_retraction(bundle: TrivialBundle) -> Retraction:
    """Valid retraction whose fiber step depends on the group representative.

    The straight step, with a second-order term added to the fiber block
    that couples it to the stored coordinates of the group element, which
    change under the action; used as a negative control for the
    equivariance check.
    """
    straight = trivial_product_retraction(bundle)
    G = bundle.group

    def step(q, v):
        base, fiber = bundles.split_trivial(q, v)
        skew = np.multiply(*_columns(0.3 * _column_norm(fiber) ** 2,
                                     _column_norm(G.log(q.group_part))))
        return straight.step(q, np.concatenate([base, fiber + skew]))

    return Retraction(bundle, step, straight.domain_radius)


def hopf_geodesic_retraction(bundle: HopfBundle) -> Retraction:
    """Great-circle steps on the round S^3; circle rotations are isometries,
    so the rule is equivariant.  The step is `Sphere.geodesic_step`, one
    norm per column and unit to rounding; a zero step returns q's point
    exactly."""
    sphere = bundle.total_space

    def step(q, v):
        return BundlePoint(bundle, ambient=sphere.geodesic_step(q.ambient, v))

    return Retraction(bundle, step, np.pi)


def retract_bundle(R: Retraction, q: BundlePoint, v) -> BundlePoint:
    if q.bundle != R.space:
        raise BundleMismatch("tangent does not live on the retraction's bundle")
    R.require_inside(v)
    return R.step(q, v)


def equivariance_defect(R: Retraction, g, q: BundlePoint, v):
    """Distance between R(g . v) and g . R(v) for a tangent v at q, one
    per column of stacks of points, tangents and group elements."""
    moved = retract_bundle(R, bundles.act(g, q),
                           bundles.tangent_lift_action(g, q, v))
    expected = bundles.act(g, retract_bundle(R, q, v))
    return bundles.point_distance(moved, expected)


# ---------------------------------------------------------------------------
# Reduced retraction and integration

def reduced_retraction(R: Retraction, q: BundlePoint, L) -> Retraction:
    """The base retraction u -> phi(R_q(L u)) at the fiber point q, with L
    the matrix of horizontal lifts at q (`connections.horizontal_lifts`).

    Its step is valid at project(q) only: it ignores the base point it is
    given and steps every tangent from q (from each point of a stack of
    points, the stack a prefix of the tangents').  By equivariance of the
    connection and of R it does not depend on the point q of its fiber.
    L u is the horizontal lift of u to rounding for every presentation a
    scenario integrates, the local one-forms and the Hopf connections; for
    a `GenericConnection`, derived by Richardson differences, it is the
    lift only to the accuracy of those differences.  The radius is capped
    at the base's default: on Hopf, horizontal great circles of S^3
    project onto base geodesics at twice the speed."""
    if q.bundle != R.space:
        raise BundleMismatch("point does not live on the retraction's bundle")
    base_kind = q.bundle.base

    def step(m, u):
        return bundles.project(R.step(q, _matvec(L, u)))

    return Retraction(base_kind, step,
                      min(R.domain_radius, base_kind.default_radius))


def integrate_connection(A: ConnectionForm, R: Retraction,
                         domain_radius: float) -> DiscreteConnectionForm:
    """Discrete connection induced by A and an equivariant retraction R, on
    pairs closer than domain_radius on the base."""
    if A.bundle != R.space:
        raise BundleMismatch("connection and retraction bundles differ")

    def rule(q0, q1):
        L = horizontal_lifts(A, q0)
        last = []

        def recording_step(q, v):
            last[:] = v, R.step(q, v)
            return last[1]

        manifolds.invert_extended(
            reduced_retraction(replace(R, step=recording_step), q0, L),
            bundles.project(q0), bundles.project(q1))
        R.require_inside(last[0])   # the last step: R_q0(L delta)
        return bundles.fiber_translation(last[1], q1)

    return ComposedDiscrete(A.bundle, rule, domain_radius, name="integrated")
