"""From continuous connections to discrete ones via retractions.

Given a connection A and a group-equivariant retraction R on the total
space, the induced discrete connection on a pair (q0, q1) is computed in
three steps: invert the reduced retraction on the base to find the base
direction from phi(q0) to phi(q1), lift it horizontally and retract to get
the horizontal representative over phi(q1), then read off the fiber
translation carrying that representative to q1.  Differentiating the
result recovers A.

A bundle retraction is a `manifolds.Retraction` whose space is the
bundle: its step maps a `BundlePoint` and tangent components to a
`BundlePoint`, and `retract_bundle(R, q, v)` applies it after the same
radius test as `manifolds.retract`.  A bundle tangent is its components
array with its point passed beside it, and the induced discrete
connection is defined on pairs closer than ``domain_radius`` on the base.

Every step takes a point with a ``(d, *stack)`` stack of tangents (see
`numdiff`) and steps each column on its own; the point is one point, or a
stack of points whose stack is a prefix of the tangents' and broadcasts
over them.  So do the reduced retraction, whose stacks
`manifolds.invert_extended` solves in one Newton solve with one anchor per
column, and the induced discrete connection, which takes stacks of pairs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import bundles, manifolds
from .bundles import BundlePoint, HopfBundle, TrivialBundle
from .connections import ConnectionForm, eval_connection, horizontal_lift
from .discrete import ComposedDiscrete, DiscreteConnectionForm
from .errors import BundleMismatch
from .manifolds import Retraction
from .numdiff import _column_dot, _column_norm, _columns


# ---------------------------------------------------------------------------
# Invariant metrics

def build_invariant_metric(A: ConnectionForm) -> Callable:
    """Group-invariant metric splitting tangents with the connection A: the
    pairing (q, u, w) -> float of two bundle tangents at a common point q.

    Pairs the base projections with the flat (chart or ambient) metric and
    the connection values with the Euclidean pairing on the algebra, which
    is invariant under the adjoint action for every supported group.
    """
    def pairing(q, u, w):
        pu = bundles.tangent_projection(q, u)
        pw = bundles.tangent_projection(q, w)
        horizontal = float(_column_dot(pu, pw))
        au = eval_connection(A, q, u)
        aw = eval_connection(A, q, w)
        return float(horizontal + _column_dot(au, aw))

    return pairing


def metric_invariance_defect(pairing, g, q: BundlePoint, u, w) -> float:
    moved = pairing(bundles.act(g, q), bundles.tangent_lift_action(g, q, u),
                    bundles.tangent_lift_action(g, q, w))
    return abs(moved - pairing(q, u, w))


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


def equivariance_defect(R: Retraction, g, q: BundlePoint, v) -> float:
    """Distance between R(g . v) and g . R(v) for a tangent v at q."""
    moved = retract_bundle(R, bundles.act(g, q),
                           bundles.tangent_lift_action(g, q, v))
    expected = bundles.act(g, retract_bundle(R, q, v))
    return bundles.point_distance(moved, expected)


# ---------------------------------------------------------------------------
# Reduced retraction and integration

def reduced_retraction(A: ConnectionForm, R: Retraction) -> Retraction:
    """Base retraction phi(R(horizontal lift)), independent of the fiber
    point by equivariance of A and R.  Its radius is capped at the base's
    default: on Hopf, horizontal great circles of S^3 project onto base
    geodesics at twice the speed."""
    if A.bundle != R.space:
        raise BundleMismatch("connection and retraction bundles differ")
    bundle = A.bundle
    base_kind = bundle.base
    domain_radius = min(R.domain_radius, base_kind.default_radius)

    def step(m, components):
        q = bundles.section_over(bundle, m)
        h = horizontal_lift(A, q, base_kind.project_tangent(m, components))
        return bundles.project(R.step(q, h))

    return Retraction(base_kind, step, domain_radius)


def integrate_connection(A: ConnectionForm, R: Retraction,
                         domain_radius: float) -> DiscreteConnectionForm:
    """Discrete connection induced by A and an equivariant retraction R, on
    pairs closer than domain_radius on the base."""
    if A.bundle != R.space:
        raise BundleMismatch("connection and retraction bundles differ")
    bundle = A.bundle
    reduced = reduced_retraction(A, R)

    def rule(q0, q1):
        m0, m1 = bundles.project(q0), bundles.project(q1)
        delta = manifolds.invert_extended(reduced, m0, m1)
        h = horizontal_lift(A, q0, delta)
        q_h = retract_bundle(R, q0, h)
        return bundles.fiber_translation(q_h, q1)

    return ComposedDiscrete(bundle, rule, domain_radius, name="integrated")
