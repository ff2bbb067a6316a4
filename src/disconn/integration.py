"""From continuous connections to discrete ones via retractions.

Given a connection A and a group-equivariant retraction R on the total
space, the induced discrete connection on a pair (q0, q1) is computed in
three steps: invert the reduced retraction on the base to find the base
direction from phi(q0) to phi(q1), lift it horizontally and retract to get
the horizontal representative over phi(q1), then read off the fiber
translation carrying that representative to q1.  Differentiating the
result recovers A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bundles, groups, manifolds
from .bundles import (BundlePoint, BundleTangent, DomainSpec, HopfBundle,
                      PrincipalBundle, TrivialBundle)
from .connections import ConnectionForm, eval_connection, horizontal_lift
from .discrete import ComposedDiscrete, DiscreteConnectionForm
from .errors import BundleMismatch, OutsideDomain
from .groups import GroupElement
from .manifolds import Retraction, TangentVector


# ---------------------------------------------------------------------------
# Invariant metrics

def build_invariant_metric(A: ConnectionForm) -> Callable:
    """Group-invariant metric splitting tangents with the connection A: the
    pairing (u, w) -> float of two bundle tangents at a common point.

    Pairs the base projections with the flat (chart or ambient) metric and
    the connection values with the Euclidean pairing on the algebra, which
    is invariant under the adjoint action for every supported group.
    """
    def pairing(u, w):
        pu = bundles.tangent_projection(u)
        pw = bundles.tangent_projection(w)
        horizontal = float(np.dot(pu.components, pw.components))
        au = eval_connection(A, u)
        aw = eval_connection(A, w)
        return float(horizontal + np.dot(au, aw))

    return pairing


def metric_invariance_defect(pairing, g: GroupElement, u: BundleTangent,
                             w: BundleTangent) -> float:
    moved = pairing(bundles.tangent_lift_action(g, u),
                    bundles.tangent_lift_action(g, w))
    return abs(moved - pairing(u, w))


# ---------------------------------------------------------------------------
# Bundle retractions

@dataclass(frozen=True)
class BundleRetraction:
    bundle: PrincipalBundle
    step: Callable[[BundlePoint, BundleTangent], BundlePoint]
    domain_radius: float


def trivial_product_retraction(bundle: TrivialBundle) -> BundleRetraction:
    """Metric exponential on the base block, group exponential on the fiber.

    Equivariant for every structure group: the fiber step sends (g, xi) to
    exp(xi) g, and exp intertwines the adjoint action with conjugation.
    """
    base_exp = manifolds.metric_exponential(bundle.base)

    def step(q, v):
        base, fiber = bundles.split_trivial(v)
        m = base_exp.step(q.base_point, base)
        g = groups.compose(groups.exp(bundle.group, fiber), q.group_part)
        return BundlePoint(bundle, m, g)

    return BundleRetraction(bundle, step, base_exp.domain_radius)


def trivial_skewed_retraction(bundle: TrivialBundle) -> BundleRetraction:
    """Valid retraction whose fiber step depends on the group representative.

    The second-order term couples the fiber step to the stored coordinates
    of the group element, which change under the action; used as a negative
    control for the equivariance check.
    """
    base_exp = manifolds.metric_exponential(bundle.base)

    def step(q, v):
        base, fiber = bundles.split_trivial(v)
        m = base_exp.step(q.base_point, base)
        skew = 0.3 * float(np.linalg.norm(fiber)) ** 2 \
            * float(np.linalg.norm(groups.log(q.group_part)))
        g = groups.compose(groups.exp(bundle.group, fiber + skew),
                           q.group_part)
        return BundlePoint(bundle, m, g)

    return BundleRetraction(bundle, step, base_exp.domain_radius)


def hopf_geodesic_retraction(bundle: HopfBundle) -> BundleRetraction:
    """Great-circle steps on the round S^3; circle rotations are isometries,
    so the rule is equivariant."""

    def step(q, v):
        norm = float(np.linalg.norm(v.components))
        if norm < 1e-300:
            return q
        p = np.cos(norm) * q.ambient + np.sin(norm) * v.components / norm
        return BundlePoint(bundle, ambient=p / np.linalg.norm(p))

    return BundleRetraction(bundle, step, np.pi)


def retract_bundle(R: BundleRetraction, v: BundleTangent) -> BundlePoint:
    if v.base_point.bundle != R.bundle:
        raise BundleMismatch("tangent does not live on the retraction's bundle")
    if v.norm >= R.domain_radius:
        raise OutsideDomain(
            f"|v| = {v.norm:.4g} >= domain radius {R.domain_radius:.4g}")
    return R.step(v.base_point, v)


def equivariance_defect(R: BundleRetraction, g: GroupElement,
                        v: BundleTangent) -> float:
    """Distance between R(g . v) and g . R(v)."""
    moved = retract_bundle(R, bundles.tangent_lift_action(g, v))
    expected = bundles.act(g, retract_bundle(R, v))
    return bundles.point_distance(moved, expected)


# ---------------------------------------------------------------------------
# Reduced retraction and integration

def reduced_retraction(A: ConnectionForm, R: BundleRetraction) -> Retraction:
    """Base retraction phi(R(horizontal lift)), independent of the fiber
    point by equivariance of A and R.  Its radius is capped at the base's
    default: on Hopf, horizontal great circles of S^3 project onto base
    geodesics at twice the speed."""
    if A.bundle != R.bundle:
        raise BundleMismatch("connection and retraction bundles differ")
    bundle = A.bundle
    base_kind = bundle.base
    domain_radius = min(R.domain_radius, manifolds.default_radius(base_kind))

    def step(m, components):
        q = bundles.section_over(bundle, m)
        delta = TangentVector(m, base_kind.project_tangent(m, components))
        h = horizontal_lift(A, q, delta)
        return bundles.project(R.step(q, h))

    return Retraction(base_kind, step, domain_radius)


def integrate_connection(A: ConnectionForm, R: BundleRetraction,
                         domain: DomainSpec) -> DiscreteConnectionForm:
    """Discrete connection induced by A and an equivariant retraction R."""
    if A.bundle != R.bundle or domain.bundle != A.bundle:
        raise BundleMismatch("connection, retraction and domain must agree")
    bundle = A.bundle
    reduced = reduced_retraction(A, R)

    def rule(q0, q1):
        m0, m1 = bundles.project(q0), bundles.project(q1)
        delta = manifolds.invert_extended(reduced, m0, m1)
        h = horizontal_lift(A, q0, delta)
        q_h = retract_bundle(R, h)
        return bundles.fiber_translation(q_h, q1)

    return ComposedDiscrete(bundle, rule, domain, name="integrated")
