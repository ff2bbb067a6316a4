"""Discrete connection forms.

A discrete connection assigns a group element to pairs of nearby bundle
points, equal to the identity on the diagonal and equivariant for the
product action: ``A_d(g.q0, g'.q1) = g' A_d(q0, q1) g^{-1}``.  Pairs are
restricted to a neighborhood of the diagonal described by a ``DomainSpec``.

Presentations:

* ``TrivialLocalDiscrete`` -- on a trivial bundle, generated by a base map
  ``C(m0, m1)`` into the group via
  ``A_d((m0, g0), (m1, g1)) = g1 C(m0, m1) g0^{-1}``;
* ``ComposedDiscrete`` -- an opaque pair rule, used for forms assembled
  from a continuous connection and a retraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import bundles, groups
from .bundles import (BundlePoint, DomainSpec, PrincipalBundle, TrivialBundle,
                      domain_contains)
from .errors import BundleMismatch, OutsideDomain, UnsupportedPresentation
from .groups import GroupElement
from .manifolds import ManifoldPoint
from .numdiff import worst_defect


class DiscreteConnectionForm:
    bundle: PrincipalBundle
    domain: DomainSpec


@dataclass(frozen=True)
class TrivialLocalDiscrete(DiscreteConnectionForm):
    bundle: TrivialBundle
    pair_map: Callable  # (m0 coords, m1 coords) -> group element data
    domain: DomainSpec
    name: str = "local"


@dataclass(frozen=True)
class ComposedDiscrete(DiscreteConnectionForm):
    bundle: PrincipalBundle
    rule: Callable  # (BundlePoint, BundlePoint) -> GroupElement
    domain: DomainSpec
    name: str = "composed"


def eval_discrete(Ad: DiscreteConnectionForm, q0: BundlePoint,
                  q1: BundlePoint) -> GroupElement:
    if q0.bundle != Ad.bundle or q1.bundle != Ad.bundle:
        raise BundleMismatch("points do not live on the form's bundle")
    if not domain_contains(Ad.domain, q0, q1):
        raise OutsideDomain(
            f"pair at base distance {bundles.base_distance(q0, q1):.4g} "
            f"outside radius {Ad.domain.base_radius:.4g}")
    if isinstance(Ad, TrivialLocalDiscrete):
        c = GroupElement.of(
            Ad.bundle.group,
            Ad.pair_map(q0.base_point.coords, q1.base_point.coords))
        return groups.compose(
            q1.group_part,
            groups.compose(c, groups.inverse(q0.group_part)))
    if isinstance(Ad, ComposedDiscrete):
        return Ad.rule(q0, q1)
    raise UnsupportedPresentation(f"unknown discrete presentation {Ad!r}")


def discrete_horizontal_lift(Ad: DiscreteConnectionForm, q: BundlePoint,
                             m: ManifoldPoint) -> BundlePoint:
    """The point over m reached horizontally from q: translate any point
    over m by the inverse of the discrete connection value."""
    q_prime = bundles.section_over(Ad.bundle, m)
    g = eval_discrete(Ad, q, q_prime)
    return bundles.act(groups.inverse(g), q_prime)


def discrete_curvature(Ad: DiscreteConnectionForm, q0: BundlePoint,
                       q1: BundlePoint, q2: BundlePoint) -> GroupElement:
    """Triangle holonomy A_d(q0,q2)^{-1} A_d(q1,q2) A_d(q0,q1)."""
    return groups.compose(
        groups.inverse(eval_discrete(Ad, q0, q2)),
        groups.compose(eval_discrete(Ad, q1, q2),
                       eval_discrete(Ad, q0, q1)))


def identity_defect(Ad: DiscreteConnectionForm, q: BundlePoint) -> float:
    return groups.distance_to_identity(eval_discrete(Ad, q, q))


def discrete_equivariance_defect(Ad: DiscreteConnectionForm,
                                 g: GroupElement, g_prime: GroupElement,
                                 q0: BundlePoint, q1: BundlePoint) -> float:
    moved = eval_discrete(Ad, bundles.act(g, q0), bundles.act(g_prime, q1))
    expected = groups.compose(
        g_prime, groups.compose(eval_discrete(Ad, q0, q1), groups.inverse(g)))
    return groups.group_distance(moved, expected)


def lift_consistency_defect(Ad: DiscreteConnectionForm, q: BundlePoint,
                            m: ManifoldPoint) -> float:
    """Defect of A_d(q, h_d(q, m)) = identity."""
    lifted = discrete_horizontal_lift(Ad, q, m)
    return groups.distance_to_identity(eval_discrete(Ad, q, lifted))


def verify_discrete_axioms(Ad: DiscreteConnectionForm, samples) -> float:
    """Worst identity/equivariance defect over (q0, q1, g, g') samples."""
    defects = []
    for q0, q1, g, g_prime in samples:
        defects.append(identity_defect(Ad, q0))
        defects.append(discrete_equivariance_defect(Ad, g, g_prime, q0, q1))
    return worst_defect(defects)


def flatness_defect(Ad: DiscreteConnectionForm, q0: BundlePoint,
                    q1: BundlePoint, q2: BundlePoint) -> float:
    return groups.distance_to_identity(discrete_curvature(Ad, q0, q1, q2))
