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

import numpy as np

from . import bundles
from .bundles import (BundlePoint, DomainSpec, PrincipalBundle, TrivialBundle,
                      domain_contains)
from .errors import BundleMismatch, OutsideDomain, UnsupportedPresentation


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
    rule: Callable  # (BundlePoint, BundlePoint) -> group element data
    domain: DomainSpec
    name: str = "composed"


def eval_discrete(Ad: DiscreteConnectionForm, q0: BundlePoint,
                  q1: BundlePoint) -> np.ndarray:
    if q0.bundle != Ad.bundle or q1.bundle != Ad.bundle:
        raise BundleMismatch("points do not live on the form's bundle")
    if not domain_contains(Ad.domain, q0, q1):
        raise OutsideDomain(
            f"pair at base distance {bundles.base_distance(q0, q1):.4g} "
            f"outside radius {Ad.domain.base_radius:.4g}")
    if isinstance(Ad, TrivialLocalDiscrete):
        G = Ad.bundle.group
        c = G.wrap(Ad.pair_map(q0.base_point, q1.base_point))
        return G.compose(q1.group_part,
                         G.compose(c, G.inverse(q0.group_part)))
    if isinstance(Ad, ComposedDiscrete):
        return Ad.rule(q0, q1)
    raise UnsupportedPresentation(f"unknown discrete presentation {Ad!r}")


def discrete_horizontal_lift(Ad: DiscreteConnectionForm, q: BundlePoint,
                             m) -> BundlePoint:
    """The point over m reached horizontally from q: translate any point
    over m by the inverse of the discrete connection value."""
    q_prime = bundles.section_over(Ad.bundle, m)
    g = eval_discrete(Ad, q, q_prime)
    return bundles.act(Ad.bundle.group.inverse(g), q_prime)


def discrete_curvature(Ad: DiscreteConnectionForm, q0: BundlePoint,
                       q1: BundlePoint, q2: BundlePoint) -> np.ndarray:
    """Triangle holonomy A_d(q0,q2)^{-1} A_d(q1,q2) A_d(q0,q1)."""
    G = Ad.bundle.group
    return G.compose(G.inverse(eval_discrete(Ad, q0, q2)),
                     G.compose(eval_discrete(Ad, q1, q2),
                               eval_discrete(Ad, q0, q1)))


def identity_defect(Ad: DiscreteConnectionForm, q: BundlePoint) -> float:
    G = Ad.bundle.group
    return G.distance(eval_discrete(Ad, q, q), G.identity())


def discrete_equivariance_defect(Ad: DiscreteConnectionForm, g, g_prime,
                                 q0: BundlePoint, q1: BundlePoint) -> float:
    G = Ad.bundle.group
    moved = eval_discrete(Ad, bundles.act(g, q0), bundles.act(g_prime, q1))
    expected = G.compose(
        g_prime, G.compose(eval_discrete(Ad, q0, q1), G.inverse(g)))
    return G.distance(moved, expected)


def flatness_defect(Ad: DiscreteConnectionForm, q0: BundlePoint,
                    q1: BundlePoint, q2: BundlePoint) -> float:
    G = Ad.bundle.group
    return G.distance(discrete_curvature(Ad, q0, q1, q2), G.identity())
