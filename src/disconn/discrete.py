"""Discrete connection forms.

A discrete connection assigns a group element to pairs of nearby bundle
points, equal to the identity on the diagonal and equivariant for the
product action: ``A_d(g.q0, g'.q1) = g' A_d(q0, q1) g^{-1}``.  Pairs are
restricted to the neighborhood of the diagonal where the base distance is
below the form's ``domain_radius``.

Presentations:

* ``TrivialLocalDiscrete`` -- on a trivial bundle, generated by a base map
  ``C(m0, m1)`` into the group via
  ``A_d((m0, g0), (m1, g1)) = g1 C(m0, m1) g0^{-1}``;
* ``ComposedDiscrete`` -- an opaque pair rule, used for forms assembled
  from a continuous connection and a retraction.

`eval_discrete` also takes stacks of pairs (see `numdiff`) and gives a
stack of values: the two points share one stack, or the stack of the
first is a prefix of that of the second and broadcasts over it, as a
single first point does.  A pair map C is called once on the whole stack
of base pairs, whatever the group, as a connection's omega is (see
`numdiff`).  A law that reads several pairs (the triangle holonomy, the
two axioms) joins them on a new trailing stack axis (`bundles.join`) and
makes one `eval_discrete` call, so an integrated form makes one Newton
solve for all of them; a pair gets the bits of its column whatever the
stack it is in, so the joined values equal separate calls bit for bit.
The defects take stacks too and give one defect per column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bundles
from .bundles import BundlePoint, PrincipalBundle, TrivialBundle
from .errors import BundleMismatch, OutsideDomain
from .numdiff import _columns, _largest


class DiscreteConnectionForm:
    bundle: PrincipalBundle
    domain_radius: float


@dataclass(frozen=True)
class TrivialLocalDiscrete(DiscreteConnectionForm):
    bundle: TrivialBundle
    pair_map: Callable  # (m0 coords, m1 coords) -> group element data
    domain_radius: float
    name: str = "local"


@dataclass(frozen=True)
class ComposedDiscrete(DiscreteConnectionForm):
    bundle: PrincipalBundle
    rule: Callable  # (BundlePoint, BundlePoint) -> group element data
    domain_radius: float
    name: str = "composed"


def eval_discrete(Ad: DiscreteConnectionForm, q0: BundlePoint,
                  q1: BundlePoint) -> np.ndarray:
    if q0.bundle != Ad.bundle or q1.bundle != Ad.bundle:
        raise BundleMismatch("points do not live on the form's bundle")
    distance = _largest(bundles.base_distance(q0, q1))
    if not distance < Ad.domain_radius:
        raise OutsideDomain(
            f"pair at base distance {distance:.4g} "
            f"outside radius {Ad.domain_radius:.4g}")
    if isinstance(Ad, TrivialLocalDiscrete):
        G = Ad.bundle.group
        c = G.wrap(Ad.pair_map(*_columns(q0.base_point, q1.base_point)))
        return G.compose(q1.group_part,
                         G.compose(c, G.inverse(q0.group_part)))
    return Ad.rule(q0, q1)


def discrete_horizontal_lift(Ad: DiscreteConnectionForm, q: BundlePoint,
                             m) -> BundlePoint:
    """The point over m reached horizontally from q: translate any point
    over m by the inverse of the discrete connection value."""
    q_prime = bundles.section_over(Ad.bundle, m)
    g = eval_discrete(Ad, q, q_prime)
    return bundles.act(Ad.bundle.group.inverse(g), q_prime)


def _eval_pairs(Ad: DiscreteConnectionForm, pairs) -> list:
    """eval_discrete on pairs joined by `bundles.join`, one value a pair."""
    values = eval_discrete(Ad, *pairs)
    return [values[..., j] for j in range(values.shape[-1])]


def triangle_pairs(q0, q1, q2) -> tuple:
    """A triangle's pairs (q0, q2), (q1, q2), (q0, q1), joined once."""
    return bundles.join([q0, q1, q0], [q2, q2, q1])


def discrete_curvature(Ad: DiscreteConnectionForm, pairs) -> np.ndarray:
    """Triangle holonomy A_d(q0,q2)^{-1} A_d(q1,q2) A_d(q0,q1) on the
    triangle's `triangle_pairs`."""
    G = Ad.bundle.group
    a02, a12, a01 = _eval_pairs(Ad, pairs)
    return G.compose(G.inverse(a02), G.compose(a12, a01))


def axiom_defects(Ad: DiscreteConnectionForm, g, g_prime, q0: BundlePoint,
                  q1: BundlePoint) -> tuple:
    """(identity defect, equivariance defect): the distance of A_d(q0, q0)
    from the identity, and that between A_d(g.q0, g'.q1) and
    g' A_d(q0, q1) g^{-1}.  Each is a float, or one per column of stacks
    of pairs and group elements; the three pairs are evaluated in one
    call."""
    G = Ad.bundle.group
    diagonal, moved, value = _eval_pairs(Ad, bundles.join(
        [q0, bundles.act(g, q0), q0], [q0, bundles.act(g_prime, q1), q1]))
    expected = G.compose(g_prime, G.compose(value, G.inverse(g)))
    return (G.distance(diagonal, G.identity()),
            G.distance(moved, expected))
