"""Constructions special to abelian structure groups.

With an abelian group, the difference of two connections is invariant
under the action and therefore descends to a one-form on the base.  This
enables integration without a retraction: given a reference discrete
connection whose derived curvature agrees with the target's, correct the
reference by the exponentiated integral of the descended difference
eps = A - A_ref over the segment between the base points of a pair.  The
caller builds eps: `scenarios` forms it as one polynomial table, the
target's terms less the reference pair map's terms linear in delta.
Flat integration is the case of the zero reference, where eps is the
closed target itself (`scenarios` builds its `flat` discrete so).

The route integrates over straight segments and requires a global
Euclidean base chart (a simply connected base with trivial first
cohomology), on which the integral of a closed form over the segment
m0 -> m1 is f(m1) - f(m0) for any primitive f: no anchor point is needed.

Every one-form here is a `TrivialLocalConnection`, evaluated on stacks by
its `value` (see `numdiff`): ``(d, *stack)`` points and tangents give
``(k, *stack)`` values, so each segment integral evaluates its integrand
once, on all quadrature nodes, one `primitive_on_segments` call per stack
of pairs; no state is kept between calls.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import bundles
from .connections import TrivialLocalConnection
from .discrete import ComposedDiscrete, DiscreteConnectionForm, eval_discrete
from .errors import BundleMismatch, UnsupportedGroup, UnsupportedPresentation
from .manifolds import EuclideanChart
from .numdiff import (_column_norm, _columns, exterior_derivative,
                      gauss_legendre_line_integral, worst_defect)


def worst_exterior_defect(A: TrivialLocalConnection, samples) -> float:
    """Worst |d omega (u, w)| of the one-form of A over the samples (m, u,
    w), a (d, *stack) stack of points and two of constant directions, for
    constant-coefficient extensions of u and w; NaN when a difference step
    is lost to rounding at some m."""
    return worst_defect(_column_norm(exterior_derivative(A.value, *samples)))


def primitive_on_segments(A: TrivialLocalConnection) -> Callable:
    """increment(m0, m1) = integral of the one-form of A over the straight
    segments m0 -> m1, for (d, *stack) end points under the `numdiff`
    prefix-broadcast rule; (k, *stack) values.

    For a closed form this is f(m1) - f(m0) for every primitive f.  The
    form is evaluated on the unit direction of each segment and the
    integral scaled by its length: the same integral, since a one-form is
    linear in its tangent, but a form that differentiates along its tangent
    (a derived connection) then takes its difference steps at unit scale
    whatever the segment's length.  A segment of length zero gets exactly
    zero.  The integrand is called once per call, on all quadrature nodes
    of all segments.
    """

    def increment(m0, m1):
        m0, m1 = _columns(np.asarray(m0, dtype=float),
                          np.asarray(m1, dtype=float))
        direction = m1 - m0
        length = _column_norm(direction)
        unit = direction / np.where(length > 0, length, 1)

        def integrand(t):
            points = m0[..., None] + t * direction[..., None]
            return A.value(points,
                           np.broadcast_to(unit[..., None], points.shape))

        return gauss_legendre_line_integral(integrand, 0.0, 1.0) * length

    return increment


def curvature_matched_integrate(
        eps: TrivialLocalConnection,
        Ad_ref: DiscreteConnectionForm) -> DiscreteConnectionForm:
    """Discrete connection deriving to A = A_ref + eps, from a reference
    Ad_ref whose derived connection is A_ref and the descended difference
    eps = A - A_ref: each pair's value is the reference's, corrected by exp
    of the integral of eps over the segment m0 -> m1 between their base
    points.  The caller ensures that eps is closed, that is, that the
    curvatures match (`scenarios` decides it on eps's table).
    """
    bundle = Ad_ref.bundle
    if eps.bundle != bundle:
        raise BundleMismatch("difference and reference bundles differ")
    if not bundle.group.abelian:
        raise UnsupportedGroup(
            "curvature-matched integration needs an abelian group")
    if not isinstance(bundle.base, EuclideanChart):
        raise UnsupportedPresentation(
            "curvature-matched integration integrates over straight "
            "segments and needs a global Euclidean base chart")
    G = bundle.group
    increment = primitive_on_segments(eps)

    def rule(q0, q1):
        return G.compose(eval_discrete(Ad_ref, q0, q1),
                         G.exp(increment(bundles.project(q0),
                                         bundles.project(q1))))

    return ComposedDiscrete(bundle, rule, Ad_ref.domain_radius,
                            name="matched")
