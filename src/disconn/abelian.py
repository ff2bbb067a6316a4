"""Constructions special to abelian structure groups.

With an abelian group, the difference of two connections is invariant
under the action and therefore descends to a one-form on the base.  This
enables two integration routes that need no retraction:

* flat integration -- exponentiate line integrals of a closed one-form to
  get a flat discrete connection;
* curvature-matched integration -- given a reference discrete connection
  whose derived curvature agrees with the target connection's, correct the
  reference by the exponentiated integral of the descended difference
  over the segment between the base points of a pair; the caller passes
  the reference's derived connection, in closed form or numerical.

Both routes integrate over straight segments and require a global
Euclidean base chart (a simply connected base with trivial first
cohomology), on which the integral of a closed form over the segment
m0 -> m1 is f(m1) - f(m0) for any primitive f: no anchor point is needed.

Every one-form here is a `TrivialLocalConnection`, evaluated on stacks by
its `value` (see `numdiff`): ``(d, *stack)`` points and tangents give
``(k, *stack)`` values, so each segment integral evaluates its integrand
once, on all quadrature nodes, and the descended difference of two local
connections evaluates a stack in one call.  Both routes take their
segment integrals from `primitive_on_segments`, one call per stack of
pairs, and keep no state between calls.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import bundles
from .connections import ConnectionForm, TrivialLocalConnection
from .discrete import (ComposedDiscrete, DiscreteConnectionForm,
                       TrivialLocalDiscrete, eval_discrete)
from .errors import (BundleMismatch, CurvatureMismatch, NotClosed,
                     UnsupportedGroup, UnsupportedPresentation)
from .groups import GroupKind
from .manifolds import EuclideanChart, ManifoldKind
from .numdiff import (_column_norm, _columns, exterior_derivative,
                      gauss_legendre_line_integral, worst_defect)

# Largest d omega defect the flat gate accepts, and largest curvature
# mismatch the matched gate accepts.
CLOSEDNESS_TOL = 1e-8
MATCH_TOL = 1e-6


def _require_abelian(kind: GroupKind):
    if not kind.abelian:
        raise UnsupportedGroup(
            "descent of connection differences needs an abelian group")


def _require_euclidean_base(base: ManifoldKind, what: str):
    if not isinstance(base, EuclideanChart):
        raise UnsupportedPresentation(
            f"{what} integrates over straight segments and needs a global "
            "Euclidean base chart")


def worst_exterior_defect(A: TrivialLocalConnection, samples) -> float:
    """Worst |d omega (u, w)| of the one-form of A over the samples (m, u,
    w), a (d, *stack) stack of points and two of constant directions, for
    constant-coefficient extensions of u and w; NaN when a difference step
    is lost to rounding at some m."""
    return worst_defect(_column_norm(exterior_derivative(A.value, *samples)))


def check_closed(A: TrivialLocalConnection, samples) -> float:
    """Worst exterior-derivative defect over the (m, u, w) stacks; raise if
    the form fails to be closed at CLOSEDNESS_TOL."""
    worst = worst_exterior_defect(A, samples)
    if not worst <= CLOSEDNESS_TOL:
        raise NotClosed(
            f"d omega defect {worst:.3e} exceeds {CLOSEDNESS_TOL:.1e}")
    return worst


def descend_continuous_difference(
        A: ConnectionForm, A_ref: ConnectionForm) -> TrivialLocalConnection:
    """One-form on the base representing A - A_ref.

    The difference of two connections on one bundle is horizontal, and with
    an abelian group also invariant, so it is the pullback of a base
    one-form; for local connections it is omega - omega_ref.
    """
    if A.bundle != A_ref.bundle:
        raise BundleMismatch("connections live on different bundles")
    _require_abelian(A.bundle.group)
    if not (isinstance(A, TrivialLocalConnection)
            and isinstance(A_ref, TrivialLocalConnection)):
        raise UnsupportedPresentation(
            "descent needs local connections on a trivial bundle")

    def form(m_coords, v_components):
        return A.value(m_coords, v_components) - A_ref.value(m_coords,
                                                            v_components)

    return TrivialLocalConnection(A.bundle, form)


def flat_integrate_local(A: TrivialLocalConnection, domain_radius: float,
                         closedness_samples=None) -> TrivialLocalDiscrete:
    """Flat discrete connection generated by a local connection with a
    closed one-form, on pairs closer than domain_radius.

    The pair map exponentiates the line integral of omega over the straight
    segment between base points; closedness makes triangle holonomies
    vanish up to quadrature error.  The form must be closed at the (m, u,
    w) stacks `closedness_samples` (`check_closed`), when they are given.
    """
    bundle = A.bundle
    _require_abelian(bundle.group)
    _require_euclidean_base(bundle.base, "flat integration")
    if closedness_samples is not None:
        check_closed(A, closedness_samples)

    increment = primitive_on_segments(A)

    def pair_map(m0, m1):
        return bundle.group.exp(increment(m0, m1))

    return TrivialLocalDiscrete(bundle, pair_map, domain_radius, name="flat")


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


def curvature_matched_integrate(A: ConnectionForm,
                                Ad_ref: DiscreteConnectionForm,
                                A_ref: ConnectionForm,
                                match_samples=None) -> DiscreteConnectionForm:
    """Discrete connection deriving to A, built from a curvature-matched
    reference Ad_ref and its derived connection A_ref: a closed form where
    one is known (`scenarios.derived_pair_map_builtin`), which keeps every
    derivative out of the integrand and the gate, else
    `derivation.derive_connection(Ad_ref)`.

    The descended difference of A and A_ref is closed when the curvatures
    match; its integral over the segment m0 -> m1 between the base points
    of a pair corrects the reference pairwise by exp of that increment, one
    `primitive_on_segments` call per stack of pairs.  Over the (m, u, w)
    stacks `match_samples`, when they are given, the difference's exterior
    derivative must stay within MATCH_TOL.
    """
    if A.bundle != Ad_ref.bundle:
        raise CurvatureMismatch("connection and reference bundles differ")
    bundle = A.bundle
    G = bundle.group
    _require_abelian(G)
    _require_euclidean_base(bundle.base, "curvature-matched integration")

    eps = descend_continuous_difference(A, A_ref)
    if match_samples is not None:
        worst = worst_exterior_defect(eps, match_samples)
        if not worst <= MATCH_TOL:
            raise CurvatureMismatch(
                f"derived curvatures differ: defect {worst:.3e} "
                f"exceeds {MATCH_TOL:.1e}")

    increment = primitive_on_segments(eps)

    def rule(q0, q1):
        return G.compose(eval_discrete(Ad_ref, q0, q1),
                         G.exp(increment(bundles.project(q0),
                                         bundles.project(q1))))

    return ComposedDiscrete(bundle, rule, Ad_ref.domain_radius,
                            name="matched")
