"""Constructions special to abelian structure groups.

With an abelian group, the difference of two connections is invariant
under the action and therefore descends to a one-form on the base.  This
enables two integration routes that need no retraction:

* flat integration -- exponentiate line integrals of a closed one-form to
  get a flat discrete connection;
* curvature-matched integration -- given a reference discrete connection
  whose derived curvature agrees with the target connection's, correct the
  reference by the exponentiated primitive of the descended difference.
  The primitive is anchored at the origin of the base chart; the
  correction exp(f(m1) - f(m0)) does not depend on the anchor.

Both routes integrate over straight segments and require a global
Euclidean base chart (a simply connected base with trivial first
cohomology).

Every one-form here is a `TrivialLocalConnection`, evaluated on stacks by
its `value` (see `numdiff`): ``(d, *stack)`` points and tangents give
``(k, *stack)`` values, so each segment integral evaluates its integrand
once, on all quadrature nodes, and the descended difference of two local
connections evaluates a stack in one call.  A primitive takes a stack of
end points too, so the four stencil points of a derivative cost one
segment integral.  It keeps no state between calls: each call integrates
each distinct end point of its stack once, and a curvature-matched
evaluation joins the end points of its pairs into one such call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import bundles, derivation
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


def _segment_integral(A: TrivialLocalConnection, m0, m1):
    """Integral of the one-form of A over the straight segments m0 -> m1,
    for (d, *stack) endpoints; the integrand takes all nodes at once."""
    m0, m1 = _columns(np.asarray(m0, dtype=float), np.asarray(m1, dtype=float))
    m0, m1 = m0[..., None], m1[..., None]
    direction = m1 - m0

    def integrand(t):
        points = m0 + t * direction
        return A.value(points, np.broadcast_to(direction, points.shape))

    return gauss_legendre_line_integral(integrand, 0.0, 1.0)


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

    def pair_map(m0, m1):
        value = _segment_integral(A, m0, m1)
        return bundle.group.exp(value)

    return TrivialLocalDiscrete(bundle, pair_map, domain_radius, name="flat")


def primitive_on_segments(A: TrivialLocalConnection) -> Callable:
    """f(m) = integral of the one-form of A over the straight segment
    from the origin to m, for a point m or a (d, *stack) stack of them.

    f integrates each distinct column once, in one segment integral, and
    scatters the values back over the stack; a point is a stack of one
    column.  Columns are told apart by their bytes, so 0.0 and -0.0 stay
    apart; a column gets the bits of its own integral (see `numdiff`).
    Nothing is kept between calls.
    """
    origin = np.zeros(A.bundle.base.coord_size)

    def f(m_coords):
        m = np.asarray(m_coords, dtype=float)
        columns = np.ascontiguousarray(m.reshape(len(m), -1).T)
        keys = columns.view(np.dtype((np.void, m.itemsize * len(m)))).ravel()
        distinct, inverse = np.unique(keys, return_inverse=True)
        values = _segment_integral(
            A, origin, distinct.view(float).reshape(-1, len(m)).T)
        return values[:, inverse].reshape(values.shape[:1] + m.shape[1:])

    return f


def curvature_matched_integrate(A: ConnectionForm,
                                Ad_ref: DiscreteConnectionForm,
                                match_samples=None) -> DiscreteConnectionForm:
    """Discrete connection deriving to A, built from a curvature-matched
    reference discrete connection.

    The descended difference of A and the derived reference connection is
    closed when the curvatures match; its primitive f corrects the
    reference pairwise by exp(f(m1) - f(m0)).  Each evaluation computes
    f(m1) and f(m0) in one call of f, on the end points joined on a
    trailing axis, so each distinct end point of a stack of pairs is
    integrated once.  Over the (m, u, w) stacks `match_samples`, when they
    are given, the difference's exterior derivative must stay within
    MATCH_TOL.
    """
    if A.bundle != Ad_ref.bundle:
        raise CurvatureMismatch("connection and reference bundles differ")
    bundle = A.bundle
    G = bundle.group
    _require_abelian(G)
    _require_euclidean_base(bundle.base, "curvature-matched integration")

    A_ref = derivation.derive_connection(Ad_ref)
    eps = descend_continuous_difference(A, A_ref)
    if match_samples is not None:
        worst = worst_exterior_defect(eps, match_samples)
        if not worst <= MATCH_TOL:
            raise CurvatureMismatch(
                f"derived curvatures differ: defect {worst:.3e} "
                f"exceeds {MATCH_TOL:.1e}")

    f = primitive_on_segments(eps)

    def rule(q0, q1):
        base_value = eval_discrete(Ad_ref, q0, q1)
        m1, m0 = np.broadcast_arrays(*_columns(bundles.project(q1),
                                               bundles.project(q0)))
        ends = f(np.stack((m1, m0), axis=-1))
        return G.compose(base_value, G.exp(ends[..., 0] - ends[..., 1]))

    return ComposedDiscrete(bundle, rule, Ad_ref.domain_radius,
                            name="matched")
