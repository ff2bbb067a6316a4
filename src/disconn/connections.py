"""Connection one-forms on principal bundles.

A connection value is an algebra vector, a plain ``(dim,)`` float array of
the bundle's structure group; `eval_connection` and `curvature` return
one.  Tangents are component arrays, with their point passed beside
them: a bundle tangent as ``(q, v)`` (`eval_connection(A, q, v)`), a base
tangent as ``(m, u)`` (`curvature(A, m, u, w)`).

Presentations:

* ``TrivialLocalConnection`` -- a trivial bundle together with an
  algebra-valued one-form ``omega`` on the base; the full form is
  ``A(dm (+) xi) = Ad_g omega_m(dm) + xi`` with the fiber velocity ``xi``
  right-trivialized.  Its `value` evaluates ``omega`` on stacks (see
  `numdiff`): ``(d, *stack)`` points and tangents give ``(k, *stack)``
  values.  ``omega`` takes the whole stack in one call, whatever the
  group; an so(3)-valued ``omega`` builds its SO(3) elements on the stack
  too.
* ``HopfConnection`` -- the round connection on S^3 -> S^2,
  ``A_q(v) = Im <q, v>`` in the Hermitian pairing on C^2, plus
  ``epsilon`` times the pullback of ``beta = x dy - y dx`` from the base
  sphere; ``epsilon = 0`` is the canonical connection, whose evaluation
  never projects to the base.
* ``GenericConnection`` -- an opaque evaluation rule, used for forms
  produced by differentiating discrete data.

`eval_connection` and `horizontal_lift` take stacks (see `numdiff`): a
point and its tangents share one stack, or the point's stack is a prefix
of the tangents' and broadcasts over them, as in `bundles`.
`horizontal_lifts` gives the lift at a point, or at each point of a
stack, as one matrix: the lifts of the base coordinate vectors.  The
axiom defects take stacks too and give one defect per column.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bundles
from .bundles import BundlePoint, HopfBundle, PrincipalBundle, TrivialBundle
from .errors import BundleMismatch, UnsupportedPresentation
from .manifolds import EuclideanChart
from .numdiff import _column_norm, _columns, exterior_derivative, on_stack


class ConnectionForm:
    bundle: PrincipalBundle


@dataclass(frozen=True)
class TrivialLocalConnection(ConnectionForm):
    bundle: TrivialBundle
    omega: Callable  # (base coords, base tangent components) -> algebra vector

    def value(self, m_coords, v_components):
        """omega as (k, *stack) values at (d, *stack) points and tangents,
        from one call; a single point gives a (k,) vector."""
        m, v = _columns(np.asarray(m_coords, dtype=float),
                        np.asarray(v_components, dtype=float))
        stack = m.shape[1:]
        if stack != v.shape[1:]:
            stack = np.broadcast_shapes(stack, v.shape[1:])
        return on_stack(self.omega(m, v), self.bundle.group.dim, stack)


@dataclass(frozen=True)
class HopfConnection(ConnectionForm):
    bundle: HopfBundle
    epsilon: float = 0.0


@dataclass(frozen=True)
class GenericConnection(ConnectionForm):
    bundle: PrincipalBundle
    rule: Callable  # (BundlePoint, tangent components) -> algebra vector


def _hopf_canonical_value(q, v):
    # Im <q, v> for q, v in R^4 ~ C^2 with the first slot conjugated.
    (a, b, c, d), (va, vb, vc, vd) = _columns(q, v)
    return a * vb - b * va + c * vd - d * vc


def _sphere_beta(m, u):
    # beta = x dy - y dx restricted to S^2.
    m, u = _columns(m, u)
    return m[0] * u[1] - m[1] * u[0]


def eval_connection(A: ConnectionForm, q: BundlePoint, v) -> np.ndarray:
    """A_q(v) for a tangent v at q."""
    if q.bundle != A.bundle:
        raise BundleMismatch("tangent does not live on the connection's bundle")
    if isinstance(A, TrivialLocalConnection):
        base, fiber = bundles.split_trivial(q, v)
        omega_val = A.value(q.base_point, base)
        return q.bundle.group.adjoint(q.group_part, omega_val) + fiber
    if isinstance(A, HopfConnection):
        value = _hopf_canonical_value(q.ambient, v)
        if A.epsilon:
            m = bundles.project(q)
            u = bundles.tangent_projection(q, v)
            value = value + A.epsilon * _sphere_beta(m, u)
        return np.asarray(value, dtype=float)[None]
    return A.rule(q, v)


def horizontal_lift(A: ConnectionForm, q: BundlePoint,
                    delta_m) -> np.ndarray:
    """The unique tangent at q over delta_m annihilated by A."""
    some = bundles.any_lift(q, delta_m)
    xi = eval_connection(A, q, some)
    return some - bundles.infinitesimal_generator(q, xi)


def horizontal_lifts(A: ConnectionForm, q: BundlePoint) -> np.ndarray:
    """The horizontal lifts at q of the k base coordinate vectors, as the
    columns of a (d, k, *stack) matrix L at a stack of points: one
    `horizontal_lift` call on the coordinate vectors, written out in full
    on a trailing axis after the points' stack (not a broadcast view: a
    one-form may stack rows of its own shapes), then one transpose.  The
    lift is linear in the base direction, so `numdiff._matvec(L, u)` is
    the lift of u, to rounding when A is linear in the tangent (local
    one-forms, Hopf)."""
    k = A.bundle.base.coord_size
    stack = q.base_point.shape[1:]
    E = np.empty((k,) + stack + (k,))
    E[...] = np.eye(k).reshape((k,) + (1,) * len(stack) + (k,))
    return horizontal_lift(A, q, E).transpose(
        0, len(stack) + 1, *range(1, len(stack) + 1))


def curvature(A: ConnectionForm, m, u, w) -> np.ndarray:
    """Curvature two-form on a pair of base tangent vectors u, w at m.

    For a local connection, Omega(u, w) = d omega(u, w) - [omega(u),
    omega(w)] with d omega(u, w) = u(omega(w)) - w(omega(u)): the sign of
    the bracket follows from the left action, A = Ad_g omega + (dg) g^{-1},
    under which omega = -h^{-1} dh is flat for every map h into the group.
    With an abelian group the bracket vanishes and is not evaluated.
    """
    if isinstance(A, TrivialLocalConnection):
        if not isinstance(A.bundle.base, EuclideanChart):
            raise UnsupportedPresentation(
                "local curvature needs a Euclidean base chart")
        group = A.bundle.group
        d_omega = exterior_derivative(A.value, m, u, w)
        if group.abelian:
            return d_omega
        return d_omega - group.bracket(A.value(m, u), A.value(m, w))
    if isinstance(A, HopfConnection):
        # The exterior derivative of the canonical form is the constant
        # ambient two-form 2(da^db + dc^dd); evaluate it on horizontal lifts.
        q = bundles.section_over(A.bundle, m)
        hu = horizontal_lift(A, q, u)
        hw = horizontal_lift(A, q, w)
        value = 2.0 * (hu[0] * hw[1] - hu[1] * hw[0]
                       + hu[2] * hw[3] - hu[3] * hw[2])
        if A.epsilon:
            # d(pullback of beta) evaluated on lifts is d beta on u, w.
            value += A.epsilon * 2.0 * (u[0] * w[1] - u[1] * w[0])
        return np.asarray(value, dtype=float)[None]
    raise UnsupportedPresentation(
        "curvature is not available for this presentation")


def verticality_defect(A: ConnectionForm, q: BundlePoint, xi):
    """|A(generator(q, xi)) - xi|, one per column of a stack of points and
    algebra vectors."""
    value = eval_connection(A, q, bundles.infinitesimal_generator(q, xi))
    return _column_norm(value - xi)


def equivariance_defect(A: ConnectionForm, g, q: BundlePoint, v):
    """|A(g . v) - Ad_g A(v)| for a tangent v at q, one per column of
    stacks of points, tangents and group elements."""
    moved = eval_connection(A, bundles.act(g, q),
                            bundles.tangent_lift_action(g, q, v))
    expected = A.bundle.group.adjoint(g, eval_connection(A, q, v))
    return _column_norm(moved - expected)
