"""Connection one-forms on principal bundles.

A connection value is an algebra vector, a plain ``(dim,)`` float array of
the bundle's structure group; `eval_connection` and `curvature` return
one.

Presentations:

* ``TrivialLocalConnection`` -- a trivial bundle together with an
  algebra-valued one-form ``omega`` on the base; the full form is
  ``A(dm (+) xi) = Ad_g omega_m(dm) + xi`` with the fiber velocity ``xi``
  right-trivialized.  Its `value` evaluates ``omega`` on stacks (see
  `numdiff`): ``(d, *stack)`` points and tangents give ``(k, *stack)``
  values.
* ``HopfConnection`` -- the round connection on S^3 -> S^2,
  ``A_q(v) = Im <q, v>`` in the Hermitian pairing on C^2, plus
  ``epsilon`` times the pullback of ``beta = x dy - y dx`` from the base
  sphere; ``epsilon = 0`` is the canonical connection, whose evaluation
  never projects to the base.
* ``GenericConnection`` -- an opaque evaluation rule, used for forms
  produced by differentiating discrete data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bundles, groups
from .bundles import (BundlePoint, BundleTangent, HopfBundle, PrincipalBundle,
                      TrivialBundle)
from .errors import BundleMismatch, UnsupportedPresentation
from .groups import GroupElement
from .manifolds import EuclideanChart, TangentVector
from .numdiff import exterior_derivative, on_stack


class ConnectionForm:
    bundle: PrincipalBundle


@dataclass(frozen=True)
class TrivialLocalConnection(ConnectionForm):
    bundle: TrivialBundle
    omega: Callable  # (base coords, base tangent components) -> algebra vector

    def value(self, m_coords, v_components):
        """omega as (k, *stack) values at (d, *stack) points and tangents;
        a single point gives a (k,) vector."""
        m = np.asarray(m_coords, dtype=float)
        v = np.asarray(v_components, dtype=float)
        stack = np.broadcast_shapes(m.shape[1:], v.shape[1:])
        return on_stack(self.omega(m, v), self.bundle.group.dim, stack)


@dataclass(frozen=True)
class HopfConnection(ConnectionForm):
    bundle: HopfBundle
    epsilon: float = 0.0


@dataclass(frozen=True)
class GenericConnection(ConnectionForm):
    bundle: PrincipalBundle
    rule: Callable  # BundleTangent -> algebra vector


def _hopf_canonical_value(q, v):
    # Im <q, v> for q, v in R^4 ~ C^2 with the first slot conjugated.
    a, b, c, d = q
    va, vb, vc, vd = v
    return a * vb - b * va + c * vd - d * vc


def _sphere_beta(m, u):
    # beta = x dy - y dx restricted to S^2.
    return m[0] * u[1] - m[1] * u[0]


def eval_connection(A: ConnectionForm, v: BundleTangent) -> np.ndarray:
    q = v.base_point
    if q.bundle != A.bundle:
        raise BundleMismatch("tangent does not live on the connection's bundle")
    if isinstance(A, TrivialLocalConnection):
        base, fiber = bundles.split_trivial(v)
        omega_val = A.value(q.base_point, base)
        return groups.adjoint(q.group_part, omega_val) + fiber
    if isinstance(A, HopfConnection):
        value = _hopf_canonical_value(q.ambient, v.components)
        if A.epsilon:
            m = bundles.project(q)
            u = bundles.tangent_projection(v).components
            value = value + A.epsilon * _sphere_beta(m, u)
        return np.array([value], dtype=float)
    if isinstance(A, GenericConnection):
        return A.rule(v)
    raise UnsupportedPresentation(f"unknown connection presentation {A!r}")


def horizontal_lift(A: ConnectionForm, q: BundlePoint,
                    delta_m: TangentVector) -> BundleTangent:
    """The unique tangent at q over delta_m annihilated by A."""
    some = bundles.any_lift(q, delta_m)
    xi = eval_connection(A, some)
    vertical = bundles.infinitesimal_generator(q, xi)
    return BundleTangent(q, some.components - vertical.components)


def curvature(A: ConnectionForm, u: TangentVector,
              w: TangentVector) -> np.ndarray:
    """Curvature two-form on a pair of base tangent vectors at one point.

    For a local connection, Omega(u, w) = d omega(u, w) - [omega(u),
    omega(w)] with d omega(u, w) = u(omega(w)) - w(omega(u)): the sign of
    the bracket follows from the left action, A = Ad_g omega + (dg) g^{-1},
    under which omega = -h^{-1} dh is flat for every map h into the group.
    With an abelian group the bracket vanishes and is not evaluated.
    """
    if np.linalg.norm(u.base - w.base) > 1e-12:
        raise ValueError("curvature needs tangents at a common base point")
    if isinstance(A, TrivialLocalConnection):
        if not isinstance(A.bundle.base, EuclideanChart):
            raise UnsupportedPresentation(
                "local curvature needs a Euclidean base chart")
        group = A.bundle.group
        d_omega = exterior_derivative(A.value, u.base, u.components,
                                      w.components)
        if group.abelian:
            return d_omega
        return d_omega - groups.bracket(group, A.value(u.base, u.components),
                                        A.value(w.base, w.components))
    if isinstance(A, HopfConnection):
        # The exterior derivative of the canonical form is the constant
        # ambient two-form 2(da^db + dc^dd); evaluate it on horizontal lifts.
        q = bundles.section_over(A.bundle, u.base)
        hu = horizontal_lift(A, q, u).components
        hw = horizontal_lift(A, q, w).components
        value = 2.0 * (hu[0] * hw[1] - hu[1] * hw[0]
                       + hu[2] * hw[3] - hu[3] * hw[2])
        if A.epsilon:
            # d(pullback of beta) evaluated on lifts is d beta on u, w.
            uc, wc = u.components, w.components
            value += A.epsilon * 2.0 * (uc[0] * wc[1] - uc[1] * wc[0])
        return np.array([value], dtype=float)
    raise UnsupportedPresentation(
        "curvature is not available for this presentation")


def verticality_defect(A: ConnectionForm, q: BundlePoint, xi) -> float:
    """|A(generator(q, xi)) - xi|."""
    value = eval_connection(A, bundles.infinitesimal_generator(q, xi))
    return float(np.linalg.norm(value - xi))


def equivariance_defect(A: ConnectionForm, g: GroupElement,
                        v: BundleTangent) -> float:
    """|A(g . v) - Ad_g A(v)|."""
    moved = eval_connection(A, bundles.tangent_lift_action(g, v))
    expected = groups.adjoint(g, eval_connection(A, v))
    return float(np.linalg.norm(moved - expected))
