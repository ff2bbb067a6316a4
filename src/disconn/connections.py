"""Connection one-forms on principal bundles.

Presentations:

* ``TrivialLocalConnection`` -- a trivial bundle together with an
  algebra-valued one-form ``omega`` on the base; the full form is
  ``A(dm (+) xi) = Ad_g omega_m(dm) + xi`` with the fiber velocity ``xi``
  right-trivialized.
* ``HopfCanonicalConnection`` -- the round connection on S^3 -> S^2,
  ``A_q(v) = Im <q, v>`` in the Hermitian pairing on C^2.
* ``HopfPerturbedConnection`` -- canonical plus ``epsilon`` times the
  pullback of ``beta = x dy - y dx`` from the base sphere.
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
from .groups import AlgebraElement, GroupElement
from .manifolds import EuclideanChart, TangentVector
from .numdiff import DerivativeSpec, exterior_derivative


class ConnectionForm:
    bundle: PrincipalBundle


@dataclass(frozen=True)
class TrivialLocalConnection(ConnectionForm):
    bundle: TrivialBundle
    omega: Callable  # (base coords, base tangent components) -> algebra vector
    name: str = "local"


@dataclass(frozen=True)
class HopfCanonicalConnection(ConnectionForm):
    bundle: HopfBundle


@dataclass(frozen=True)
class HopfPerturbedConnection(ConnectionForm):
    bundle: HopfBundle
    epsilon: float


@dataclass(frozen=True)
class GenericConnection(ConnectionForm):
    bundle: PrincipalBundle
    rule: Callable  # BundleTangent -> AlgebraElement
    name: str = "generic"


def _hopf_canonical_value(q, v):
    # Im <q, v> for q, v in R^4 ~ C^2 with the first slot conjugated.
    a, b, c, d = q
    va, vb, vc, vd = v
    return a * vb - b * va + c * vd - d * vc


def _sphere_beta(m, u):
    # beta = x dy - y dx restricted to S^2.
    return m[0] * u[1] - m[1] * u[0]


def eval_connection(A: ConnectionForm, v: BundleTangent) -> AlgebraElement:
    q = v.base_point
    if q.bundle != A.bundle:
        raise BundleMismatch("tangent does not live on the connection's bundle")
    if isinstance(A, TrivialLocalConnection):
        base, fiber = bundles.split_trivial(v)
        omega_val = np.asarray(A.omega(q.base_point.coords, base),
                               dtype=float).reshape(A.bundle.group.dim)
        moved = groups.adjoint(q.group_part,
                               AlgebraElement.of(A.bundle.group, omega_val))
        return AlgebraElement.of(A.bundle.group, moved.vector + fiber)
    if isinstance(A, HopfCanonicalConnection):
        return AlgebraElement.of(
            A.bundle.group, [_hopf_canonical_value(q.ambient, v.components)])
    if isinstance(A, HopfPerturbedConnection):
        base_val = _hopf_canonical_value(q.ambient, v.components)
        m = bundles.project(q).coords
        u = bundles.tangent_projection(v).components
        return AlgebraElement.of(
            A.bundle.group, [base_val + A.epsilon * _sphere_beta(m, u)])
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


def curvature(A: ConnectionForm, u: TangentVector, w: TangentVector,
              spec: DerivativeSpec = DerivativeSpec()) -> AlgebraElement:
    """Curvature two-form on a pair of base tangent vectors at one point."""
    if np.linalg.norm(u.base.coords - w.base.coords) > 1e-12:
        raise ValueError("curvature needs tangents at a common base point")
    if isinstance(A, TrivialLocalConnection):
        if not isinstance(A.bundle.base, EuclideanChart):
            raise UnsupportedPresentation(
                "local curvature needs a Euclidean base chart")
        d_omega = exterior_derivative(A.omega, u.base.coords, u.components,
                                      w.components, spec)
        lie = groups.bracket(
            AlgebraElement.of(A.bundle.group, A.omega(u.base.coords, u.components)),
            AlgebraElement.of(A.bundle.group, A.omega(w.base.coords, w.components)))
        return AlgebraElement.of(A.bundle.group, d_omega + 0.5 * lie.vector)
    if isinstance(A, (HopfCanonicalConnection, HopfPerturbedConnection)):
        # The exterior derivative of the canonical form is the constant
        # ambient two-form 2(da^db + dc^dd); evaluate it on horizontal lifts.
        q = bundles.section_over(A.bundle, u.base)
        hu = horizontal_lift(A, q, u).components
        hw = horizontal_lift(A, q, w).components
        value = 2.0 * (hu[0] * hw[1] - hu[1] * hw[0]
                       + hu[2] * hw[3] - hu[3] * hw[2])
        if isinstance(A, HopfPerturbedConnection):
            # d(pullback of beta) evaluated on lifts is d beta on u, w.
            uc, wc = u.components, w.components
            value += A.epsilon * 2.0 * (uc[0] * wc[1] - uc[1] * wc[0])
        return AlgebraElement.of(A.bundle.group, [value])
    raise UnsupportedPresentation(
        "curvature is not available for this presentation")


def verticality_defect(A: ConnectionForm, q: BundlePoint,
                       xi: AlgebraElement) -> float:
    """|A(generator(q, xi)) - xi|."""
    value = eval_connection(A, bundles.infinitesimal_generator(q, xi))
    return float(np.linalg.norm(value.vector - xi.vector))


def equivariance_defect(A: ConnectionForm, g: GroupElement,
                        v: BundleTangent) -> float:
    """|A(g . v) - Ad_g A(v)|."""
    moved = eval_connection(A, bundles.tangent_lift_action(g, v))
    expected = groups.adjoint(g, eval_connection(A, v))
    return float(np.linalg.norm(moved.vector - expected.vector))
