"""Constructions special to abelian structure groups.

With an abelian group, the difference of two connections is invariant
under the action and therefore descends to a one-form on the base.  This
enables two integration routes that need no retraction:

* flat integration -- exponentiate line integrals of a closed one-form to
  get a flat discrete connection;
* curvature-matched integration -- given a reference discrete connection
  whose derived curvature agrees with the target connection's, correct the
  reference by the exponentiated primitive of the descended difference.

Both routes integrate over straight segments and require a global
Euclidean base chart (a simply connected base with trivial first
cohomology).

One-forms take stacks (see `numdiff`): `BaseOneForm.value` maps
``(d, *stack)`` points and tangents to ``(k, *stack)`` values, so each
segment integral evaluates its integrand once, on all quadrature nodes.
With a stackable group (`Translation`, `Torus`), the descended difference
of two local connections and the connection derived from a local discrete
form evaluate a stack in one call; other presentations and groups are
evaluated column by column.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import bundles, derivation, groups
from .bundles import DomainSpec, TrivialBundle
from .connections import (ConnectionForm, TrivialLocalConnection,
                          eval_connection)
from .discrete import (ComposedDiscrete, DiscreteConnectionForm,
                       TrivialLocalDiscrete, eval_discrete)
from .errors import (CurvatureMismatch, DescentFailure, NotClosed,
                     UnsupportedGroup, UnsupportedPresentation)
from .groups import AlgebraElement, GroupKind
from .manifolds import (EuclideanChart, ManifoldKind, ManifoldPoint,
                        TangentVector)
from .numdiff import (DerivativeSpec, by_column, exterior_derivative,
                      gauss_legendre_line_integral, on_stack, worst_defect)

QUADRATURE_ORDER = 8
QUADRATURE_PANELS = 16
# Primitive values kept per primitive.  Curvature-matched evaluations look
# a point up again within a few lookups, so a small bound keeps every hit.
PRIMITIVE_CACHE_SIZE = 64


@dataclass(frozen=True)
class BaseOneForm:
    """Algebra-valued one-form on the base manifold."""

    base: ManifoldKind
    group: GroupKind
    form: Callable  # (m coords, v components) -> algebra vector
    name: str = "one_form"

    def value(self, m_coords, v_components):
        """(k, *stack) values at (d, *stack) points and tangents; a single
        point gives a (k,) vector."""
        m = np.asarray(m_coords, dtype=float)
        v = np.asarray(v_components, dtype=float)
        stack = np.broadcast_shapes(m.shape[1:], v.shape[1:])
        return on_stack(self.form(m, v), self.group.dim, stack)


def _require_abelian(kind: GroupKind):
    if not kind.abelian:
        raise UnsupportedGroup(
            "descent of connection differences needs an abelian group")


def _require_euclidean_base(base: ManifoldKind, what: str):
    if not isinstance(base, EuclideanChart):
        raise UnsupportedPresentation(
            f"{what} integrates over straight segments and needs a global "
            "Euclidean base chart")


def exterior_defect(omega: BaseOneForm, m_coords, u, w,
                    spec: DerivativeSpec = DerivativeSpec()) -> float:
    """|d omega (u, w)| at m for constant-coefficient extensions of u, w;
    NaN when the difference step is lost to rounding at m."""
    m, u, w = (np.asarray(x, dtype=float) for x in (m_coords, u, w))
    return float(np.linalg.norm(
        exterior_derivative(omega.value, m, u, w, spec)))


def _worst_exterior_defect(omega: BaseOneForm, samples,
                           spec: DerivativeSpec) -> float:
    """Worst |d omega (u, w)| over (m, u, w) samples, evaluated as one
    stack."""
    samples = list(samples)
    if not samples:
        return 0.0
    m, u, w = (np.asarray(np.stack(column, axis=-1), dtype=float)
               for column in zip(*samples))
    return worst_defect(np.linalg.norm(
        exterior_derivative(omega.value, m, u, w, spec), axis=0))


def check_closed(omega: BaseOneForm, samples, tol: float = 1e-8,
                 spec: DerivativeSpec = DerivativeSpec()) -> float:
    """Worst exterior-derivative defect over (m, u, w) samples; raise if
    the form fails to be closed at the tolerance."""
    worst = _worst_exterior_defect(omega, samples, spec)
    if not worst <= tol:
        raise NotClosed(f"d omega defect {worst:.3e} exceeds {tol:.1e}")
    return worst


def descend_continuous_difference(A: ConnectionForm, A_ref: ConnectionForm,
                                  check_samples=(),
                                  tol: float = 1e-8) -> BaseOneForm:
    """One-form on the base representing A - A_ref.

    The difference of two connections on one bundle is horizontal, and with
    an abelian group also invariant, so it is the pullback of a base
    one-form.  Optional (q, v) samples check fiber independence.
    """
    if A.bundle != A_ref.bundle:
        raise DescentFailure("connections live on different bundles")
    bundle = A.bundle
    _require_abelian(bundle.group)

    if (isinstance(A, TrivialLocalConnection)
            and isinstance(A_ref, TrivialLocalConnection)
            and bundle.group.stackable):
        def form(m_coords, v_components):
            return (_local_value_at_identity(A, m_coords, v_components)
                    - _local_value_at_identity(A_ref, m_coords, v_components))
    else:
        def at_point(m_coords, v_components):
            point = ManifoldPoint.of(bundle.base, m_coords)
            q = bundles.section_over(bundle, point)
            v = bundles.any_lift(q, TangentVector(
                point, bundle.base.project_tangent(point.coords,
                                                   v_components)))
            return (eval_connection(A, v).vector
                    - eval_connection(A_ref, v).vector)

        def form(m_coords, v_components):
            return by_column(at_point, m_coords, v_components)

    omega = BaseOneForm(bundle.base, bundle.group, form, name="difference")

    for q, v in check_samples:
        direct = (eval_connection(A, v).vector
                  - eval_connection(A_ref, v).vector)
        pm = bundles.tangent_projection(v)
        via_base = omega.value(pm.base.coords, pm.components)
        if np.linalg.norm(direct - via_base) > tol:
            raise DescentFailure(
                "difference is not constant along fibers: defect "
                f"{float(np.linalg.norm(direct - via_base)):.3e}")
    return omega


def _local_value_at_identity(A: TrivialLocalConnection, m_coords,
                             v_components):
    """A on the base lift of v at the identity section over m, for
    (d, *stack) stacks and a stackable group, with the arithmetic of
    `eval_connection`."""
    base, group = A.bundle.base, A.bundle.group
    m = base.validate(m_coords)
    v = base.project_tangent(m, v_components)
    stack = m.shape[1:]
    lift = (group.dim,) + (1,) * len(stack)
    omega_val = on_stack(A.omega(m, v), group.dim, stack)
    return (group.adjoint_data(group.identity_data().reshape(lift), omega_val)
            + np.zeros(lift))


def _segment_integral(omega: BaseOneForm, m0, m1, order, panels):
    """Integral of omega over the straight segments m0 -> m1, for
    (d, *stack) endpoints; the integrand takes all nodes at once."""
    m0 = np.asarray(m0, dtype=float)[..., None]
    m1 = np.asarray(m1, dtype=float)[..., None]
    direction = m1 - m0

    def integrand(t):
        points = m0 + t * direction
        return omega.value(points, np.broadcast_to(direction, points.shape))

    return gauss_legendre_line_integral(integrand, 0.0, 1.0,
                                        order=order, panels=panels)


def flat_integrate_local(bundle: TrivialBundle, omega: BaseOneForm,
                         domain: DomainSpec,
                         closedness_samples=(), closedness_tol: float = 1e-8,
                         order: int = QUADRATURE_ORDER,
                         panels: int = QUADRATURE_PANELS) -> TrivialLocalDiscrete:
    """Flat discrete connection generated by a closed one-form.

    The pair map exponentiates the line integral of omega over the straight
    segment between base points; closedness makes triangle holonomies
    vanish up to quadrature error.
    """
    _require_abelian(bundle.group)
    _require_euclidean_base(bundle.base, "flat integration")
    if closedness_samples:
        check_closed(omega, closedness_samples, tol=closedness_tol)

    def pair_map(m0, m1):
        value = _segment_integral(omega, m0, m1, order, panels)
        return bundle.group.exp_data(value)

    return TrivialLocalDiscrete(bundle, pair_map, domain, name="flat")


def primitive_on_segments(omega: BaseOneForm, anchor,
                          order: int = QUADRATURE_ORDER,
                          panels: int = QUADRATURE_PANELS) -> Callable:
    """f(m) = integral of omega over the straight segment anchor -> m.

    Values are cached per point in a least-recently-used cache of
    PRIMITIVE_CACHE_SIZE entries; `f.cache_info()` reports its use.
    """
    anchor = np.asarray(anchor, dtype=float)

    @functools.lru_cache(maxsize=PRIMITIVE_CACHE_SIZE)
    def integral_to(key):
        return _segment_integral(omega, anchor, np.frombuffer(key), order,
                                 panels)

    def f(m_coords):
        return integral_to(np.asarray(m_coords, dtype=float).tobytes())

    f.cache_info = integral_to.cache_info
    return f


def derived_curvature_mismatch(A: ConnectionForm,
                               Ad_ref: DiscreteConnectionForm,
                               samples,
                               spec: DerivativeSpec = DerivativeSpec()) -> float:
    """Worst defect of d epsilon = 0 for the descended difference of A and
    the connection derived from Ad_ref, over (m, u, w) samples.

    Vanishing exterior derivative of the difference says the two curvatures
    agree, which is exactly the obstruction to curvature-matched
    integration.
    """
    A_ref = derivation.derive_connection(Ad_ref, spec)
    eps = descend_continuous_difference(A, A_ref)
    return _worst_exterior_defect(eps, samples, spec)


def curvature_matched_integrate(A: ConnectionForm,
                                Ad_ref: DiscreteConnectionForm,
                                anchor=None,
                                match_samples=(), match_tol: float = 1e-6,
                                spec: DerivativeSpec = DerivativeSpec(),
                                order: int = QUADRATURE_ORDER,
                                panels: int = QUADRATURE_PANELS
                                ) -> DiscreteConnectionForm:
    """Discrete connection deriving to A, built from a curvature-matched
    reference discrete connection.

    The descended difference of A and the derived reference connection is
    closed when the curvatures match; its primitive f corrects the
    reference pairwise by exp(f(m1) - f(m0)).
    """
    if A.bundle != Ad_ref.bundle:
        raise CurvatureMismatch("connection and reference bundles differ")
    bundle = A.bundle
    _require_abelian(bundle.group)
    _require_euclidean_base(bundle.base, "curvature-matched integration")

    if match_samples:
        worst = derived_curvature_mismatch(A, Ad_ref, match_samples, spec)
        if not worst <= match_tol:
            raise CurvatureMismatch(
                f"derived curvatures differ: defect {worst:.3e} "
                f"exceeds {match_tol:.1e}")

    A_ref = derivation.derive_connection(Ad_ref, spec)
    eps = descend_continuous_difference(A, A_ref)
    if anchor is None:
        anchor = np.zeros(bundle.base.coord_size)
    f = primitive_on_segments(eps, anchor, order=order, panels=panels)

    def rule(q0, q1):
        base_value = eval_discrete(Ad_ref, q0, q1)
        correction = groups.exp(AlgebraElement.of(
            bundle.group,
            f(bundles.project(q1).coords) - f(bundles.project(q0).coords)))
        return groups.compose(base_value, correction)

    return ComposedDiscrete(bundle, rule, Ad_ref.domain, name="matched")
