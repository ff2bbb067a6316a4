"""Differentiating discrete connection data into continuous connections.

The derivation rule differentiates a discrete connection form in its second
slot along the diagonal: the value on a tangent vector v at q is

    d/dt log A_d(q, q(t)) |_{t=0}

for any curve q(t) through q with velocity v.  On trivial bundles the
result is packaged as a genuine local one-form (so curvature is available
downstream); elsewhere it stays an opaque evaluation rule.  The companion
map differentiates discrete horizontal lifts, and the diagram check
confirms that the two constructions produce the same horizontal subspaces.
"""

from __future__ import annotations

import numpy as np

from . import bundles, connections
from .bundles import BundlePoint, BundleTangent, TrivialBundle
from .connections import ConnectionForm, GenericConnection, TrivialLocalConnection
from .discrete import (DiscreteConnectionForm, TrivialLocalDiscrete,
                       discrete_horizontal_lift, eval_discrete)
from .errors import OutsideDomain
from .numdiff import by_column, lost_step, on_stack, richardson_derivative


def pair_derivative(Ad: DiscreteConnectionForm, q: BundlePoint,
                    v: BundleTangent) -> np.ndarray:
    """Second-slot derivative of A_d at (q, q) in the direction v; NaN
    where the smallest difference step along the base is lost to rounding."""

    def f(t):
        value = eval_discrete(Ad, q, bundles.bundle_curve(q, v, t))
        return q.bundle.group.log(value)

    derivative = richardson_derivative(f, check_consistency=True)
    lost = lost_step(bundles.project(q), (bundles.tangent_projection(v),))
    return np.where(lost, np.nan, derivative)


def _local_pair_derivative(Ad: TrivialLocalDiscrete, m_coords,
                           delta_components):
    """omega(m)(delta) = d/dt log C(m, step(m, t delta)) at t = 0 for the
    pair map C of a local discrete form with an abelian group, on
    (d, *stack) stacks.

    This is `pair_derivative` at the identity section with a base
    direction: with an abelian group, composing with the identity and its
    inverse changes no bits, so the value is log(wrap(C)), and the
    validation of the base point, the domain test, the Richardson
    consistency test and the lost-step NaN are the same.
    """
    base, group = Ad.bundle.base, Ad.bundle.group
    m = base.validate(m_coords)
    delta = np.asarray(delta_components, dtype=float).reshape(m.shape)
    stack = m.shape[1:]

    def f(t):
        m_t = base.geodesic_step(m, t * delta)
        dist = np.ravel(base.distance(m, m_t))
        outside = np.flatnonzero(~(dist < Ad.domain.base_radius))
        if outside.size:
            raise OutsideDomain(
                f"pair at base distance {dist[outside[0]]:.4g} "
                f"outside radius {Ad.domain.base_radius:.4g}")
        return group.log(group.wrap(
            on_stack(Ad.pair_map(m, m_t), group.dim, stack)))

    derivative = richardson_derivative(f, check_consistency=True)
    return np.where(lost_step(m, (delta,)), np.nan, derivative)


def derive_connection(Ad: DiscreteConnectionForm) -> ConnectionForm:
    """Continuous connection obtained by differentiating a discrete one.

    On a trivial bundle the result is a local one-form on the base that
    takes (d, *stack) stacks: a local discrete form with an abelian group
    is differentiated through its pair map on the whole stack, any other
    form column by column through `pair_derivative`.
    """
    bundle = Ad.bundle
    if isinstance(Ad, TrivialLocalDiscrete) and bundle.group.abelian:
        def omega(m_coords, delta_components):
            return _local_pair_derivative(Ad, m_coords, delta_components)

        return TrivialLocalConnection(bundle, omega)
    if isinstance(bundle, TrivialBundle):
        def at_point(m_coords, delta_components):
            # Not BundlePoint.trivial: wrapping the identity on a torus
            # would turn its 0.0 into -0.0.
            q = bundles.section_over(bundle, bundle.base.validate(m_coords))
            v = bundles.make_trivial_tangent(
                q, delta_components, np.zeros(bundle.group.dim))
            return pair_derivative(Ad, q, v)

        def omega(m_coords, delta_components):
            return by_column(at_point, m_coords, delta_components)

        return TrivialLocalConnection(bundle, omega)

    def rule(v: BundleTangent):
        return pair_derivative(Ad, v.base_point, v)

    return GenericConnection(bundle, rule)


def derive_horizontal(Ad: DiscreteConnectionForm, q: BundlePoint,
                      delta_m) -> BundleTangent:
    """Derivative of the discrete horizontal lift in its base slot."""
    m, base = bundles.project(q), q.bundle.base

    def f(t):
        stepped = base.geodesic_step(m, t * delta_m)
        return bundles.local_coords(q, discrete_horizontal_lift(Ad, q, stepped))

    comps = richardson_derivative(f, check_consistency=True)
    return BundleTangent(q, comps)


def check_diagram(Ad: DiscreteConnectionForm, q: BundlePoint,
                  delta_m) -> float:
    """Defect between the derived lift and the lift of the derived form."""
    direct = derive_horizontal(Ad, q, delta_m)
    via_form = connections.horizontal_lift(derive_connection(Ad), q,
                                           delta_m)
    return float(np.linalg.norm(direct.components - via_form.components))
