"""Differentiating discrete connection data into continuous connections.

The derivation rule differentiates a discrete connection form in its second
slot along the diagonal: the value on a tangent vector v at q is

    d/dt log A_d(q, q(t)) |_{t=0}

for any curve q(t) through q with velocity v.  On trivial bundles the
result is packaged as a genuine local one-form (so curvature is available
downstream); elsewhere it stays an opaque evaluation rule.  The companion
map differentiates discrete horizontal lifts; the `diagram` check of
`scenarios` confirms that the two constructions produce the same
horizontal subspaces.  A bundle tangent is its components array with its
point passed beside it (`pair_derivative(Ad, q, v)`).

Each derivative evaluates its difference stencil as one stack (see
`numdiff`): one `eval_discrete` call on the four stencil points, so an
integrated form runs one Newton solve for all four.  `pair_derivative`
and `derive_horizontal` also take a stack of points with their tangents
or base directions, and then make that one call for every column and
its stencil together.  Every discrete form, a local pair map included,
is differentiated by the one rule, `pair_derivative`.
"""

from __future__ import annotations

import functools

import numpy as np

from . import bundles
from .bundles import BundlePoint, TrivialBundle
from .connections import ConnectionForm, GenericConnection, TrivialLocalConnection
from .discrete import (DiscreteConnectionForm, discrete_horizontal_lift,
                       eval_discrete)
from .numdiff import _columns, lost_step, richardson_derivative


def pair_derivative(Ad: DiscreteConnectionForm, q: BundlePoint,
                    v) -> np.ndarray:
    """Second-slot derivative of A_d at (q, q) in the direction of the
    tangent v at q, or one per column of a stack of points and tangents;
    NaN where the smallest difference step along the base is lost to
    rounding."""

    def f(t):
        value = eval_discrete(Ad, q, bundles.bundle_curve(q, v, t))
        return q.bundle.group.log(value)

    derivative = richardson_derivative(f, check_consistency=True)
    lost = lost_step(bundles.project(q), (bundles.tangent_projection(q, v),))
    return np.where(lost, np.nan, derivative)


def derive_connection(Ad: DiscreteConnectionForm) -> ConnectionForm:
    """Continuous connection obtained by differentiating a discrete one.

    On a trivial bundle the result is a local one-form on the base that
    takes (d, *stack) stacks: its value is `pair_derivative` at the
    identity section in the direction of the base tangent, on the whole
    stack.  (A one-form with a non-abelian group is evaluated one column
    at a time; see `TrivialLocalConnection.value`.)
    """
    bundle = Ad.bundle
    if isinstance(bundle, TrivialBundle):
        def omega(m_coords, delta_components):
            m, delta = np.broadcast_arrays(*_columns(
                bundle.base.validate(m_coords),
                np.asarray(delta_components, dtype=float)))
            # Not BundlePoint.trivial: wrapping the identity on a torus
            # would turn its 0.0 into -0.0.
            q = bundles.section_over(bundle, m)
            v = bundles.make_trivial_tangent(
                q, delta, np.zeros(bundle.group.dim))
            return pair_derivative(Ad, q, v)

        return TrivialLocalConnection(bundle, omega)

    return GenericConnection(bundle, functools.partial(pair_derivative, Ad))


def derive_horizontal(Ad: DiscreteConnectionForm, q: BundlePoint,
                      delta_m) -> np.ndarray:
    """Derivative of the discrete horizontal lift in its base slot, or one
    per column of a stack of points and base directions."""
    m, base = bundles.project(q), q.bundle.base

    def f(t):
        stepped = base.geodesic_step(m, np.multiply.outer(delta_m, t))
        return bundles.local_coords(q, discrete_horizontal_lift(Ad, q, stepped))

    return richardson_derivative(f, check_consistency=True)
