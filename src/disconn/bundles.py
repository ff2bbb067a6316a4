"""Principal bundle instances.

Two families are instantiated:

* trivial bundles ``base x group`` with the left action ``h.(m, g) = (m, h g)``;
* the Hopf bundle S^3 -> S^2, with S^3 in R^4 identified with C^2 via
  ``z1 = q0 + i q1``, ``z2 = q2 + i q3`` and the circle acting by a common
  phase on both complex coordinates.

Base points are coordinate arrays, group parts are group element data
(see `groups`) and Hopf points unit arrays in R^4, the bundle's
``total_space``; `BundlePoint.trivial` and `BundlePoint.hopf` validate
the values that enter, and the bundle operations use the bare
constructor.  A group element acting on a point is its data array; the
structure group that reads it is ``q.bundle.group``.

A tangent is its components array, with its point passed beside it: a
base tangent at ``m`` as in `manifolds` (`any_lift` takes one and
`tangent_projection` returns one), a bundle tangent at ``q`` as
``(q, v)``.  Tangents on trivial bundles carry a base block (ambient/chart
components on the base) followed by a fiber block holding the
right-trivialized velocity, i.e. an algebra vector.  Hopf tangents are
ambient R^4 vectors orthogonal to the point.  A Hopf tangent over a base
direction delta is the closed form J^T delta / 4, with J the Jacobian of
the projection (`any_lift`); it is horizontal for the canonical
connection.

Stacks (see `numdiff`).  A point's arrays may carry a trailing stack,
``(d, *stack)``, and so may tangents and group elements; the bundle
operations act column by column.  A point and the tangents attached to it
(the ``q`` of `any_lift`, `tangent_projection` and
`infinitesimal_generator`, the ``q0`` of `local_coords`), or two points,
share one stack, or the shorter stack is a prefix of the longer one and
broadcasts over it (`numdiff._columns`); a single point or element is the
empty prefix.  The base and fiber blocks of `make_trivial_tangent` share
one stack, or one of them is a single vector.  `join` stacks rows of
points that share one stack on a new trailing axis, so that several pairs
go through one call.  Every point carries phi(q) in
``base_point``, which `project` returns, read-only on Hopf.  A Hopf point
built from raw coordinates (`BundlePoint.hopf`, a great-circle or chart
step, `bundle_curve`) projects them as it is built; one built over a
known base point keeps that one: `section_over(m)` keeps (a copy of) m,
`act` keeps its point's, since phi(g q) = phi(q) exactly, and `join`
joins each column's, so joined points still give the bits of separate
ones.  The Hopf projection Jacobian is applied as explicit sums over the
coordinate axis, the same operations for one column or a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BundleMismatch, NotSameFiber
from .groups import GroupKind, Torus
from .manifolds import ManifoldKind, Sphere
from .numdiff import _column_norm, _columns, _largest


class PrincipalBundle:
    group: GroupKind
    base: ManifoldKind


@dataclass(frozen=True)
class TrivialBundle(PrincipalBundle):
    base: ManifoldKind
    group: GroupKind


@dataclass(frozen=True)
class HopfBundle(PrincipalBundle):
    base = Sphere(3)
    group = Torus(1)
    total_space = Sphere(4)


@dataclass(frozen=True)
class BundlePoint:
    bundle: PrincipalBundle
    base_point: np.ndarray               # phi(q), read-only on Hopf
    group_part: np.ndarray = None        # trivial bundles
    ambient: np.ndarray = None           # Hopf

    @staticmethod
    def trivial(bundle, m, g):
        if not isinstance(bundle, TrivialBundle):
            raise ValueError("expected a trivial bundle")
        return BundlePoint(bundle, bundle.base.validate(m),
                           bundle.group.wrap(g))

    @staticmethod
    def hopf(bundle, ambient):
        return _hopf_point(bundle, bundle.total_space.validate(ambient))


def _hopf_point(bundle, ambient) -> BundlePoint:
    """The Hopf point at a unit array, unvalidated, over its projection."""
    return BundlePoint(bundle, _read_only(hopf_projection_coords(ambient)),
                       ambient=ambient)


def _read_only(m):
    m.flags.writeable = False
    return m


def split_trivial(q: BundlePoint, v) -> tuple:
    """(base block, fiber block) of a tangent v at q on a trivial bundle."""
    n = q.bundle.base.coord_size
    return v[:n], v[n:]


def make_trivial_tangent(q: BundlePoint, base_components,
                         fiber_vector) -> np.ndarray:
    base = np.asarray(base_components, dtype=float)
    base = base.reshape((q.bundle.base.coord_size,) + base.shape[1:])
    fiber = np.asarray(fiber_vector, dtype=float)
    fiber = fiber.reshape((q.bundle.group.dim,) + fiber.shape[1:])
    if base.shape[1:] == fiber.shape[1:]:
        return np.concatenate([base, fiber])
    # A single vector (the zero fiber or base of a lift) takes the other
    # block's stack as it is assigned.
    if base.ndim == 1:
        stack = fiber.shape[1:]
    elif fiber.ndim == 1:
        stack = base.shape[1:]
    else:
        raise ValueError("the blocks of a tangent have different stacks")
    v = np.empty((len(base) + len(fiber),) + stack)
    for block, x in ((v[:len(base)], base), (v[len(base):], fiber)):
        block[...] = x.reshape(x.shape + (1,) * (v.ndim - x.ndim))
    return v


def join(*rows) -> tuple:
    """Points stacked on a new trailing axis, one point per row: a row of
    k points gives a point whose stack is (*stack, k), with the row's
    point j at index j of the new axis.  Every point of every row has the
    one stack, as the pairs a check builds on its sample stack do, and is
    assigned as it is.  The points must live on one bundle, and the
    joined arrays are read-only."""
    points = [q for row in rows for q in row]
    bundle = points[0].bundle
    if any(q.bundle != bundle for q in points):
        raise BundleMismatch("points live on different bundles")
    if isinstance(bundle, TrivialBundle):
        # (field, rank of one value): a group element may be a matrix.
        fields = (("base_point", 1),
                  ("group_part", np.ndim(bundle.group.identity())))
    else:
        fields = (("base_point", 1), ("ambient", 1))
    stacks = {getattr(q, name).shape[rank:]
              for q in points for name, rank in fields}
    if len(stacks) != 1:
        raise ValueError("joined points have different stacks")
    (stack,) = stacks

    def joined(row, name, rank):
        first = getattr(row[0], name)
        out = np.empty(first.shape[:rank] + stack + (len(row),))
        for j, q in enumerate(row):
            out[..., j] = getattr(q, name)
        return _read_only(out)

    return tuple(BundlePoint(bundle, **{name: joined(row, name, rank)
                                        for name, rank in fields})
                 for row in rows)


# ---------------------------------------------------------------------------
# Hopf helpers

def _hopf_rotate(q, theta):
    # Multiplication by e^{i theta} on both complex coordinates, written
    # out in real and imaginary parts.  The rows broadcast, so a stack of
    # angles turns the columns of a stack of points one by one, or one
    # point into a stack.
    c, s = np.cos(theta), np.sin(theta)
    a, b, x, y = q
    return np.array([c * a - s * b, s * a + c * b, c * x - s * y,
                     s * x + c * y])


def _hopf_i_times(q):
    # Multiplication by i on both complex coordinates.
    return np.array([-q[1], q[0], -q[3], q[2]])


def hopf_projection_coords(q):
    a, b, c, d = q
    return np.array([2.0 * (a * c + b * d),
                     2.0 * (b * c - a * d),
                     a * a + b * b - c * c - d * d])


def _hopf_push(q, v):
    """J v for the (3, 4) Jacobian J of `hopf_projection_coords` at q, as
    explicit sums; q and v share a stack, or the stack of q is a prefix of
    that of v."""
    (a, b, c, d), (va, vb, vc, vd) = _columns(q, v)
    return 2.0 * np.array([c * va + d * vb + a * vc + b * vd,
                           -d * va + c * vb + b * vc - a * vd,
                           a * va + b * vb - c * vc - d * vd])


def _hopf_pull(q, w):
    """J^T w at q for w in R^3, as explicit sums, stacked as `_hopf_push`."""
    (a, b, c, d), (x, y, z) = _columns(q, w)
    return 2.0 * np.array([c * x - d * y + a * z,
                           d * x + c * y + b * z,
                           a * x + b * y - c * z,
                           b * x - a * y - d * z])


def hopf_section(m_coords):
    """A point of S^3 over the given point of S^2, or a (4, *stack) stack
    of them over a (3, *stack) stack.  A column takes the chart around the
    north pole when z > -0.5 and the one around the south pole otherwise."""
    x, y, z = np.asarray(m_coords, dtype=float)
    north = z > -0.5
    # r = sqrt((1 + z) / 2) on the north chart and sqrt((1 - z) / 2) on the
    # south one, at least 1 / 2 either way: no column divides by zero, and
    # the sign +-1 multiplies z exactly, so each chart keeps its own bits.
    r = np.sqrt((1.0 + (2.0 * north - 1.0) * z) / 2.0)
    re, im = x / (2.0 * r), y / (2.0 * r)
    zero = 0.0 * r
    q = np.array([re, im, r, zero])
    np.copyto(q, np.array([r, zero, re, -im]), where=north)
    return q


# ---------------------------------------------------------------------------
# Bundle operations

def project(q: BundlePoint) -> np.ndarray:
    return q.base_point


def act(g, q: BundlePoint) -> BundlePoint:
    if isinstance(q.bundle, TrivialBundle):
        return BundlePoint(q.bundle, q.base_point,
                           q.bundle.group.compose(g, q.group_part))
    # phi(g q) = phi(q) exactly, so the moved point keeps q's base point.
    return BundlePoint(q.bundle, q.base_point,
                       ambient=_hopf_rotate(q.ambient, _circle_angle(g)))


def _circle_angle(g):
    """The angle of a circle element (1,), or the angles of a (1, *stack)
    stack."""
    g = np.asarray(g, dtype=float)
    return g.reshape((1,) + g.shape[1:])[0]


def fiber_translation(q1: BundlePoint, q2: BundlePoint) -> np.ndarray:
    """The unique g with act(g, q1) = q2, defined for points in one fiber."""
    m1, m2 = project(q1), project(q2)
    if _largest(q1.bundle.base.distance(m1, m2)) > 1e-9:
        raise NotSameFiber("points project to different base points")
    if isinstance(q1.bundle, TrivialBundle):
        G = q1.bundle.group
        return G.compose(q2.group_part, G.inverse(q1.group_part))
    # The Hermitian product conj(z1) w1 + conj(z2) w2 on C^2, written out
    # in real and imaginary parts as complex arithmetic computes them.
    (a, b, c, d), (e, f, g, h) = _columns(q1.ambient, q2.ambient)
    re = (a * e + b * f) + (c * g + d * h)
    im = (a * f - b * e) + (c * h - d * g)
    if _largest(np.abs(np.hypot(re, im) - 1.0)) > 1e-9:
        raise NotSameFiber("points are not related by the circle action")
    return q1.bundle.group.wrap([np.arctan2(im, re)])


def infinitesimal_generator(q: BundlePoint, xi) -> np.ndarray:
    if isinstance(q.bundle, TrivialBundle):
        return make_trivial_tangent(
            q, np.zeros(q.bundle.base.coord_size), xi)
    xi = np.asarray(xi, dtype=float)
    theta_dot, iq = _columns(xi.reshape((1,) + xi.shape[1:]),
                            _hopf_i_times(q.ambient))
    return theta_dot * iq


def tangent_lift_action(g, q: BundlePoint, v) -> np.ndarray:
    """The tangent g . v at act(g, q) of a tangent v at q."""
    if isinstance(q.bundle, TrivialBundle):
        base, fiber = split_trivial(q, v)
        return make_trivial_tangent(q, base, q.bundle.group.adjoint(g, fiber))
    return _hopf_rotate(v, _circle_angle(g))


def tangent_projection(q: BundlePoint, v) -> np.ndarray:
    """Components of the pushforward of a tangent v at q along the
    projection to the base, a tangent at project(q)."""
    if isinstance(q.bundle, TrivialBundle):
        base, _ = split_trivial(q, v)
        return np.array(base)
    return _hopf_push(q.ambient, v)


def any_lift(q: BundlePoint, delta_m) -> np.ndarray:
    """Some tangent at q projecting to delta_m (no horizontality implied)."""
    if isinstance(q.bundle, TrivialBundle):
        return make_trivial_tangent(q, delta_m, np.zeros(q.bundle.group.dim))
    # J J^T = 4 I and J q = 2 phi(q), so for delta tangent at phi(q) the
    # minimum-norm solution of J v = delta is J^T delta / 4: it is orthogonal
    # to q and to the fiber direction i q, i.e. horizontal for the canonical
    # connection.  Projecting delta first, onto the tangent plane at the
    # point's base point, keeps the result tangent at q.  So for the
    # matrix L of the lifts of the base coordinate vectors, dphi L is the
    # identity on that plane, and the Newton residual of a reduced
    # retraction has the identity on it as its Jacobian at the anchor
    # (`manifolds`).
    delta = q.bundle.base.project_tangent(project(q), delta_m)
    return _hopf_pull(q.ambient, delta) / 4.0


def bundle_curve(q: BundlePoint, v, t) -> BundlePoint:
    """A smooth curve through q with velocity v, used by difference
    quotients; a stack of times t gives a stack of points, with the time
    axis last."""
    if isinstance(q.bundle, TrivialBundle):
        base, fiber = split_trivial(q, v)
        m = q.bundle.base.geodesic_step(q.base_point,
                                        np.multiply.outer(base, t))
        G = q.bundle.group
        return BundlePoint(q.bundle, m, G.compose(
            G.exp(np.multiply.outer(fiber, t)), q.group_part))
    q_t, tv = _columns(q.ambient, np.multiply.outer(v, t))
    p = q_t + tv
    return _hopf_point(q.bundle, p / _column_norm(p))


def local_coords(q0: BundlePoint, p: BundlePoint) -> np.ndarray:
    """Coordinates of p near q0 whose t-derivative along a curve through q0
    equals the curve's tangent components at q0."""
    if isinstance(q0.bundle, TrivialBundle):
        base_kind = q0.bundle.base
        base = base_kind.project_tangent(
            q0.base_point, np.subtract(*_columns(p.base_point, q0.base_point)))
        G = q0.bundle.group
        rel = G.compose(p.group_part, G.inverse(q0.group_part))
        return make_trivial_tangent(q0, base, G.log(rel))
    diff = np.subtract(*_columns(p.ambient, q0.ambient))
    return q0.bundle.total_space.project_tangent(q0.ambient, diff)


def base_distance(q1: BundlePoint, q2: BundlePoint):
    """Distance of the projections, one per column of a stack."""
    return q1.bundle.base.distance(project(q1), project(q2))


def point_distance(q1: BundlePoint, q2: BundlePoint):
    """Distance on the total space (base distance plus fiber distance),
    one per column of a stack."""
    if q1.bundle != q2.bundle:
        raise BundleMismatch("points live on different bundles")
    if isinstance(q1.bundle, TrivialBundle):
        base = q1.bundle.base.distance(q1.base_point, q2.base_point)
        fiber = q1.bundle.group.distance(q1.group_part, q2.group_part)
        return np.hypot(*_columns(base, fiber))
    return _column_norm(np.subtract(*_columns(q1.ambient, q2.ambient)))


def section_over(bundle: PrincipalBundle, m) -> BundlePoint:
    """A reference point in the fiber over the base point m."""
    if isinstance(bundle, TrivialBundle):
        return BundlePoint(bundle, m, bundle.group.identity())
    m = _read_only(np.array(m, dtype=float))
    return BundlePoint(bundle, m, ambient=hopf_section(m))

