"""Principal bundle instances.

Two families are instantiated:

* trivial bundles ``base x group`` with the left action ``h.(m, g) = (m, h g)``;
* the Hopf bundle S^3 -> S^2, with S^3 in R^4 identified with C^2 via
  ``z1 = q0 + i q1``, ``z2 = q2 + i q3`` and the circle acting by a common
  phase on both complex coordinates.

Base points are coordinate arrays and Hopf points unit arrays in R^4;
`BundlePoint.trivial` and `BundlePoint.hopf` validate the values that
enter, and the bundle operations use the bare constructor.

Tangent vectors on trivial bundles carry a base block (ambient/chart
components on the base) followed by a fiber block holding the
right-trivialized velocity, i.e. an algebra vector.  Hopf tangents are
ambient R^4 vectors orthogonal to the point.  A Hopf tangent over a base
direction delta is the closed form J^T delta / 4, with J the Jacobian of
the projection (`any_lift`); it is horizontal for the canonical connection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups
from .errors import KindMismatch, NotSameFiber
from .groups import GroupElement, GroupKind, Torus
from .manifolds import ManifoldKind, Sphere, TangentVector


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


@dataclass(frozen=True)
class BundlePoint:
    bundle: PrincipalBundle
    base_point: np.ndarray = None        # trivial bundles
    group_part: GroupElement = None      # trivial bundles
    ambient: np.ndarray = None           # Hopf

    @staticmethod
    def trivial(bundle, m, g):
        if not isinstance(bundle, TrivialBundle):
            raise ValueError("expected a trivial bundle")
        if not isinstance(g, GroupElement):
            g = GroupElement.of(bundle.group, g)
        return BundlePoint(bundle, bundle.base.validate(m), g)

    @staticmethod
    def hopf(bundle, ambient):
        q = np.asarray(ambient, dtype=float).reshape(4)
        if abs(np.linalg.norm(q) - 1.0) > 1e-12:
            raise ValueError("Hopf point must be a unit vector in R^4")
        return BundlePoint(bundle, ambient=q)


@dataclass(frozen=True)
class BundleTangent:
    base_point: BundlePoint
    components: np.ndarray

    @property
    def norm(self):
        return float(np.linalg.norm(self.components))


def split_trivial(v: BundleTangent):
    """(base block, fiber block) of a tangent on a trivial bundle."""
    bundle = v.base_point.bundle
    n = bundle.base.coord_size
    return v.components[:n], v.components[n:]


def make_trivial_tangent(q: BundlePoint, base_components, fiber_vector):
    base = np.asarray(base_components, dtype=float).reshape(
        q.bundle.base.coord_size)
    fiber = np.asarray(fiber_vector, dtype=float).reshape(q.bundle.group.dim)
    return BundleTangent(q, np.concatenate([base, fiber]))


# ---------------------------------------------------------------------------
# Hopf helpers

def _hopf_complex_pairs(q):
    return complex(q[0], q[1]), complex(q[2], q[3])


def _hopf_rotate(q, theta):
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    out = np.empty(4)
    out[0:2] = rot @ q[0:2]
    out[2:4] = rot @ q[2:4]
    return out


def _hopf_i_times(q):
    # Multiplication by i on both complex coordinates.
    return np.array([-q[1], q[0], -q[3], q[2]])


def hopf_projection_coords(q):
    a, b, c, d = q
    return np.array([2.0 * (a * c + b * d),
                     2.0 * (b * c - a * d),
                     a * a + b * b - c * c - d * d])


def hopf_projection_jacobian(q):
    a, b, c, d = q
    return np.array([
        [2 * c, 2 * d, 2 * a, 2 * b],
        [-2 * d, 2 * c, 2 * b, -2 * a],
        [2 * a, 2 * b, -2 * c, -2 * d],
    ])


def hopf_section(m_coords):
    """A point of S^3 over the given point of S^2."""
    x, y, z = m_coords
    if z > -0.5:
        z1 = np.sqrt((1.0 + z) / 2.0)
        re2, im2 = x / (2.0 * z1), -y / (2.0 * z1)
        return np.array([z1, 0.0, re2, im2])
    s = np.sqrt((1.0 - z) / 2.0)
    re1, im1 = x / (2.0 * s), y / (2.0 * s)
    return np.array([re1, im1, s, 0.0])


# ---------------------------------------------------------------------------
# Bundle operations

def project(q: BundlePoint) -> np.ndarray:
    if isinstance(q.bundle, TrivialBundle):
        return q.base_point
    return hopf_projection_coords(q.ambient)


def act(g: GroupElement, q: BundlePoint) -> BundlePoint:
    if g.kind != q.bundle.group:
        raise KindMismatch("group element does not match the structure group")
    if isinstance(q.bundle, TrivialBundle):
        return BundlePoint(q.bundle, q.base_point,
                           groups.compose(g, q.group_part))
    theta = float(np.asarray(g.data).reshape(1)[0])
    return BundlePoint(q.bundle, ambient=_hopf_rotate(q.ambient, theta))


def fiber_translation(q1: BundlePoint, q2: BundlePoint) -> GroupElement:
    """The unique g with act(g, q1) = q2, defined for points in one fiber."""
    m1, m2 = project(q1), project(q2)
    if q1.bundle.base.distance(m1, m2) > 1e-9:
        raise NotSameFiber("points project to different base points")
    if isinstance(q1.bundle, TrivialBundle):
        return groups.compose(q2.group_part, groups.inverse(q1.group_part))
    z1, z2 = _hopf_complex_pairs(q1.ambient)
    w1, w2 = _hopf_complex_pairs(q2.ambient)
    inner = np.conj(z1) * w1 + np.conj(z2) * w2
    if abs(abs(inner) - 1.0) > 1e-9:
        raise NotSameFiber("points are not related by the circle action")
    return GroupElement.of(q1.bundle.group, [np.angle(inner)])


def infinitesimal_generator(q: BundlePoint, xi) -> BundleTangent:
    if isinstance(q.bundle, TrivialBundle):
        return make_trivial_tangent(
            q, np.zeros(q.bundle.base.coord_size), xi)
    theta_dot = float(np.asarray(xi, dtype=float).reshape(1)[0])
    return BundleTangent(q, theta_dot * _hopf_i_times(q.ambient))


def tangent_lift_action(g: GroupElement, v: BundleTangent) -> BundleTangent:
    q = v.base_point
    if g.kind != q.bundle.group:
        raise KindMismatch("group element does not match the structure group")
    if isinstance(q.bundle, TrivialBundle):
        base, fiber = split_trivial(v)
        return make_trivial_tangent(act(g, q), base, groups.adjoint(g, fiber))
    theta = float(np.asarray(g.data).reshape(1)[0])
    return BundleTangent(act(g, q), _hopf_rotate(v.components, theta))


def tangent_projection(v: BundleTangent) -> TangentVector:
    """Pushforward of a bundle tangent along the projection to the base."""
    q = v.base_point
    if isinstance(q.bundle, TrivialBundle):
        base, _ = split_trivial(v)
        return TangentVector(project(q), np.array(base))
    J = hopf_projection_jacobian(q.ambient)
    return TangentVector(project(q), J @ v.components)


def any_lift(q: BundlePoint, delta_m: TangentVector) -> BundleTangent:
    """Some tangent at q projecting to delta_m (no horizontality implied)."""
    if isinstance(q.bundle, TrivialBundle):
        return make_trivial_tangent(q, delta_m.components,
                                    np.zeros(q.bundle.group.dim))
    # J J^T = 4 I and J q = 2 phi(q), so for delta tangent at phi(q) the
    # minimum-norm solution of J v = delta is J^T delta / 4: it is orthogonal
    # to q and to the fiber direction i q, i.e. horizontal for the canonical
    # connection.  Projecting delta first keeps the result tangent at q.
    J = hopf_projection_jacobian(q.ambient)
    m = 0.5 * (J @ q.ambient)
    delta = delta_m.components - np.dot(m, delta_m.components) * m
    return BundleTangent(q, J.T @ delta / 4.0)


def bundle_curve(q: BundlePoint, v: BundleTangent, t: float) -> BundlePoint:
    """A smooth curve through q with velocity v, used by difference quotients."""
    if isinstance(q.bundle, TrivialBundle):
        base, fiber = split_trivial(v)
        m = q.bundle.base.geodesic_step(q.base_point, t * base)
        step = groups.exp(q.bundle.group, t * fiber)
        return BundlePoint(q.bundle, m, groups.compose(step, q.group_part))
    p = q.ambient + t * v.components
    return BundlePoint(q.bundle, ambient=p / np.linalg.norm(p))


def local_coords(q0: BundlePoint, p: BundlePoint) -> np.ndarray:
    """Coordinates of p near q0 whose t-derivative along a curve through q0
    equals the curve's tangent components at q0."""
    if isinstance(q0.bundle, TrivialBundle):
        base_kind = q0.bundle.base
        base = base_kind.project_tangent(q0.base_point,
                                         p.base_point - q0.base_point)
        rel = groups.compose(p.group_part, groups.inverse(q0.group_part))
        return np.concatenate([base, groups.log(rel)])
    diff = p.ambient - q0.ambient
    return diff - np.dot(q0.ambient, diff) * q0.ambient


def base_distance(q1: BundlePoint, q2: BundlePoint) -> float:
    return q1.bundle.base.distance(project(q1), project(q2))


def point_distance(q1: BundlePoint, q2: BundlePoint) -> float:
    """Distance on the total space (base distance plus fiber distance)."""
    if q1.bundle != q2.bundle:
        raise KindMismatch("points live on different bundles")
    if isinstance(q1.bundle, TrivialBundle):
        base = q1.bundle.base.distance(q1.base_point, q2.base_point)
        fiber = groups.group_distance(q1.group_part, q2.group_part)
        return float(np.hypot(base, fiber))
    return float(np.linalg.norm(q1.ambient - q2.ambient))


def section_over(bundle: PrincipalBundle, m) -> BundlePoint:
    """A reference point in the fiber over the base point m."""
    if isinstance(bundle, TrivialBundle):
        return BundlePoint(bundle, m, groups.identity(bundle.group))
    return BundlePoint(bundle, ambient=hopf_section(m))


@dataclass(frozen=True)
class DomainSpec:
    """D-type neighborhood of the diagonal, cut out by a base-distance radius."""

    bundle: PrincipalBundle
    base_radius: float

    def __post_init__(self):
        if not self.base_radius > 0:
            raise ValueError("base_radius must be positive")


def domain_contains(U: DomainSpec, q1: BundlePoint, q2: BundlePoint) -> bool:
    if q1.bundle != U.bundle or q2.bundle != U.bundle:
        raise KindMismatch("points do not live on the domain's bundle")
    return base_distance(q1, q2) < U.base_radius
