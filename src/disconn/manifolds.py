"""Manifolds, metrics and retractions.

Instantiated manifolds: Euclidean charts R^d, unit spheres S^{d-1} in
ambient R^d, and finite products.  Points on spheres are unit ambient
vectors; tangent vectors are ambient vectors orthogonal to the base point.

Two retraction rules are built in:

* ``chart_straight_line`` -- straight step in a fixed chart (the identity
  chart on R^d, a fixed stereographic chart on spheres),
* ``metric_exponential`` -- the geodesic exponential (straight lines on
  R^d, great circles on spheres).

Local inversion of the extended retraction runs a Newton iteration in a
chart centered at the anchor point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import (BasePointMismatch, NewtonDivergence, OutsideDomain)
from .numdiff import DerivativeSpec, richardson_derivative

EUCLIDEAN_RADIUS_SENTINEL = 1e18


class ManifoldKind:
    dim: int            # dimension of the manifold
    coord_size: int     # length of the coordinate vector of a point

    def validate(self, coords):
        raise NotImplementedError

    def project_tangent(self, point, components):
        """Project an ambient perturbation onto the tangent space."""
        raise NotImplementedError

    def distance(self, a, b):
        raise NotImplementedError

    # Chart centered at a point, used by the Newton inversion.
    def chart_coords(self, center, point):
        raise NotImplementedError

    def tangent_from_chart(self, center, c):
        """Tangent components at `center` from chart-direction coordinates."""
        raise NotImplementedError

    def geodesic_step(self, point, components):
        raise NotImplementedError

    def chart_line_step(self, point, components):
        raise NotImplementedError


@dataclass(frozen=True)
class EuclideanChart(ManifoldKind):
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def coord_size(self):
        return self.dim

    # validate, project_tangent, distance and geodesic_step also take
    # (dim, *stack) stacks of points, coordinate axis first.
    def validate(self, coords):
        x = np.asarray(coords, dtype=float)
        return x.reshape((self.dim,) + x.shape[1:])

    def project_tangent(self, point, components):
        return self.validate(components)

    def distance(self, a, b):
        diff = a - b
        if diff.ndim > 1:
            return np.linalg.norm(diff, axis=0)
        return float(np.linalg.norm(diff))

    def chart_coords(self, center, point):
        return point - center

    def tangent_from_chart(self, center, c):
        return np.array(c, dtype=float)

    def geodesic_step(self, point, components):
        return point + components

    def chart_line_step(self, point, components):
        return point + components


@dataclass(frozen=True)
class Sphere(ManifoldKind):
    """Unit sphere of dimension ambient_dim - 1 in R^ambient_dim."""

    ambient_dim: int

    def __post_init__(self):
        if self.ambient_dim < 2:
            raise ValueError("ambient dimension must be >= 2")

    @property
    def dim(self):
        return self.ambient_dim - 1

    @property
    def coord_size(self):
        return self.ambient_dim

    def validate(self, coords):
        x = np.asarray(coords, dtype=float).reshape(self.ambient_dim)
        if abs(np.linalg.norm(x) - 1.0) > 1e-12:
            raise ValueError("sphere point must be a unit vector to 1e-12")
        return x

    def project_tangent(self, point, components):
        v = np.asarray(components, dtype=float).reshape(self.ambient_dim)
        return v - np.dot(point, v) * point

    def distance(self, a, b):
        # Chord-based formula: well conditioned for nearby points, where
        # arccos of the dot product loses half the significant digits.
        chord = float(np.linalg.norm(a - b))
        return 2.0 * float(np.arcsin(np.clip(0.5 * chord, 0.0, 1.0)))

    def tangent_basis(self, center):
        """Orthonormal basis of the tangent space, columns of the result."""
        # Complete `center` to an orthonormal ambient basis via QR.
        n = self.ambient_dim
        A = np.column_stack([center, np.eye(n)])
        Q, _ = np.linalg.qr(A)
        B = Q[:, 1:n]
        return B

    def chart_coords(self, center, point):
        # Stereographic projection centered at `center` (from its antipode).
        denom = 1.0 + np.dot(center, point)
        if denom < 1e-12:
            raise OutsideDomain("point is antipodal to the chart center")
        return self.tangent_basis(center).T @ point / denom

    def tangent_from_chart(self, center, c):
        return self.tangent_basis(center) @ np.asarray(c, dtype=float)

    def geodesic_step(self, point, components):
        norm = float(np.linalg.norm(components))
        if norm < 1e-300:
            return point.copy()
        return np.cos(norm) * point + np.sin(norm) * components / norm

    def chart_line_step(self, point, components):
        # Fixed stereographic chart from the last-coordinate pole; the chart
        # does not rotate with the point, which is what makes this rule a
        # negative control for equivariance certifications.
        n = self.ambient_dim
        pole = point[n - 1]
        if 1.0 + pole < 1e-9:
            raise OutsideDomain("point too close to the chart's south pole")
        u = point[:n - 1] / (1.0 + pole)
        du = (components[:n - 1] / (1.0 + pole)
              - point[:n - 1] * components[n - 1] / (1.0 + pole) ** 2)
        u = u + du
        s = float(np.dot(u, u))
        out = np.empty(n)
        out[:n - 1] = 2.0 * u / (1.0 + s)
        out[n - 1] = (1.0 - s) / (1.0 + s)
        return out


@dataclass(frozen=True)
class ProductManifold(ManifoldKind):
    factors: Tuple[ManifoldKind, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("product needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def dim(self):
        return sum(f.dim for f in self.factors)

    @property
    def coord_size(self):
        return sum(f.coord_size for f in self.factors)

    def _split(self, vec, sizes):
        vec = np.asarray(vec, dtype=float)
        out, offset = [], 0
        for s in sizes:
            out.append(vec[offset:offset + s])
            offset += s
        return out

    def split_coords(self, coords):
        return self._split(coords, [f.coord_size for f in self.factors])

    def validate(self, coords):
        parts = self.split_coords(coords)
        return np.concatenate([f.validate(p) for f, p in zip(self.factors, parts)])

    def project_tangent(self, point, components):
        pp = self.split_coords(point)
        vp = self.split_coords(components)
        return np.concatenate([
            f.project_tangent(p, v) for f, p, v in zip(self.factors, pp, vp)])

    def distance(self, a, b):
        ap, bp = self.split_coords(a), self.split_coords(b)
        return float(np.sqrt(sum(
            f.distance(x, y) ** 2 for f, x, y in zip(self.factors, ap, bp))))

    def chart_coords(self, center, point):
        cp, pp = self.split_coords(center), self.split_coords(point)
        return np.concatenate([
            f.chart_coords(c, p) for f, c, p in zip(self.factors, cp, pp)])

    def tangent_from_chart(self, center, c):
        cp = self.split_coords(center)
        parts = self._split(c, [f.dim for f in self.factors])
        return np.concatenate([
            f.tangent_from_chart(x, u) for f, x, u in zip(self.factors, cp, parts)])

    def geodesic_step(self, point, components):
        pp = self.split_coords(point)
        vp = self.split_coords(components)
        return np.concatenate([
            f.geodesic_step(p, v) for f, p, v in zip(self.factors, pp, vp)])

    def chart_line_step(self, point, components):
        pp = self.split_coords(point)
        vp = self.split_coords(components)
        return np.concatenate([
            f.chart_line_step(p, v) for f, p, v in zip(self.factors, pp, vp)])


@dataclass(frozen=True)
class ManifoldPoint:
    kind: ManifoldKind
    coords: np.ndarray

    @staticmethod
    def of(kind, coords):
        return ManifoldPoint(kind, kind.validate(coords))


@dataclass(frozen=True)
class TangentVector:
    base: ManifoldPoint
    components: np.ndarray

    @property
    def norm(self):
        return float(np.linalg.norm(self.components))

    def scaled(self, t):
        return TangentVector(self.base, t * self.components)


def zero_tangent(point: ManifoldPoint) -> TangentVector:
    return TangentVector(point, np.zeros(point.kind.coord_size))


def distance(a: ManifoldPoint, b: ManifoldPoint) -> float:
    return a.kind.distance(a.coords, b.coords)


@dataclass(frozen=True)
class Metric:
    """Bilinear pairing of tangent vectors at a common base point."""

    name: str
    pairing: Callable[[TangentVector, TangentVector], float]

    def inner(self, u, w):
        return self.pairing(u, w)


def flat_metric(name="flat"):
    """Ambient / chart dot product (Euclidean charts and round spheres)."""
    return Metric(name, lambda u, w: float(np.dot(u.components, w.components)))


def metric_eval(kind: ManifoldKind, metric: Metric, u: TangentVector,
                w: TangentVector) -> float:
    if u.base.kind != kind or w.base.kind != kind:
        raise BasePointMismatch("tangent vectors live on a different manifold")
    if np.linalg.norm(u.base.coords - w.base.coords) > 1e-12:
        raise BasePointMismatch("tangent vectors anchored at different points")
    return metric.inner(u, w)


@dataclass(frozen=True)
class Retraction:
    kind: ManifoldKind
    rule: str
    step: Callable          # (point coords, tangent components) -> point coords
    domain_radius: float


def chart_straight_line(kind, domain_radius=None) -> Retraction:
    if domain_radius is None:
        domain_radius = _default_radius(kind)
    return Retraction(kind, "chart_straight_line", kind.chart_line_step,
                      domain_radius)


def metric_exponential(kind, domain_radius=None) -> Retraction:
    if domain_radius is None:
        domain_radius = _default_radius(kind)
    return Retraction(kind, "metric_exponential", kind.geodesic_step,
                      domain_radius)


def _default_radius(kind):
    if isinstance(kind, EuclideanChart):
        return EUCLIDEAN_RADIUS_SENTINEL
    if isinstance(kind, Sphere):
        return np.pi / 2.0
    if isinstance(kind, ProductManifold):
        return min(_default_radius(f) for f in kind.factors)
    raise ValueError(f"no default radius for {kind!r}")


def retract(R: Retraction, v: TangentVector) -> ManifoldPoint:
    if v.norm >= R.domain_radius:
        raise OutsideDomain(
            f"|v| = {v.norm:.4g} >= domain radius {R.domain_radius:.4g}")
    if v.norm == 0.0:
        return v.base
    return ManifoldPoint.of(R.kind, R.step(v.base.coords, v.components))


def invert_extended(R: Retraction, x: ManifoldPoint, y: ManifoldPoint,
                    tol=1e-12, max_iter=50) -> TangentVector:
    """Tangent vector v at x with retract(R, v) = y, by Newton in a chart."""
    kind = R.kind
    if kind.distance(x.coords, y.coords) >= R.domain_radius / 2.0:
        raise OutsideDomain("target too far from the anchor point")

    target = kind.chart_coords(x.coords, y.coords)
    zero_chart = kind.chart_coords(x.coords, x.coords)

    def residual(c):
        v = kind.tangent_from_chart(x.coords, c)
        p = R.step(x.coords, kind.project_tangent(x.coords, v))
        return kind.chart_coords(x.coords, p) - target

    # Initial guess: chart difference, corrected for the chart's scaling of
    # tangent directions at the center.
    n = kind.dim
    c = _chart_initial_guess(kind, x.coords, target - zero_chart)
    for _ in range(max_iter):
        r = residual(c)
        if np.linalg.norm(r) <= tol:
            v = kind.tangent_from_chart(x.coords, c)
            return TangentVector(x, kind.project_tangent(x.coords, v))
        J = np.empty((n, n))
        h = 1e-7 * (1.0 + np.linalg.norm(c))
        for j in range(n):
            dc = np.zeros(n)
            dc[j] = h
            J[:, j] = (residual(c + dc) - residual(c - dc)) / (2.0 * h)
        try:
            c = c - np.linalg.solve(J, r)
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergence("singular Jacobian") from exc
    raise NewtonDivergence(
        f"residual {np.linalg.norm(residual(c)):.3e} > {tol:.1e} "
        f"after {max_iter} iterations")


def _chart_initial_guess(kind, center, delta_chart):
    # The stereographic chart halves tangent directions at its center; the
    # Euclidean chart is the identity.  Probe the linearization numerically
    # along a unit direction so product manifolds are handled uniformly;
    # the unit-scale step keeps the probe clear of cancellation noise.
    norm = float(np.linalg.norm(delta_chart))
    if norm < 1e-300:
        return np.array(delta_chart, dtype=float)
    probe = kind.tangent_from_chart(center, delta_chart)
    probe = kind.project_tangent(center, probe)
    probe_norm = float(np.linalg.norm(probe))
    if probe_norm < 1e-300:
        return np.array(delta_chart, dtype=float)
    h = 1e-3
    stepped = kind.geodesic_step(center, (h / probe_norm) * probe)
    moved = kind.chart_coords(center, stepped) / h
    scale = norm / (probe_norm * max(np.linalg.norm(moved), 1e-300))
    return np.asarray(delta_chart, dtype=float) * scale


def check_retraction_axioms(R: Retraction, x: ManifoldPoint, v: TangentVector,
                            spec=DerivativeSpec()) -> float:
    """Defect of d/dt R_x(t v)|_0 = v, via Richardson finite differences."""
    if np.linalg.norm(v.base.coords - x.coords) > 1e-12:
        raise BasePointMismatch("tangent vector not anchored at x")
    base_defect = np.linalg.norm(
        np.asarray(retract(R, zero_tangent(x)).coords) - x.coords)
    if v.norm == 0.0:
        return float(base_defect)

    def curve(t):
        return R.step(x.coords, t * v.components)

    slope = richardson_derivative(curve, spec)
    return float(max(base_defect, np.linalg.norm(slope - v.components)))


def kind_from_tag(tag, dim=None) -> ManifoldKind:
    """Manifold kind from its scenario-config string tag."""
    if tag == "R^d":
        return EuclideanChart(dim)
    if tag == "S2":
        return Sphere(3)
    if tag == "S3":
        return Sphere(4)
    raise ValueError(f"unknown manifold tag {tag!r}")
