"""Manifolds and retractions.

Instantiated manifolds: Euclidean charts R^d and unit spheres S^{d-1} in
ambient R^d.  A point is the plain float array of its coordinates, and
the manifold kind that reads it is held by the caller; points on spheres
are unit ambient vectors.  A tangent vector is the array of its components
(ambient vectors orthogonal to the base point on spheres), and its base
point travels as a separate argument.  `ManifoldKind.validate` checks a
point where it enters the library; internal steps pass arrays that are
already valid.

The built-in retraction rule is ``metric_exponential``, the geodesic
exponential (straight lines on R^d, great circles on spheres).
`Sphere.chart_line_step` is a straight step in a fixed stereographic chart
instead; it does not commute with rotations.

Local inversion of the extended retraction runs a Newton iteration in the
normal chart centered at the anchor point: a point's chart coordinates are
its geodesic log in an orthonormal tangent basis (the closed-form log on
spheres, a shift on R^d).  `ManifoldKind.chart_at` builds the chart once
per solve; a sphere's basis is one Householder reflection.  Every
retraction is the identity to first order (DR_x(0) = id), so Newton starts
at the target's chart coordinates: exact for ``metric_exponential``,
first-order accurate for every other rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NewtonDivergence, OutsideDomain
from .numdiff import richardson_derivative

EUCLIDEAN_RADIUS_SENTINEL = 1e18
# Residual norm at which `invert_extended` stops, and its iteration budget.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


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

    def chart_at(self, center):
        """Normal chart centered at a point, used by the Newton inversion:
        the pair (to_chart, from_chart) of closures mapping a point to the
        coordinates of its geodesic log at `center` and chart coordinates to
        tangent components at `center`."""
        raise NotImplementedError

    def geodesic_step(self, point, components):
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

    def chart_at(self, center):
        return (lambda point: point - center,
                lambda c: np.array(c, dtype=float))

    def geodesic_step(self, point, components):
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
        # The Householder reflection H = I - 2 w w^T / (w . w) with
        # w = x + sign(x_k) e_k, k = argmax |x_k|, maps e_k to -sign(x_k) x;
        # its other columns are orthonormal and orthogonal to x.  Since
        # |x_k| >= 1/sqrt(n), w . w = 2 (1 + |x_k|) >= 2.
        k = int(np.argmax(np.abs(center)))
        w = np.array(center, dtype=float)
        w[k] += np.copysign(1.0, center[k])
        H = np.eye(self.ambient_dim) - np.outer(w, (2.0 / np.dot(w, w)) * w)
        return np.delete(H, k, axis=1)

    def chart_at(self, center):
        # Normal coordinates at `center`: the geodesic log in the basis B.
        B = self.tangent_basis(center)

        def to_chart(point):
            cos = np.dot(center, point)
            if 1.0 + cos < 1e-12:
                raise OutsideDomain("point is antipodal to the chart center")
            sin_part = B.T @ point
            s = float(np.linalg.norm(sin_part))
            if s < 1e-300:
                return sin_part
            return np.arctan2(s, cos) / s * sin_part

        def from_chart(c):
            return B @ np.asarray(c, dtype=float)

        return to_chart, from_chart

    def geodesic_step(self, point, components):
        norm = float(np.linalg.norm(components))
        if norm < 1e-300:
            return point.copy()
        return np.cos(norm) * point + np.sin(norm) * components / norm

    def chart_line_step(self, point, components):
        # Fixed stereographic chart from the last-coordinate pole; the chart
        # does not rotate with the point, which is what makes this rule a
        # negative control for equivariance checks.
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
class Retraction:
    kind: ManifoldKind
    step: Callable          # (point coords, tangent components) -> point coords
    domain_radius: float


def metric_exponential(kind) -> Retraction:
    return Retraction(kind, kind.geodesic_step, default_radius(kind))


def default_radius(kind):
    """Domain radius of a base when none is given: unbounded (the
    sentinel) on R^d, a quarter great circle on spheres."""
    if isinstance(kind, EuclideanChart):
        return EUCLIDEAN_RADIUS_SENTINEL
    if isinstance(kind, Sphere):
        return np.pi / 2.0
    raise ValueError(f"no default radius for {kind!r}")


def retract(R: Retraction, x, v) -> np.ndarray:
    """The point R_x(v); the step is supplied by the caller, so its output
    is validated."""
    norm = float(np.linalg.norm(v))
    if norm >= R.domain_radius:
        raise OutsideDomain(
            f"|v| = {norm:.4g} >= domain radius {R.domain_radius:.4g}")
    return R.kind.validate(R.step(x, v))


def invert_extended(R: Retraction, x, y) -> np.ndarray:
    """Components of the tangent v at x with retract(R, x, v) = y, by
    Newton in a chart."""
    kind = R.kind
    if kind.distance(x, y) >= R.domain_radius / 2.0:
        raise OutsideDomain("target too far from the anchor point")

    to_chart, from_chart = kind.chart_at(x)
    target = to_chart(y)
    zero_chart = to_chart(x)

    def residual(c):
        v = from_chart(c)
        p = R.step(x, kind.project_tangent(x, v))
        return to_chart(p) - target

    # Initial guess: the normal coordinates of the target, exact for the
    # metric exponential and first-order accurate for any retraction.
    n = kind.dim
    c = target - zero_chart
    for _ in range(NEWTON_MAX_ITER):
        r = residual(c)
        if np.linalg.norm(r) <= NEWTON_TOL:
            return kind.project_tangent(x, from_chart(c))
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
        f"residual {np.linalg.norm(residual(c)):.3e} > {NEWTON_TOL:.1e} "
        f"after {NEWTON_MAX_ITER} iterations")


def check_retraction_axioms(R: Retraction, x, v) -> float:
    """Defect of d/dt R_x(t v)|_0 = v, via Richardson finite differences."""
    base_defect = np.linalg.norm(
        retract(R, x, np.zeros(R.kind.coord_size)) - x)
    if np.linalg.norm(v) == 0.0:
        return float(base_defect)

    def curve(t):
        return R.step(x, t * v)

    slope = richardson_derivative(curve)
    return float(max(base_defect, np.linalg.norm(slope - v)))


def kind_from_tag(tag, dim=None) -> ManifoldKind:
    """Manifold kind from its scenario-config string tag."""
    if tag == "R^d":
        return EuclideanChart(dim)
    if tag == "S2":
        return Sphere(3)
    if tag == "S3":
        return Sphere(4)
    raise ValueError(f"unknown manifold tag {tag!r}")
