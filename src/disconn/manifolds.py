"""Manifolds and retractions.

Instantiated manifolds: Euclidean charts R^d and unit spheres S^{d-1} in
ambient R^d.  A point is the plain float array of its coordinates, and
the manifold kind that reads it is held by the caller; points on spheres
are unit ambient vectors.  A tangent vector is the array of its components
(ambient vectors orthogonal to the base point on spheres), and its base
point travels as a separate argument.  `ManifoldKind.validate` checks a
point where it enters the library; internal steps pass arrays that are
already valid.

A `Retraction` is one type on any space: a step rule and the radius of
the ball of tangents it accepts, tested by `Retraction.require_inside`.
Its ``space`` is a `ManifoldKind`, whose step maps point coordinates and
tangent components to point coordinates (a base retraction, `retract`),
or a bundle, whose step maps a `BundlePoint` and tangent components to a
`BundlePoint` (`integration.retract_bundle`).  The built-in base rule is
``metric_exponential``, the geodesic exponential (straight lines on R^d,
great circles on spheres) with the kind's ``default_radius``.
`Sphere.chart_line_step` is a straight step in a fixed stereographic chart
instead; it does not commute with rotations.

Stacks (see `numdiff`): the kinds' operations also take ``(d, *stack)``
stacks.  A point and its tangents, or the two points of a distance, share
one stack, or the point's stack is a prefix of the other's and broadcasts
over it (`numdiff._columns`); a single point is the empty prefix.  A step
thus takes one point, or a stack of points, with a stack of tangents.  A
single point goes through the same code and the same arithmetic as each
column of a stack, reductions over the coordinate axis included, so it
gets the bits of its column.

Local inversion of the extended retraction runs a Newton iteration in
the normal chart centered at the anchor point: a point's chart
coordinates are its geodesic log in an orthonormal tangent basis (the
closed-form log on spheres, a shift on R^d), and the anchor's own
coordinates are zero.  Every retraction is the identity to first order
(DR_x(0) = id), and so is the chart's log at its center, so the Jacobian
of the chart step at the anchor is the identity (on a reduced retraction
too: there the lift matrix L has dphi L = id).  Newton therefore starts
at the target's chart coordinates, exact for ``metric_exponential`` and
first-order accurate for every other rule, and its first correction is a
chord step with that identity Jacobian, c <- c - r, which needs no probe
and no linear solve.  A column whose residual the chord step does not at
least halve goes back to where it was, and probed Newton takes over from
there.  `invert_extended` solves a stack of targets together, from one
anchor or from a stack of anchors whose stack is a prefix of the
targets'.  The anchors are never copied to the targets' columns:
`ManifoldKind.chart_at` builds one chart per distinct anchor, once per
solve (one Householder reflection each on a sphere, applied by the
coordinate sums of `numdiff._matvec`), and the step is called with the
anchors as given.  The stack stays whole until every column has
converged.  A column whose residual is <= NEWTON_TOL keeps its chart
coordinates from then on, so every later residual gives it the same
tangent: the bits of its single solve.  Each probed iteration makes one
step call for the residuals of all columns, one step call for the 2n
central-difference probes of all their Jacobians, on a trailing probe
axis, and one stacked linear solve; the probes are set up at the first
of these.  A target outside the domain, an antipodal one or a column
that does not converge within NEWTON_MAX_ITER iterations, the chord step
counted, fails the whole solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NewtonDivergence, OutsideDomain
from .numdiff import (_column_dot, _column_norm, _columns, _largest,
                      _matvec, richardson_derivative)

EUCLIDEAN_RADIUS_SENTINEL = 1e18
# Residual norm at which `invert_extended` stops, and its iteration budget.
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50


class ManifoldKind:
    dim: int            # dimension of the manifold
    coord_size: int     # length of the coordinate vector of a point
    default_radius: float   # retraction domain radius when none is given

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
        tangent components at `center`.  A (d, *stack) stack of centers
        gives one chart per center, broadcast over the points and
        coordinates of each column."""
        raise NotImplementedError

    def geodesic_step(self, point, components):
        raise NotImplementedError


@dataclass(frozen=True)
class EuclideanChart(ManifoldKind):
    dim: int
    default_radius = EUCLIDEAN_RADIUS_SENTINEL     # unbounded

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def coord_size(self):
        return self.dim

    def validate(self, coords):
        x = np.asarray(coords, dtype=float)
        return x.reshape((self.dim,) + x.shape[1:])

    def project_tangent(self, point, components):
        return self.validate(components)

    def distance(self, a, b):
        return _column_norm(np.subtract(*_columns(a, b)))

    def chart_at(self, center):
        def to_chart(point):
            point, c = _columns(point, center)
            return point - c

        return to_chart, lambda c: np.array(c, dtype=float)

    def geodesic_step(self, point, components):
        point, components = _columns(point, components)
        return point + components


@dataclass(frozen=True)
class Sphere(ManifoldKind):
    """Unit sphere of dimension ambient_dim - 1 in R^ambient_dim."""

    ambient_dim: int
    default_radius = np.pi / 2.0    # a quarter great circle

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
        x = np.asarray(coords, dtype=float)
        x = x.reshape((self.ambient_dim,) + x.shape[1:])
        # Written so that a NaN coordinate fails the test.
        if not _largest(np.abs(_column_norm(x) - 1.0)) <= 1e-12:
            raise ValueError("sphere point must be a unit vector to 1e-12")
        return x

    def project_tangent(self, point, components):
        # Each column of components onto the tangent space at its point.
        v = np.asarray(components, dtype=float)
        v = v.reshape((self.ambient_dim,) + v.shape[1:])
        point, v = _columns(point, v)
        return v - point * _column_dot(point, v)

    def distance(self, a, b):
        # Chord-based formula: well conditioned for nearby points, where
        # arccos of the dot product loses half the significant digits.
        chord = _column_norm(np.subtract(*_columns(a, b)))
        return 2.0 * np.arcsin(np.minimum(0.5 * chord, 1.0))

    def tangent_basis(self, center):
        """Orthonormal basis of the tangent space, columns of the result:
        (n, n - 1) at one point, (n, n - 1, *stack) at a stack of points."""
        # The Householder reflection H = I - 2 w w^T / (w . w) with
        # w = x + sign(x_k) e_k, k = argmax |x_k|, maps e_k to -sign(x_k) x;
        # its other columns are orthonormal and orthogonal to x.  Since
        # |x_k| >= 1/sqrt(n), w . w = 2 (1 + |x_k|) >= 2.
        n = self.ambient_dim
        x = np.asarray(center, dtype=float)
        k = np.argmax(np.abs(x), axis=0)
        rows = np.arange(n).reshape((n,) + (1,) * k.ndim)
        w = np.where(rows == k, x + np.copysign(1.0, x), x)
        H = (np.eye(n).reshape((n, n) + (1,) * k.ndim)
             - w[:, None] * ((2.0 / _column_dot(w, w)) * w)[None, :])
        # Drop column k of each reflection.
        kept = np.arange(n - 1).reshape((n - 1,) + (1,) * k.ndim)
        return np.where(kept < k, H[:, :n - 1], H[:, 1:])

    def chart_at(self, center):
        # Normal coordinates at `center`: the geodesic log in the basis B.
        B = self.tangent_basis(center)
        B_T = np.swapaxes(B, 0, 1)

        def to_chart(point):
            cos = _column_dot(center, point)
            if _largest(1.0 + cos < 1e-12):
                raise OutsideDomain("point is antipodal to the chart center")
            sin_part = _matvec(B_T, point)
            s = _column_norm(sin_part)
            # At the center, s = 0 and the log is 0 (arctan2(0, cos) = 0).
            return np.arctan2(s, cos) / np.maximum(s, 1e-300) * sin_part

        def from_chart(c):
            return _matvec(B, c)

        return to_chart, from_chart

    def geodesic_step(self, point, components):
        # One norm per column.  A zero column returns the point's column:
        # cos 0 = 1, and sin 0 * v = 0 whatever the denominator.
        norm = _column_norm(components)
        point, components = _columns(point, components)
        return (np.cos(norm) * point
                + np.sin(norm) * components / np.maximum(norm, 1e-300))

    def chart_line_step(self, point, components):
        # Fixed stereographic chart from the last-coordinate pole; the chart
        # does not rotate with the point, which is what makes this rule a
        # negative control for equivariance checks.
        n = self.ambient_dim
        point, components = _columns(point, components)
        pole = point[n - 1]
        if _largest(1.0 + pole < 1e-9):
            raise OutsideDomain("point too close to the chart's south pole")
        u = point[:n - 1] / (1.0 + pole)
        du = (components[:n - 1] / (1.0 + pole)
              - point[:n - 1] * components[n - 1] / (1.0 + pole) ** 2)
        u = u + du
        s = _column_dot(u, u)
        return np.concatenate([2.0 * u / (1.0 + s),
                               [(1.0 - s) / (1.0 + s)]])


@dataclass(frozen=True)
class Retraction:
    space: object   # a ManifoldKind, or a bundle (see integration)
    step: Callable  # (point, tangent components) -> point of the space
    domain_radius: float

    def require_inside(self, v):
        """Raise OutsideDomain unless |v| is below the domain radius, in
        every column of a stack."""
        norm = float(_largest(_column_norm(v)))
        # Written so that a NaN component fails the test.
        if not norm < self.domain_radius:
            raise OutsideDomain(
                f"|v| = {norm:.4g} >= domain radius {self.domain_radius:.4g}")


def metric_exponential(kind) -> Retraction:
    return Retraction(kind, kind.geodesic_step, kind.default_radius)


def retract(R: Retraction, x, v) -> np.ndarray:
    """The point R_x(v) on a base; the step is supplied by the caller, so
    its output is validated."""
    R.require_inside(v)
    return R.space.validate(R.step(x, v))


def invert_extended(R: Retraction, x, y) -> np.ndarray:
    """Components of the tangent v at x with retract(R, x, v) = y, by
    Newton in a chart.  y is one point or a (d, *stack) stack of targets,
    solved together; x is one anchor for all of them, or a stack of anchors
    whose stack is a prefix of the targets' (`numdiff._columns`), so that
    each anchor serves the targets of its own columns.  The result has the
    shape of y.

    One chart per anchor is built once, and the step is called with x as
    given.  The iteration starts at the targets' chart coordinates (the
    anchor's are zero).  The chart step's Jacobian at the anchor is the
    identity (DR_x(0) = id), so after the first residual that fails, every
    column not yet converged takes one chord step c <- c - r, with no probe
    and no linear solve; at the next residual, a column whose residual norm
    did not at least halve goes back to its c, r and norm from before the
    chord step, so that probed Newton starts where it would have.  A
    column keeps its chart coordinates from its first residual <=
    NEWTON_TOL on, while the others iterate.  From then on each iteration
    sends the 2n difference probes of the Jacobians of all columns through
    one step call, on a trailing probe axis, and one stacked linear solve
    updates the columns not yet converged; the probes are set up at the
    first of these iterations.  The last step call is the residual whose
    tangent is returned."""
    kind = R.space
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if _largest(kind.distance(x, y)) >= R.domain_radius / 2.0:
        raise OutsideDomain("target too far from the anchor point")

    to_chart, from_chart = kind.chart_at(x)

    def step_chart(c):
        # B c is tangent at x already, so it is not projected again.
        v = from_chart(c)
        return v, to_chart(R.step(x, v))

    # Initial guess: the normal coordinates of the targets, exact for the
    # metric exponential and first-order accurate for any retraction.
    n = kind.dim
    target = c = to_chart(y)
    offsets = None
    for i in range(NEWTON_MAX_ITER):
        v, r = step_chart(c)
        r = r - target
        norms = _column_norm(r)
        if i == 1:
            # Keep the chord step where it at least halved the residual (a
            # chord method re-evaluates its Jacobian at any weaker
            # contraction, Kelley 2003); elsewhere, NaN included, undo it.
            kept = norms <= 0.5 * before[2]
            c, r, norms = (np.where(kept, now, then)
                           for now, then in zip((c, r, norms), before))
        if _largest(norms) <= NEWTON_TOL:
            return v
        if i == 0:
            # The chord step with the anchor's identity Jacobian; a
            # converged column keeps its c.
            before = c, r, norms
            c = np.where(norms <= NEWTON_TOL, c, c - r)
            continue
        if offsets is None:
            # The probe offsets +- e_j, laid out (n, *stack, 2n), and the
            # axis orders of the stacked solve, coordinates behind the stack.
            k = c.ndim
            offsets = np.concatenate([np.eye(n), -np.eye(n)], axis=1).reshape(
                (n,) + (1,) * (k - 1) + (2 * n,))
            to_solver, from_solver = (*range(1, k), 0), (k - 1, *range(k - 1))
        h = (1e-7 * (1.0 + _column_norm(c)))[..., None]
        probes = c[..., None] + h * offsets
        rp = step_chart(probes)[1] - target[..., None]
        J = (rp[..., :n] - rp[..., n:]) / (2.0 * h)
        try:
            step = np.linalg.solve(J.transpose(to_solver + (k,)),
                                   r.transpose(to_solver)[..., None])
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergence("singular Jacobian") from exc
        # A converged column keeps its c; a NaN residual iterates on.
        c = np.where(norms <= NEWTON_TOL, c,
                     c - step[..., 0].transpose(from_solver))
    residual = np.max(_column_norm(step_chart(c)[1] - target))
    raise NewtonDivergence(
        f"residual {residual:.3e} > {NEWTON_TOL:.1e} "
        f"after {NEWTON_MAX_ITER} iterations")


def check_retraction_axioms(R: Retraction, x, v):
    """Defect of R_x(0) = x and d/dt R_x(t v)|_0 = v, the slope by
    Richardson finite differences, one per column of a stack of points and
    tangents; NaN where either defect is NaN."""
    base_defect = _column_norm(retract(R, x, np.zeros(np.shape(v))) - x)

    def curve(t):
        return R.step(x, np.multiply.outer(v, t))

    slope = richardson_derivative(curve)
    return np.maximum(base_defect, _column_norm(slope - v))
