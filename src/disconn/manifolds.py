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

Local inversion of the extended retraction runs a Newton iteration on
the tangent components at the anchor point, in the embedding's
coordinates (Absil, Mahony and Sepulchre, *Optimization Algorithms on
Matrix Manifolds*, 2008): a point is read by its Riemannian log at the
anchor, `ManifoldKind.log`, the inverse of the geodesic step, and no
basis or chart is built.  Every retraction is the identity to first
order (DR_x(0) = id), and so is the log at the anchor, so the Jacobian J
of v -> log(x, R_x(v)) at v = 0 is the identity on the tangent space T_x
(on a reduced retraction too: there the lift matrix L has dphi L = id).
Newton therefore starts at the target's log, exact for
``metric_exponential`` and first-order accurate for every other rule,
and its first correction is a chord step with that identity Jacobian,
v <- v - r, which needs no probe and no linear solve.  A column whose
residual the chord step does not at least halve goes back to where it
was, and probed Newton takes over from there.  Its probes run along
+- the columns of the tangent projector P = project_tangent(x, I), which
gives the columns of J P, projected onto T_x again because the
differences amplify the logs' rounding off T_x by 1 / h.  It then solves
(J P + I - P) delta = r on the coord_size ambient components.  J P is
zero on the normal line and maps T_x into T_x, and I - P is the identity
on the normal line and zero on T_x: the matrix is invertible exactly when
J is invertible on T_x, and it pins the normal component of delta to
that of r, which is rounding, so the iterate stays tangent.  On R^d,
P = I and I - P = 0: the probes are +- e_j, and the matrix is J itself.
`invert_extended` solves a stack of targets together, from one anchor or
from a stack of anchors whose stack is a prefix of the targets'.  The
anchors are never copied to the targets' columns: the log and the step
are called with the anchors as given.  The stack stays whole until
every column has converged.  A column whose residual is <= NEWTON_TOL
keeps its tangent from then on, so every later residual gives it the
same tangent: the bits of its single solve.  Each probed iteration makes
one step call for the residuals of all columns, one step call for the 2d
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
                      _row_sum, richardson_derivative)

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

    def log(self, point, other):
        """Components of the tangent at `point` whose geodesic step reaches
        `other`, the inverse of `geodesic_step`; stacked as a step is."""
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

    def log(self, point, other):
        point, other = _columns(point, other)
        return other - point

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

    def log(self, point, other):
        point, other = _columns(point, other)
        cos = _row_sum(point * other)
        if _largest(-cos) > 1.0 - 1e-12:
            raise OutsideDomain("point is antipodal to the anchor")
        sin_part = other - cos * point
        s = _column_norm(sin_part)
        # At the anchor, s = 0 and the log is 0 (arctan2(0, cos) = 0).
        return np.arctan2(s, cos) / np.maximum(s, 1e-300) * sin_part

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
    Newton on the ambient tangent components.  y is one point or a
    (d, *stack) stack of targets, solved together; x is one anchor for all
    of them, or a stack of anchors whose stack is a prefix of the targets'
    (`numdiff._columns`), so that each anchor serves the targets of its own
    columns.  The result has the shape of y.

    The residual of v is log(x, R_x(v)) - log(x, y), and the iteration
    starts at v = log(x, y), whose norm, the geodesic distance, is the
    domain guard.  The Jacobian of the residual at v = 0 is the identity on
    T_x (DR_x(0) = id), so after the first residual that fails, every
    column not yet converged takes one chord step v <- v - r, with no probe
    and no linear solve; at the next residual, a column whose residual norm
    did not at least halve goes back to its v, r and norm from before the
    chord step, so that probed Newton starts where it would have.  A
    column keeps its tangent from its first residual <= NEWTON_TOL on,
    while the others iterate.  From then on each iteration sends the 2d
    difference probes along +- the columns of the tangent projector P of
    all columns through one step call, on a trailing probe axis, and one
    stacked linear solve of (J P + I - P) delta = r updates the columns not
    yet converged (I - P pins the normal component, see the module
    docstring); P and the probes are set up at the first of these
    iterations.  The last step call is the residual whose tangent is
    returned."""
    kind = R.space
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    # The initial guess: exact for the metric exponential and first-order
    # accurate for any retraction.
    target = v = kind.log(x, y)
    if _largest(_column_norm(target)) >= R.domain_radius / 2.0:
        raise OutsideDomain("target too far from the anchor point")

    offsets = None
    for i in range(NEWTON_MAX_ITER):
        r = kind.log(x, R.step(x, v)) - target
        norms = _column_norm(r)
        if i == 1:
            # Keep the chord step where it at least halved the residual (a
            # chord method re-evaluates its Jacobian at any weaker
            # contraction, Kelley 2003); elsewhere, NaN included, undo it.
            kept = norms <= 0.5 * before[2]
            v, r, norms = (np.where(kept, now, then)
                           for now, then in zip((v, r, norms), before))
        if _largest(norms) <= NEWTON_TOL:
            return v
        if i == 0:
            # The chord step with the anchor's identity Jacobian; a
            # converged column keeps its v.
            before = v, r, norms
            v = np.where(norms <= NEWTON_TOL, v, v - r)
            continue
        if offsets is None:
            # The projector's columns P e_j, laid out (d, *stack, d) with
            # the anchors' stack a prefix of the targets', give the probe
            # offsets +- P e_j and the normal block I - P; the axis orders
            # of the stacked solve put the coordinates behind the stack.
            n, k = len(v), v.ndim
            eye = np.eye(n).reshape((n,) + (1,) * (k - 1) + (n,))
            anchors = x.reshape(x.shape + (1,) * (k + 1 - x.ndim))
            P = kind.project_tangent(anchors, eye)
            offsets = np.concatenate([P, -P], axis=-1)
            normal = eye - P
            to_solver, from_solver = (*range(1, k), 0), (k - 1, *range(k - 1))
        h = (1e-7 * (1.0 + _column_norm(v)))[..., None]
        probes = v[..., None] + h * offsets
        rp = kind.log(x, R.step(x, probes)) - target[..., None]
        # The differences amplify the logs' rounding off T_x by 1 / h, so
        # the Jacobian's columns are projected back onto T_x.
        J = kind.project_tangent(anchors, (rp[..., :n] - rp[..., n:])
                                 / (2.0 * h))
        try:
            step = np.linalg.solve((J + normal).transpose(to_solver + (k,)),
                                   r.transpose(to_solver)[..., None])
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergence("singular Jacobian") from exc
        # A converged column keeps its v; a NaN residual iterates on.
        v = np.where(norms <= NEWTON_TOL, v,
                     v - step[..., 0].transpose(from_solver))
    residual = np.max(_column_norm(kind.log(x, R.step(x, v)) - target))
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
