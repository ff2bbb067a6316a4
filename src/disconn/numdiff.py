"""Numerical kernels: difference quotients, quadrature and defect reduction.

All directional derivatives in the library go through `richardson_derivative`:
central differences with steps h and h/2 plus Richardson extrapolation.
Documented accuracy is about 1e-7 relative on unit-scale smooth inputs.

Stacks.  The abelian route on trivial bundles evaluates many points in one
call.  Points and tangents are then ``(d, *stack)`` arrays, coordinate axis
first, and values are ``(k, *stack)`` arrays; a single point is the empty
stack ``()``.  A point and its tangent share one stack.  Callables written
for single points, such as ``lambda m, v: np.array([m[0] * v[1]])``, work
unchanged on stacks, because ``m[0]`` is then a whole row; a constant value
such as ``np.array([0.0])`` is broadcast by the caller (`on_stack`).
Stacked evaluation performs the same floating-point operations in the same
order as a loop over the columns, so its results are equal bit for bit.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NonDifferentiable

DEFAULT_STEP = 1e-4
# The Richardson tableau costs O(levels^2), and at 16 levels the smallest
# step h / 2^15 stays above 3e-13 for every admissible base step h.
MAX_RICHARDSON_LEVELS = 16
# Relative gap allowed between the last two tableau entries when
# `richardson_derivative` checks consistency.
CONSISTENCY_TOL = 1e-5


@dataclass(frozen=True)
class DerivativeSpec:
    """Step-size policy for directional difference quotients."""

    base_step: float = DEFAULT_STEP
    richardson_levels: int = 2

    def __post_init__(self):
        if not (1e-8 <= self.base_step <= 1e-2):
            raise ValueError("base_step must lie in [1e-8, 1e-2]")
        if not 1 <= self.richardson_levels <= MAX_RICHARDSON_LEVELS:
            raise ValueError("richardson_levels must lie in "
                             f"[1, {MAX_RICHARDSON_LEVELS}]")


def central_slope(f, h):
    """(f(h) - f(-h)) / (2h) with vector-valued f."""
    return (np.asarray(f(h), dtype=float) - np.asarray(f(-h), dtype=float)) / (2.0 * h)


def richardson_derivative(f, spec=DerivativeSpec(), check_consistency=False):
    """Derivative of f at 0, f vector valued and defined near 0.

    Builds a Richardson tableau from central slopes at h, h/2, ... With the
    default two levels this is one extrapolation step.  When
    `check_consistency` is set, the last two tableau entries must agree to
    CONSISTENCY_TOL (relative to scale 1 + |value|) or NonDifferentiable is
    raised.  A stacked f returns (k, *stack) values; the test then applies
    to each column, and one failing column raises.
    """
    h = spec.base_step
    slopes = [central_slope(f, h / 2 ** k) for k in range(spec.richardson_levels)]
    # Standard Richardson tableau for O(h^2) central differences.
    tableau = [slopes]
    for level in range(1, spec.richardson_levels):
        prev = tableau[-1]
        factor = 4.0 ** level
        tableau.append([
            (factor * prev[i + 1] - prev[i]) / (factor - 1.0)
            for i in range(len(prev) - 1)
        ])
    best = tableau[-1][0]
    if check_consistency and spec.richardson_levels >= 2:
        gap = np.ravel(np.linalg.norm(
            np.atleast_1d(best - tableau[-2][0]), axis=0))
        scale = 1.0 + np.ravel(np.linalg.norm(np.atleast_1d(best), axis=0))
        bad = np.flatnonzero(gap > CONSISTENCY_TOL * scale)
        if bad.size:
            i = bad[0]
            raise NonDifferentiable(
                "Richardson levels disagree: "
                f"{gap[i]:.3e} > {CONSISTENCY_TOL:.1e} * {scale[i]:.3e}")
    return best


def exterior_derivative(form, m, u, w, spec):
    """d form (u, w) at m, form(point, tangent) -> values, for constant
    u and w, on stacks; NaN in a column whose smallest difference step is
    lost to rounding (m + h u barely moves from m)."""
    d_uw = richardson_derivative(lambda t: form(m + t * u, w), spec)
    d_wu = richardson_derivative(lambda t: form(m + t * w, u), spec)
    return np.where(lost_step(m, (u, w), spec), np.nan, d_uw - d_wu)


def lost_step(m, directions, spec):
    """Mask over the stack of the (d, *stack) point m: True in a column
    where the smallest Richardson step h x along one of the directions x is
    lost to rounding, i.e. (m + h x) - m is off h x by more than half of
    it.  A difference quotient there sees no step (at 1e250, m + h x == m)
    and reads a wrong value, often exactly zero."""
    h = spec.base_step / 2 ** (spec.richardson_levels - 1)
    lost = np.zeros(np.shape(m)[1:], dtype=bool)
    for x in directions:
        step = h * x
        lost |= (np.linalg.norm((m + step) - m - step, axis=0)
                 > 0.5 * np.linalg.norm(step, axis=0))
    return lost


def gauss_legendre_line_integral(f, a, b, order=8, panels=16):
    """Integrate the vector-valued f over [a, b] by composite Gauss-Legendre.

    f is called once, with the vector of all order * panels nodes, and
    returns values with the node axis last; a value without that axis is
    constant.  The weighted values are summed one node after another in
    panel order, as a loop over the nodes would.
    """
    nodes, weights = _gauss_legendre_rule(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * nodes).ravel()
    coeffs = (half[:, None] * weights).ravel()
    values = np.asarray(f(x), dtype=float)
    if values.shape[-1:] != x.shape:
        values = values[..., None]
    # A sequential prefix sum, not the pairwise summation of np.sum.
    return np.add.accumulate(coeffs * values, axis=-1)[..., -1]


@functools.lru_cache(maxsize=16)
def _gauss_legendre_rule(order):
    """Read-only Gauss-Legendre nodes and weights on [-1, 1]; one
    eigensolve per order, not one per integral."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def on_stack(values, dim, stack):
    """Values of a callable as a (dim, *stack) array: a constant (dim,)
    value is broadcast over the stack, and with the empty stack the result
    has shape (dim,)."""
    values = np.asarray(values, dtype=float)
    if not stack:
        return values.reshape(dim)
    if values.size == dim:
        values = values.reshape((dim,) + (1,) * len(stack))
    return np.broadcast_to(values, (dim,) + tuple(stack))


def by_column(fn, m, v):
    """fn(point, tangent) -> (k,) evaluated over (d, *stack) arrays, one
    column after another; a single point is passed through."""
    m = np.asarray(m, dtype=float)
    v = np.asarray(v, dtype=float)
    if m.ndim <= 1 and v.ndim <= 1:
        return fn(m, v)
    m, v = np.broadcast_arrays(m, v)
    stack = m.shape[1:]
    columns = [np.asarray(fn(m[(slice(None),) + i], v[(slice(None),) + i]),
                          dtype=float) for i in np.ndindex(stack)]
    return np.stack(columns, axis=-1).reshape(columns[0].shape + stack)


def worst_defect(defects):
    """Largest of the defects, 0.0 when there are none.  Any NaN makes the
    result NaN, so a defect that could not be measured fails every
    tolerance (a running max(worst, d) would drop it: max(0.0, nan) is
    0.0)."""
    defects = np.ravel(np.asarray(defects, dtype=float))
    if np.isnan(defects).any():
        return float("nan")
    return functools.reduce(max, defects.tolist(), 0.0)
