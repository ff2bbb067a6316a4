"""Numerical kernels: difference quotients, quadrature and defect reduction.

The numerical policy is one set of module constants.  All directional
derivatives go through `richardson_derivative`: central differences with
steps STEP and STEP / 2 plus one Richardson extrapolation step, about 1e-7
relative on unit-scale smooth inputs.  All line integrals go through
`gauss_legendre_line_integral`: QUADRATURE_PANELS panels of
QUADRATURE_ORDER Gauss-Legendre nodes.

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

import numpy as np

from .errors import NonDifferentiable

STEP = 1e-4
# Relative gap allowed between the extrapolated and the coarse slope when
# `richardson_derivative` checks consistency.
CONSISTENCY_TOL = 1e-5
QUADRATURE_ORDER = 8
QUADRATURE_PANELS = 16
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(QUADRATURE_ORDER)


def central_slope(f, h):
    """(f(h) - f(-h)) / (2h) with vector-valued f."""
    return (np.asarray(f(h), dtype=float) - np.asarray(f(-h), dtype=float)) / (2.0 * h)


def richardson_derivative(f, check_consistency=False):
    """Derivative of f at 0, f vector valued and defined near 0.

    One Richardson extrapolation step on the central slopes at STEP and
    STEP / 2.  When `check_consistency` is set, the extrapolated and the
    coarse slope must agree to CONSISTENCY_TOL (relative to scale
    1 + |value|) or NonDifferentiable is raised.  A stacked f returns
    (k, *stack) values; the test then applies to each column, and one
    failing column raises.
    """
    coarse = central_slope(f, STEP)
    best = (4.0 * central_slope(f, STEP / 2) - coarse) / 3.0
    if check_consistency:
        gap = np.ravel(np.linalg.norm(np.atleast_1d(best - coarse), axis=0))
        scale = 1.0 + np.ravel(np.linalg.norm(np.atleast_1d(best), axis=0))
        bad = np.flatnonzero(gap > CONSISTENCY_TOL * scale)
        if bad.size:
            i = bad[0]
            raise NonDifferentiable(
                "Richardson levels disagree: "
                f"{gap[i]:.3e} > {CONSISTENCY_TOL:.1e} * {scale[i]:.3e}")
    return best


def exterior_derivative(form, m, u, w):
    """d form (u, w) at m, form(point, tangent) -> values, for constant
    u and w, on stacks; NaN in a column whose smallest difference step is
    lost to rounding (m + h u barely moves from m)."""
    d_uw = richardson_derivative(lambda t: form(m + t * u, w))
    d_wu = richardson_derivative(lambda t: form(m + t * w, u))
    return np.where(lost_step(m, (u, w)), np.nan, d_uw - d_wu)


def lost_step(m, directions):
    """Mask over the stack of the (d, *stack) point m: True in a column
    where the smallest Richardson step h x along one of the directions x is
    lost to rounding, i.e. (m + h x) - m is off h x by more than half of
    it.  A difference quotient there sees no step (at 1e250, m + h x == m)
    and reads a wrong value, often exactly zero."""
    h = STEP / 2
    lost = np.zeros(np.shape(m)[1:], dtype=bool)
    for x in directions:
        step = h * x
        lost |= (np.linalg.norm((m + step) - m - step, axis=0)
                 > 0.5 * np.linalg.norm(step, axis=0))
    return lost


def gauss_legendre_line_integral(f, a, b):
    """Integrate the vector-valued f over [a, b] by the composite rule.

    f is called once, with the vector of all nodes, and returns values
    with the node axis last; a value without that axis is constant.  The
    weighted values are summed one node after another in panel order, as a
    loop over the nodes would.
    """
    edges = np.linspace(a, b, QUADRATURE_PANELS + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    x = (mid[:, None] + half[:, None] * _NODES).ravel()
    coeffs = (half[:, None] * _WEIGHTS).ravel()
    values = np.asarray(f(x), dtype=float)
    if values.shape[-1:] != x.shape:
        values = values[..., None]
    # A sequential prefix sum, not the pairwise summation of np.sum.
    return np.add.accumulate(coeffs * values, axis=-1)[..., -1]


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
