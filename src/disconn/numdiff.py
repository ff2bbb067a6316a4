"""Numerical kernels: difference quotients and defect reduction.

The numerical policy is one set of module constants.  All directional
derivatives go through `richardson_derivative`: central differences with
steps STEP and STEP / 2 plus one Richardson extrapolation step, about 1e-7
relative on unit-scale smooth inputs.  No line integral is numerical:
the one the abelian routes take is of a polynomial table, which
`scenarios` integrates in closed form.

Stacks.  Many points are evaluated in one call.  Points and tangents are
then ``(d, *stack)`` arrays, coordinate axis first, and values are
``(k, *stack)`` arrays; a single point is the empty stack ``()``.  The
broadcast rule: two arrays that go together (a point and its tangents,
the two points of a pair, an anchor and its targets) share one stack, or
the stack of one is a prefix of the stack of the other.  `_columns`
appends singleton axes to the shorter one, so that each of its columns
broadcasts over the trailing axes of the other: a single point over every
column, a stack of k points over a (k, 4) stack of stencil points.
Every one-form and pair map is called once on the whole stack, whatever
its group: ``lambda m, v: np.array([m[0] * v[1]])`` takes a stack as it
is, because ``m[0]`` is then a whole row.  An entry that does not depend
on the point is written on the stack, ``0.0 * v[0]``, when other entries
do; a value that is constant as a whole, such as ``np.array([0.0])``, is
broadcast by the caller (`on_stack`).  The difference stencil is a stack
too: `richardson_derivative` calls its function once, with the four steps
``[STEP, -STEP, STEP / 2, -STEP / 2]`` as one trailing stack axis, and the
function returns its values with that axis last.  `exterior_derivative`
takes both of its slopes in one such call, with the two directions on a
pair axis before the stencil axis.  Elementwise operations on a stack
perform the same floating-point operations in the same order as a loop
over the columns, so their results are equal bit for bit.  Reductions
over the coordinate axis keep that property by one rule: a single point
is a stack of one.
`_column_dot` and `_column_norm` sum one coordinate after another, the
same operations on a (d,) vector as on every column of a stack, and every
small matrix product is made of such sums (`_matvec`), so a point alone
and the same point inside a stack give the same bits.  Below eight rows
np.add.reduce adds them in order, in one call, whatever the layout; from
eight rows on it may sum a contiguous vector or a transposed view
pairwise, in another order than a column of a stack, so those rows are
added one by one (`_row_sum`).  np.dot cannot serve: it may fuse and
reorder.
"""

import functools
import math
import operator

import numpy as np

from .errors import NonDifferentiable

STEP = 1e-4
# Relative gap allowed between the extrapolated and the coarse slope when
# `richardson_derivative` checks consistency.
CONSISTENCY_TOL = 1e-5
# The difference steps of `richardson_derivative`, in the order it reads them.
_STENCIL = np.array([STEP, -STEP, STEP / 2, -STEP / 2])


def richardson_derivative(f, check_consistency=False):
    """Derivative of f at 0, f vector valued and defined near 0.

    f is called once, with the stencil [STEP, -STEP, STEP / 2, -STEP / 2],
    and returns its values with the stencil axis last: (k, 4), or
    (k, *stack, 4) for a stacked f.  One Richardson extrapolation step on
    the central slopes at STEP and STEP / 2.  When `check_consistency` is
    set, the extrapolated and the coarse slope must agree to
    CONSISTENCY_TOL (relative to scale 1 + |value|) or NonDifferentiable is
    raised; on a stack the test applies to each column, and one failing
    column raises.
    """
    values = np.asarray(f(_STENCIL), dtype=float)
    coarse = (values[..., 0] - values[..., 1]) / (2.0 * STEP)
    fine = (values[..., 2] - values[..., 3]) / STEP
    best = (4.0 * fine - coarse) / 3.0
    if check_consistency:
        gap = np.ravel(_column_norm(np.atleast_1d(best - coarse)))
        scale = 1.0 + np.ravel(_column_norm(np.atleast_1d(best)))
        bad = gap > CONSISTENCY_TOL * scale
        if bad.any():
            i = np.flatnonzero(bad)[0]
            raise NonDifferentiable(
                "Richardson levels disagree: "
                f"{gap[i]:.3e} > {CONSISTENCY_TOL:.1e} * {scale[i]:.3e}")
    return best


def exterior_derivative(form, m, u, w):
    """d form (u, w) at m, form(point, tangent) -> values, for constant
    u and w, on stacks; NaN in a column whose smallest difference step is
    lost to rounding (m + h u barely moves from m).

    The two slopes u(form(w)) and w(form(u)) are one `richardson_derivative`
    call: the steps along u and along w sit on a trailing pair axis, before
    the stencil axis, so form is called once."""
    u, w = np.broadcast_arrays(np.asarray(u, dtype=float),
                               np.asarray(w, dtype=float))
    m0 = np.asarray(m, dtype=float)[..., None, None]
    directions = np.stack((u, w), axis=-1)[..., None]
    tangents = np.stack((w, u), axis=-1)[..., None]
    slopes = richardson_derivative(
        lambda t: form(m0 + t * directions, tangents))
    return np.where(lost_step(m, (u, w)), np.nan,
                    slopes[..., 0] - slopes[..., 1])


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
        lost |= _column_norm((m + step) - m - step) > 0.5 * _column_norm(step)
    return lost


def _columns(a, b):
    """(a, b) as arrays, with singleton axes appended to the one of lower
    rank: a single (d,) point then broadcasts over every column of a
    (d, *stack) stack, since numpy aligns trailing axes."""
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim < b.ndim:
        a = a.reshape(a.shape + (1,) * (b.ndim - a.ndim))
    elif b.ndim < a.ndim:
        b = b.reshape(b.shape + (1,) * (a.ndim - b.ndim))
    return a, b


def _column_dot(a, b):
    """Dot product over the coordinate axis, one per column of (d, *stack)
    arrays, summed one coordinate after another; two (d,) vectors are the
    empty stack.  A single vector or a shorter stack is broadcast by
    `_columns`."""
    a, b = _columns(a, b)
    return _row_sum(a * b)


def _column_norm(x):
    """Euclidean norm of each column of a (d, *stack) stack, summed as
    `_column_dot` sums; a (d,) vector is the empty stack."""
    x = np.asarray(x)
    return np.sqrt(_row_sum(x * x))


def _row_sum(p):
    """The rows of p added one after another: one np.add.reduce below
    eight rows, where numpy adds in order, else row by row."""
    if len(p) < 8:
        return np.add.reduce(p, axis=0)
    return functools.reduce(operator.add, p)


def _matvec(M, x):
    """M x for a (rows, cols, *stack) stack of matrices and a (cols, *more)
    stack of vectors, the matrices' stack a prefix of the vectors': each
    entry is a `_column_dot`, and a single matrix or vector is the empty
    stack."""
    return _column_dot(np.swapaxes(M, 0, 1), np.asarray(x)[:, None])


def _largest(x):
    """The largest entry of a numpy scalar or array, NaN if one is NaN; on
    a mask, whether any entry is set.  A scalar is returned as it is, which
    skips the reduction a single point would otherwise pay for."""
    return x.max() if x.ndim else x


def on_stack(values, dim, stack):
    """Values of a callable as a (dim, *stack) array: a constant (dim,)
    value is broadcast over the stack, and with the empty stack the result
    has shape (dim,)."""
    values = np.asarray(values, dtype=float)
    if not stack:
        return values.reshape(dim)
    shape = (dim,) + tuple(stack)
    if values.shape == shape:
        return values
    if values.size == dim:
        values = values.reshape((dim,) + (1,) * len(stack))
    return np.broadcast_to(values, shape)


def worst_defect(defects):
    """Largest of the defects, 0.0 when there are none.  Any NaN makes the
    result NaN, so a defect that could not be measured fails every
    tolerance (a running max(worst, d) would drop it: max(0.0, nan) is
    0.0)."""
    defects = np.ravel(np.asarray(defects, dtype=float))
    worst = float(defects.max()) if defects.size else 0.0
    return float("nan") if math.isnan(worst) else max(0.0, worst)
