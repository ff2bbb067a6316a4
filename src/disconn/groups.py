"""Matrix Lie groups and their algebras.

Supported structure groups: translation groups R^k, the circle, tori T^n
and SO(3).  A group element is its data array: a ``(dim,)`` vector for
translations, angles reduced to (-pi, pi] for circles and tori, and an
orthogonal 3x3 matrix for SO(3).  An algebra element is a plain
``(dim,)`` float array (so(3) via the hat map).  The arithmetic lives on
the group kind, which the caller holds (``bundle.group``):
``G.compose(a, b)``, ``G.exp(x)``, ``G.distance(a, b)`` and so on.
`GroupKind.wrap` validates element data where it enters the library;
`exp` and `adjoint` reshape their algebra argument to ``(dim,)``, so
another length raises.

The operations of the abelian groups (`Translation`, and its subclass
`Torus`, which reduces angles) also accept ``(dim, *stack)`` stacks of
elements, coordinate axis first, and act column by column; `compose`
combines a single element with every column of a stack.  SO(3) takes
stacks too, ``(3, 3, *stack)`` matrices and ``(3, *stack)`` algebra
vectors: `wrap`, `exp`, `log`, `compose` and `adjoint` run their
single-element arithmetic on one column after another, and a single
argument is used for every column; `inverse` and `bracket` act on all
columns at once.  `distance` of two elements is a float; with a stack it
is one distance per column, with the bits of that column's float.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutsideInjectivityRadius
from .numdiff import _columns, _loop_norm

_TWO_PI = 2.0 * np.pi


def reduce_angle(theta):
    """Reduce angles to the interval (-pi, pi]."""
    return -((-np.asarray(theta, dtype=float) + np.pi) % _TWO_PI - np.pi)


def _stacked_vector(data, dim):
    """Vector data of shape (dim,), or a (dim, *stack) stack of them."""
    data = np.array(data, dtype=float)
    return data.reshape((dim,) + data.shape[1:])


def _each_column(method, ranks, *args):
    """method(*args) on one column of a trailing stack after another: an
    argument with more axes than its rank ranks[i] (2 for a matrix, 1 for
    a vector) is a stack, and one without is passed to every column.  A
    shorter stack is a prefix of the longer ones and broadcasts over them,
    as `numdiff._columns` broadcasts."""
    args = [np.asarray(a, dtype=float) for a in args]
    depth = max(a.ndim - r for a, r in zip(args, ranks))
    args = [a.reshape(a.shape + (1,) * (depth + r - a.ndim)) if a.ndim > r
            else a for a, r in zip(args, ranks)]
    stack = np.broadcast_shapes(*(a.shape[r:] for a, r in zip(args, ranks)))
    args = [np.broadcast_to(a, a.shape[:r] + stack) if a.ndim > r else a
            for a, r in zip(args, ranks)]
    values = [method(*(a[(slice(None),) * r + i] if a.ndim > r else a
                       for a, r in zip(args, ranks)))
              for i in np.ndindex(stack)]
    return np.stack(values, axis=-1).reshape(values[0].shape + stack)


def hat(w):
    """Hat map sending a 3-vector to the matching skew matrix."""
    x, y, z = w
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def unhat(W):
    return np.array([W[2, 1], W[0, 2], W[1, 0]])


class GroupKind:
    """Base class for group descriptors; subclasses implement the arithmetic."""

    dim: int
    abelian: bool

    # -- conversions ------------------------------------------------------
    def wrap(self, data):
        """Validate/normalize raw element data."""
        raise NotImplementedError

    def identity(self):
        raise NotImplementedError

    # -- group arithmetic -------------------------------------------------
    def compose(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def exp(self, x):
        raise NotImplementedError

    def log(self, a):
        raise NotImplementedError

    def adjoint(self, a, x):
        raise NotImplementedError

    def bracket(self, x, y):
        raise NotImplementedError

    def distance(self, a, b):
        """Bi-invariant distance used by defect reports: a float for two
        elements, one distance per column when one of them is a stack."""
        raise NotImplementedError


@dataclass(frozen=True)
class Translation(GroupKind):
    dim: int
    abelian = True

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(
                f"{type(self).__name__.lower()} dimension must be >= 1")

    def wrap(self, data):
        return _stacked_vector(data, self.dim)

    def identity(self):
        return np.zeros(self.dim)

    def compose(self, a, b):
        if a.ndim != b.ndim:
            a, b = _columns(a, b)
        return a + b

    def inverse(self, a):
        return -a

    def exp(self, x):
        # The element whose data is x; a torus reduces it.
        return self.wrap(x)

    def log(self, a):
        return np.array(a, dtype=float)

    def adjoint(self, a, x):
        return _stacked_vector(x, self.dim)

    def bracket(self, x, y):
        return np.zeros(self.dim)

    def distance(self, a, b):
        return _distances(np.subtract(*_columns(a, b)))


class Torus(Translation):
    """Translations taken mod 2 pi: the same arithmetic, with every
    element reduced to angles in (-pi, pi]."""

    def wrap(self, data):
        return reduce_angle(super().wrap(data))

    def compose(self, a, b):
        if a.ndim != b.ndim:
            a, b = _columns(a, b)
        return reduce_angle(a + b)

    def inverse(self, a):
        return reduce_angle(-a)

    def distance(self, a, b):
        return _distances(reduce_angle(np.subtract(*_columns(a, b))))


def Circle() -> Torus:
    """The unit circle as a 1-torus."""
    return Torus(1)


@dataclass(frozen=True)
class SO3(GroupKind):
    dim = 3
    abelian = False

    def wrap(self, data):
        M = np.asarray(data, dtype=float)
        if M.ndim > 2:
            return _each_column(self.wrap, (2,), M)
        M = M.reshape(3, 3)
        if np.linalg.norm(M.T @ M - np.eye(3)) > 1e-10:
            raise ValueError("SO3 matrix is not orthogonal to 1e-10")
        if np.linalg.det(M) <= 0:
            raise ValueError("SO3 matrix must have positive determinant")
        return M

    def identity(self):
        return np.eye(3)

    def compose(self, a, b):
        if a.ndim > 2 or b.ndim > 2:
            return _each_column(self.compose, (2, 2), a, b)
        return a @ b

    def inverse(self, a):
        return np.swapaxes(a, 0, 1).copy()

    def exp(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim > 1:
            return _each_column(self.exp, (1,), x)
        x = x.reshape(3)
        theta = float(np.linalg.norm(x))
        W = hat(x)
        if theta < 1e-12:
            return np.eye(3) + W + 0.5 * W @ W
        return (np.eye(3) + np.sin(theta) / theta * W
                + (1.0 - np.cos(theta)) / theta ** 2 * W @ W)

    def log(self, a):
        if a.ndim > 2:
            return _each_column(self.log, (2,), a)
        # The angle comes from both the skew part, 2 sin(theta) times the
        # axis, and the trace, 1 + 2 cos(theta); atan2 of the two keeps it
        # well conditioned up to the cut, where arccos of the trace alone
        # loses half the digits.
        w = unhat(a - a.T)
        sin_theta = float(np.linalg.norm(w)) / 2.0
        theta = float(np.arctan2(sin_theta, (np.trace(a) - 1.0) / 2.0))
        if theta >= np.pi - 1e-6:
            raise OutsideInjectivityRadius(
                f"rotation angle {theta:.6f} too close to pi")
        if theta < 1e-12:
            return 0.5 * w
        return theta / (2.0 * sin_theta) * w

    def adjoint(self, a, x):
        x = np.asarray(x, dtype=float)
        if a.ndim > 2 or x.ndim > 1:
            return _each_column(self.adjoint, (2, 1), a, x)
        return a @ x.reshape(3)

    def bracket(self, x, y):
        return np.cross(x, y, axis=0)

    def distance(self, a, b):
        if a.ndim > 2 or b.ndim > 2:
            a, b = _columns(a, b)
            diff = a - b
            return _loop_norm(diff.reshape((9,) + diff.shape[2:]))
        return float(np.linalg.norm(a - b))


def _distances(diff):
    """The norm of a (dim,) difference as a float, or of each column of a
    (dim, *stack) stack of them."""
    lengths = _loop_norm(diff)
    return float(lengths) if diff.ndim < 2 else lengths


def kind_from_tag(tag, dim=None) -> GroupKind:
    """Group kind from its scenario-config string tag."""
    if tag == "R^k":
        return Translation(dim)
    if tag == "U1":
        return Circle()
    if tag == "T^n":
        return Torus(dim)
    if tag == "SO3":
        return SO3()
    raise ValueError(f"unknown group tag {tag!r}")
