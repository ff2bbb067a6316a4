"""Matrix Lie groups and their algebras.

Supported structure groups: translation groups R^k, the circle, tori T^n
and SO(3).  A group element is its data array: a ``(dim,)`` vector for
translations, angles reduced to (-pi, pi] for circles and tori, and an
orthogonal 3x3 matrix for SO(3).  An algebra element is a plain
``(dim,)`` float array (so(3) via the hat map).  The arithmetic lives on
the group kind, which the caller holds (``bundle.group``):
``G.compose(a, b)``, ``G.exp(x)``, ``G.distance(a, b)`` and so on.
`GroupKind.wrap` validates element data where it enters the library;
`exp` and `adjoint` reshape their algebra argument to ``(dim, *stack)``,
so a first axis of another length raises.

Every operation also takes stacks, coordinate axis first: ``(dim,
*stack)`` vectors for the abelian groups (`Translation`, and its subclass
`Torus`, which reduces angles) and for algebra elements, ``(3, 3,
*stack)`` matrices for SO(3).  Two arguments share one stack, or the
stack of one is a prefix of the other's and broadcasts over it
(`numdiff._columns`).  A single element is the empty stack, and it takes
the same code and the same arithmetic as every column of a stack: SO(3)'s
`wrap`, `exp` (Rodrigues, with the small-angle branch as a mask), `log`
(the atan2 form, its cut guard on the whole stack), `compose`, `adjoint`
and `distance` are each written once, their matrix products as the
coordinate sums of `numdiff._column_dot`.  So a single call equals its
column of a stack bit for bit.  `distance` gives one distance per column,
and a numpy scalar for two single elements.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutsideInjectivityRadius
from .numdiff import (_column_dot, _column_norm, _columns, _largest,
                      _matvec)

_TWO_PI = 2.0 * np.pi


def reduce_angle(theta):
    """Reduce angles to the interval (-pi, pi]."""
    # pi - theta is -theta + pi bit for bit, without the negation.
    return -((np.pi - np.asarray(theta, dtype=float)) % _TWO_PI - np.pi)


def _stacked_vector(data, dim):
    """Vector data of shape (dim,), or a (dim, *stack) stack of them."""
    data = np.array(data, dtype=float)
    return data.reshape((dim,) + data.shape[1:])


def hat(w):
    """Hat map sending a 3-vector to the matching skew matrix, or a
    (3, *stack) stack of them to (3, 3, *stack) matrices."""
    x, y, z = w
    o = np.zeros_like(x)
    return np.array([[o, -z, y], [z, o, -x], [-y, x, o]])


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
        """Bi-invariant distance used by defect reports, one per column of
        a stack (a numpy scalar for two single elements)."""
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
        return _column_norm(np.subtract(*_columns(a, b)))


class Torus(Translation):
    """Translations taken mod 2 pi: the same arithmetic, with every
    element reduced to angles in (-pi, pi]."""

    def wrap(self, data):
        data = np.asarray(data, dtype=float)  # reduce_angle copies
        return reduce_angle(data.reshape((self.dim,) + data.shape[1:]))

    def compose(self, a, b):
        if a.ndim != b.ndim:
            a, b = _columns(a, b)
        return reduce_angle(a + b)

    def inverse(self, a):
        return reduce_angle(-a)

    def distance(self, a, b):
        return _column_norm(reduce_angle(np.subtract(*_columns(a, b))))


@dataclass(frozen=True)
class SO3(GroupKind):
    dim = 3
    abelian = False

    def wrap(self, data):
        M = np.asarray(data, dtype=float)
        M = M.reshape((3, 3) + M.shape[2:])
        # Both tests are written so that a NaN entry fails them.
        gap = self.distance(self.compose(self.inverse(M), M), np.eye(3))
        if not np.all(gap <= 1e-10):
            raise ValueError("SO3 matrix is not orthogonal to 1e-10")
        det = _column_dot(M[:, 0], np.cross(M[:, 1], M[:, 2], axis=0))
        if not np.all(det > 0.0):
            raise ValueError("SO3 matrix must have positive determinant")
        return M

    def identity(self):
        return np.eye(3)

    def compose(self, a, b):
        # (a b)_ij = sum_k a_ik b_kj, summed over k as `_column_dot` sums.
        return _column_dot(np.swapaxes(a, 0, 1)[:, :, None], b[:, None])

    def inverse(self, a):
        return np.swapaxes(a, 0, 1).copy()

    def exp(self, x):
        x = _stacked_vector(x, 3)
        theta = _column_norm(x)
        W = hat(x)
        # Below 1e-12 the Rodrigues coefficients take their limits 1 and
        # 1/2; the mask keeps the division away from zero.
        small = theta < 1e-12
        safe = np.where(small, 1.0, theta)
        a = np.where(small, 1.0, np.sin(safe) / safe)
        b = np.where(small, 0.5, (1.0 - np.cos(safe)) / safe ** 2)
        identity = np.eye(3).reshape((3, 3) + (1,) * theta.ndim)
        return identity + a * W + b * self.compose(W, W)

    def log(self, a):
        # The angle comes from both the skew part, 2 sin(theta) times the
        # axis, and the trace, 1 + 2 cos(theta); atan2 of the two keeps it
        # well conditioned up to the cut, where arccos of the trace alone
        # loses half the digits.
        w = unhat(a - self.inverse(a))
        sin_theta = _column_norm(w) / 2.0
        cos_theta = (a[0, 0] + a[1, 1] + a[2, 2] - 1.0) / 2.0
        theta = np.arctan2(sin_theta, cos_theta)
        if _largest(theta >= np.pi - 1e-6):
            raise OutsideInjectivityRadius(
                f"rotation angle {np.nanmax(theta):.6f} too close to pi")
        small = theta < 1e-12
        return np.where(
            small, 0.5, theta / (2.0 * np.where(small, 1.0, sin_theta))) * w

    def adjoint(self, a, x):
        return _matvec(a, _stacked_vector(x, 3))

    def bracket(self, x, y):
        return np.cross(x, y, axis=0)

    def distance(self, a, b):
        diff = np.subtract(*_columns(a, b))
        return _column_norm(diff.reshape((9,) + diff.shape[2:]))
