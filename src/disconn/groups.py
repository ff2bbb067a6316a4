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
elements, coordinate axis first, and act column by column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OutsideInjectivityRadius

_TWO_PI = 2.0 * np.pi


def reduce_angle(theta):
    """Reduce angles to the interval (-pi, pi]."""
    return -((-np.asarray(theta, dtype=float) + np.pi) % _TWO_PI - np.pi)


def _stacked_vector(data, dim):
    """Vector data of shape (dim,), or a (dim, *stack) stack of them."""
    data = np.array(data, dtype=float)
    return data.reshape((dim,) + data.shape[1:])


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
        """Bi-invariant distance used by defect reports."""
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
        return float(np.linalg.norm(a - b))


class Torus(Translation):
    """Translations taken mod 2 pi: the same arithmetic, with every
    element reduced to angles in (-pi, pi]."""

    def wrap(self, data):
        return reduce_angle(super().wrap(data))

    def compose(self, a, b):
        return reduce_angle(a + b)

    def inverse(self, a):
        return reduce_angle(-a)

    def distance(self, a, b):
        return float(np.linalg.norm(reduce_angle(a - b)))


def Circle() -> Torus:
    """The unit circle as a 1-torus."""
    return Torus(1)


@dataclass(frozen=True)
class SO3(GroupKind):
    dim = 3
    abelian = False

    def wrap(self, data):
        M = np.asarray(data, dtype=float).reshape(3, 3)
        if np.linalg.norm(M.T @ M - np.eye(3)) > 1e-10:
            raise ValueError("SO3 matrix is not orthogonal to 1e-10")
        if np.linalg.det(M) <= 0:
            raise ValueError("SO3 matrix must have positive determinant")
        return M

    def identity(self):
        return np.eye(3)

    def compose(self, a, b):
        return a @ b

    def inverse(self, a):
        return a.T.copy()

    def exp(self, x):
        x = np.asarray(x, dtype=float).reshape(3)
        theta = float(np.linalg.norm(x))
        W = hat(x)
        if theta < 1e-12:
            return np.eye(3) + W + 0.5 * W @ W
        return (np.eye(3) + np.sin(theta) / theta * W
                + (1.0 - np.cos(theta)) / theta ** 2 * W @ W)

    def log(self, a):
        cos_theta = np.clip((np.trace(a) - 1.0) / 2.0, -1.0, 1.0)
        theta = float(np.arccos(cos_theta))
        if theta >= np.pi - 1e-6:
            raise OutsideInjectivityRadius(
                f"rotation angle {theta:.6f} too close to pi")
        if theta < 1e-12:
            return unhat(0.5 * (a - a.T))
        return unhat(theta / (2.0 * np.sin(theta)) * (a - a.T))

    def adjoint(self, a, x):
        return a @ np.asarray(x, dtype=float).reshape(3)

    def bracket(self, x, y):
        return np.cross(x, y)

    def distance(self, a, b):
        return float(np.linalg.norm(a - b))


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
