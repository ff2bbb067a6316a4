"""Matrix Lie groups and their algebras.

Supported structure groups: translation groups R^k, the circle, tori T^n
and SO(3).  Circle and torus elements are stored as angles reduced to
(-pi, pi]; SO(3) elements as orthogonal 3x3 matrices.  An algebra element
is a plain ``(dim,)`` float array (so(3) via the hat map); the functions
that take one also take the group kind or an element of the group, and
`exp` and `adjoint` reshape it to ``(dim,)``, so another length raises.

The data operations of the abelian groups (`Translation`, and its
subclass `Torus`, which reduces angles) also accept ``(dim, *stack)``
stacks of elements, coordinate axis first, and act column by column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KindMismatch, OutsideInjectivityRadius

_TWO_PI = 2.0 * np.pi


def reduce_angle(theta):
    """Reduce angles to the interval (-pi, pi]."""
    return -((-np.asarray(theta, dtype=float) + np.pi) % _TWO_PI - np.pi)


def _stacked_vector(data, dim):
    """Vector data of shape (dim,), or a (dim, *stack) stack of them."""
    data = np.asarray(data, dtype=float)
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

    def identity_data(self):
        raise NotImplementedError

    # -- group arithmetic on raw data -------------------------------------
    def compose_data(self, a, b):
        raise NotImplementedError

    def inverse_data(self, a):
        raise NotImplementedError

    def exp_data(self, x):
        raise NotImplementedError

    def log_data(self, a):
        raise NotImplementedError

    def adjoint_data(self, a, x):
        raise NotImplementedError

    def bracket_data(self, x, y):
        raise NotImplementedError

    def distance_data(self, a, b):
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

    def identity_data(self):
        return np.zeros(self.dim)

    def compose_data(self, a, b):
        return a + b

    def inverse_data(self, a):
        return -a

    def exp_data(self, x):
        return np.array(x, dtype=float)

    def log_data(self, a):
        return np.array(a, dtype=float)

    def adjoint_data(self, a, x):
        return np.array(x, dtype=float)

    def bracket_data(self, x, y):
        return np.zeros(self.dim)

    def distance_data(self, a, b):
        return float(np.linalg.norm(a - b))


class Torus(Translation):
    """Translations taken mod 2 pi: the same arithmetic, with every
    element reduced to angles in (-pi, pi]."""

    def wrap(self, data):
        return reduce_angle(super().wrap(data))

    def compose_data(self, a, b):
        return reduce_angle(a + b)

    def inverse_data(self, a):
        return reduce_angle(-a)

    def exp_data(self, x):
        return reduce_angle(x)

    def distance_data(self, a, b):
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

    def identity_data(self):
        return np.eye(3)

    def compose_data(self, a, b):
        return a @ b

    def inverse_data(self, a):
        return a.T.copy()

    def exp_data(self, x):
        theta = float(np.linalg.norm(x))
        W = hat(x)
        if theta < 1e-12:
            return np.eye(3) + W + 0.5 * W @ W
        return (np.eye(3) + np.sin(theta) / theta * W
                + (1.0 - np.cos(theta)) / theta ** 2 * W @ W)

    def log_data(self, a):
        cos_theta = np.clip((np.trace(a) - 1.0) / 2.0, -1.0, 1.0)
        theta = float(np.arccos(cos_theta))
        if theta >= np.pi - 1e-6:
            raise OutsideInjectivityRadius(
                f"rotation angle {theta:.6f} too close to pi")
        if theta < 1e-12:
            return unhat(0.5 * (a - a.T))
        return unhat(theta / (2.0 * np.sin(theta)) * (a - a.T))

    def adjoint_data(self, a, x):
        return a @ np.asarray(x, dtype=float)

    def bracket_data(self, x, y):
        return np.cross(x, y)

    def distance_data(self, a, b):
        return float(np.linalg.norm(a - b))


@dataclass(frozen=True)
class GroupElement:
    kind: GroupKind
    data: np.ndarray

    @staticmethod
    def of(kind, data):
        return GroupElement(kind, kind.wrap(data))


def identity(kind) -> GroupElement:
    return GroupElement(kind, kind.identity_data())


def _require_same_kind(a, b):
    if a.kind != b.kind:
        raise KindMismatch(f"{a.kind} vs {b.kind}")


def compose(a: GroupElement, b: GroupElement) -> GroupElement:
    _require_same_kind(a, b)
    return GroupElement(a.kind, a.kind.compose_data(a.data, b.data))


def inverse(a: GroupElement) -> GroupElement:
    return GroupElement(a.kind, a.kind.inverse_data(a.data))


def exp(kind: GroupKind, x) -> GroupElement:
    x = np.asarray(x, dtype=float).reshape(kind.dim)
    return GroupElement(kind, kind.exp_data(x))


def log(g: GroupElement) -> np.ndarray:
    return g.kind.log_data(g.data)


def adjoint(g: GroupElement, x) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(g.kind.dim)
    return g.kind.adjoint_data(g.data, x)


def bracket(kind: GroupKind, x, y) -> np.ndarray:
    return kind.bracket_data(x, y)


def group_distance(a: GroupElement, b: GroupElement) -> float:
    _require_same_kind(a, b)
    return a.kind.distance_data(a.data, b.data)


def distance_to_identity(a: GroupElement) -> float:
    return group_distance(a, identity(a.kind))


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
