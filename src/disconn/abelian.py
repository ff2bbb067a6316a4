"""The exterior-derivative check of closed one-forms, for the abelian
routes.

With an abelian group, the difference of two connections is invariant
under the action and descends to a one-form on the base.  A flat or
curvature-matched discrete corrects a reference by the integral of the
descended difference eps = A - A_ref over the segment between the base
points of a pair, which needs eps closed.  `scenarios` builds that
discrete as one pair-map table: it decides d eps = 0 exactly on eps's
polynomial table and integrates the table in closed form over the segment
(`scenarios._segment_integral`).  What is left here is the sampled test of
closedness that the `closed_form` check runs on a scenario's connection.
"""

from __future__ import annotations

from .connections import TrivialLocalConnection
from .numdiff import _column_norm, exterior_derivative, worst_defect


def worst_exterior_defect(A: TrivialLocalConnection, samples) -> float:
    """Worst |d omega (u, w)| of the one-form of A over the samples (m, u,
    w), a (d, *stack) stack of points and two of constant directions, for
    constant-coefficient extensions of u and w; NaN when a difference step
    is lost to rounding at some m."""
    return worst_defect(_column_norm(exterior_derivative(A.value, *samples)))
