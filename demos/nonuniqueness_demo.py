"""Integration of a connection is not unique.

The one-parameter family of discrete connections

    C_f(x0, x1) = (x1 - x0)^2 f(x0, x1)        on R x R

all derive to the same continuous connection (the pure fiber term dy),
because the quadratic factor kills the first derivative on the diagonal.
Different f give genuinely different discrete connections: at the pair
((0, 0), (2, 5)) the f = 0 and f = 1 members differ by exactly 4.

The curvature-matched construction restores uniqueness near the diagonal:
rebuilding a discrete connection from its own derived form reproduces it.

Run:  python3 demos/nonuniqueness_demo.py
"""

import numpy as np

from disconn.abelian import curvature_matched_integrate
from disconn.bundles import BundlePoint, TrivialBundle, make_trivial_tangent
from disconn.connections import eval_connection
from disconn.derivation import derive_connection
from disconn.discrete import TrivialLocalDiscrete, eval_discrete
from disconn.groups import Translation
from disconn.manifolds import EuclideanChart

B = TrivialBundle(EuclideanChart(1), Translation(1))


def member(f):
    return TrivialLocalDiscrete(
        B, lambda m0, m1: np.array([(m1[0] - m0[0]) ** 2 * f(m0[0], m1[0])]),
        1e18, name="quadratic")


family = {
    "f = 0": member(lambda x0, x1: 0.0),
    "f = 1": member(lambda x0, x1: 1.0),
    "f = sin(x0 x1)": member(lambda x0, x1: np.sin(x0 * x1)),
}

q0 = BundlePoint.trivial(B, [0.0], [0.0])
q1 = BundlePoint.trivial(B, [2.0], [5.0])
print("values at the pair ((0,0), (2,5)):")
for label, Ad in family.items():
    print(f"  {label:<16} A_d = {eval_discrete(Ad, q0, q1)[0]:+.4f}")

print("\nderived connection on v = (dx = 1, dy = 2) at x = 0.5:")
q = BundlePoint.trivial(B, [0.5], [0.0])
v = make_trivial_tangent(q, [1.0], [2.0])
for label, Ad in family.items():
    value = eval_connection(derive_connection(Ad), q, v)[0]
    print(f"  {label:<16} F_C(A_d)(v) = {value:+.6f}   (all equal dy(v) = 2)")

# Rebuild one member from its derived form; agreement is the uniqueness
# statement for curvature-matched integration.
Ad_ref = family["f = 1"]
A_ref = derive_connection(Ad_ref)
rebuilt = curvature_matched_integrate(A_ref, Ad_ref, A_ref)
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(25):
    a = BundlePoint.trivial(B, rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
    b = BundlePoint.trivial(B, rng.uniform(-1, 1, 1), rng.uniform(-1, 1, 1))
    worst = max(worst, abs(eval_discrete(Ad_ref, a, b)[0]
                           - eval_discrete(rebuilt, a, b)[0]))
print(f"\nrebuild from own derived form, max disagreement: {worst:.3e}")
