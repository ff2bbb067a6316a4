"""Integrate a connection with a retraction, then differentiate it back.

Walks through the full loop on R^2 x U(1) with the local one-form
omega = x dy: build the discrete connection induced by the straight-line
product retraction, evaluate it on a few pairs, and confirm that
differentiating along the diagonal recovers omega.  Then repeats the loop
on the Hopf bundle S^3 -> S^2 with the canonical connection and
great-circle retraction.

Run:  python3 demos/roundtrip_demo.py
"""

import numpy as np

from disconn import bundles, connections
from disconn.bundles import BundlePoint, BundleTangent, DomainSpec, HopfBundle, TrivialBundle
from disconn.connections import (HopfConnection, TrivialLocalConnection,
                                 eval_connection)
from disconn.derivation import derive_connection
from disconn.discrete import eval_discrete
from disconn.groups import Torus
from disconn.integration import (hopf_geodesic_retraction,
                                 integrate_connection,
                                 trivial_product_retraction)
from disconn.manifolds import EuclideanChart

rng = np.random.default_rng(0)

# --- trivial bundle -------------------------------------------------------
B = TrivialBundle(EuclideanChart(2), Torus(1))
A = TrivialLocalConnection(B, lambda m, v: np.array([m[0] * v[1]]))
Ad = integrate_connection(A, trivial_product_retraction(B),
                          DomainSpec(B, 1e18))

print("discrete connection induced by omega = x dy, straight retraction")
q0 = BundlePoint.trivial(B, [0.4, 0.0], [0.0])
q1 = BundlePoint.trivial(B, [0.4, 0.5], [0.0])
print(f"  A_d((0.4,0.0,e), (0.4,0.5,e)) = {eval_discrete(Ad, q0, q1)[0]:+.6f}"
      "   (straight vertical segment: x0 * dy = 0.2)")

A_back = derive_connection(Ad)
worst = 0.0
for _ in range(50):
    q = BundlePoint.trivial(B, rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1))
    v = bundles.make_trivial_tangent(q, rng.uniform(-1, 1, 2),
                                     rng.uniform(-1, 1, 1))
    worst = max(worst, abs(eval_connection(A_back, v)[0]
                           - eval_connection(A, v)[0]))
print(f"  derive(integrate(A)) vs A, max defect over 50 samples: {worst:.3e}")

# --- Hopf bundle ----------------------------------------------------------
H = HopfBundle()
A_hopf = HopfConnection(H)
Ad_hopf = integrate_connection(A_hopf, hopf_geodesic_retraction(H),
                               DomainSpec(H, np.pi / 2))
A_hopf_back = derive_connection(Ad_hopf)

worst = 0.0
for _ in range(20):
    x = rng.normal(size=4)
    q = BundlePoint.hopf(H, x / np.linalg.norm(x))
    v = rng.normal(size=4)
    v -= np.dot(v, q.ambient) * q.ambient
    v = BundleTangent(q, v)
    worst = max(worst, abs(eval_connection(A_hopf_back, v)[0]
                           - eval_connection(A_hopf, v)[0]))
print("\nHopf bundle, canonical connection, great-circle retraction")
print(f"  derive(integrate(A)) vs A, max defect over 20 samples: {worst:.3e}")
