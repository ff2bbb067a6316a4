"""Numerical connections on principal bundles, continuous and discrete.

Modules:

* ``groups`` -- matrix Lie groups (translations, tori, SO(3));
* ``manifolds`` -- base manifolds, and retractions on bases and bundles;
* ``bundles`` -- trivial bundles and the Hopf bundle;
* ``connections`` -- connection one-forms, lifts, curvature;
* ``discrete`` -- discrete connection forms and discrete curvature;
* ``derivation`` -- differentiating discrete data back to connections;
* ``integration`` -- bundle retraction rules and retraction-based
  integration of connections;
* ``abelian`` -- descent, and curvature-matched integration, flat included;
* ``scenarios`` / ``cli`` -- the JSON-driven verification harness.
"""

__version__ = "0.1.0"
