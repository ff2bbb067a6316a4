"""End-to-end acceptance gate.

Numbered criteria cover the round-trip between continuous and discrete
connections on trivial and Hopf bundles, the non-uniqueness of
integration, flatness preservation, curvature identities, the
curvature-matched construction, the axiom suites, and the negative
controls.  Each test prints a single pass/fail line.  There is no
criterion 7: local uniqueness compared a discrete connection with the
matched integral of its own derived connection, equal by construction.
"""

import time

import numpy as np
import pytest

from disconn import bundles, connections, discrete, integration
from disconn.bundles import (BundlePoint, HopfBundle, TrivialBundle,
                             make_trivial_tangent)
from disconn.connections import (HopfConnection, TrivialLocalConnection,
                                 eval_connection)
from disconn.derivation import derive_connection
from disconn.discrete import (TrivialLocalDiscrete, discrete_curvature,
                              eval_discrete, triangle_pairs)
from disconn.errors import CurvatureMismatch
from disconn.groups import SO3, Torus, Translation
from disconn.integration import (hopf_geodesic_retraction,
                                 integrate_connection,
                                 trivial_product_retraction,
                                 trivial_skewed_retraction)
from disconn.manifolds import (EuclideanChart, check_retraction_axioms,
                               metric_exponential)
from disconn.scenarios import ScenarioContext, pair_map_builtin


def plane_discrete(discrete, omega=None):
    """The first discrete of a context on R^2 x R, a flat or matched one
    built as one pair-map table behind the curvature-matched gate."""
    cfg = {"name": "acceptance", "seed": 0, "discrete": discrete,
           "bundle": {"kind": "trivial", "base": {"kind": "R^d", "dim": 2},
                      "group": {"kind": "R^k", "dim": 1}}}
    if omega is not None:
        cfg["connection"] = {"kind": "local", "omega": omega}
    return ScenarioContext(cfg).discretes[0]


_SUITE_START = time.perf_counter()


def report(number, label, defect, bound):
    status = "PASS" if defect <= bound else "FAIL"
    print(f"criterion {number}: {label}: max defect {defect:.3e} "
          f"(bound {bound:.1e}) ... {status}")
    assert defect <= bound


def report_flag(number, label, ok):
    print(f"criterion {number}: {label} ... {'PASS' if ok else 'FAIL'}")
    assert ok


def x_dy_setup():
    B = TrivialBundle(EuclideanChart(2), Torus(1))
    A = TrivialLocalConnection(B, lambda m, v: np.array([m[0] * v[1]]))
    return B, A, 1e18


def sample_trivial(B, rng):
    q = BundlePoint.trivial(B, rng.uniform(-1, 1, 2),
                            rng.uniform(-1, 1, B.group.dim))
    v = make_trivial_tangent(q, rng.uniform(-1, 1, 2),
                             rng.uniform(-1, 1, B.group.dim))
    return q, v


def sample_hopf(H, rng):
    x = rng.normal(size=4)
    q = BundlePoint.hopf(H, x / np.linalg.norm(x))
    v = rng.normal(size=4)
    v -= np.dot(v, q.ambient) * q.ambient
    return q, v


def roundtrip_defect(A, A_back, sampler, n, rng):
    worst = 0.0
    for _ in range(n):
        q, v = sampler(rng)
        diff = eval_connection(A_back, q, v) - eval_connection(A, q, v)
        worst = max(worst, float(np.linalg.norm(diff)))
    return worst


def test_criterion_1_roundtrip_trivial():
    start = time.perf_counter()
    B, A, U = x_dy_setup()
    Ad = integrate_connection(A, trivial_product_retraction(B), U)
    A_back = derive_connection(Ad)
    rng = np.random.default_rng(1001)
    worst = roundtrip_defect(A, A_back, lambda r: sample_trivial(B, r),
                             100, rng)
    elapsed = time.perf_counter() - start
    report(1, "trivial-bundle integrate/derive round-trip", worst, 1e-6)
    assert elapsed < 5.0


def test_criterion_2_roundtrip_hopf():
    start = time.perf_counter()
    H = HopfBundle()
    A = HopfConnection(H)
    Ad = integrate_connection(A, hopf_geodesic_retraction(H),
                              np.pi / 2)
    A_back = derive_connection(Ad)
    rng = np.random.default_rng(1002)
    worst = roundtrip_defect(A, A_back, lambda r: sample_hopf(H, r), 50, rng)
    elapsed = time.perf_counter() - start
    report(2, "Hopf-bundle integrate/derive round-trip", worst, 1e-5)
    assert elapsed < 10.0


def test_criterion_3_nonuniqueness():
    B = TrivialBundle(EuclideanChart(1), Translation(1))
    U = 1e18
    mk = lambda f: TrivialLocalDiscrete(
        B, lambda m0, m1: np.array([(m1[0] - m0[0]) ** 2 * f]), U)
    Ad0, Ad1 = mk(0.0), mk(1.0)

    q0 = BundlePoint.trivial(B, [0.0], [0.0])
    q1 = BundlePoint.trivial(B, [2.0], [5.0])
    v0 = eval_discrete(Ad0, q0, q1)
    v1 = eval_discrete(Ad1, q0, q1)
    difference = B.group.distance(v0, v1)
    assert difference == pytest.approx(4.0, abs=1e-12)

    # Both members derive to the pure fiber term dy.
    exact = TrivialLocalConnection(B, lambda m, v: np.array([0.0]))
    rng = np.random.default_rng(1003)
    worst = 0.0
    for Ad in (Ad0, Ad1):
        A_back = derive_connection(Ad)
        for _ in range(25):
            q = BundlePoint.trivial(B, rng.uniform(-1, 1, 1),
                                    rng.uniform(-1, 1, 1))
            v = make_trivial_tangent(q, rng.uniform(-1, 1, 1),
                                     rng.uniform(-1, 1, 1))
            diff = eval_connection(A_back, q, v) - eval_connection(exact, q, v)
            worst = max(worst, float(np.linalg.norm(diff)))
    report_flag(3, "distinct integrals of one connection "
                   f"(difference {difference:.1f} >= 0.1, derive defect "
                   f"{worst:.3e} <= 1e-8)",
                difference >= 0.1 and worst <= 1e-8)


def test_criterion_4_flatness_preserved():
    # The flat discrete of d(xy): the curvature-matched integral against
    # the zero reference, whose derived connection is zero, so that the
    # descended difference is the closed form itself.
    Ad = plane_discrete({"kind": "flat", "omega": "closed_xy"})
    B = Ad.bundle
    A_back = derive_connection(Ad)
    rng = np.random.default_rng(1004)
    worst_curv = 0.0
    for _ in range(100):
        m = rng.uniform(-1, 1, 2)
        u = rng.uniform(-1, 1, 2)
        w = rng.uniform(-1, 1, 2)
        value = connections.curvature(A_back, m, u, w)
        worst_curv = max(worst_curv, float(np.linalg.norm(value)))
    worst_bd = 0.0
    for _ in range(100):
        qs = [BundlePoint.trivial(B, rng.uniform(-1, 1, 2),
                                  rng.uniform(-1, 1, 1)) for _ in range(3)]
        worst_bd = max(worst_bd, B.group.distance(
            discrete_curvature(Ad, triangle_pairs(*qs)), B.group.identity()))
    report(4, "flat integration: derived curvature", worst_curv, 1e-6)
    report(4, "flat integration: triple holonomy", worst_bd, 1e-9)


def test_criterion_5_area_identity():
    B = TrivialBundle(EuclideanChart(2), Translation(1))
    U = 1e18
    Ad = TrivialLocalDiscrete(
        B, lambda m0, m1: np.array([0.5 * (m0[0] + m1[0]) * (m1[1] - m0[1])]),
        U)
    mk = lambda m: BundlePoint.trivial(B, m, [0.0])
    value = discrete_curvature(Ad, triangle_pairs(
        mk([0.0, 0.0]), mk([1.0, 0.0]), mk([0.0, 1.0])))
    report(5, "trapezoid triple holonomy equals triangle area",
           abs(value[0] - 0.5), 1e-12)


def test_criterion_6_curvature_matched():
    # omega = x dy + d(x^2) = x dy + 2x dx against the trapezoid rule of
    # x dy, which has the same curvature.
    Ad = plane_discrete({"kind": "matched", "reference": {
        "kind": "local", "pair_map": "trapezoid_x_dy"}},
        omega="x_dy_plus_dx2")
    B = Ad.bundle
    Ad_ref = pair_map_builtin("trapezoid_x_dy", B, 1e18)
    A = TrivialLocalConnection(
        B, lambda m, v: np.array([m[0] * v[1] + 2.0 * m[0] * v[0]]))

    rng = np.random.default_rng(1006)
    worst_bd = 0.0
    for _ in range(50):
        qs = [BundlePoint.trivial(B, rng.uniform(-1, 1, 2),
                                  rng.uniform(-1, 1, 1)) for _ in range(3)]
        pairs = triangle_pairs(*qs)
        b_new = discrete_curvature(Ad, pairs)
        b_ref = discrete_curvature(Ad_ref, pairs)
        worst_bd = max(worst_bd, B.group.distance(b_new, b_ref))

    A_back = derive_connection(Ad)
    worst_rt = roundtrip_defect(A, A_back,
                                lambda r: sample_trivial(B, r), 100, rng)
    report(6, "curvature-matched output: holonomy agreement with reference",
           worst_bd, 1e-6)
    report(6, "curvature-matched output: derives back to input", worst_rt,
           1e-6)


def test_criterion_8_axiom_suites():
    rng = np.random.default_rng(1008)

    B, A, U = x_dy_setup()
    worst_conn = 0.0
    for _ in range(100):
        q, v = sample_trivial(B, rng)
        xi = rng.uniform(-1, 1, 1)
        g = B.group.wrap(rng.uniform(-3, 3, 1))
        worst_conn = max(worst_conn,
                         connections.verticality_defect(A, q, xi),
                         connections.equivariance_defect(A, g, q, v))

    Ad = integrate_connection(A, trivial_product_retraction(B), U)
    worst_disc = 0.0
    for _ in range(100):
        q0, _ = sample_trivial(B, rng)
        q1, _ = sample_trivial(B, rng)
        g = B.group.wrap(rng.uniform(-3, 3, 1))
        g2 = B.group.wrap(rng.uniform(-3, 3, 1))
        worst_disc = max(worst_disc,
                         *discrete.axiom_defects(Ad, g, g2, q0, q1))

    worst_retr = 0.0
    kind = EuclideanChart(2)
    R = metric_exponential(kind)
    for _ in range(100):
        m = rng.uniform(-1, 1, 2)
        v = rng.uniform(-1, 1, 2)
        worst_retr = max(worst_retr, check_retraction_axioms(R, m, v))

    worst_explog = 0.0
    for group in (Translation(3), Torus(2), SO3()):
        for _ in range(1000):
            w = rng.uniform(-1.0, 1.0, group.dim) * 2.8 / np.sqrt(group.dim)
            back = group.log(group.exp(w))
            worst_explog = max(worst_explog,
                               float(np.linalg.norm(back - w)))

    report(8, "connection axioms", worst_conn, 1e-8)
    report(8, "discrete axioms", worst_disc, 1e-9)
    report(8, "retraction axioms", worst_retr, 1e-7)
    report(8, "exp/log round-trip (1000 samples per group)", worst_explog,
           1e-10)


def test_criterion_9_negative_controls():
    def context(**extra):
        return ScenarioContext({
            "name": "criterion-9", "seed": 0,
            "bundle": {"kind": "trivial", "base": {"kind": "R^d", "dim": 2},
                       "group": {"kind": "R^k", "dim": 1}}, **extra})

    # Non-closed one-form x dy rejected by flat integration, the matched
    # integral against the zero reference.
    with pytest.raises(CurvatureMismatch):
        context(discrete={"kind": "flat", "omega": "x_dy"})

    # Curvature-mismatched input rejected by the matched construction:
    # 2x dy against the trapezoid, whose derived connection is x dy.
    with pytest.raises(CurvatureMismatch):
        context(connection={"kind": "local", "omega": {
                    "name": "polynomial",
                    "terms": [{"coeff": 2.0, "powers": [1, 0], "dx": 1}]}},
                discrete={"kind": "matched", "reference": {
                    "kind": "local", "pair_map": "trapezoid_x_dy"}})

    # Non-equivariant retraction exposed by its equivariance defect.
    B2 = TrivialBundle(EuclideanChart(2), Torus(1))
    R = trivial_skewed_retraction(B2)
    q = BundlePoint.trivial(B2, [0.0, 0.0], [1.0])
    v = make_trivial_tangent(q, [0.1, 0.0], [0.5])
    g = B2.group.wrap([1.0])
    assert integration.equivariance_defect(R, g, q, v) > 1e-8

    report_flag(9, "negative controls all rejected", True)

    elapsed = time.perf_counter() - _SUITE_START
    print(f"acceptance suite wall time: {elapsed:.1f} s")
    assert elapsed < 60.0
