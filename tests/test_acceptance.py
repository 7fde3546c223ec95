"""Acceptance suite: every numbered criterion at its stated tolerance,
one pass/fail line per criterion.

Run as `pytest tests/test_acceptance.py -v -s` to see the report lines.
"""
import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.special import jv

from specsing import (EnsembleParams, derivative_identity_residual, hyp1f1,
                      hyp2f1_terminating, intermediate_expansion_check,
                      k_limit, kernel_residual_scan, kernel_s2, morris_closed,
                      morris_quadrature, MorrisParams, orthogonality_check,
                      rho_finite, density_expansion_check, tuned_scaling_residual)


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {label} {detail}")
    assert ok, f"criterion {num} failed: {label} {detail}"


def test_criterion_1_orthogonality():
    t0 = time.time()
    worst = 0.0
    for (p, q) in ((1.5, 0.7), (0.5, 0.0)):
        pr = EnsembleParams(2, 12, p, q)
        for n in range(7):
            for m in range(n, 7):
                worst = max(worst, orthogonality_check(n, m, pr))
    elapsed = time.time() - t0
    _report(1, "orthogonality suite (N=12, n,m<=6)",
            worst <= 1e-8 and elapsed < 10,
            f"max rel residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_confluent_limit_rate():
    b, c, t = 1.5 - 0.7j, 3.0, 1.3
    target = hyp1f1(b, c, -t)
    res = {n: abs(hyp2f1_terminating(n, b, c, t / n) - target)
           for n in (50, 100, 200, 400)}
    ratios = [res[2 * n] / res[n] for n in (50, 100, 200)]
    ok = all(0.4 <= r <= 0.6 for r in ratios)
    _report(2, "confluent-limit residual halves as n doubles", ok,
            f"ratios {[f'{r:.3f}' for r in ratios]}")


def test_criterion_3_bessel_sine_reductions():
    grid = (0.5, 1.7, 3.0)
    worst_bessel = 0.0
    for p in (0.5, 1.5):
        pr = EnsembleParams(2, 10, p, 0.0)
        for X in grid:
            for Y in grid:
                if X == Y:
                    continue
                lhs = (X / Y) * k_limit(2, X, Y, pr)
                rhs = (math.sqrt(X * Y)
                       * (jv(p + 0.5, X) * jv(p - 0.5, Y)
                          - jv(p - 0.5, X) * jv(p + 0.5, Y)) / (2 * (X - Y)))
                worst_bessel = max(worst_bessel, abs(lhs - rhs))
    pr0 = EnsembleParams(2, 10, 0.0, 0.0)
    worst_sine = 0.0
    for X in grid:
        for Y in grid:
            if X == Y:
                continue
            lhs = (X / Y) * k_limit(2, X, Y, pr0)
            worst_sine = max(worst_sine,
                             abs(lhs - math.sin(X - Y) / (math.pi * (X - Y))))
    ok = worst_bessel <= 1e-8 and worst_sine <= 1e-10
    _report(3, "Bessel/sine kernel reductions at q=0", ok,
            f"bessel {worst_bessel:.2e}, sine {worst_sine:.2e}")


def test_criterion_4_derivative_identity():
    t0 = time.time()
    worst = 0.0
    grid = ((2.0, 0.9), (1.0, 2.5), (0.7, 1.8), (3.0, 1.1))
    for beta in (1, 2, 4):
        for (p, q) in ((1.5, 0.7), (0.8, 0.4)):
            pr = EnsembleParams(beta, 50, p, q)
            for (X, Y) in grid:
                worst = max(worst,
                            derivative_identity_residual(beta, X, Y, pr))
    elapsed = time.time() - t0
    _report(4, "derivative identity L1 = p(X dX + Y dY + 1)K, beta in {1,2,4}",
            worst <= 1e-6 and elapsed < 60,
            f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_5_kernel_convergence_rates():
    t0 = time.time()
    X, Y = 2.0, 0.9
    ok = True
    detail = []
    pr2 = EnsembleParams(2, 100, 1.5, 0.7)
    for order, band in ((0, (-1.3, -0.7)), (1, (-2.3, -1.7))):
        rep = kernel_residual_scan(2, X, Y, pr2, [100, 200, 400, 800], order)
        ok &= band[0] <= rep.fitted_slope <= band[1]
        detail.append(f"b2 o{order}:{rep.fitted_slope:.2f}")
    rep = kernel_residual_scan(2, X, Y, pr2, [100, 200, 400, 800], 2)
    ok &= rep.floor_hit or rep.fitted_slope <= -2.7
    detail.append(f"b2 o2:{rep.fitted_slope:.2f}{'(floor)' if rep.floor_hit else ''}")
    for beta, pq in ((1, (1.5, 0.7)), (4, (0.8, 0.4))):
        pr = EnsembleParams(beta, 50, *pq)
        for order, band in ((0, (-1.3, -0.7)), (1, (-2.3, -1.7))):
            rep = kernel_residual_scan(beta, X, Y, pr, [50, 100, 200, 400],
                                       order)
            ok &= band[0] <= rep.fitted_slope <= band[1]
            detail.append(f"b{beta} o{order}:{rep.fitted_slope:.2f}")
    elapsed = time.time() - t0
    _report(5, "kernel convergence rates", ok and elapsed < 600,
            f"{' '.join(detail)}, {elapsed:.1f}s")


def test_criterion_6_tuned_scaling():
    X, Y = 2.0, 0.9
    ok = True
    detail = []
    for beta in (1, 2):
        pr = EnsembleParams(beta, 50, 1.5, 0.7)
        rep = tuned_scaling_residual(beta, X, Y, pr, [50, 100, 200, 400])
        ok &= -2.4 <= rep.fitted_slope <= -1.6
        detail.append(f"b{beta}:{rep.fitted_slope:.2f}")
    pr0 = EnsembleParams(2, 100, 0.0, 0.0)
    rep = kernel_residual_scan(2, X, Y, pr0, [100, 200, 400, 800], 0)
    ok &= -2.4 <= rep.fitted_slope <= -1.6
    detail.append(f"b2 p=q=0 untuned:{rep.fitted_slope:.2f}")
    _report(6, "tuned scaling N -> N+p gives O(1/N^2)", ok, " ".join(detail))


def test_criterion_7_morris():
    t0 = time.time()
    worst = 0.0
    for N in (1, 2, 3):
        for lam in (0.5, 1.0, 2.0):
            for (a, b) in ((0.0, 0.0), (1.0, 0.0), (1.5, 0.7)):
                m = MorrisParams(complex(a), complex(b), lam, N)
                closed = morris_closed(m)
                qd = morris_quadrature(m)
                worst = max(worst, abs(closed - qd) / abs(closed))
    elapsed = time.time() - t0
    _report(7, "Morris integral closed form vs quadrature",
            worst <= 1e-6 and elapsed < 60,
            f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_8_density_cross_validation():
    pr = EnsembleParams(2, 5, 1.5, 0.7)
    worst = 0.0
    for theta in (0.8, 2.0, 4.5):
        x = 1.0 / math.tan(theta / 2)
        det = kernel_s2(x, x, pr) / (2 * math.sin(theta / 2) ** 2)
        for path in ("jack", "integral"):
            val = rho_finite(theta, pr, path)
            worst = max(worst, abs(val - det) / det)
    _report(8, "density equals determinantal diagonal (both paths)",
            worst <= 1e-6, f"max rel err {worst:.2e}")


def test_criterion_9_density_normalization():
    ok = True
    detail = []
    for (beta, N) in ((2, 4), (2, 6), (4, 3)):
        pr = EnsembleParams(beta, N, 1.5, 0.7)
        val, _ = quad(lambda t: rho_finite(t, pr), 1e-9, 2 * math.pi - 1e-9,
                      limit=120)
        ok &= abs(val - N) <= 1e-4
        detail.append(f"({beta},{N}):{val - N:+.2e}")
    _report(9, "density normalization int rho = N", ok, " ".join(detail))


def test_criterion_10_density_expansion():
    t0 = time.time()
    pr = EnsembleParams(2, 8, 1.5, 0.7)
    rec = density_expansion_check(1.0, pr, [8, 16, 32])
    diffs = [abs(m - rec["l1_predicted"]) for m in rec["l1_measured"]]
    ok = all(diffs[i + 1] < diffs[i] for i in range(len(diffs) - 1))
    ok &= -2.4 <= rec["slope_after_l1"] <= -1.6
    ok &= -2.4 <= rec["slope_tuned"] <= -1.6
    pr4 = EnsembleParams(4, 4, 1.5, 0.7)
    rec4 = density_expansion_check(1.0, pr4, [4, 8])
    d4 = [abs(m - rec4["l1_predicted"]) for m in rec4["l1_measured"]]
    ok &= d4[1] < d4[0]
    elapsed = time.time() - t0
    _report(10, "density 1/N expansion and tuned scaling",
            ok and elapsed < 900,
            f"slope_after {rec['slope_after_l1']:.2f}, "
            f"slope_tuned {rec['slope_tuned']:.2f}, "
            f"beta4 |l1 err| {d4[0]:.1e}->{d4[1]:.1e}, {elapsed:.1f}s")


def test_criterion_11_intermediate_oracles():
    kinds = ("poc", "weight", "polynomial", "norm", "sine_ratio", "icc",
             "tail_b1", "icc4", "gamma2N")
    pr = EnsembleParams(2, 200, 1.5, 0.7)
    ok = True
    detail = []
    for kind in kinds:
        v1 = intermediate_expansion_check(kind, 100, 1.3, pr)
        v2 = intermediate_expansion_check(kind, 200, 1.3, pr)
        bounded = (v1 < 1e-10 and v2 < 1e-10) or \
            (np.isfinite(v1) and np.isfinite(v2) and 0.5 < v2 / v1 < 2.0)
        ok &= bounded
        detail.append(f"{kind}:{'ok' if bounded else 'FAIL'}")
    _report(11, "intermediate expansion oracle suite", ok, " ".join(detail))
