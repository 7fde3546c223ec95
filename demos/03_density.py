"""Even-beta spectral density: exact finite-N formula, determinantal
cross-check at beta = 2, scaled limit, and the 1/N expansion with its
derivative-form correction.
"""
import math

from specsing import (EnsembleParams, density_expansion_check, kernel_s2,
                      morris_closed, morris_quadrature, MorrisParams,
                      rho_finite, rho_limit, tanh_sinh_rule)

print("=== Morris integral: closed gamma product vs direct quadrature ===")
for N in (1, 2, 3):
    m = MorrisParams(1.5 + 0j, 0.7 + 0j, 0.5, N)
    c, q = morris_closed(m), morris_quadrature(m)
    print(f"N={N}: closed = {c.real:.12f}   quadrature = {q.real:.12f}")

print("\n=== beta = 2: density equals the determinantal diagonal ===")
pr = EnsembleParams(2, 5, 1.5, 0.7)
for theta in (0.8, 2.0, 4.5):
    x = 1.0 / math.tan(theta / 2)
    det = kernel_s2(x, x, pr) / (2 * math.sin(theta / 2) ** 2)
    print(f"theta={theta}: rho = {rho_finite(theta, pr):.10f}"
          f"   determinantal = {det:.10f}")

print("\n=== normalization: int rho = N ===")
for beta, N in ((2, 6), (4, 3)):
    prn = EnsembleParams(beta, N, 1.5, 0.7)
    rule = tanh_sinh_rule(0, 2 * math.pi, 7)
    val = sum(w * rho_finite(float(t), prn) for t, w in zip(rule.nodes, rule.weights))
    print(f"beta={beta}, N={N}: integral = {val:.8f}")

print("\n=== scaled limit and the 1/N correction (beta = 2) ===")
pr = EnsembleParams(2, 8, 1.5, 0.7)
theta = 1.0
rec = density_expansion_check(theta, pr, [8, 16, 32])
print(f"l1 predicted (p d/dtheta[theta rho_inf]) = {rec['l1_predicted']:+.6f}")
for N, m in zip((8, 16, 32), rec["l1_measured"]):
    print(f"  N={N:2d}: l1 measured = {m:+.6f}")
print(f"slope after removing the correction: {rec['slope_after_l1']:+.3f}")
print(f"slope under the tuned scaling theta/(N+p): {rec['slope_tuned']:+.3f}")

print("\n=== small-angle behaviour rho_inf ~ theta^(p beta) ===")
for beta in (2, 4):
    prb = EnsembleParams(beta, 8, 1.5, 0.7)
    t1, t2 = 1e-3, 1e-2
    slope = (math.log(rho_limit(t2, prb)) - math.log(rho_limit(t1, prb))) / math.log(10)
    print(f"beta={beta}: log-log slope = {slope:.4f}   (p beta = {1.5 * beta})")
