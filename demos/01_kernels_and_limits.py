"""Finite-N kernels, their scaled limits, and the derivative-form correction.

Walks through the central objects at beta = 1, 2, 4: evaluates the finite-N
kernel in the scaled variable, compares with the limit plus 1/N correction,
and checks that the correction equals p (X d/dX + Y d/dY + 1) applied to the
limit kernel.
"""
from specsing import (EnsembleParams, derivative_identity_residual, k_limit,
                      kernel_scaled, l1, l2)

X, Y = 2.0, 0.9

print("=== scaled kernels vs limit + corrections ===")
for beta, (p, q) in ((1, (1.5, 0.7)), (2, (1.5, 0.7)), (4, (0.8, 0.4))):
    print(f"\nbeta = {beta}, p = {p}, q = {q}:")
    pr_big = EnsembleParams(beta, 400, p, q)
    K = k_limit(beta, X, Y, pr_big)
    L1 = l1(beta, X, Y, pr_big)
    print(f"  K_inf = {K.real:+.10f}    L1 = {L1.real:+.10f}")
    for N in (50, 100, 200, 400):
        pr = EnsembleParams(beta, N, p, q)
        S = kernel_scaled(beta, X, Y, pr)
        model = (K + L1 / N).real
        print(f"  N={N:4d}: S_N = {S:+.10f}   K + L1/N = {model:+.10f}"
              f"   diff = {S - model:+.2e}")

print("\n=== second-order term (beta = 2, 4) ===")
for beta, (p, q) in ((2, (1.5, 0.7)), (4, (0.8, 0.4))):
    pr = EnsembleParams(beta, 200, p, q)
    K, L1v, L2v = (f(beta, X, Y, pr) for f in (k_limit, l1, l2))
    S = kernel_scaled(beta, X, Y, pr)
    n = pr.size
    print(f"beta={beta}: N^2 (S_N - K - L1/N) = "
          f"{((S - K - L1v / n) * n * n).real:+.6f}   L2 = {L2v.real:+.6f}")

print("\n=== derivative identity: L1 = p (X dX + Y dY + 1) K ===")
for beta in (1, 2, 4):
    pr = EnsembleParams(beta, 50, 1.5, 0.7)
    res = derivative_identity_residual(beta, X, Y, pr)
    print(f"beta={beta}: relative residual = {res:.2e}")
