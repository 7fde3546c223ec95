"""Jack-polynomial generalized hypergeometric machinery.

Shows the partition enumeration, the C-normalization sum rule that pins the
principal specialization, the reduction to classical series at one variable,
and the duality transformation used to move between equal-argument 2F1 forms.
"""
from specsing import (duality_ratio_2f1, hyp2f1_terminating,
                      hyper_pfq_alpha, jack_principal, partitions_up_to)

print("=== partitions with <= 3 parts, weight <= 4 ===")
for part in partitions_up_to(3, 4):
    print(" ", part.parts if part.parts else "(empty)")

print("\n=== sum rule: sum_{|k|=n} C_k^(alpha)(1^m) = m^n ===")
for alpha in (0.5, 1.0, 2.0):
    for m, n in ((2, 3), (3, 4)):
        tot = sum(jack_principal(k, alpha, m, 1.0)
                  for k in partitions_up_to(m, n) if k.weight == n)
        print(f"alpha={alpha}, m={m}, n={n}: sum = {tot.real:.12f}   (m^n = {m ** n})")

print("\n=== one variable: 2F1^(alpha) is the classical 2F1, any alpha ===")
ref = hyp2f1_terminating(3, 2.0, 4.0, 0.3)
for alpha in (0.5, 1.0, 2.0):
    val = hyper_pfq_alpha([-3.0, 2.0], [4.0], alpha, 1, 0.3, max_weight=10)
    print(f"alpha={alpha}: {val.real:.15f}   classical: {ref.real:.15f}")

print("\n=== duality ratio (two equal arguments) ===")
n, b, c, t = 2, complex(2.5, -0.7), complex(-0.5, -0.2), 0.9 + 0.05j
lhs = duality_ratio_2f1(n, b, c, 1.0, 2, t)
rhs = hyper_pfq_alpha([complex(-n), b], [c], 1.0, 2, t, max_weight=8)
print(f"ratio form: {lhs:.12f}")
print(f"direct    : {rhs:.12f}")
