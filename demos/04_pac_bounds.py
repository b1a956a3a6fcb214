"""High-probability coverage bounds and what they cost.

Run:  python demos/04_pac_bounds.py
"""

from coverkit import (
    adversarial_floor,
    corrected_alpha_split,
    cvplus_pac_bound,
    split_pac_bound,
)

alpha, delta = 0.1, 0.05

print(f"target level alpha = {alpha}, confidence 1 - delta = {1 - delta}\n")

print("split conformal: miscoverage <= alpha + sqrt(ln(1/delta) / (2 n1)) "
      "w.p. >= 1 - delta")
for n1 in (25, 100, 250, 1000, 10_000):
    print(f"  n1 = {n1:>6}: bound = {split_pac_bound(alpha, delta, n1):.4f}")

print("\nholdout size needed before a corrected level alpha' is even feasible:")
for n1 in (10, 100, 250, 1000):
    corrected = corrected_alpha_split(alpha, delta, n1)
    shown = "INFEASIBLE" if corrected is None else f"{corrected:.4f}"
    print(f"  n1 = {n1:>6}: alpha' = {shown}")

print("\ncv+: miscoverage <= 2 alpha + sqrt(2 ln(K/delta) / m) w.p. >= 1 - delta")
for K, m in ((20, 25), (10, 100), (5, 1000), (2, 100_000)):
    bound = cvplus_pac_bound(alpha, delta, K, m)
    note = "  <- nearly vacuous at the simulation scale" if bound > 0.8 else ""
    print(f"  K = {K:>3}, m = {m:>7}: bound = {bound:.4f}{note}")

print("\nfull conformal / jackknife+: no such bound exists. The guaranteed")
print("frequency of near-total collapse for the worst-case algorithm is")
print("alpha - 6 sqrt(ln n / n):")
for n in (500, 5000, 50_000, 500_000):
    floor = adversarial_floor(alpha, n)
    note = "  (vacuous)" if floor.vacuous else ""
    print(f"  n = {n:>7}: floor = {floor.value:+.4f}{note}")
