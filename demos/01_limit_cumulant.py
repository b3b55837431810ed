"""The limit cumulant phi of an AR(1) stationary law.

For X_n = lam*X_{n-1} + eta_n the stationary law Theta = sum lam**k eta_{k+1}
has cumulant phi(u) = sum_k psi(lam**k u), where psi = log E e^{u eta}.
This script sums the series, compares it against the closed forms that
exist for Gaussian / stable / deterministic innovations, and verifies the
functional equation phi(u) = phi(lam*u) + psi(u) that drives everything else.
"""

import numpy as np

from ar1fpt import (
    Deterministic,
    Gaussian,
    LimitCumulant,
    StableSpectrallyNegative,
    check_functional_equation,
    stationary_reference,
)

lam = 0.5
u_grid = np.linspace(0.0, 20.0, 11)

print("== Gaussian(0, 1), lam = 0.5 ==")
lc = LimitCumulant(Gaussian(0.0, 1.0), lam)
print(f"phi path: {lc.mode}; series(u) sums the series regardless")
print(f"{'u':>6} {'series':>18} {'closed form':>18} {'|delta|':>12}")
for u in u_grid:
    a, err = lc.series(float(u))
    b, _ = lc.phi(float(u))
    print(f"{u:6.1f} {a:18.12f} {b:18.12f} {abs(a - b):12.2e}")

resid = check_functional_equation(lc, u_grid)
print(f"functional equation residual (closed form): {resid:.2e}")

mean, var = stationary_reference(Gaussian(0.0, 1.0), lam)
print(f"stationary mean = {mean}, variance = {var}  (phi''(0) = {var})")

print()
print("== growth at infinity decides integral convergence ==")
for spec, label in [
    (Gaussian(0.0, 1.0), "Gaussian: phi ~ u^2, superlinear"),
    (StableSpectrallyNegative(1.5, 1.0, 0.0), "stable 1.5: phi ~ +u^1.5"),
    (StableSpectrallyNegative(0.7, 1.0, 0.0), "stable 0.7: phi ~ -u^0.7"),
    (Deterministic(1.0), "deterministic: phi = 2u, linear"),
]:
    lc = LimitCumulant(spec, lam)
    slopes = [lc.phi(float(u))[0] / u for u in (1e2, 1e3, 1e4)]
    print(f"{label:45s} phi(u)/u at 1e2/1e3/1e4: "
          + ", ".join(f"{s:.4g}" for s in slopes))
