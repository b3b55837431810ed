"""A provable geometric tail bound P(tau > n) <= c * e^{-alpha n}.

Capping the innovation above at h (eta replaced by min(eta, h)) only
enlarges tau, so a certificate for the capped process transfers to the
original one.  Every capped state up to the passage is at most
y_top = lam*a + h.  For v < 0, lam^{vn} W_v(X_n) is a martingale and W_v
increases in y, so once W_v(y_top) < 0 optional stopping gives
P(tau > n) <= (W_v(x)/W_v(a)) e^{-alpha n} with alpha = |v| log(1/lam).
The bound is then checked against an independent simulated survival curve.
"""

import numpy as np

from ar1fpt import Gaussian, PassageProblem, exponential_certificate, simulate_passage

p = PassageProblem(lam=0.5, x=0.0, a=1.0, spec=Gaussian(0.0, 1.0))
cert = exponential_certificate(p)
print(f"certificate: alpha = {cert.alpha:.6e}, c = {cert.c_bound:.4f} "
      f"(v* = {cert.v_star:.6f}, cap h = {cert.h_cap})")
print(f"so E e^(alpha tau) < inf: tau is exponentially bounded.")

sim = simulate_passage(p, n_paths=200_000, max_steps=10**4, seed=1)
print()
print(f"{'n':>6} {'P(tau > n)':>12} {'bound':>12}")
for n in (1, 2, 5, 10, 20, 50):
    idx = np.searchsorted(sim.survival_n, n)
    if idx < len(sim.survival_n):
        print(f"{n:6d} {sim.survival_p[idx]:12.5f} "
              f"{float(cert.survival_bound(n)):12.5f}")

viol = np.sum(sim.survival_p > cert.survival_bound(sim.survival_n))
print(f"\nviolations across the whole curve: {viol} of {len(sim.survival_n)}")
