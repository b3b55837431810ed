"""The stationary law Theta and the Monte Carlo oracle's reproducibility.

Theta = sum lam**k eta_{k+1} is the distributional limit of X_n and the
fixed point of Theta =d lam*Theta + eta.  The sampler truncates the series
once the remaining terms are below 1e-8 of the innovation scale.  All
simulation in this package draws from streams keyed per block (SFC64 seeded
by the seed and the block index), so results are bit-identical for any
FPT_THREADS worker count.
"""

import json
import os

import numpy as np
from scipy import stats

from ar1fpt import Gaussian, PassageProblem, simulate_passage, simulate_stationary, stationary_reference

spec, lam = Gaussian(0.0, 1.0), 0.5
mean_ref, var_ref = stationary_reference(spec, lam)

theta = simulate_stationary(spec, lam, 200_000, seed=0)
print(f"stationary draws: mean {theta.mean():+.5f} (exact {mean_ref}), "
      f"var {theta.var():.5f} (exact {var_ref:.5f})")

# fixed-point check: Theta and lam*Theta' + eta should be the same law
theta2 = simulate_stationary(spec, lam, 200_000, seed=1)
eta = spec.sample(np.random.default_rng(2), 200_000)
ks = stats.ks_2samp(theta, lam * theta2 + eta)
print(f"two-sample KS of Theta vs lam*Theta + eta: p = {ks.pvalue:.3f}")

print()
print("== worker count never changes the numbers ==")
p = PassageProblem(lam=lam, x=0.0, a=1.0, spec=spec)
digests = {}
for threads in ("1", "8"):
    os.environ["FPT_THREADS"] = threads
    sim = simulate_passage(p, n_paths=50_000, max_steps=10**4, seed=7)
    digests[threads] = json.dumps(sim.to_dict(), sort_keys=True)
    print(f"FPT_THREADS={threads}: E tau = {sim.e_tau_hat!r}")
print(f"byte-identical summaries: {digests['1'] == digests['8']}")
