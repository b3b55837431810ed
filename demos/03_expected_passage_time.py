"""E tau from the additive martingale: exact identity and two-sided bounds.

Optional stopping of H(X_n) - n gives

    E tau = E H(X_tau) - H(x),

where X_tau = a + overshoot.  Dropping the (nonnegative) overshoot yields
the lower bound H(a) - H(x); capping the innovation above at H_cap enlarges
tau pathwise and yields a computable upper bound.  The identity takes
H(x) from the transform engine, and E H(X_tau) as the mean of h(Z) over the
simulated pre-crossing states Z = X_{tau-1}, where h(z) = E[H(X_tau) | Z = z]
is tabulated from the engine before the simulation.
"""

import math

from ar1fpt import (
    Deterministic,
    Gaussian,
    PassageProblem,
    feasibility_report,
    h_table,
    identity_estimate,
    lower_bound_e_tau,
    simulate_passage,
    upper_bound_e_tau,
)

print("== deterministic warm-up: everything is exact ==")
p = PassageProblem(lam=0.5, x=0.0, a=1.5, spec=Deterministic(1.0))
table = h_table(p)
sim = simulate_passage(p, n_paths=4096, max_steps=50, seed=0, h=table)
value, _ = identity_estimate(p, sim, table)
print(f"path: 0 -> 1 -> 1.5 -> 1.75 crosses a=1.5 at step 3; simulated "
      f"E tau = {sim.e_tau_hat}, identity = {value:.12f}")
print(f"bounds: {lower_bound_e_tau(p)[0]:.6f} <= 3 <= {upper_bound_e_tau(p, 4.0)[0]:.6f}")

print()
print("== Gaussian flagship: identity vs direct Monte Carlo ==")
p = PassageProblem(lam=0.5, x=0.0, a=1.0, spec=Gaussian(0.0, 1.0))
table = h_table(p)
sim = simulate_passage(p, n_paths=200_000, max_steps=10**6, seed=42, h=table)
value, std_err = identity_estimate(p, sim, table)
combined = math.hypot(std_err, sim.e_tau_std_err)
print(f"direct MC:  E tau = {sim.e_tau_hat:.4f} +- {sim.e_tau_std_err:.4f} "
      f"({sim.n_censored} censored)")
print(f"identity:   E tau = {value:.4f} +- {std_err:.4f}")
print(f"discrepancy = {abs(value - sim.e_tau_hat) / combined:.2f} combined std errs")
print(f"bounds: {lower_bound_e_tau(p)[0]:.4f} <= E tau <= "
      f"{upper_bound_e_tau(p, h_cap=4.0)[0]:.1f} (cap-above at 4)")

print()
print("== when the level is unreachable, say so up front ==")
p = PassageProblem(lam=0.5, x=0.0, a=3.0, spec=Deterministic(1.0))
rep = feasibility_report(p)
print(f"a=3 with sup X_n -> {rep.sup_bound}: certain_infinite = {rep.certain_infinite}")
