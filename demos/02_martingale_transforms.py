"""Martingale transforms N_v, H, W_v and their harmonic equations.

Each transform is an integral of e^{uy - phi(u)} against a power weight:

    N_v(y) = int_0^inf e^{uy - phi(u)} u^{v-1} du            (v > 0)
    H(y)   = (1/log(1/lam)) int_0^inf (e^{uy} - 1) e^{-phi(u)} / u du
    W_v(y) = int_0^inf (e^{uy - phi(u)} - 1) u^{v-1} du       (v < 0)

They solve lam^v E f(lam*y + eta) = f(y) (multiplicative) or
E H(lam*y + eta) = H(y) + 1 (additive), which is what makes lam^{vn} f(X_n)
and H(X_n) - n martingales.  Deterministic innovations turn every one of
these into a gamma or Frullani integral we can check in closed form.
transform(lc, kind, y, v) evaluates every one of them, for one state or a
whole array of states in one engine call.
"""

import math

from scipy.special import gamma

from ar1fpt import Deterministic, Gaussian, LimitCumulant, check_harmonic, transform

lam = 0.5
lc_det = LimitCumulant(Deterministic(1.0), lam)  # phi(u) = 2u, so s = 2 - y
lc_gauss = LimitCumulant(Gaussian(0.0, 1.0), lam)

print("== deterministic closed forms (theta = 2) ==")
for y, v in [(0.0, 0.5), (1.0, 1.0), (1.5, 2.0)]:
    got = transform(lc_det, "N", y, v)
    want = gamma(v) * (2.0 - y) ** -v
    print(f"N_{v}({y}) = {got.value:.12f}   gamma(v) s^-v = {want:.12f}")

ys = [0.5, 1.0, 1.75]
got = transform(lc_det, "H", ys)  # three states, one engine call
for y, value in zip(ys, got.value):
    want = math.log(2.0 / (2.0 - y)) / math.log(2.0)
    print(f"H({y}) = {value:.12f}   Frullani log_2(2/(2-y)) = {want:.12f}")

got = transform(lc_det, "W", 1.0, -0.5)
print(f"W_-0.5(1) = {got.value:.12f}   gamma(-1/2) = {-2 * math.sqrt(math.pi):.12f}")

got = transform(lc_det, "C", 1.0, 0.0)
print(f"C(1, 0) = {got.value:.12f}   -euler_gamma = {-0.5772156649015329:.12f}")

print()
print("== harmonic equation residuals (should be ~ machine precision) ==")
for label, lc in [("Gaussian", lc_gauss), ("Deterministic", lc_det)]:
    for kind, v in [("N", 1.0), ("H", None), ("W", -0.4)]:
        r = check_harmonic(lc, kind, y=0.3, v=v)
        print(f"{label:14s} {kind}{'' if v is None else f'_{v}'}: residual {r:.2e}")

print()
print("== admissibility: the integrals exist exactly for y < y_adm ==")
for lc, y, label in [
    (lc_gauss, 5.0, "Gaussian, y=5 (phi superlinear: always)"),
    (lc_det, 1.9, "Deterministic, y=1.9 < theta=2"),
    (lc_det, 2.1, "Deterministic, y=2.1 > theta=2"),
]:
    print(f"{label:45s} y < lc.y_adm = {y < lc.y_adm}  (y_adm = {lc.y_adm})")
