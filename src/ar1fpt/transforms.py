"""Numerical evaluation of the martingale transforms.

For a limit cumulant phi and states y in the admissible domain:

    N_v(y) = int_0^inf exp(u*y - phi(u)) u**(v-1) du            (v > 0)
    H(y)   = (1/log(1/lam)) int_0^inf (e^{u y} - 1) e^{-phi(u)} u**-1 du
    W_v(y) = int_0^inf (exp(u*y - phi(u)) - 1) u**(v-1) du      (v < 0)
           = C(y, v) + 1/v
    C(y,v) = int_0^1 (exp(u*y - phi(u)) - 1) u**(v-1) du
             + int_1^inf exp(u*y - phi(u)) u**(v-1) du

lam**(v*n) * N_v(X_n), H(X_n) - n and lam**(v*n) * W_v(X_n) are martingales
of the AR(1) sequence, which is what check_harmonic verifies numerically.
All integrals converge iff the exponent u*y - phi(u) eventually decreases
linearly, i.e. iff y lies below the admissibility level lc.y_adm.

Each transform is only an integrand definition for the engine
quadrature.improper_integral: the integrand takes the engine's node array
u, evaluates phi(u) once, and returns the (states x nodes) array of
integrand values for a whole batch of states.  transform is the one
entry point: it evaluates any batch, a single state included, with one
order v or one order per state.  expected_H averages H over a batch of
laws of the state, given by their log-MGFs: the u- and state-integrals
swapped, H's integrand with e^{u y} replaced by E e^{u Y}.  The
integrands take phi's value path, which forms no error bound.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .cumulant import LimitCumulant
from .errors import DivergenceError
from .quadrature import QuadratureResult, improper_integral

_EXP_CLIP = 700.0  # exp() overflow guard; exponents this large mean divergence


def _require_admissible(lc, y):
    y_top = np.max(y)
    if not y_top < lc.y_adm:
        raise DivergenceError(
            f"transform integral diverges at y={y_top}: states must lie below "
            f"y_adm={lc.y_adm:.6g}"
        )


def expected_H(lc: LimitCumulant, log_mgf) -> QuadratureResult:
    """E H(Y) for a batch of laws of Y, in one engine call.

    log_mgf maps the engine's node array u to the (states x nodes) array
    log E e^{uY}; then E H(Y) = (1/log(1/lam)) int (E e^{uY} - 1) e^{-phi(u)}
    du/u, the u- and Y-integrals swapped.  H(y) is the point mass
    log_mgf(u) = u*y.  Every law must live below lc.y_adm, or its integral
    diverges.  Where e^{-phi} underflows at every node of a call that
    reaches below u = 1, the integrand's mass lies below the engine's first
    node, out of its sight: the call returns NaN, so every state diverges.
    """

    def integrand(u):
        phi_u = lc.phi(u, bound=False)[0]
        e = log_mgf(u)
        e0 = np.exp(np.minimum(-phi_u, _EXP_CLIP))
        if not e0.any() and u.min() < 1.0:
            return np.full(np.broadcast(e, u).shape, np.nan)
        # the expm1 form where the difference of exponentials cancels; the
        # clip keeps the unselected branch finite
        small = e0 * np.expm1(np.clip(e, -1.0, 1.0))
        return np.where(np.abs(e) < 0.5, small, np.exp(np.minimum(e - phi_u, _EXP_CLIP)) - e0) / u

    res = improper_integral(integrand)
    scale = 1.0 / math.log(1.0 / lc.lam)
    return dataclasses.replace(res, value=res.value * scale, abs_err=res.abs_err * scale)


def transform(lc: LimitCumulant, kind: str, y, v=None) -> QuadratureResult:
    """N_v, H, W_v or C(., v) at every state of y in one engine call.

    phi is evaluated once per node set and shared by all states.  v is one
    order or an array of orders broadcast against y; the result's fields
    have the broadcast shape (Python scalars when both are scalars).  The
    engine's singular power is that of the most singular order.  W_v is the
    C(., v) integral plus 1/v, the exact value of -int_1^inf u**(v-1) du:
    beyond u = 1 the bracket of W_v is exp(u*y - phi(u)) - 1, and the -1
    integrates in closed form, leaving the decaying integrand of C.
    """
    orders = np.asarray(0.0 if kind == "H" else np.nan if v is None else v, dtype=float)
    if kind == "N":
        valid, power = orders > 0.0, min(float(orders.min()) - 1.0, 0.0)
    elif kind in ("W", "C"):
        valid = (-1.0 < orders) & ((orders < 0.0) | (orders == 0.0) & (kind == "C"))
        power = float(orders.min())
    elif kind == "H":
        v, valid, power = 0.0, True, 0.0
    else:
        raise ValueError(f"unknown transform kind {kind!r}")
    if not np.all(valid):
        raise ValueError(f"{kind} needs v > 0 for N, v in (-1, 0) for W, v in (-1, 0] for C")
    y = np.asarray(y, dtype=float)
    _require_admissible(lc, y)
    if np.ndim(v) > 0:  # one order per state
        y, v = np.broadcast_arrays(y, orders)
    ys, vs = y[..., None], v[..., None] if np.ndim(v) > 0 else v

    if kind == "H":
        return expected_H(lc, lambda u: u * ys)

    def integrand(u):
        expo = np.minimum(u * ys - lc.phi(u, bound=False)[0], _EXP_CLIP)
        if kind == "N":
            return np.exp(expo) * u ** (vs - 1.0)
        bracket = np.exp(expo)
        np.expm1(expo, out=bracket, where=u <= 1.0)  # the -1 cancels on [0, 1]
        return bracket * u ** (vs - 1.0)

    return improper_integral(
        integrand, singular_power=power, offset=1.0 / v if kind == "W" else 0.0
    )


# ---------------------------------------------------------------------------
# Harmonic-equation residuals
# ---------------------------------------------------------------------------


def check_harmonic(
    lc: LimitCumulant,
    kind: str,
    y: float,
    v: float | None = None,
) -> float:
    """Residual of the martingale harmonic equation at state y.

    For kinds "N" and "W": |lam**v * E f(lam*y + eta) - f(y)|.
    For kind "H":          |E H(lam*y + eta) - H(y) - 1|.

    The expectation over the innovation is the family's expectation(g)
    over the whole law: exact atom sums for discrete families, Gauss-Hermite
    for Gaussian, and the base's expectation below the first level plus the
    level atoms for a Truncated law.  Each call of the integrand hands its
    whole node array, together with y, to one engine call.  Raises
    DivergenceError when a transform value it needs did not converge, and
    for a stable family, which has no expectation with a checked error bar.
    """
    if kind not in ("N", "H", "W"):
        raise ValueError(f"unknown transform kind {kind!r}")
    f_y = []

    def f_after_step(eta):
        eta = np.asarray(eta, dtype=float)
        states = np.append(lc.lam * y + eta, y)
        vals = transform(lc, kind, states, v).require(
            f"{kind} transform on the states [{states.min():.6g}, {states.max():.6g}]"
        ).value
        f_y.append(vals[-1])
        return vals[:-1].reshape(eta.shape)

    expectation = lc.spec.expectation(f_after_step)
    if kind == "H":
        return abs(expectation - f_y[-1] - 1.0)
    return abs(lc.lam**v * expectation - f_y[-1])
