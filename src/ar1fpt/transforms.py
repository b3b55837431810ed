"""Numerical evaluation of the three martingale transforms.

For a limit cumulant phi and states y in the admissible domain:

    N_v(y) = int_0^inf exp(u*y - phi(u)) u**(v-1) du            (v > 0)
    H(y)   = (1/log(1/lam)) int_0^inf (e^{u y} - 1) e^{-phi(u)} u**-1 du
    W_v(y) = int_0^inf (exp(u*y - phi(u)) - 1) u**(v-1) du      (v < 0)
    C(y,v) = int_0^1 (exp(u*y - phi(u)) - 1) u**(v-1) du
             + int_1^inf exp(u*y - phi(u)) u**(v-1) du

lam**(v*n) * N_v(X_n), H(X_n) - n and lam**(v*n) * W_v(X_n) are martingales
of the AR(1) sequence, which is what check_harmonic verifies numerically.
All integrals converge iff the exponent u*y - phi(u) eventually decreases
linearly, i.e. iff y lies below the admissibility level lc.y_adm.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate

from .cumulant import LimitCumulant
from .errors import DivergenceError
from .quadrature import (
    DEFAULT_ABS_TOL,
    DEFAULT_REL_TOL,
    DEFAULT_U_MAX,
    QuadratureResult,
    improper_integral,
    panel_nodes,
)

_EXP_CLIP = 700.0  # exp() overflow guard; exponents this large mean divergence


def _exp_guard(x: float) -> float:
    return math.exp(min(x, _EXP_CLIP))


def _require_admissible(lc, y):
    if not y < lc.y_adm:
        raise DivergenceError(
            f"transform integral diverges at y={y}: states must lie below "
            f"y_adm={lc.y_adm:.6g}"
        )


def eval_N(
    lc: LimitCumulant,
    y: float,
    v: float,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> QuadratureResult:
    """N_v(y) for v > 0."""
    if v <= 0:
        raise ValueError("eval_N requires v > 0")
    _require_admissible(lc, y)

    def f(u: float) -> float:
        if u <= 0.0:
            return 0.0
        return _exp_guard(u * y - lc.phi(u)[0]) * u ** (v - 1.0)

    return improper_integral(
        f, singular_power=min(v - 1.0, 0.0), rel_tol=rel_tol, abs_tol=abs_tol
    )


def eval_H(
    lc: LimitCumulant,
    y: float,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> QuadratureResult:
    """H(y); H(0) = 0 exactly."""
    if y == 0.0:
        return QuadratureResult(0.0, 0.0, True, "decayed")
    _require_admissible(lc, y)
    scale = 1.0 / math.log(1.0 / lc.lam)

    def f(u: float) -> float:
        if u <= 0.0:
            return 0.0
        phi_u = lc.phi(u)[0]
        if abs(u * y) < 0.5:
            # fused form against cancellation of nearly equal exponentials
            return math.exp(min(-phi_u, _EXP_CLIP)) * math.expm1(u * y) / u
        e1 = math.exp(min(u * y - phi_u, _EXP_CLIP))
        e0 = math.exp(min(-phi_u, _EXP_CLIP))
        return (e1 - e0) / u

    res = improper_integral(f, singular_power=0.0, rel_tol=rel_tol, abs_tol=abs_tol)
    return QuadratureResult(
        res.value * scale, res.abs_err * scale, res.converged, res.tail_diagnostic
    )


def eval_W(
    lc: LimitCumulant,
    y: float,
    v: float,
    delta: float = 1.0,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> QuadratureResult:
    """W_v(y) for v in (-delta, 0); delta from the left-tail moment order."""
    if not -delta < v < 0.0:
        raise ValueError(f"eval_W requires v in (-delta, 0) = ({-delta}, 0)")
    _require_admissible(lc, y)

    def f(u: float) -> float:
        if u <= 0.0:
            return 0.0
        return math.expm1(min(u * y - lc.phi(u)[0], _EXP_CLIP)) * u ** (v - 1.0)

    # Head (0, 1]: the bracket is O(u), so the effective singularity is u**v;
    # the power substitution removes it.
    p = 1.0 / (1.0 + v)

    def g(w: float) -> float:
        if w <= 0.0:
            return 0.0
        u = w**p
        return f(u) * p * w ** (p - 1.0)

    eps_abs, eps_rel = 0.1 * abs_tol, 0.1 * rel_tol
    total, abs_err = integrate.quad(g, 0.0, 1.0, epsabs=eps_abs, epsrel=eps_rel, limit=200)

    # Tail: the integrand tends to -u**(v-1), which decays only algebraically,
    # so panels stop once the exponential part is dead and the exact remainder
    # int_U^inf -u**(v-1) du = U**v / v is added analytically.
    threshold = abs_tol * 1e-2
    lo = 1.0
    while True:
        hi = min(lo * math.e, DEFAULT_U_MAX)
        panel, panel_err = integrate.quad(f, lo, hi, epsabs=eps_abs, epsrel=eps_rel, limit=200)
        total += panel
        abs_err += panel_err
        exp_part = math.exp(min(hi * y - lc.phi(hi)[0], _EXP_CLIP))
        if exp_part * hi ** (v - 1.0) < threshold:
            total += hi**v / v
            abs_err += exp_part * hi**v / abs(v)  # bound on the dropped part
            break
        if hi >= DEFAULT_U_MAX:
            return QuadratureResult(total, float("inf"), False, "truncated_at_umax")
        lo = hi
    converged = abs_err <= rel_tol * abs(total) + abs_tol
    return QuadratureResult(float(total), float(abs_err), bool(converged), "decayed")


def eval_C(
    lc: LimitCumulant,
    y: float,
    v: float = 0.0,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> QuadratureResult:
    """C(y, v); the v = 0 value feeds the exponential certificate."""
    if v > 0:
        raise ValueError("eval_C requires v <= 0")
    _require_admissible(lc, y)

    def f(u: float) -> float:
        if u <= 0.0:
            return 0.0
        expo = u * y - lc.phi(u)[0]
        if u <= 1.0:
            return math.expm1(min(expo, _EXP_CLIP)) * u ** (v - 1.0)
        return _exp_guard(expo) * u ** (v - 1.0)

    return improper_integral(f, singular_power=v, rel_tol=rel_tol, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# Harmonic-equation residuals
# ---------------------------------------------------------------------------


def _transform_fn(lc, kind, v, rel_tol, abs_tol):
    if kind == "N":
        return lambda yy: eval_N(lc, yy, v, rel_tol=rel_tol, abs_tol=abs_tol).value
    if kind == "H":
        return lambda yy: eval_H(lc, yy, rel_tol=rel_tol, abs_tol=abs_tol).value
    if kind == "W":
        return lambda yy: eval_W(lc, yy, v, rel_tol=rel_tol, abs_tol=abs_tol).value
    raise ValueError(f"unknown transform kind {kind!r}")


def check_harmonic(
    lc: LimitCumulant,
    kind: str,
    y: float,
    v: float | None = None,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
) -> float:
    """Residual of the martingale harmonic equation at state y.

    For kinds "N" and "W": |lam**v * E f(lam*y + eta) - f(y)|.
    For kind "H":          |E H(lam*y + eta) - H(y) - 1|.

    The expectation over the innovation is exact for discrete families,
    Gauss-Hermite for Gaussian, and density quadrature otherwise.
    """
    if kind == "H":
        v_eff = 0.0
    else:
        if v is None:
            raise ValueError("kinds N and W require a transform order v")
        v_eff = v
    f = _transform_fn(lc, kind, v_eff, rel_tol, abs_tol)
    expectation = lc.spec.expectation(lambda e: f(lc.lam * y + e))
    if kind == "H":
        return abs(expectation - f(y) - 1.0)
    return abs(lc.lam**v_eff * expectation - f(y))


# ---------------------------------------------------------------------------
# Batch evaluation on fixed nodes (for Monte Carlo martingale drift checks)
# ---------------------------------------------------------------------------


class BatchTransform:
    """Vectorized transform evaluation over many states at once.

    Precomputes Gauss-Legendre panel nodes and phi at those nodes, then
    evaluates N_v/H/W_v for a whole array of states in one pass.  The node
    set covers (0, u_hi] where u_hi is chosen so the integrand is negligible
    for every state up to y_hi; states beyond y_hi raise DivergenceError.
    """

    def __init__(
        self,
        lc: LimitCumulant,
        kind: str,
        v: float | None = None,
        y_hi: float = 2.0,
        n_per_panel: int = 32,
        cutoff: float = 1e-16,
    ):
        if kind == "H":
            v = 0.0
        elif v is None:
            raise ValueError("kinds N and W require a transform order v")
        self.lc = lc
        self.kind = kind
        self.v = v
        self.y_hi = y_hi
        _require_admissible(lc, y_hi)
        u_hi = 2.0
        while u_hi < DEFAULT_U_MAX:
            tail = u_hi * y_hi - lc.phi(u_hi)[0]
            if tail < math.log(cutoff):
                break
            u_hi *= 2.0
        # refine the unit interval: W_v and N_v (v < 1) have a power cusp at 0
        self.u, self.w = panel_nodes(u_hi, n_per_panel=n_per_panel)
        self._u_end = 2.0 ** math.ceil(math.log2(max(u_hi, 2.0)))
        if kind in ("N", "W") and v < 1.0:
            # substitution u = t**(1/(1-|v-1|)) equivalent: integrate the
            # singular head by mapped nodes t in (0,1]
            power = v if kind == "W" else v - 1.0
            p = 1.0 / (1.0 + power)
            x, gw = np.polynomial.legendre.leggauss(2 * n_per_panel)
            t = 0.5 * (x + 1.0)
            mask = self.u > 1.0
            self.u = np.concatenate([t**p, self.u[mask]])
            self.w = np.concatenate([0.5 * gw * p * t ** (p - 1.0), self.w[mask]])
        self.phi_u = np.array([lc.phi(float(u))[0] for u in self.u])

    def __call__(self, y) -> np.ndarray:
        y_arr = np.atleast_1d(np.asarray(y, dtype=float))
        if np.any(y_arr > self.y_hi + 1e-12):
            raise DivergenceError(
                f"state beyond evaluator domain (max {self.y_hi}); rebuild with larger y_hi"
            )
        u = self.u[None, :]
        expo = y_arr[:, None] * u - self.phi_u[None, :]
        if self.kind == "N":
            integrand = np.exp(np.minimum(expo, _EXP_CLIP)) * u ** (self.v - 1.0)
            out = integrand @ self.w
        elif self.kind == "W":
            integrand = np.expm1(np.minimum(expo, _EXP_CLIP)) * u ** (self.v - 1.0)
            # beyond the node range the bracket is -1 up to a dead exponential;
            # that algebraic tail integrates to u_end**v / v exactly
            out = integrand @ self.w + self._u_end**self.v / self.v
        else:
            uy = y_arr[:, None] * u
            e0 = np.exp(np.minimum(-self.phi_u[None, :], _EXP_CLIP))
            fused = np.exp(np.minimum(expo, _EXP_CLIP)) - e0
            # expm1 form where uy is small enough for the difference to cancel
            # clip the unselected branch: np.where still evaluates it
            small = e0 * np.expm1(np.clip(uy, -1.0, 1.0))
            integrand = np.where(np.abs(uy) < 0.5, small, fused) / u
            out = (integrand @ self.w) / math.log(1.0 / self.lc.lam)
        return out if np.ndim(y) else float(out[0])
