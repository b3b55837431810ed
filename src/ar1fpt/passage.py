"""Passage-time answers built on the martingale transforms.

Given the problem (lam, x, a, innovation family) this module produces:

  * the exact identity  E tau = (H(X_tau) averaged) - H(x), evaluated with an
    empirical plug-in for the moment generating function of X_tau;
  * the overshoot-free lower bound H(a) - H(x);
  * an upper bound from capping the innovation above;
  * an exponential tail certificate (alpha, c_bound) with
    P(tau > n) <= c_bound * exp(-alpha * n), obtained by flooring the
    positive part of the innovation and sweeping the transform order.

Everything here is a pure function of immutable inputs; Monte Carlo data
arrives as a finished summary, never as shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cumulant import LimitCumulant
from .errors import (
    CertificateInfeasibleError,
    CoverageError,
    DivergenceError,
    InfeasibleTruncationError,
    NoCrossingError,
)
from .innovations import InnovationSpec, truncate_cap_above, truncate_floor_positive
from .quadrature import DEFAULT_U_MAX, QuadratureResult, panel_nodes
from .transforms import eval_C, eval_H, eval_W

#: Nodes with empirical MGF relative standard error above this are clipped.
MGF_REL_SE_CLIP = 0.10
#: Minimum positive-atom mass accepted when choosing the flooring level.
N_CAP_MASS_FLOOR = 1e-3


@dataclass(frozen=True)
class PassageProblem:
    """AR(1) passage setup: X_0 = x, X_n = lam*X_{n-1} + eta_n, level a >= x."""

    lam: float
    x: float
    a: float
    spec: InnovationSpec

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lam must lie in (0, 1)")
        if self.a < self.x:
            raise ValueError("the level a must satisfy a >= x")

    def limit_cumulant(self, mode: str = "auto") -> LimitCumulant:
        return LimitCumulant(self.spec, self.lam, mode=mode)


@dataclass(frozen=True)
class ExponentialCertificate:
    """Certified geometric tail: P(tau > n) <= c_bound * exp(-alpha * n)."""

    v_star: float
    alpha: float
    c_bound: float
    n_cap_used: float

    def survival_bound(self, n) -> np.ndarray:
        return self.c_bound * np.exp(-self.alpha * np.asarray(n, dtype=float))


@dataclass(frozen=True)
class FeasibilityReport:
    """Structured crossing/finiteness verdicts for a passage problem."""

    certain_infinite: bool
    crossing_possible: bool
    sup_bound: float | None  # H/(1-lam) when the innovation is bounded above
    crossing_mass: float  # P(eta > a*(1-lam))


def crossing_mass(p: PassageProblem) -> float:
    """P(eta > a*(1 - lam)): positive iff the level is reachable at all."""
    return p.spec.tail_prob(p.a * (1.0 - p.lam))


def feasibility_report(p: PassageProblem) -> FeasibilityReport:
    """Certain-infinite / crossing-possible verdicts.

    E tau is finite whenever a crossing is possible: the log-moment condition
    holds for every family of the package.
    """
    ub = p.spec.upper_support()
    sup_bound = None
    certain_infinite = False
    if ub is not None:
        sup_bound = ub / (1.0 - p.lam)
        # X_n <= lam**n (x - sup_bound) + sup_bound, so the level is never
        # strictly exceeded once max(x, sup_bound) <= a.
        certain_infinite = sup_bound <= p.a and p.x <= p.a
    mass = crossing_mass(p)
    possible = mass > 0.0 and not certain_infinite
    return FeasibilityReport(
        certain_infinite=certain_infinite,
        crossing_possible=possible,
        sup_bound=sup_bound,
        crossing_mass=mass,
    )


def _converged(res: QuadratureResult, what: str) -> float:
    """The value of a transform integral, or DivergenceError if unconverged."""
    if not res.converged:
        raise DivergenceError(
            f"{what} did not converge ({res.tail_diagnostic}, "
            f"value {res.value:.6g} +- {res.abs_err:.3g})"
        )
    return res.value


def lower_bound_e_tau(p: PassageProblem, lc: LimitCumulant | None = None) -> float:
    """H(a) - H(x): drops the (nonnegative) overshoot from the identity."""
    lc = lc or p.limit_cumulant()
    value = _converged(eval_H(lc, p.a), "H(a)") - _converged(eval_H(lc, p.x), "H(x)")
    return max(value, 0.0)


def upper_bound_e_tau(
    p: PassageProblem, h_cap: float, lc_capped: LimitCumulant | None = None
) -> float:
    """Expected passage time of the capped-above process, which dominates.

    The cap is reduced to the essential supremum of the innovation when that
    is smaller (capping beyond the support is a no-op, but the state at
    crossing is still bounded by lam*a + ess-sup).
    """
    ub = p.spec.upper_support()
    h_eff = h_cap if ub is None else min(h_cap, ub)
    if h_eff <= p.a * (1.0 - p.lam):
        raise InfeasibleTruncationError(
            f"cap {h_eff} <= a*(1-lam) = {p.a * (1.0 - p.lam)}: "
            "the capped process can never cross"
        )
    if lc_capped is None:
        capped = truncate_cap_above(p.spec, h_eff)
        lc_capped = LimitCumulant(capped, p.lam)
    y_top = p.lam * p.a + h_eff
    return _converged(eval_H(lc_capped, y_top), "capped H(lam*a + cap)") - _converged(
        eval_H(lc_capped, p.x), "capped H(x)"
    )


# ---------------------------------------------------------------------------
# Identity with empirical overshoot MGF plug-in
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityNodes:
    """Fixed quadrature nodes for the identity integral.

    Frozen before any simulation so the empirical MGF can be estimated at
    exactly these u values, with no interpolation in between.
    """

    u: np.ndarray
    w: np.ndarray
    phi_u: np.ndarray
    y_env: float  # envelope level lam*a + (ess-sup or high quantile of eta)
    env_is_hard: bool  # True when y_env comes from a hard support bound


def identity_nodes(
    p: PassageProblem,
    lc: LimitCumulant | None = None,
    cutoff: float = 1e-15,
    n_per_panel: int = 32,
) -> IdentityNodes:
    lc = lc or p.limit_cumulant()
    ub = p.spec.upper_support()
    if ub is not None:
        eta_hi, hard = ub, True
    else:
        eta_hi, hard = p.spec.upper_quantile(1.0 - 1e-9), False
    y_env = p.lam * p.a + eta_hi
    if not y_env < lc.y_adm:
        raise DivergenceError(
            f"identity integral envelope diverges at y={y_env:.6g} "
            f"(y_adm={lc.y_adm:.6g})"
        )

    # the envelope exp(u*y_env - phi(u))/u at u = 2, 4, ..., up to the first
    # power of two at or above DEFAULT_U_MAX
    u_hi = 2.0 ** np.arange(1, math.ceil(math.log2(DEFAULT_U_MAX)) + 1)
    env = np.exp(np.minimum(u_hi * y_env - lc.phi(u_hi)[0], 700.0)) / u_hi
    below = np.flatnonzero(env < cutoff)
    if len(below) == 0:
        raise DivergenceError(
            f"identity integral envelope is still {env[-1]:.3g} at u={u_hi[-1]:.6g} "
            f"(cutoff {cutoff:.3g}); y_env={y_env:.6g} is too close to "
            f"y_adm={lc.y_adm:.6g}"
        )
    u, w = panel_nodes(u_hi[below[0]], n_per_panel=n_per_panel)
    phi_u = lc.phi(u)[0]
    return IdentityNodes(u=u, w=w, phi_u=phi_u, y_env=y_env, env_is_hard=hard)


def identity_e_tau(
    p: PassageProblem,
    mgf_u,
    mgf_value,
    mgf_std_err,
    nodes: IdentityNodes | None = None,
    lc: LimitCumulant | None = None,
) -> tuple[float, float]:
    """E tau from the martingale identity with an empirical MGF plug-in.

    mgf_* are per-node arrays aligned with identity_nodes(p): the estimate of
    E exp(u * X_tau) and its standard error.  Node standard errors propagate
    linearly; nodes with relative standard error above MGF_REL_SE_CLIP are
    dropped from the value.  Their neglected contribution is folded into the
    reported error: the hard envelope exp(u*(lam*a + ess-sup eta)) when the
    innovation is bounded above, else the noisy empirical value plus its
    standard error.
    """
    nodes = nodes or identity_nodes(p, lc=lc)
    u = np.asarray(mgf_u, dtype=float)
    if u.shape != nodes.u.shape or not np.allclose(u, nodes.u, rtol=1e-12, atol=0.0):
        raise CoverageError("empirical MGF nodes do not match the quadrature nodes")
    mgf = np.asarray(mgf_value, dtype=float)
    se = np.asarray(mgf_std_err, dtype=float)

    scale = 1.0 / math.log(1.0 / p.lam)
    coef = nodes.w * np.exp(-nodes.phi_u) / nodes.u * scale
    base = np.exp(nodes.u * p.x)
    rel_se = np.divide(se, np.abs(mgf), out=np.full_like(se, np.inf), where=mgf != 0)
    active = rel_se <= MGF_REL_SE_CLIP

    value = float(np.sum(coef[active] * (mgf[active] - base[active])))
    std_err = float(np.sum(np.abs(coef[active]) * se[active]))
    if not np.all(active):
        clipped = ~active
        if nodes.env_is_hard:
            neglected = np.abs(
                np.exp(np.minimum(nodes.u[clipped] * nodes.y_env, 700.0))
                - base[clipped]
            )
        else:
            # no a.s. envelope exists; bound the dropped nodes by their own
            # noisy estimates
            neglected = np.abs(mgf[clipped] - base[clipped]) + np.where(
                np.isfinite(se[clipped]), se[clipped], np.abs(mgf[clipped])
            )
        std_err += float(np.sum(np.abs(coef[clipped]) * neglected))
    return value, std_err


# ---------------------------------------------------------------------------
# Exponential certificate
# ---------------------------------------------------------------------------


def _choose_n_cap(p: PassageProblem) -> float:
    """Smallest grid level above a*(1-lam) keeping the positive atom heavy.

    The atom mass floor keeps the floored family's upward drift
    well-conditioned: a vanishing atom would make the truncated series (and
    the resulting certificate) numerically useless.
    """
    threshold = max(p.a * (1.0 - p.lam), 0.0)
    offsets = p.spec.scale() * np.geomspace(0.05, 8.0, 24)
    for off in offsets:
        n_cap = threshold + float(off)
        if p.spec.tail_prob(n_cap) >= N_CAP_MASS_FLOOR:
            return n_cap
    raise InfeasibleTruncationError(
        "no flooring level above a*(1-lam) retains enough positive mass"
    )


def _v_sweep(delta: float, v_grid_size: int, c_top: float) -> np.ndarray:
    """|v| values of the certificate sweep, largest first.

    A geometric grid from just below delta to 1e-4.  When 1/(4*c_top) lies
    below 1e-4, 16 more geometric steps carry the sweep on down to it, where
    the denominator 1 - 2|v|*c_top is 1/2; problems whose grid certifies
    never reach them.
    """
    grid = np.geomspace(delta * (1.0 - 1e-3), 1e-4, v_grid_size)
    if 4.0 * 1e-4 * c_top <= 1.0:
        return grid
    return np.concatenate([grid, np.geomspace(1e-4, 0.25 / c_top, 17)[1:]])


def exponential_certificate(
    p: PassageProblem,
    delta: float = 0.5,
    n_cap: float | None = None,
    v_grid_size: int = 64,
) -> ExponentialCertificate:
    """Certify P(tau > n) <= c_bound * exp(-alpha * n) with alpha > 0.

    Floors the positive part of the innovation at n_cap (which only enlarges
    the passage time, so the certificate transfers to the original process),
    then sweeps the transform order v over (-delta, 0) from the most negative
    end, keeping the first v whose optional-stopping bound is valid:
    1 + 2*v*|C(lam*a + n_cap, 0)| > 0 and the two-sided slack
    |W_v(y) - 1/v| <= 2*|C(y, 0)| verified numerically at both endpoints.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    threshold = max(p.a * (1.0 - p.lam), 0.0)
    if p.spec.tail_prob(threshold) <= 0.0:
        raise NoCrossingError(
            "no innovation mass above a*(1-lam): tau may be infinite"
        )
    if n_cap is None:
        n_cap = _choose_n_cap(p)
    elif n_cap <= threshold:
        raise InfeasibleTruncationError(
            f"floor level {n_cap} <= max(a*(1-lam), 0) = {threshold}: "
            "the floored process can never cross"
        )
    floored = truncate_floor_positive(p.spec, n_cap)
    lc = LimitCumulant(floored, p.lam)
    y_top = p.lam * p.a + n_cap

    c_x = abs(_converged(eval_C(lc, p.x, 0.0), "C(x, 0)"))
    c_top = abs(_converged(eval_C(lc, y_top, 0.0), "C(lam*a + n_cap, 0)"))

    log_inv_lam = math.log(1.0 / p.lam)
    slack = 1e-8
    for v in -_v_sweep(delta, v_grid_size, c_top):
        v = float(v)
        denom = 1.0 + 2.0 * v * c_top
        if denom <= 0.0:
            continue
        w_x = _converged(eval_W(lc, p.x, v, delta=delta), f"W_{v:.6g}(x)")
        if w_x < 1.0 / v - 2.0 * c_x - slack * (1.0 + c_x):
            continue
        w_top = _converged(eval_W(lc, y_top, v, delta=delta), f"W_{v:.6g}(lam*a + n_cap)")
        if w_top > 1.0 / v + 2.0 * c_top + slack * (1.0 + c_top):
            continue
        c_bound = (1.0 - 2.0 * v * c_x) / denom
        return ExponentialCertificate(
            v_star=v,
            alpha=abs(v) * log_inv_lam,
            c_bound=c_bound,
            n_cap_used=n_cap,
        )
    raise CertificateInfeasibleError(
        "no transform order in (-delta, 0) yields a valid optional-stopping bound"
    )
