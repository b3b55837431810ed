"""Passage-time answers built on the martingale transforms.

Given the problem (lam, x, a, innovation family) this module produces:

  * the exact identity  E tau = E H(X_tau) - H(x), H(x) from the transform
    engine and E H(X_tau) from an empirical plug-in for the MGF of X_tau;
  * the overshoot-free lower bound H(a) - H(x);
  * an upper bound from capping the innovation above;
  * an exponential tail certificate (alpha, c_bound) with
    P(tau > n) <= c_bound * exp(-alpha * n), from the sign of W_v at the
    highest state the same capped process can reach.

Each answer means something only when tau is finite, that is, when the level
can be crossed at all.  feasibility_report decides that, and every answer
calls its require() first, so a never-crossing problem raises
NoCrossingError whatever is asked of it.

Everything here is a pure function of immutable inputs; Monte Carlo data
arrives as a finished summary, never as shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cumulant import LimitCumulant
from .errors import (
    CertificateInfeasibleError,
    CoverageError,
    DivergenceError,
    InfeasibleTruncationError,
    NoCrossingError,
)
from .innovations import CappedAbove, InnovationSpec
from .quadrature import DEFAULT_U_MAX, QuadratureResult, panel_nodes
from .transforms import transform

#: Nodes with empirical MGF relative standard error above this are clipped.
MGF_REL_SE_CLIP = 0.10
#: Transform orders the certificate scans at lam*a + cap.
_CERT_ORDERS = 64
#: The identity's nodes end where its envelope exp(u*y_env - phi(u))/u
#: falls below this.
_ENV_CUTOFF = 1e-15


@dataclass(frozen=True)
class PassageProblem:
    """AR(1) passage setup: X_0 = x, X_n = lam*X_{n-1} + eta_n, level a >= x."""

    lam: float
    x: float
    a: float
    spec: InnovationSpec
    _lc: LimitCumulant = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lam must lie in (0, 1)")
        if self.a < self.x:
            raise ValueError("the level a must satisfy a >= x")
        object.__setattr__(self, "_lc", LimitCumulant(self.spec, self.lam))

    def limit_cumulant(self) -> LimitCumulant:
        """The problem's one LimitCumulant, the same instance on every call.

        So every answer built on this problem shares what its phi has
        summed (bit-exact, see LimitCumulant), for as long as the problem
        lives: within one CLI command, as each builds its own.
        """
        return self._lc


@dataclass(frozen=True)
class ExponentialCertificate:
    """Certified geometric tail: P(tau > n) <= c_bound * exp(-alpha * n)."""

    v_star: float
    alpha: float
    c_bound: float
    h_cap: float

    def survival_bound(self, n) -> np.ndarray:
        return self.c_bound * np.exp(-self.alpha * np.asarray(n, dtype=float))


@dataclass(frozen=True)
class FeasibilityReport:
    """Structured crossing/finiteness verdicts for a passage problem."""

    certain_infinite: bool
    crossing_possible: bool
    sup_bound: float | None  # y_adm = ess-sup/(1-lam) when eta is bounded above
    crossing_mass: float  # P(eta > a*(1-lam))

    def require(self) -> FeasibilityReport:
        """This report if the level can be crossed, else NoCrossingError."""
        if not self.crossing_possible:
            raise NoCrossingError("the level is never crossed: tau may be infinite")
        return self


def feasibility_report(p: PassageProblem) -> FeasibilityReport:
    """Certain-infinite / crossing-possible verdicts: the one crossing gate.

    A crossing needs crossing_mass = P(eta > a*(1 - lam)) > 0, and no sure
    bound keeping every state at or below a.  E tau is finite whenever a
    crossing is possible: the log-moment condition holds for every family of
    the package.  Each passage answer calls require() on this report first.
    """
    y_adm = p.limit_cumulant().y_adm
    sup_bound = y_adm if math.isfinite(y_adm) else None
    # X_n <= lam**n (x - sup_bound) + sup_bound, so the level is never
    # strictly exceeded once max(x, sup_bound) <= a.
    certain_infinite = sup_bound is not None and sup_bound <= p.a and p.x <= p.a
    mass = p.spec.tail_prob(p.a * (1.0 - p.lam))
    possible = mass > 0.0 and not certain_infinite
    return FeasibilityReport(
        certain_infinite=certain_infinite,
        crossing_possible=possible,
        sup_bound=sup_bound,
        crossing_mass=mass,
    )


def _h_increment(lc: LimitCumulant, y: float, x: float, what: str) -> tuple[float, float]:
    """(H(y) - H(x), error bound) from one engine call, or DivergenceError if unconverged."""
    res = transform(lc, "H", [y, x]).require(what)
    return float(res.value[0] - res.value[1]), float(res.abs_err[0] + res.abs_err[1])


def lower_bound_e_tau(p: PassageProblem) -> tuple[float, float]:
    """(max(H(a) - H(x) - err, 0), err): drops the (nonnegative) overshoot
    from the identity, and the engine's error bound of the increment."""
    feasibility_report(p).require()
    value, err = _h_increment(p.limit_cumulant(), p.a, p.x, "H(a), H(x)")
    return max(value - err, 0.0), err


def _capped(p: PassageProblem, h_cap: float) -> tuple[LimitCumulant, float]:
    """The limit cumulant of eta capped above at h_cap, and the cap in force.

    The cap is reduced to the essential supremum of the innovation when that
    is smaller (capping beyond the support is a no-op, but the state at
    crossing is still bounded by lam*a + ess-sup).  A cap in force at the
    ess-sup leaves the law as it is, and the problem's own LimitCumulant,
    with what its phi has summed, is returned.
    """
    ub = p.spec.upper_support()
    h_eff = h_cap if ub is None else min(h_cap, ub)
    if h_eff <= p.a * (1.0 - p.lam):
        raise InfeasibleTruncationError(
            f"cap {h_eff} <= a*(1-lam) = {p.a * (1.0 - p.lam)}: "
            "the capped process can never cross"
        )
    spec = CappedAbove(p.spec, h_eff)
    lc = p.limit_cumulant() if spec is p.spec else LimitCumulant(spec, p.lam)
    return lc, h_eff


def upper_bound_e_tau(p: PassageProblem, h_cap: float) -> tuple[float, float]:
    """(E tau of the capped-above process, which dominates, plus err; err)."""
    feasibility_report(p).require()
    lc, h_eff = _capped(p, h_cap)
    value, err = _h_increment(lc, p.lam * p.a + h_eff, p.x, "capped H(lam*a + cap), H(x)")
    return value + err, err


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
    x: float  # the start the nodes were frozen for
    h_x: QuadratureResult  # H(x) and its error bound, from the transform engine


def identity_nodes(p: PassageProblem) -> IdentityNodes:
    """The engine's K15 nodes and weights for the identity's H integrand.

    They lie on the engine's own partition for H: the unsubstituted head
    panel [0, 1], then the dyadic panels [1, 2], ..., [u_hi/2, u_hi].  u_hi
    is the first power of two at which exp(u*max(y_env, 0) - phi(u))/u, a
    bound on |e^{uX} - 1| e^{-phi}/u for X <= y_env, falls below
    _ENV_CUTOFF; y_env = lam*a plus the ess-sup of eta (or its 1 - 1e-9
    quantile when eta is unbounded above).  Past the crossing gate, y_env <
    y_adm: lam*a + ess-sup < ess-sup/(1 - lam) exactly when a < y_adm, and
    y_adm is inf for a law unbounded above.  H(x) is taken here, before any
    path is simulated: an unconverged H(x) raises DivergenceError.
    """
    feasibility_report(p).require()
    lc = p.limit_cumulant()
    h_x = transform(lc, "H", p.x).require(f"H(x) at x = {p.x:.6g}")
    ub = p.spec.upper_support()
    if ub is not None:
        eta_hi, hard = ub, True
    else:
        eta_hi, hard = p.spec.upper_quantile(1.0 - 1e-9), False
    y_env = p.lam * p.a + eta_hi

    # the envelope exp(u*max(y_env, 0) - phi(u))/u at u = 2, 4, ..., up to
    # the first power of two at or above DEFAULT_U_MAX
    u_hi = 2.0 ** np.arange(1, math.ceil(math.log2(DEFAULT_U_MAX)) + 1)
    env = np.exp(np.minimum(u_hi * max(y_env, 0.0) - lc.phi(u_hi)[0], 700.0)) / u_hi
    below = np.flatnonzero(env < _ENV_CUTOFF)
    if len(below) == 0:
        raise DivergenceError(
            f"identity integral envelope is still {env[-1]:.3g} at u={u_hi[-1]:.6g} "
            f"(cutoff {_ENV_CUTOFF:.3g}); y_env={y_env:.6g} is too close to "
            f"y_adm={lc.y_adm:.6g}"
        )
    u, w = panel_nodes(u_hi[below[0]])
    phi_u = lc.phi(u)[0]
    return IdentityNodes(u=u, w=w, phi_u=phi_u, y_env=y_env, env_is_hard=hard, x=p.x, h_x=h_x)


def identity_e_tau(
    p: PassageProblem, mgf_u, mgf_value, mgf_std_err, nodes: IdentityNodes
) -> tuple[float, float]:
    """E tau = E H(X_tau) - H(x), with an empirical MGF plug-in for E H(X_tau).

    H(x) and its error bound come with the nodes, which integrate only
    E H(X_tau) = int (E e^{u X_tau} - 1) e^{-phi(u)} / u du / log(1/lam).
    mgf_* are per-node arrays aligned with nodes = identity_nodes(p): the
    estimate of E exp(u * X_tau) and its standard error.  Foreign nodes raise
    CoverageError, and so does a summary in which no path crossed (every
    estimate NaN), whose nodes have no data to bound.  Node standard errors
    propagate linearly; nodes with relative standard error above
    MGF_REL_SE_CLIP are dropped from the value, and the reported error takes
    their neglected part: the hard envelope of e^{u X_tau} - 1 on a <= X_tau
    <= y_env when eta is bounded above, else the noisy value plus its error.
    An error that is not finite, where the MGF overflowed at nodes whose
    e^{-phi} underflows, raises CoverageError: it would pass any gate.
    """
    u = np.asarray(mgf_u, dtype=float)
    if u.shape != nodes.u.shape or not np.allclose(u, nodes.u, rtol=1e-12, atol=0.0):
        raise CoverageError("empirical MGF nodes do not match the quadrature nodes")
    if nodes.x != p.x:
        raise CoverageError(f"identity nodes were frozen for x = {nodes.x:.6g}, not x = {p.x:.6g}")
    mgf = np.asarray(mgf_value, dtype=float)
    se = np.asarray(mgf_std_err, dtype=float)
    if np.isnan(mgf).all():
        raise CoverageError("no path crossed the level: the empirical MGF covers no node")

    scale = 1.0 / math.log(1.0 / p.lam)
    coef = nodes.w * np.exp(-nodes.phi_u) / nodes.u * scale
    # moments that overflowed give inf/inf: a NaN that counts as clipped
    with np.errstate(invalid="ignore"):
        rel_se = np.divide(se, np.abs(mgf), out=np.full_like(se, np.inf), where=mgf != 0)
    active = rel_se <= MGF_REL_SE_CLIP

    value = float(np.sum(coef[active] * (mgf[active] - 1.0))) - nodes.h_x.value
    std_err = float(np.sum(np.abs(coef[active]) * se[active])) + nodes.h_x.abs_err
    if not np.all(active):
        clipped = ~active
        if nodes.env_is_hard:
            # w*scale/u * e^{-phi} max(e^{u*y_env} - 1, 1 - e^{u*min(a, 0)}),
            # each exponent formed whole: e^{u*y_env} alone overflows where
            # e^{-phi} is tiny
            uc, phic, lo = nodes.u[clipped], nodes.phi_u[clipped], min(p.a, 0.0)
            e0 = np.exp(-phic)
            gap = np.maximum(np.exp(uc * nodes.y_env - phic) - e0, e0 - np.exp(uc * lo - phic))
            neglected = nodes.w[clipped] * scale / uc * gap
        else:
            # no a.s. envelope exists; bound the dropped nodes by their own
            # noisy estimates
            with np.errstate(invalid="ignore"):  # 0 * inf where e^{-phi} underflows
                neglected = np.abs(coef[clipped]) * (
                    np.abs(mgf[clipped] - 1.0)
                    + np.where(np.isfinite(se[clipped]), se[clipped], np.abs(mgf[clipped]))
                )
        std_err += float(np.sum(neglected))
    if not math.isfinite(std_err):
        raise CoverageError("the identity's error is not finite: the empirical MGF overflowed at nodes it cannot bound")
    return value, std_err


# ---------------------------------------------------------------------------
# Exponential certificate
# ---------------------------------------------------------------------------


def exponential_certificate(
    p: PassageProblem, delta: float = 0.5, h_cap: float | None = None
) -> ExponentialCertificate:
    """Certify P(tau > n) <= c_bound * exp(-alpha * n) with alpha > 0.

    The argument.  Cap eta above at h_cap (by default max(a*(1-lam), 0) plus
    the family's scale): capping lowers every state, so it only enlarges tau,
    and a bound for the capped process holds for the original one.  Before
    tau every capped state is at most a, and X_tau = lam*X_{tau-1} + eta~ is
    at most y_top = lam*a + h; a < y_top as h > a*(1-lam).  For v in
    (-delta, 0), lam**(v*n) * W_v(X_n) is a martingale, and W_v increases in
    y (its y-derivative is the positive integral of exp(u*y - phi(u)) u**v).
    So if W_v(y_top) < 0, optional stopping at the bounded time tau ^ n gives

        W_v(x) = E[lam**(v*tau) W_v(X_tau); tau <= n]
                 + lam**(v*n) E[W_v(X_n); tau > n]
              <= lam**(v*n) W_v(a) P(tau > n),

    since W_v(X_tau) <= W_v(y_top) < 0 in the first term and
    W_v(X_n) <= W_v(a) < 0 on {tau > n}.  W_v(x) <= W_v(a) < 0 as well, so
    P(tau > n) <= (W_v(x)/W_v(a)) exp(-|v| log(1/lam) n).

    The numbers.  One engine call evaluates W_v(y_top) on a geometric grid
    of orders from -delta*(1 - 1e-3) to -1e-6, and the most negative order
    with a converged value + abs_err < 0 is taken.  A second call evaluates
    W_v at x and a; c_bound = (|W_v(x)| + err)/(|W_v(a)| - err) bounds their
    ratio from above.  If those two are unconverged or W_v(a) + err >= 0,
    the next such order is tried.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    feasibility_report(p).require()
    if h_cap is None:
        h_cap = max(p.a * (1.0 - p.lam), 0.0) + p.spec.scale()
    lc, h_eff = _capped(p, h_cap)
    y_top = p.lam * p.a + h_eff

    orders = -np.geomspace(delta * (1.0 - 1e-3), 1e-6, _CERT_ORDERS)
    top = transform(lc, "W", y_top, orders)
    for v in orders[top.converged & (top.value + top.abs_err < 0.0)]:
        w = transform(lc, "W", [p.x, p.a], float(v))
        # bounds on |W_v(x)| from above and on |W_v(a)| from below
        w_x, w_a = -w.value + w.abs_err * [1.0, -1.0]
        if not w.converged.all() or w_a <= 0.0:
            continue
        return ExponentialCertificate(
            v_star=float(v),
            alpha=-float(v) * math.log(1.0 / p.lam),
            c_bound=float(w_x / w_a),
            h_cap=h_eff,
        )
    raise CertificateInfeasibleError(
        f"no transform order in (-delta, 0) makes W_v(lam*a + cap) = W_v({y_top:.6g}) "
        "certifiably negative; a lower cap may"
    )
