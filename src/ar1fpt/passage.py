"""Passage-time answers built on the martingale transforms.

Given the problem (lam, x, a, innovation family) this module produces:

  * the exact identity  E tau = E H(X_tau) - H(x), H(x) from the transform
    engine and E H(X_tau) as the mean of h(Z) over the pre-crossing states
    Z = X_{tau-1} of simulated paths, h(z) = E[H(X_tau) | Z = z] tabulated
    once from the engine (HTable);
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
from bisect import bisect_right
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
from .quadrature import QuadratureResult
from .transforms import expected_H, transform

#: Not used by the package: bench/tracing.py reads it, and simulate_passage's
#: mgf_u_nodes and block_size, in every traced run; they go with the
#: benchmark's next revision.
MGF_REL_SE_CLIP = 0.10
#: Transform orders the certificate scans at lam*a + cap.
_CERT_ORDERS = 64
#: Chebyshev points per piece of the h table, and its reach below the level
#: in scales of the innovation.
_TABLE_NODES = 24
_TABLE_REACH = 12.0


def _chebyshev_to_powers(n: int) -> np.ndarray:
    """Column k: T_k in powers of x, k < n, by T_{k+1} = 2x T_k - T_{k-1}."""
    t = np.zeros((n, n))
    t[0, 0] = t[1, 1] = 1.0
    for k in range(2, n):
        t[1:, k] = 2.0 * t[:-1, k - 1]
        t[:, k] -= t[:, k - 2]
    return t


#: The h table's Chebyshev-to-powers matrix: integers of at most 85,917,696.
_TO_POWERS = _chebyshev_to_powers(_TABLE_NODES)


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
# Identity, Rao-Blackwellised over the pre-crossing state
# ---------------------------------------------------------------------------


def _crossing_threshold(lam: float, a: float, v: float) -> float:
    """The least float z with lam*z + v > a in float arithmetic, as the
    kernel rounds it: the pre-crossing states from which the atom v crosses."""

    def crosses(z):
        return lam * z + v > a

    lo = hi = (a - v) / lam
    if not math.isfinite(lo):
        return lo
    step = math.ulp(lo)
    while crosses(lo):
        lo, step = lo - step, 2.0 * step
    while not crosses(hi):
        hi, step = hi + step, 2.0 * step
    while True:
        mid = lo + 0.5 * (hi - lo)
        if not lo < mid < hi:
            return hi
        lo, hi = (lo, mid) if crosses(mid) else (mid, hi)


@dataclass(frozen=True)
class HTable:
    """h(z) = E[H(lam*z + eta) | lam*z + eta > a] on pre-crossing states z <= a.

    Given the state Z = X_{tau-1} before the crossing, the crossing
    innovation is eta conditioned on eta > t = a - lam*Z, so E H(X_tau) =
    E h(Z): the paper's identity E tau = E H(X_tau) - H(x) averages h over
    the pre-crossing states (conditional Monte Carlo, Asmussen & Glynn,
    Stochastic Simulation, 2007, ch. V), with none of the infinite variance
    of H(X_tau) itself.

    h jumps where an atom of eta starts to cross, at the thresholds (the
    least z from which atom i crosses, ascending as the atoms descend); on
    each piece between them it is smooth.  The table holds h's Chebyshev
    interpolant on each piece's part of [a - _TABLE_REACH * scale, a], in
    powers of the piece's own coordinate x in [-1, 1] for Horner's rule, as
    (count of atoms crossing, lo, hi, coefficients).  A state outside every
    piece is evaluated directly.  abs_err bounds the table's error at any
    state it covers; h_x is H(x) from the engine.
    """

    problem: PassageProblem
    h_x: QuadratureResult
    thresholds: np.ndarray = field(repr=False)
    pieces: tuple[tuple[int, float, float, np.ndarray], ...] = field(repr=False)
    abs_err: float

    def direct(self, z) -> QuadratureResult:
        """h at each state of z, one engine call."""
        z = np.asarray(z, dtype=float)
        return _h_at(self.problem, z, np.searchsorted(self.thresholds, z, side="right"))

    def lookup(self, z) -> tuple[np.ndarray, np.ndarray]:
        """(h at the states of z that the table covers, the other states),
        each in the order of z.

        When one piece covers z, which z's least and greatest states tell
        (on the piece, with its count of crossing atoms: counts rise with
        z), no mask is built.
        """
        if len(z):
            z_lo, z_hi = z.min(), z.max()
            c_lo, c_hi = bisect_right(self.thresholds, z_lo), bisect_right(self.thresholds, z_hi)
            for count, lo, hi, coef in self.pieces:
                if lo <= z_lo and z_hi <= hi and c_lo == count == c_hi:
                    return _polyval(z, lo, hi, coef), np.empty(0)
        counts = np.searchsorted(self.thresholds, z, side="right")
        inside = np.zeros(len(z), dtype=bool)
        out = np.empty(len(z))
        for count, lo, hi, coef in self.pieces:
            mine = (counts == count) & (z >= lo) & (z <= hi)
            inside |= mine
            out[mine] = _polyval(z[mine], lo, hi, coef)
        return out[inside], z[~inside]


def _polyval(z, lo: float, hi: float, coef) -> np.ndarray:
    """The polynomial sum_k coef[k] x**k at x = (2z - lo - hi)/(hi - lo), by
    Horner's rule in place: two arrays of z's size, and no other."""
    x = z - 0.5 * (lo + hi)
    x *= 2.0 / (hi - lo)
    y = np.full_like(x, coef[-1])
    for c in coef[-2::-1]:
        y *= x
        y += c
    return y


def _h_at(p: PassageProblem, z, counts) -> QuadratureResult:
    """h at each state z, from which counts[i] atoms cross, one engine call.

    t = a - lam*z is clipped so that exactly those atoms exceed it, as the
    kernel's own arithmetic decided at a state within rounding of a threshold.
    """
    spec = p.spec
    atoms = np.array((np.inf, *spec.atom_values(), -np.inf))
    y0 = p.lam * z
    t = np.clip(p.a - y0, atoms[counts + 1], np.nextafter(atoms[counts], -np.inf))[:, None]
    log_p, y0 = spec.log_partial_mgf(0.0, t), y0[:, None]
    # log E[e^{u X} | X > a] for X = lam*z + eta
    return expected_H(
        p.limit_cumulant(), lambda u: u * y0 + (spec.log_partial_mgf(u, t) - log_p)
    )


def h_table(p: PassageProblem) -> HTable:
    """The identity's h table and H(x), before any path is simulated.

    One engine call evaluates h at the _TABLE_NODES Chebyshev points of each
    piece and at the extrema of T_n between them, where an interpolant's
    error peaks.  The table's bound is twice the largest gap between the
    polynomial and the evaluation at those extrema, plus the engine's error
    there, its error at the points times the Lebesgue constant
    1 + (2/pi) log n, and Horner's rounding.  The continuous part of every
    law here lies below its atoms, so a state from which no atom crosses is
    never a pre-crossing state, unless the law has no atoms.  An unconverged
    H(x) or table raises DivergenceError; so does a law with no partial
    MGF (stable).
    """
    feasibility_report(p).require()
    h_x = transform(p.limit_cumulant(), "H", p.x).require(f"H(x) at x = {p.x:.6g}")
    atoms = p.spec.atom_values()
    thresholds = np.array([_crossing_threshold(p.lam, p.a, v) for v in atoms])
    edges = np.concatenate([[-np.inf], thresholds, [np.inf]])
    lo = p.a - _TABLE_REACH * p.spec.scale()
    counts = range(1 if atoms else 0, len(atoms) + 1)
    spans = [(c, max(lo, edges[c]), min(p.a, edges[c + 1])) for c in counts]
    spans = [(c, a, b) for c, a, b in spans if math.isfinite(a) and a < b]
    if not spans:
        return HTable(p, h_x, thresholds, (), 0.0)
    n = _TABLE_NODES
    theta = (np.arange(n) + 0.5) * math.pi / n
    x_check = np.cos(np.arange(1, n) * math.pi / n)
    grid = np.concatenate([np.cos(theta), x_check])
    z = np.concatenate([0.5 * (a + b) + 0.5 * (b - a) * grid for _, a, b in spans])
    res = _h_at(p, z, np.repeat([c for c, _, _ in spans], len(grid))).require("the h table")
    basis = np.cos(np.outer(np.arange(n), theta)) * (2.0 / n)
    basis[0] *= 0.5
    lebesgue = 1.0 + 2.0 / math.pi * math.log(n)
    pieces, bound = [], 0.0
    values, errs = res.value.reshape(len(spans), -1), res.abs_err.reshape(len(spans), -1)
    for (count, a, b), f, e in zip(spans, values, errs):
        coef = _TO_POWERS @ (basis @ f[:n])
        gap = np.abs(_polyval(x_check, -1.0, 1.0, coef) - f[n:])
        # Horner's rounding on |x| <= 1 is at most 2n ulps of sum |coef|
        horner = 2 * n * 2.0**-53 * np.abs(coef).sum()
        bound = max(bound, 2.0 * gap.max() + e[n:].max() + lebesgue * e[:n].max() + horner)
        pieces.append((count, a, b, coef))
    return HTable(p, h_x, thresholds, tuple(pieces), float(bound))


def identity_estimate(p: PassageProblem, summary, table: HTable) -> tuple[float, float]:
    """E tau = E h(Z) - H(x) and its error, from a simulation that folded h(Z).

    summary is simulate_passage(p, ..., h=table)'s.  The error is the sum
    of the fold's standard error, the bound on the h values (the table's,
    or a direct evaluation's where larger) and H(x)'s engine error.  A
    table built for another problem, a summary without the fold, one in
    which no path crossed or one with censored paths (the mean of h(Z) over
    the crossed paths estimates neither E tau nor E[tau ^ max_steps]) and an
    error that is not finite each raise CoverageError.
    """
    if table.problem != p:
        raise CoverageError(f"the h table was built for {table.problem}, not {p}")
    if summary.h_mean is None:
        raise CoverageError("the simulation folded no h(Z): pass h=table to simulate_passage")
    if summary.n_crossed == 0:
        raise CoverageError("no path crossed the level: the identity has no pre-crossing state")
    if summary.n_censored:
        raise CoverageError(f"{summary.n_censored} of {summary.n_paths} paths did not cross within max_steps")
    value = summary.h_mean - table.h_x.value
    std_err = summary.h_std_err + summary.h_abs_err + table.h_x.abs_err
    if not (math.isfinite(value) and math.isfinite(std_err)):
        raise CoverageError(f"the identity is not finite: {value!r} +- {std_err!r}")
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

    The scan shares the engine's singular power of its most negative order,
    and the engine cannot evaluate W_v at orders below about -0.95: when
    every order of the scan diverges, as from delta 0.975 on, the
    certificate raises DivergenceError, not CertificateInfeasibleError.
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
    if np.all(top.tail_diagnostic == "diverged"):
        raise DivergenceError(
            f"W_v({y_top:.6g}) diverged at all {_CERT_ORDERS} orders of the scan, which share the "
            f"singular power of its most negative order v = {orders[0]:.6g}: the quadrature engine "
            "cannot evaluate W_v at orders below about -0.95, which a delta of at most 0.95 avoids"
        )
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
