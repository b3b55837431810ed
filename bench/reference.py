"""Reference answers computed apart from ar1fpt, with numpy and the math module only.

The benchmark checks the program's outputs against these:

* ``GaussianPassage``: a Nystrom solution of the passage equations for Gaussian
  innovations, ``m(x) = 1 + E[m(lam*x + eta); lam*x + eta <= a]`` for
  ``E_x tau`` and ``S_{n+1}(x) = E[S_n(lam*x + eta); lam*x + eta <= a]`` for
  the survival curve ``S_n(x) = P_x(tau > n)``;
* ``phi_direct``: the limit cumulant ``phi(u) = sum_k psi(lam**k * u)`` by
  plain summation, for discrete families and for a Gaussian capped above;
* ``discrete_survival``: exact enumeration of the first steps of the paths
  of a discrete family, with a bracket on ``E tau`` from a k-step crossing
  argument.

Nothing here imports ar1fpt or scipy, so a fault in the program's
quadrature, series or sampling cannot leak into its own reference.
"""

from __future__ import annotations

import math

import numpy as np

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Gaussian passage: Nystrom discretisation of the passage equations
# ---------------------------------------------------------------------------


def _composite_gauss_legendre(lo: float, hi: float, width: float, order: int):
    """Nodes and weights of Gauss-Legendre rules on equal panels of [lo, hi]."""
    n_panels = max(1, math.ceil((hi - lo) / width))
    edges = np.linspace(lo, hi, n_panels + 1)
    x, w = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


class GaussianPassage:
    """Passage of ``a`` by ``X_n = lam*X_{n-1} + eta_n``, eta ~ N(m, var).

    The state space below the level is cut at ``lower``, twelve stationary
    standard deviations under the lower of the start and the stationary mean,
    where the chance of ever getting to is below 1e-30.  The integral over the
    rest, ``[lower, a]``, uses composite Gauss-Legendre panels; the solution
    is smooth there, so the Nystrom error falls off exponentially with the
    order and ``panel_width`` / ``order`` only trade time for digits.
    """

    def __init__(
        self,
        lam: float,
        a: float,
        x: float,
        m: float = 0.0,
        var: float = 1.0,
        panel_width: float = 1.0,
        order: int = 16,
    ):
        if not 0.0 < lam < 1.0 or var <= 0.0 or x > a:
            raise ValueError("need 0 < lam < 1, var > 0 and x <= a")
        self.lam, self.a, self.x = lam, a, x
        self.m, self.sd = m, math.sqrt(var)
        stationary_sd = self.sd / math.sqrt(1.0 - lam * lam)
        lower = min(x, m / (1.0 - lam)) - 12.0 * stationary_sd
        self.nodes, self.weights = _composite_gauss_legendre(
            lower, a, panel_width, order
        )
        # kernel[i, j] = w_j * p(y_j - lam * y_i): one step from node i to node j
        self.kernel = self._row(self.nodes[:, None])
        self._start_row = self._row(np.array(x))

    def _row(self, frm):
        z = (self.nodes - self.lam * frm - self.m) / self.sd
        return self.weights * np.exp(-0.5 * z * z - _LOG_SQRT_2PI) / self.sd

    def e_tau(self) -> float:
        """E_x tau."""
        ones = np.ones(len(self.nodes))
        m_nodes = np.linalg.solve(np.eye(len(self.nodes)) - self.kernel, ones)
        return float(1.0 + self._start_row @ m_nodes)

    def survival(self, n_max: int) -> np.ndarray:
        """[P_x(tau > n) for n = 0..n_max]."""
        out = np.empty(n_max + 1)
        out[0] = 1.0
        s = np.ones(len(self.nodes))
        for n in range(1, n_max + 1):
            out[n] = self._start_row @ s
            s = self.kernel @ s
        return out


# ---------------------------------------------------------------------------
# Limit cumulant by direct summation
# ---------------------------------------------------------------------------


def _log_ndtr(z: float) -> float:
    """log P(Z <= z) for a standard normal Z."""
    if z > -20.0:
        return math.log(0.5 * math.erfc(-z / math.sqrt(2.0)))
    # asymptotic series; at z <= -20 the omitted terms are below 1e-16
    inv = 1.0 / (z * z)
    series, term = 1.0, 1.0
    for k in range(1, 12):
        term *= -(2 * k - 1) * inv
        series += term
    return -0.5 * z * z - math.log(-z) - _LOG_SQRT_2PI + math.log(series)


class Atoms:
    """A discrete innovation: (value, probability) pairs."""

    def __init__(self, atoms):
        self.atoms = list(atoms)
        self.mean = math.fsum(a * p for a, p in self.atoms)
        self.var = math.fsum(p * (a - self.mean) ** 2 for a, p in self.atoms)

    def psi(self, u: float) -> float:
        """log sum_i p_i exp(u * a_i)."""
        expo = [u * a + math.log(p) for a, p in self.atoms]
        top = max(expo)
        return top + math.log(math.fsum(math.exp(e - top) for e in expo))


class CappedGaussian:
    """min(eta, cap) for eta ~ N(m, var)."""

    def __init__(self, m: float, var: float, cap: float):
        self.m, self.sd, self.cap = m, math.sqrt(var), cap
        # moments of min(Z, c) for a standard normal Z
        c = (cap - m) / self.sd
        density = math.exp(-0.5 * c * c - _LOG_SQRT_2PI)
        below, above = math.exp(_log_ndtr(c)), math.exp(_log_ndtr(-c))
        mean_z = -density + c * above
        second_z = below - c * density + c * c * above
        self.mean = m + self.sd * mean_z
        self.var = var * (second_z - mean_z * mean_z)

    def psi(self, u: float) -> float:
        """log E exp(u * min(eta, cap))."""
        m, sd, cap = self.m, self.sd, self.cap
        below = m * u + 0.5 * (sd * u) ** 2 + _log_ndtr((cap - m) / sd - sd * u)
        above = u * cap + _log_ndtr((m - cap) / sd)
        top = max(below, above)
        return top + math.log(math.exp(below - top) + math.exp(above - top))


#: Below this argument psi is summed from its first two cumulants.
_SMALL_U = 1e-6


def phi_direct(family, lam: float, u: float) -> tuple[float, float]:
    """(phi(u), rounding scale) by summing psi(lam**k u) term by term.

    Terms are evaluated directly while lam**k u >= 1e-6.  Below that
    psi(t) = mean t + var t^2 / 2 + O(t^3), and the rest of the series is
    summed in closed form, with an error under 1e-18: evaluating psi there
    directly would only add rounding noise, since each evaluation is a
    log-sum-exp with an absolute error of a few ulps of 1 + |psi|.  The
    second value, the sum of 1 + |psi| over the direct terms, scales that
    rounding for this sum and for any other summation of the series.
    """
    terms, scale, t = [], 0.0, u
    while t >= _SMALL_U:
        terms.append(family.psi(t))
        scale += 1.0 + abs(terms[-1])
        t *= lam
    if t > 0.0:
        terms.append(family.mean * t / (1.0 - lam) + family.var * t * t / (2.0 * (1.0 - lam * lam)))
    return math.fsum(terms), scale


# ---------------------------------------------------------------------------
# Discrete families: exact path enumeration
# ---------------------------------------------------------------------------


def discrete_survival(atoms, lam: float, x: float, a: float, n_max: int) -> np.ndarray:
    """[P_x(tau > n) for n = 0..n_max] by enumerating every path below a.

    States that coincide exactly are merged, so a single atom stays a single
    path.  The number of live states can double each step; n_max bounds it.
    """
    vals = np.array([v for v, _ in atoms], dtype=float)
    probs = np.array([p for _, p in atoms], dtype=float)
    states = np.array([float(x)])
    weight = np.array([1.0])
    out = [1.0 if x <= a else 0.0]
    for _ in range(n_max):
        nxt = (lam * states[:, None] + vals[None, :]).ravel()
        w = (weight[:, None] * probs[None, :]).ravel()
        alive = nxt <= a
        states, inverse = np.unique(nxt[alive], return_inverse=True)
        weight = np.bincount(inverse, weights=w[alive], minlength=len(states))
        out.append(math.fsum(weight))
    return np.array(out)


def discrete_e_tau_bracket(atoms, lam: float, x: float, a: float, n_max: int):
    """(lo, hi) with lo <= E_x tau <= hi from the enumerated survival curve.

    lo sums the first n_max + 1 survival terms.  For hi: every state stays
    at or above L = min(x, min_atom/(1 - lam)), and from there k consecutive
    top atoms cross, so each block of k steps crosses with probability at
    least p_top**k and sum_{n > n_max} S_n <= S_{n_max} * k / p_top**k.
    """
    surv = discrete_survival(atoms, lam, x, a, n_max)
    top, p_top = max(atoms)
    floor = min(x, min(v for v, _ in atoms) / (1.0 - lam))
    k, state = 0, floor
    while state <= a:
        k += 1
        state = lam * state + top
        if k > 10_000:
            raise ValueError("the top atom never crosses the level")
    lo = math.fsum(surv)
    return lo, lo + surv[-1] * k / p_top**k
