"""Innovation distribution families for the AR(1) recursion X_n = lam*X_{n-1} + eta_n.

Each family bundles a cumulant psi(u) = log E exp(u*eta) with a sampler that
draws from exactly the same law, so analytic evaluations and the Monte Carlo
oracle can be cross-checked against each other.  The registry is closed: the
Gaussian, Discrete and stable families and the Truncated law over any of
them (built by CappedAbove and FlooredPositive) are the only ones the rest of
the package accepts.

All families here are spectrally light on the right, i.e. E exp(u*eta) is
finite for every u >= 0.

Every expectation over eta goes through one primitive per family,
expectation_below(g, t) = E[g(eta); eta <= t]; expectation(g) is its
t = inf case, and the moments of a Truncated law come from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from scipy import integrate, special

from .errors import DivergenceError, InfeasibleTruncationError, UnsupportedSamplerError
from .quadrature import improper_integral

_SQRT2 = math.sqrt(2.0)
#: Gauss-Hermite rule of the Gaussian expectations (weight e^{-x^2}).
_HERMITE_X, _HERMITE_W = np.polynomial.hermite.hermgauss(64)


class InnovationSpec:
    """Abstract innovation family.

    Subclasses provide the cumulant, a sampler coupled to it, and enough
    distributional metadata (support bound, tail probabilities, partial MGFs
    and expectations) for the truncation transforms and the harmonic checks.
    Instances are immutable values; samplers draw from caller-owned
    generators, so specs are safe to share across workers.
    """

    # -- cumulant ----------------------------------------------------------

    def psi(self, u):
        """Cumulant log E exp(u*eta) for u >= 0 (vectorized)."""
        raise NotImplementedError

    # -- sampling ----------------------------------------------------------

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n i.i.d. values using the caller's generator."""
        raise NotImplementedError

    # -- moments and support ----------------------------------------------

    def mean(self) -> float | None:
        return None

    def var(self) -> float | None:
        return None

    def scale(self) -> float:
        """A positive length scale for horizon heuristics (stddev-like)."""
        v = self.var()
        if v is not None and v > 0:
            return math.sqrt(v)
        m = self.mean()
        if m is not None and m != 0:
            return abs(m)
        return 1.0

    def upper_support(self) -> float | None:
        """Essential supremum of eta, or None when unbounded above."""
        return None

    def upper_quantile(self, q: float) -> float:
        """A value exceeded with probability at most 1 - q."""
        raise NotImplementedError

    def tail_prob(self, t: float) -> float:
        """P(eta > t)."""
        raise NotImplementedError

    def point_mass(self, t: float) -> float:
        """P(eta = t): the atoms of a discrete family, 0 for a continuous one."""
        atoms = self.atoms()
        return 0.0 if atoms is None else sum(p for a, p in atoms if a == t)

    # -- integration helpers ----------------------------------------------

    def log_partial_mgf_below(self, u, t: float):
        """log E[exp(u*eta); eta <= t], vectorized in u (-inf when empty)."""
        raise NotImplementedError

    def expectation_below(self, g: Callable[[np.ndarray], np.ndarray], t: float) -> float:
        """E[g(eta); eta <= t], never evaluating g above t.

        g maps an array of innovation values to an array of its shape.  All
        families but the stable one call it on whole node arrays: atoms,
        Gauss-Hermite nodes or an engine node set.
        """
        raise NotImplementedError

    def expectation(self, g: Callable[[np.ndarray], np.ndarray]) -> float:
        """E g(eta): expectation_below at t = inf."""
        return self.expectation_below(g, math.inf)

    def atoms(self) -> list[tuple[float, float]] | None:
        """(value, probability) pairs for purely discrete families."""
        return None


def _as_u(u):
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0):
        raise ValueError("cumulant is only defined for u >= 0")
    return arr


def _maybe_scalar(value, u):
    return float(value) if np.ndim(u) == 0 else value


def _atom_sum(g, vals, probs, t):
    """sum p*g(a) over the atoms a <= t of positive mass, g called once."""
    vals, probs = np.asarray(vals, dtype=float), np.asarray(probs, dtype=float)
    kept = (vals <= t) & (probs > 0.0)
    if not kept.any():
        return 0.0
    return float(np.sum(probs[kept] * np.asarray(g(vals[kept]))))


@dataclass(frozen=True)
class Gaussian(InnovationSpec):
    """Normal innovation N(m, sigma2)."""

    m: float = 0.0
    sigma2: float = 1.0

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError("Gaussian requires sigma2 > 0")

    def psi(self, u):
        arr = _as_u(u)
        return _maybe_scalar(self.m * arr + 0.5 * self.sigma2 * arr**2, u)

    def sample(self, rng, n):
        return rng.normal(self.m, math.sqrt(self.sigma2), size=n)

    def mean(self):
        return self.m

    def var(self):
        return self.sigma2

    def upper_quantile(self, q):
        return self.m + math.sqrt(self.sigma2) * special.ndtri(q)

    def tail_prob(self, t):
        return float(special.ndtr((self.m - t) / math.sqrt(self.sigma2)))

    def log_partial_mgf_below(self, u, t):
        # Exponential tilting: E[e^{u eta}; eta <= t] = e^{psi(u)} Phi((t - m - s2 u)/s).
        arr = _as_u(u)
        s = math.sqrt(self.sigma2)
        z = (t - self.m - self.sigma2 * arr) / s
        out = self.psi(arr) + special.log_ndtr(z)
        return _maybe_scalar(out, u)

    def expectation_below(self, g, t):
        s = math.sqrt(self.sigma2)
        pts = self.m + s * _SQRT2 * _HERMITE_X
        if pts[-1] <= t:
            return float(np.sum(_HERMITE_W * np.asarray(g(pts))) / math.sqrt(math.pi))
        # t below the top node: the engine on x = t - s*w, w > 0.  It cannot
        # replace the rule: from z = 24 up it sees a dead integrand and says 0.
        z = (t - self.m) / s
        res = improper_integral(
            lambda w: np.asarray(g(t - s * w)) * np.exp(-0.5 * (z - w) ** 2)
        )
        if not res.converged:
            raise DivergenceError(
                f"Gaussian expectation below t={t} did not converge ({res.tail_diagnostic})"
            )
        return res.value / math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class Discrete(InnovationSpec):
    """Innovation with finitely many atoms.

    pairs holds (value, probability) tuples.  Equal values are merged and the
    atoms are kept in descending value order, which fixes the summation
    order of psi and the layout of the inverse-CDF sampler.
    """

    pairs: tuple[tuple[float, float], ...]

    def __post_init__(self):
        merged: dict[float, float] = {}
        for a, p in self.pairs:
            merged[float(a)] = merged.get(float(a), 0.0) + float(p)
        if not merged:
            raise ValueError("Discrete needs at least one atom")
        if any(not p > 0.0 for p in merged.values()):
            raise ValueError("Discrete atom probabilities must be positive")
        if abs(sum(merged.values()) - 1.0) > 1e-9:
            raise ValueError("Discrete atom probabilities must sum to 1")
        object.__setattr__(self, "pairs", tuple(sorted(merged.items(), reverse=True)))

    def atoms(self):
        return list(self.pairs)

    def _arrays(self):
        return (
            np.array([a for a, _ in self.pairs]),
            np.array([p for _, p in self.pairs]),
        )

    def psi(self, u):
        arr = _as_u(u)
        out = _log_mgf(arr, *self._arrays())
        out = np.where(arr == 0.0, 0.0, out)
        return _maybe_scalar(out, u)

    def sample(self, rng, n):
        # inverse CDF: atom i is drawn when r lands in [cum_{i-1}, cum_i)
        vals, probs = self._arrays()
        r = rng.random(n)
        return vals[np.searchsorted(np.cumsum(probs[:-1]), r, side="right")]

    def mean(self):
        return float(sum(a * p for a, p in self.pairs))

    def var(self):
        m = self.mean()
        return float(sum(p * (a - m) ** 2 for a, p in self.pairs))

    def upper_support(self):
        return self.pairs[0][0]

    def tail_prob(self, t):
        return float(sum(p for a, p in self.pairs if a > t))

    def log_partial_mgf_below(self, u, t):
        arr = _as_u(u)
        vals, probs = self._arrays()
        kept = vals <= t
        if not kept.any():
            return _maybe_scalar(np.full_like(arr, -np.inf), u)
        return _maybe_scalar(_log_mgf(arr, vals[kept], probs[kept]), u)

    def expectation_below(self, g, t):
        return _atom_sum(g, *self._arrays(), t)


def _log_mgf(u, vals, probs):
    """log sum_i p_i e^{u a_i}, shifted by the max exponent for stability."""
    expo = np.multiply.outer(u, vals)
    shift = expo.max(axis=-1, keepdims=True)
    return np.squeeze(shift, axis=-1) + np.log(
        np.sum(probs * np.exp(expo - shift), axis=-1)
    )


def Deterministic(c: float) -> Discrete:
    """Degenerate innovation equal to the constant c."""
    return Discrete(((c, 1.0),))


def TwoPoint(h_up: float, h_down: float, p: float) -> Discrete:
    """Two-atom innovation: h_up with probability p, h_down otherwise."""
    if not 0.0 < p < 1.0:
        raise ValueError("TwoPoint requires p in (0, 1)")
    if not h_down < h_up:
        raise ValueError("TwoPoint requires h_down < h_up")
    return Discrete(((h_up, p), (h_down, 1.0 - p)))


@dataclass(frozen=True)
class StableSpectrallyNegative(InnovationSpec):
    """Totally negatively skewed stable innovation.

    The cumulant is psi(u) = m*u + sgn(alpha - 1) * C * u**alpha with C > 0
    and alpha in (0, 1) or (1, 2].  Sampling uses the Chambers-Mallows-Stuck
    construction for the mirrored one-sided-skew stable law; it is supported
    only for alpha in (1, 2].  For alpha < 1 the law lives on (-inf, m].
    """

    alpha_stab: float
    c_scale: float
    m: float = 0.0

    def __post_init__(self):
        a = self.alpha_stab
        if not (0.0 < a <= 2.0) or a == 1.0:
            raise ValueError("alpha_stab must lie in (0,1) or (1,2]")
        if self.c_scale <= 0:
            raise ValueError("c_scale must be positive")

    def psi(self, u):
        arr = _as_u(u)
        sgn = 1.0 if self.alpha_stab > 1.0 else -1.0
        out = self.m * arr + sgn * self.c_scale * arr**self.alpha_stab
        return _maybe_scalar(out, u)

    def _sigma(self):
        a = self.alpha_stab
        return (self.c_scale * abs(math.cos(math.pi * a / 2.0))) ** (1.0 / a)

    def sample(self, rng, n):
        a = self.alpha_stab
        if not 1.0 < a <= 2.0:
            raise UnsupportedSamplerError(
                f"sampling is unsupported for alpha_stab={a}; need alpha in (1, 2]"
            )
        # eta = m - sigma * Z with Z standard totally-right-skewed stable (S1),
        # drawn by the Chambers-Mallows-Stuck transform of (uniform, exponential).
        v = math.pi * (rng.random(n) - 0.5)
        w = rng.exponential(1.0, size=n)
        if a == 2.0:
            z = 2.0 * np.sin(v) * np.sqrt(w)
        else:
            theta0 = math.atan(math.tan(math.pi * a / 2.0)) / a
            t1 = np.sin(a * (v + theta0)) / (
                math.cos(a * theta0) * np.cos(v)
            ) ** (1.0 / a)
            t2 = (np.cos(a * theta0 + (a - 1.0) * v) / w) ** ((1.0 - a) / a)
            z = t1 * t2
        return self.m - self._sigma() * z

    def mean(self):
        return self.m if self.alpha_stab > 1.0 else None

    def upper_support(self):
        return self.m if self.alpha_stab < 1.0 else None

    def var(self):
        return 2.0 * self.c_scale if self.alpha_stab == 2.0 else None

    def scale(self):
        return self.c_scale ** (1.0 / self.alpha_stab)

    def _frozen(self):
        from scipy import stats

        return stats.levy_stable(self.alpha_stab, -1.0, loc=self.m, scale=self._sigma())

    def upper_quantile(self, q):
        return float(self._frozen().ppf(q))

    def tail_prob(self, t):
        return float(self._frozen().sf(t))

    def cdf(self, t):
        out = self._frozen().cdf(t)
        return float(out) if np.ndim(t) == 0 else out

    def log_partial_mgf_below(self, u, t):
        arr = np.atleast_1d(_as_u(u))
        frozen = self._frozen()
        out = np.empty_like(arr)
        for i, ui in enumerate(arr):
            val, _ = integrate.quad(
                lambda x: math.exp(ui * x) * frozen.pdf(x),
                -np.inf,
                t,
                limit=200,
            )
            out[i] = math.log(val) if val > 0 else -np.inf
        return _maybe_scalar(out[0] if np.ndim(u) == 0 else out, u)

    def expectation_below(self, g, t):
        frozen = self._frozen()
        lo, hi = frozen.ppf(1e-12), min(frozen.ppf(1.0 - 1e-12), t)
        if not lo < hi:
            return 0.0
        val, _ = integrate.quad(lambda x: g(x) * frozen.pdf(x), lo, hi, limit=200)
        return float(val)


def _level_map(levels, eta):
    """eta where eta <= levels[0], else the largest level at or below eta."""
    eta, levels = np.asarray(eta, dtype=float), np.asarray(levels, dtype=float)
    below = np.maximum(np.searchsorted(levels, eta, side="right") - 1, 0)
    return np.where(eta <= levels[0], eta, levels[below])


@dataclass(frozen=True)
class Truncated(InnovationSpec):
    """The innovation truncated at the increasing levels l_0 < ... < l_k.

    eta~ = eta where eta <= l_0; otherwise eta~ is the largest level at or
    below eta.  The sampler sends the base's draws through this level map,
    so eta~ <= eta pathwise, which makes passage times of the truncated
    process dominate those of the base process.  The law is the base below
    l_0 (with its own atom at l_0) plus an atom at each level: masses holds
    P(l_0 < eta < l_1) and then P(l_i <= eta < l_{i+1}).

    psi is u*l_k plus the log of a sum of the shifted pieces.  As u -> 0
    that sum rounds to 1, leaving about 1e-16 of absolute noise, which the
    u**(v-1) weight of W_v turns into a non-integrable spike.  So where
    u*scale <= 1e-5, psi is its cumulant expansion u*mean + u**2*var/2,
    both fitted to the log form at u0 = 1e-5/scale and 2*u0: two cheap
    evaluations (mean() and var() are quadratures) that give the mean to
    5e-11*scale and psi to 1e-16 at u0.  A base without variance keeps the
    log form, as psi is then not quadratic at 0.
    """

    base: InnovationSpec
    levels: tuple[float, ...]
    masses: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        levels = tuple(float(x) for x in self.levels)
        if not (levels and np.isfinite(levels).all() and (np.diff(levels) > 0).all()):
            raise ValueError("truncation levels must be finite and strictly increasing")
        object.__setattr__(self, "levels", levels)
        # P(eta > l_0), P(eta >= l_i) at the higher levels, 0 beyond the last
        upper = [self.base.tail_prob(levels[0])]
        upper += [self.base.tail_prob(x) + self.base.point_mass(x) for x in levels[1:]] + [0.0]
        masses = tuple(max(a - b, 0.0) for a, b in zip(upper, upper[1:]))
        object.__setattr__(self, "masses", masses)

    def mean(self):
        return None if self.base.mean() is None else self.expectation(lambda e: e)

    def var(self):
        if self.base.var() is None:  # the base's left tail is kept
            return None
        m = self.mean()
        return self.expectation(lambda e: (e - m) ** 2)

    def _log_mgf_to(self, u, n):
        """log E[e^{u eta~}; eta~ <= l_{n-1}], u an array."""
        top = self.levels[n - 1]
        acc = np.exp(self.base.log_partial_mgf_below(u, self.levels[0]) - u * top)
        acc += self.masses[n - 1]
        for level, mass in zip(self.levels[: n - 1], self.masses[: n - 1]):
            acc += mass * np.exp(u * (level - top))
        return u * top + np.log(acc)

    @cached_property
    def _expansion(self):
        """(reach, mean, var/2): the expansion holds where u*scale <= reach."""
        if self.base.var() is None:
            return 0.0, 0.0, 0.0  # only psi(0) = 0 is exact
        u0 = 1e-5 / self.scale()
        p1, p2 = self._log_mgf_to(np.array([u0, 2.0 * u0]), len(self.levels))
        return 1e-5, (2.0 * p1 - 0.5 * p2) / u0, (p2 - 2.0 * p1) / (2.0 * u0 * u0)

    def psi(self, u):
        arr = _as_u(u)
        reach, m, half_var = self._expansion
        small = arr * self.scale() <= reach
        out = np.empty_like(arr)
        out[small] = arr[small] * (m + half_var * arr[small])
        out[~small] = self._log_mgf_to(arr[~small], len(self.levels))
        return _maybe_scalar(out, u)

    def sample(self, rng, n):
        return _level_map(self.levels, self.base.sample(rng, n))

    def scale(self):
        return max(self.base.scale(), self.levels[-1] - self.levels[0])

    def upper_support(self):
        ub = self.base.upper_support()
        return self.levels[-1] if ub is None else min(ub, self.levels[-1])

    def tail_prob(self, t):
        if t < self.levels[0]:
            return self.base.tail_prob(t)  # eta~ >= l_0 > t wherever eta > l_0
        return float(sum(m for x, m in zip(self.levels, self.masses) if x > t))

    def point_mass(self, t):
        own = self.base.point_mass(t) if t <= self.levels[0] else 0.0
        return own + sum(m for x, m in zip(self.levels, self.masses) if x == t)

    def log_partial_mgf_below(self, u, t):
        if t < self.levels[0]:
            return self.base.log_partial_mgf_below(u, t)
        if t >= self.levels[-1]:
            return self.psi(u)
        n = int(np.searchsorted(self.levels, t, side="right"))
        return _maybe_scalar(self._log_mgf_to(_as_u(u), n), u)

    def expectation_below(self, g, t):
        body = self.base.expectation_below(g, min(t, self.levels[0]))
        return body + _atom_sum(g, self.levels, self.masses, t)


def CappedAbove(base: InnovationSpec, h_cap: float) -> Truncated:
    """eta~ = min(eta, h_cap)."""
    return Truncated(base, (h_cap,))


def FlooredPositive(base: InnovationSpec, n_cap: float) -> Truncated:
    """eta~ = eta on {eta <= 0}, 0 on {0 < eta < n_cap}, n_cap on {eta >= n_cap}.

    Raises InfeasibleTruncationError if P(eta >= n_cap) = 0: eta~ could never move up.
    """
    if n_cap <= 0:
        raise ValueError("n_cap must be positive")
    floored = Truncated(base, (0.0, n_cap))
    if floored.point_mass(n_cap) <= 0.0:
        raise InfeasibleTruncationError(f"no innovation mass at or above n_cap={n_cap}")
    return floored


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def psi(spec: InnovationSpec, u):
    """Cumulant log E exp(u*eta) of one innovation; psi(0) = 0 exactly."""
    return spec.psi(u)


def sample(spec: InnovationSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """n i.i.d. draws; deterministic given the generator state."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return spec.sample(rng, n)


def _atoms_mapped(law: Truncated) -> InnovationSpec:
    """law itself, or for a discrete base the Discrete law of its mapped atoms."""
    if law.base.atoms() is None:
        return law
    vals, probs = np.array(law.base.atoms()).T
    return Discrete(tuple(zip(_level_map(law.levels, vals).tolist(), probs.tolist())))


def truncate_cap_above(spec: InnovationSpec, h_cap: float) -> InnovationSpec:
    """CappedAbove(spec, h_cap), Discrete for a discrete spec; spec if nothing is capped."""
    capped = CappedAbove(spec, h_cap)
    ub = spec.upper_support()
    return spec if ub is not None and ub <= h_cap else _atoms_mapped(capped)


def truncate_floor_positive(spec: InnovationSpec, n_cap: float) -> InnovationSpec:
    """FlooredPositive(spec, n_cap), Discrete for a discrete spec."""
    return _atoms_mapped(FlooredPositive(spec, n_cap))
