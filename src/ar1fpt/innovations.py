"""Innovation distribution families for the AR(1) recursion X_n = lam*X_{n-1} + eta_n.

Each family bundles a cumulant psi(u) = log E exp(u*eta) with a sampler that
draws from exactly the same law, so analytic evaluations and the Monte Carlo
oracle can be cross-checked against each other.  The registry is closed: the
Gaussian, Discrete and stable families and the Truncated law over any of
them are the only ones the rest of the package accepts.

CappedAbove and FlooredPositive are the truncation constructors, and each
law they build has one representation: over a Discrete base they give the
Discrete law of the mapped atoms, so they build a Truncated law only over a
continuous base, and CappedAbove gives its base back when the base never
exceeds the cap.

All families here are spectrally light on the right, i.e. E exp(u*eta) is
finite for every u >= 0.

Every expectation over eta goes through one primitive per family,
expectation(g, t) = E[g(eta); eta <= t], by default over the whole law.
Every partial MGF goes through another, log_partial_mgf(u, lo, hi) =
log E[e^{u eta}; lo < eta <= hi] with an array of lo: psi's log form, the
part below a Truncated law's first level and the part above the identity's
crossing threshold, each formed directly, never as the total minus the
rest.  The Gaussian's is its tilted normal mass; every other law lists its
log-terms (atoms, levels, the base below the first level), which
InnovationSpec folds with logaddexp and normalises by the same fold at
u = 0.  The stable family has neither primitive with a checked error bar
yet, so each raises DivergenceError, also under a Truncated law.
Moments have a closed-form primitive, moments_below, from which every law
with a variance takes its cumulants.

The Gaussian and stable families have psi in closed form.  Every other law
has InnovationSpec.psi: its series in those cumulants where u*width() <=
TAYLOR_REACH, accurate relative to u*mean, and its log_partial_mgf(u)
elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache, reduce
from typing import Callable

import numpy as np
from scipy import special

from .errors import DivergenceError, InfeasibleTruncationError, UnsupportedSamplerError
from .quadrature import improper_integral

_SQRT2 = math.sqrt(2.0)
#: Cumulants kept per law.  A series in them is used where u*width() <=
#: TAYLOR_REACH, inside psi's Taylor radius of at least pi/(2*width), so a
#: term is at most 1/15 of the one before and the series is exact to rounding.
N_CUMULANTS, TAYLOR_REACH = 17, 0.1
_BINOM = [[math.comb(n, k) for k in range(n + 1)] for n in range(N_CUMULANTS + 1)]
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
        """Cumulant log E exp(u*eta) for u >= 0 (vectorized).

        The cumulant series where u*width() <= TAYLOR_REACH, so that psi stays
        accurate relative to u*mean near 0, and log_partial_mgf(u) elsewhere.
        Each point is evaluated alone: its bits do not depend on the batch.
        """
        arr, kappa = _as_u(u), self.cumulants
        small = (arr * self.width() <= TAYLOR_REACH) & (kappa is not None)
        out = np.empty_like(arr)
        if small.any():
            out[small] = _cumulant_series(kappa, arr[small], lows=self.cumulant_lows)[0]
        out[~small] = self.log_partial_mgf(arr[~small])
        return _maybe_scalar(out)

    # -- sampling ----------------------------------------------------------

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n i.i.d. values using the caller's generator."""
        raise NotImplementedError

    # -- moments and support ----------------------------------------------

    def mean(self) -> float | None:
        return None if self.cumulants is None else self.cumulants[0]

    def var(self) -> float | None:
        c = self.cumulants
        return None if c is None else c[2][0] * c[1] ** 2

    def scale(self) -> float:
        """A positive length scale for horizon heuristics (stddev-like)."""
        v = self.var()
        if v is not None and v > 0:
            return math.sqrt(v)
        m = self.mean()
        if m is not None and m != 0:
            return abs(m)
        return 1.0

    def width(self, center: float | None = None) -> float:
        """The largest distance from center (by default the mean) to an atom
        or level of the law, and at least the scale of a continuous part."""
        return self.scale()

    def upper_support(self) -> float | None:
        """Essential supremum of eta, or None when unbounded above."""
        return None

    def tail_prob(self, t: float) -> float:
        """P(eta > t)."""
        raise NotImplementedError

    def point_mass(self, t: float) -> float:
        """P(eta = t): the atoms of a discrete family, 0 for a continuous one."""
        atoms = self.atoms()
        return 0.0 if atoms is None else sum(p for a, p in atoms if a == t)

    def atom_values(self) -> tuple[float, ...]:
        """The values of positive mass, in descending order: where an
        expectation conditioned on eta > t jumps as t moves."""
        atoms = self.atoms()
        return () if atoms is None else tuple(a for a, _ in atoms)

    # -- integration helpers ----------------------------------------------

    def log_partial_mgf(self, u, lo=-math.inf, hi: float = math.inf):
        """log E[exp(u*eta); lo < eta <= hi], u and lo broadcast (-inf when empty).

        The log-terms of _log_terms folded by logaddexp, each step the larger
        term plus log1p of the other, less the same fold over the whole law
        at u = 0: the law is normalised, as its cumulant_lows assume.
        """
        terms = self._log_terms(_as_u(u), lo, hi)
        return _maybe_scalar(reduce(np.logaddexp, terms) - self._log_mass)

    def _log_terms(self, u, lo, hi: float) -> list:
        """Arrays whose exponentials sum to E[exp(u*eta); lo < eta <= hi]
        before normalisation, at least one: a law's atoms, levels or pieces."""
        raise DivergenceError(f"{self!r} has no partial MGF with a checked error bar")

    @cached_property
    def _log_mass(self) -> float:
        """The log of the law's total mass as its probabilities sum it, about 0."""
        return float(reduce(np.logaddexp, self._log_terms(np.zeros(()), -math.inf, math.inf)))

    def expectation(
        self, g: Callable[[np.ndarray], np.ndarray], t: float = math.inf
    ) -> float:
        """E[g(eta); eta <= t], never evaluating g above t.

        g maps an array of innovation values to an array of its shape, and
        is called on whole node arrays: atoms, Gauss-Hermite nodes or an
        engine node set.
        """
        raise DivergenceError(f"{self!r} has no partial expectation with a checked error bar")

    def moments_below(self, t, center=0.0, unit=1.0, order=N_CUMULANTS) -> np.ndarray | None:
        """E[((eta - center)/unit)**j; eta <= t], j = 0..order, in closed form; None for a stable law."""
        return None

    @cached_property
    def cumulants(self) -> tuple[float, float, tuple[float, ...]] | None:
        """(mean, unit, (kappa_j/unit**j for j = 2..N_CUMULANTS)), or None; no engine call.

        The moment-cumulant recursion on the moments of (eta - mean)/unit, the
        mean from a first pass about 0 and unit the power of two at or above
        the width (1 at 0): no digits lost to where the law sits, no underflow.
        """
        first = self.moments_below(math.inf, order=1)
        if first is None:
            return None
        center = float(first[1])
        unit = math.ldexp(1.0, math.frexp(self.width(center))[1])
        m = self.moments_below(math.inf, center, unit).tolist()
        kappa = []
        for n in range(1, N_CUMULANTS + 1):
            row, acc = _BINOM[n - 1], m[n]
            for k in range(1, n):
                acc -= row[k - 1] * kappa[k - 1] * m[n - k]
            kappa.append(acc)
        return center + kappa[0] * unit, unit, tuple(kappa[1:])

    @property
    def cumulant_lows(self) -> tuple[float, float]:
        """What the mean and kappa_2/unit**2 of cumulants leave of their exact
        values, where the law knows them (a Discrete law's); else 0."""
        return 0.0, 0.0

    def atoms(self) -> list[tuple[float, float]] | None:
        """(value, probability) pairs for purely discrete families."""
        return None


def _as_u(u):
    arr = np.asarray(u, dtype=float)
    if (arr < 0).any():
        raise ValueError("cumulant is only defined for u >= 0")
    return arr


def _maybe_scalar(value):
    return float(value) if np.ndim(value) == 0 else value


@lru_cache(maxsize=64)
def _series_weights(lam: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """w_j = 1/(j! (1 - lam**j)), j = 1..N_CUMULANTS, each the exact quotient
    rounded once, and what that rounding left; lam = 0 gives 1/j!."""
    exact = [1 / (math.factorial(j) * (1 - Fraction(lam) ** j)) for j in range(1, N_CUMULANTS + 1)]
    hi = tuple(float(w) for w in exact)
    return hi, tuple(float(w - Fraction(h)) for w, h in zip(exact, hi))


def _two_sum(a, b):
    """(a + b, its rounding error), exactly (Knuth)."""
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _halves(a):
    """Veltkamp's split, a = hi + lo with 26 bits each."""
    hi = 134217729.0 * a  # 2**27 + 1
    hi -= hi - a
    return hi, a - hi


def _two_prod(a, b, b_halves=None):
    """(a * b, its rounding error), exactly unless a part over- or underflows
    (Dekker); b_halves, if given, are _halves(b)."""
    p = a * b
    (a1, a2), (b1, b2) = _halves(a), b_halves or _halves(b)
    return p, ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


@np.errstate(over="ignore", invalid="ignore", under="ignore")
def _cumulant_series(cumulants, u, lam=0.0, lows=(0.0, 0.0)):
    """(sum_j kappa_j w_j u**j over j < N_CUMULANTS, bound), w_j as in
    _series_weights, for x = u*unit <= 0.25 (u*width() <= TAYLOR_REACH).

    lows are InnovationSpec.cumulant_lows; the cumulants are otherwise taken
    as given.  The mean term t1 = (mean + lows[0]) w_1 u and the rest
    t2 = x**2 (c_2 + x P(x)), c_j = kappa_j w_j and P by Horner's rule, are
    formed and added with their rounding errors carried (Dekker's products,
    Knuth's sums), so the value is their sum rounded once.  The bound is the
    last kept and the first omitted terms (a symmetric law's odd cumulants
    vanish), and in units of u_r = eps/2: the final rounding, |value|; to
    first order (2% for the rest), x**3 sum_{j>=3} (2j - 1) |c_j|
    0.25**(j-3) for P's Horner steps and x P, with 2 u_r for each c_j (w_j's
    rounding and the product's); 18 roundings of the carried errors, each at
    most 2 eps (|t1| + |t2|) + |c1_lo| u + |c2_lo| x**2, and eps**2
    (|t1| + |t2|) for w_1 and w_2; and 32 (1 + u) subnormal ulps for
    products that underflow.  Where a carried error overflows, the value is
    the plain sum t1 + t2, within 3 eps (|t1| + |t2|) and the lows.
    """
    mean, unit, scaled = cumulants
    w, w_lo = _series_weights(lam)
    c1, c1_lo = _two_prod(mean, w[0])
    c2, c2_lo = _two_prod(scaled[0], w[1])
    c1_lo += mean * w_lo[0] + lows[0] * w[0]
    c2_lo += scaled[0] * w_lo[1] + lows[1] * w[1]
    coef = [k * wj for k, wj in zip(scaled, w[1:])]
    x = u * unit
    p = np.full_like(x, coef[-2])
    horner = (2 * N_CUMULANTS - 3) * abs(coef[-2])
    for j in range(N_CUMULANTS - 2, 2, -1):
        p *= x
        p += coef[j - 2]
        horner = horner * 0.25 + (2 * j - 1) * abs(coef[j - 2])
    s2, e2 = _two_sum(c2, p * x)
    x_halves = _halves(x)
    q, q_lo = _two_prod(s2, x, x_halves)
    t2, t2_lo = _two_prod(q, x, x_halves)
    t1, t1_lo = _two_prod(c1, u)
    s, e = _two_sum(t1, t2)
    lo = e + (t1_lo + c1_lo * u) + (t2_lo + (q_lo + (e2 + c2_lo) * x) * x)
    value = s + lo
    eps, tiny = np.finfo(float).eps, 32 * np.finfo(float).smallest_subnormal
    xx, big = x * x, np.abs(t1) + np.abs(t2)
    carry = 9 * eps * (abs(c1_lo) * u + abs(c2_lo) * xx) + 19 * eps**2 * big
    carried = np.isfinite(lo)
    if not carried.all():
        dropped = 3 * eps * big + abs(lows[0] * w[0]) * u + abs(lows[1] * w[1]) * xx
        value, carry = np.where(carried, value, s), np.where(carried, carry, dropped)
    bound = x ** (N_CUMULANTS - 1) * (abs(coef[-2]) + abs(coef[-1]) * x) + 0.5 * eps * np.abs(value)
    return value, bound + 0.51 * eps * horner * xx * x + tiny * (1.0 + u) + carry


@lru_cache(maxsize=64)
def _atom_lows(pairs, mean, unit, scaled_var):
    """Discrete.cumulant_lows: the exact mean and variance / unit**2 of the
    atoms, their probabilities normalised, less mean and scaled_var."""
    pairs = [(Fraction(a), Fraction(p)) for a, p in pairs]
    total = sum(p for _, p in pairs)
    m = sum(a * p for a, p in pairs) / total
    var = sum((a - m) ** 2 * p for a, p in pairs) / total
    return float(m - Fraction(mean)), float(var / Fraction(unit) ** 2 - Fraction(scaled_var))


def _atom_moments(vals, probs, t, center, unit, order):
    """E[((eta - center)/unit)**j; eta <= t] of atoms, j = 0..order, each an fsum."""
    kept = [(p, (a - center) / unit) for a, p in zip(vals, probs) if a <= t]
    rows = [[p * d**j for j in range(order + 1)] for p, d in kept] or [[0.0] * (order + 1)]
    return np.array([math.fsum(col) for col in zip(*rows)])


def _atom_sum(g, vals, probs, t):
    """sum p*g(a) over the atoms a <= t of positive mass, g called once."""
    vals, probs = np.asarray(vals, dtype=float), np.asarray(probs, dtype=float)
    kept = (vals <= t) & (probs > 0.0)
    if not kept.any():
        return 0.0
    return float(np.sum(probs[kept] * np.asarray(g(vals[kept]))))


def _log_normal_mass(lo, hi):
    """log P(lo < Y <= hi) for a standard normal Y, from the tail the interval
    lies in, so that neither a small mass nor a narrow interval cancels."""
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = special.log_ndtr(-lo)
        upper = upper + np.log(-np.expm1(special.log_ndtr(-hi) - upper))
        lower = special.log_ndtr(hi)
        lower = lower + np.log(-np.expm1(special.log_ndtr(lo) - lower))
    return np.where(lo >= hi, -np.inf, np.where(lo + hi > 0.0, upper, lower))


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
        return _maybe_scalar(self.m * arr + 0.5 * self.sigma2 * arr**2)

    def sample(self, rng, n):
        # the standard draws scaled and shifted in place: the values of
        # rng.normal(m, sigma, n), from numpy's faster fill loop
        draws = rng.standard_normal(n)
        if self.sigma2 != 1.0:
            draws *= math.sqrt(self.sigma2)
        if self.m != 0.0:
            draws += self.m
        return draws

    def mean(self):
        return self.m

    def var(self):
        return self.sigma2

    def tail_prob(self, t):
        return float(special.ndtr((self.m - t) / math.sqrt(self.sigma2)))

    def log_partial_mgf(self, u, lo=-math.inf, hi=math.inf):
        # exponential tilting: e^{psi(u)} times the mass of N(m + s2 u, s2) on
        # (lo, hi].  A one-sided interval takes one log_ndtr from its open
        # side: the two-sided form would cost four, and turn -inf into NaN.
        arr = _as_u(u)
        s = math.sqrt(self.sigma2)
        psi = self.m * arr + 0.5 * self.sigma2 * arr**2
        if hi == math.inf:
            mass = special.log_ndtr((self.m + self.sigma2 * arr - lo) / s)
        elif isinstance(lo, float) and lo == -math.inf:
            mass = special.log_ndtr((hi - self.m - self.sigma2 * arr) / s)
        else:
            mu = self.m + self.sigma2 * arr
            mass = _log_normal_mass((lo - mu) / s, (hi - mu) / s)
        return _maybe_scalar(psi + mass)

    def expectation(self, g, t=math.inf):
        s = math.sqrt(self.sigma2)
        pts = self.m + s * _SQRT2 * _HERMITE_X
        if pts[-1] <= t:
            return float(np.sum(_HERMITE_W * np.asarray(g(pts))) / math.sqrt(math.pi))
        # t below the top node: the engine on x = t - s*w, w > 0.  It cannot
        # replace the rule: from z = 24 up it sees a dead integrand and says 0.
        z = (t - self.m) / s
        res = improper_integral(
            lambda w: np.asarray(g(t - s * w)) * np.exp(-0.5 * (z - w) ** 2)
        ).require(f"Gaussian expectation below t={t}")
        return res.value / math.sqrt(2.0 * math.pi)

    def moments_below(self, t, center=0.0, unit=1.0, order=N_CUMULANTS):
        # Y = (eta - center)/s is N(d, 1); by parts J_j = E[Y**j; Y <= y] has
        # J_j = d J_{j-1} + (j-1) J_{j-2} - pdf(y - d) y**(j-1)
        s = math.sqrt(self.sigma2)
        d, y, z = (self.m - center) / s, (t - center) / s, (t - self.m) / s
        edge = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) if math.isfinite(z) else 0.0
        js = [0.5 * math.erfc(-z / _SQRT2)]
        js.append(d * js[0] - edge)
        for j in range(2, order + 1):
            edge = edge * y if edge else 0.0
            js.append(d * js[-1] + (j - 1) * js[-2] - edge)
        return np.array(js[: order + 1]) * (s / unit) ** np.arange(order + 1)


@dataclass(frozen=True)
class Discrete(InnovationSpec):
    """Innovation with finitely many atoms.

    pairs holds (value, probability) tuples.  Equal values are merged and the
    atoms are kept in descending value order, which fixes the order of the
    partial MGF's fold and the layout of the inverse-CDF sampler.
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

    @property
    def cumulant_lows(self):
        mean, unit, scaled = self.cumulants
        return _atom_lows(self.pairs, mean, unit, scaled[0])

    @cached_property
    def _arrays(self):
        """(values, probabilities), built once and shared, so read-only."""
        vals = np.array([a for a, _ in self.pairs])
        probs = np.array([p for _, p in self.pairs])
        vals.flags.writeable = probs.flags.writeable = False
        return vals, probs

    def sample(self, rng, n):
        # inverse CDF: atom i is drawn when r lands in [cum_{i-1}, cum_i)
        vals, probs = self._arrays
        r = rng.random(n)
        return vals[np.searchsorted(np.cumsum(probs[:-1]), r, side="right")]

    def width(self, center=None):
        m = self.mean() if center is None else center
        return max(abs(a - m) for a, _ in self.pairs)

    def upper_support(self):
        return self.pairs[0][0]

    def tail_prob(self, t):
        return float(sum(p for a, p in self.pairs if a > t))

    def _log_terms(self, u, lo, hi):
        # one term per atom, in atom order, -inf off (lo, hi]
        return [np.where((a > lo) & (a <= hi), u * a + math.log(p), -np.inf) for a, p in self.pairs]

    def expectation(self, g, t=math.inf):
        return _atom_sum(g, *self._arrays, t)

    def moments_below(self, t, center=0.0, unit=1.0, order=N_CUMULANTS):
        return _atom_moments(*zip(*self.pairs), t, center, unit, order)


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
        return _maybe_scalar(out)

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

    def tail_prob(self, t):
        return float(self._frozen().sf(t))


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

    The log-terms of its partial MGF are the base's on (lo, min(hi, l_0)]
    and then one per level of positive mass in (lo, hi].  Its cumulants
    come from the base's moments below l_0 and the level atoms.  A base
    without moments (a stable law) has no cumulants, and psi raises
    DivergenceError with the base's partial MGF.
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

    def width(self, center=None):
        m = self.mean() if center is None else center
        return self.scale() if m is None else max(self.base.width(m), *(abs(x - m) for x in self.levels))

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

    def atom_values(self):
        below = [a for a in self.base.atom_values() if a < self.levels[0]]
        return tuple(x for x in self.levels[::-1] if self.point_mass(x) > 0.0) + tuple(below)

    def _log_terms(self, u, lo, hi):
        levels = [
            np.where(x > lo, u * x + math.log(m), -np.inf)
            for x, m in zip(self.levels, self.masses)
            if m > 0.0 and x <= hi
        ]
        return [self.base.log_partial_mgf(u, lo, min(hi, self.levels[0])), *levels]

    def expectation(self, g, t=math.inf):
        body = self.base.expectation(g, min(t, self.levels[0]))
        return body + _atom_sum(g, self.levels, self.masses, t)

    def moments_below(self, t, center=0.0, unit=1.0, order=N_CUMULANTS):
        body = self.base.moments_below(min(t, self.levels[0]), center, unit, order)
        if body is None:
            return None
        return body + _atom_moments(self.levels, self.masses, t, center, unit, order)


def _truncate(base: InnovationSpec, levels: tuple[float, ...]) -> InnovationSpec:
    """Truncated(base, levels), or for a discrete base the Discrete law of its mapped atoms."""
    law, atoms = Truncated(base, levels), base.atoms()
    if atoms is None:
        return law
    vals, probs = np.array(atoms).T
    return Discrete(tuple(zip(_level_map(law.levels, vals).tolist(), probs.tolist())))


def CappedAbove(base: InnovationSpec, h_cap: float) -> InnovationSpec:
    """eta~ = min(eta, h_cap).

    base itself when eta never exceeds h_cap; over a discrete base, the
    Discrete law of the capped atoms.
    """
    ub = base.upper_support()
    if ub is not None and ub <= h_cap:
        return base
    return _truncate(base, (h_cap,))


def FlooredPositive(base: InnovationSpec, n_cap: float) -> InnovationSpec:
    """eta~ = eta on {eta <= 0}, 0 on {0 < eta < n_cap}, n_cap on {eta >= n_cap}.

    Over a discrete base, the Discrete law of the floored atoms.  Raises
    InfeasibleTruncationError if P(eta >= n_cap) = 0: eta~ could never move up.
    """
    if n_cap <= 0:
        raise ValueError("n_cap must be positive")
    floored = _truncate(base, (0.0, n_cap))
    if floored.point_mass(n_cap) <= 0.0:
        raise InfeasibleTruncationError(f"no innovation mass at or above n_cap={n_cap}")
    return floored
