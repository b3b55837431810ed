"""The limit cumulant phi(u) = sum_k psi(lam**k * u) of the stationary law.

phi is the cumulant of Theta = sum_k lam**k eta_{k+1}, the distributional
limit of the AR(1) recursion.  It satisfies the functional equation
phi(u) = phi(lam*u) + psi(u) and is convex.  Its limiting slope
lim phi'(u) = ess-sup(eta)/(1 - lam) is the admissibility level y_adm: the
martingale integrals of exp(u*y - phi(u)) converge exactly for y < y_adm.

Series summation uses a geometric tail bound; closed forms exist for the
stable (hence Gaussian) and deterministic families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SeriesDivergenceError
from .innovations import Gaussian, InnovationSpec, StableSpectrallyNegative

#: Reference scale below which no early-term ratio test is attempted.
_U0_REF = 1.0
#: Extra terms summed past the nominal horizon before tail tests engage.
_K_MIN_PAD = 8


@dataclass(frozen=True)
class SlopeReport:
    """Large-u growth diagnostics of phi.

    slope_estimate    phi(u_max)/u_max at the largest probe
    theoretical_slope the limit y_adm of phi(u)/u when eta is bounded above,
                      else None
    superlinear       True iff phi(u)/u keeps growing (factor >= 2 over the
                      last decade of probes)
    probes            the probe grid
    slopes            phi(u)/u at each probe
    delta_over_u      theoretical_slope - phi(u)/u per probe (bounded only)
    """

    slope_estimate: float
    theoretical_slope: float | None
    superlinear: bool
    probes: np.ndarray = field(repr=False, default=None)
    slopes: np.ndarray = field(repr=False, default=None)
    delta_over_u: np.ndarray | None = field(repr=False, default=None)


@dataclass(frozen=True)
class LimitCumulant:
    """Evaluator of phi for one (innovation family, lam) pair.

    mode selects between straight series summation and the closed forms:
      - "series": sum psi(lam**k u) with a geometric tail bound
      - "closed_form_stable": m*u/(1-lam) + sgn(alpha-1)*C*u**alpha/(1-lam**alpha)
      - "closed_form_deterministic": c*u/(1-lam) for a one-atom law eta = c
      - "auto" (default at construction): closed form when one exists
    """

    spec: InnovationSpec
    lam: float
    mode: str = "auto"
    abs_term_floor: float = 1e-12
    k_max: int = 10**4

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lam must lie in (0, 1)")
        object.__setattr__(self, "_memo", {})
        atoms = self.spec.atoms()
        point_mass = atoms is not None and len(atoms) == 1
        mode = self.mode
        if mode == "auto":
            if point_mass:
                mode = "closed_form_deterministic"
            elif isinstance(self.spec, (Gaussian, StableSpectrallyNegative)):
                mode = "closed_form_stable"
            else:
                mode = "series"
            object.__setattr__(self, "mode", mode)
        if mode not in ("series", "closed_form_stable", "closed_form_deterministic"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode == "closed_form_deterministic" and not point_mass:
            raise ValueError("deterministic closed form needs a one-atom spec")
        if mode == "closed_form_stable" and not isinstance(
            self.spec, (Gaussian, StableSpectrallyNegative)
        ):
            raise ValueError("stable closed form needs a Gaussian or stable spec")

    @property
    def y_adm(self) -> float:
        """Admissibility level lim phi'(u) = ess-sup(eta)/(1 - lam).

        The transform integrals converge exactly at states y < y_adm; the
        level is +inf when eta is unbounded above.
        """
        ub = self.spec.upper_support()
        return math.inf if ub is None else ub / (1.0 - self.lam)

    # -- evaluation --------------------------------------------------------

    def phi(self, u: float) -> tuple[float, float]:
        """(phi(u), absolute error bound); the bound is 0 for closed forms."""
        if u < 0:
            raise ValueError("phi is only defined for u >= 0")
        if self.mode == "closed_form_deterministic":
            return self.spec.upper_support() * u / (1.0 - self.lam), 0.0
        if self.mode == "closed_form_stable":
            return self._closed_form_stable(u), 0.0
        return self._series(u)

    def phi_value(self, u) -> np.ndarray | float:
        """Vectorized phi without the error estimate."""
        arr = np.asarray(u, dtype=float)
        if self.mode == "closed_form_deterministic":
            out = self.spec.upper_support() * arr / (1.0 - self.lam)
        elif self.mode == "closed_form_stable":
            out = self._closed_form_stable(arr)
        else:
            out = np.vectorize(lambda x: self._series(float(x))[0])(arr)
        return float(out) if np.ndim(u) == 0 else out

    def _closed_form_stable(self, u):
        spec = self.spec
        if isinstance(spec, Gaussian):
            m, c, alpha = spec.m, 0.5 * spec.sigma2, 2.0
            sgn = 1.0
        else:
            m, c, alpha = spec.m, spec.c_scale, spec.alpha_stab
            sgn = 1.0 if alpha > 1.0 else -1.0
        return m * u / (1.0 - self.lam) + sgn * c * u**alpha / (
            1.0 - self.lam**alpha
        )

    def _k_min(self, u: float) -> int:
        # psi can dip negative on (0, u0), so early terms may be non-monotone;
        # sum past the point where lam**k * u has dropped below the reference
        # scale before trusting the geometric tail extrapolation.
        return (
            math.ceil(math.log(max(u, 1.0) / _U0_REF) / math.log(1.0 / self.lam))
            + _K_MIN_PAD
        )

    def _series(self, u: float) -> tuple[float, float]:
        if u == 0.0:
            return 0.0, 0.0
        cached = self._memo.get(u)
        if cached is not None:
            return cached
        k_min = self._k_min(u)
        lam = self.lam
        total = 0.0
        k = 0
        prev_term = None
        chunk = max(k_min + 16, 64)
        while k < self.k_max:
            hi = min(k + chunk, self.k_max)
            ks = np.arange(k, hi)
            terms = np.asarray(self.spec.psi(u * lam**ks), dtype=float)
            for j, t in enumerate(terms):
                kk = ks[j]
                total += t
                if kk >= k_min and prev_term is not None:
                    if t == 0.0 and prev_term == 0.0:
                        return total, 0.0
                    if prev_term != 0.0:
                        r = abs(t) / abs(prev_term)
                        r = min(max(r, lam), 1.0 - 1e-12)
                        bound = abs(t) * r / (1.0 - r)
                        if bound < self.abs_term_floor:
                            if len(self._memo) < 200_000:
                                self._memo[u] = (total, bound)
                            return total, bound
                prev_term = t
            k = hi
        raise SeriesDivergenceError(
            f"limit-cumulant series did not settle within k_max={self.k_max} terms"
        )


def check_functional_equation(lc: LimitCumulant, u_grid) -> float:
    """max over the grid of |phi(u) - phi(lam*u) - psi(u)|."""
    grid = np.asarray(u_grid, dtype=float)
    resid = 0.0
    for u in grid:
        a, _ = lc.phi(float(u))
        b, _ = lc.phi(float(u) * lc.lam)
        resid = max(resid, abs(a - b - float(lc.spec.psi(float(u)))))
    return resid


def slope_probe(lc: LimitCumulant, u_probes) -> SlopeReport:
    """Probe phi(u)/u on an increasing grid reaching at least 1e3.

    A diagnostic only: convergence is decided by lc.y_adm.  Detects
    superlinear growth and, when eta is bounded above, compares against the
    exact limiting slope y_adm.
    """
    probes = np.asarray(u_probes, dtype=float)
    if probes.ndim != 1 or len(probes) < 2 or np.any(np.diff(probes) <= 0):
        raise ValueError("u_probes must be strictly increasing")
    if probes[-1] < 1e3:
        raise ValueError("largest probe must be >= 1e3")
    slopes = np.array([lc.phi(float(u))[0] / float(u) for u in probes])
    u_max = probes[-1]
    last_decade = probes >= u_max / 10.0
    ref = slopes[last_decade][0]
    superlinear = bool(ref > 0 and slopes[-1] / ref >= 2.0)
    theoretical = None
    delta_over_u = None
    if math.isfinite(lc.y_adm):
        theoretical = lc.y_adm
        delta_over_u = theoretical - slopes
    return SlopeReport(
        slope_estimate=float(slopes[-1]),
        theoretical_slope=theoretical,
        superlinear=superlinear,
        probes=probes,
        slopes=slopes,
        delta_over_u=delta_over_u,
    )


def stationary_reference(spec: InnovationSpec, lam: float):
    """(mean, variance) of the stationary law when the moments exist.

    Returns None when the innovation mean is undefined; the variance slot is
    None when only the mean exists.
    """
    m = spec.mean()
    if m is None:
        return None
    v = spec.var()
    mean = m / (1.0 - lam)
    var = v / (1.0 - lam**2) if v is not None else None
    return mean, var
