"""The limit cumulant phi(u) = sum_k psi(lam**k * u) of the stationary law.

phi is the cumulant of Theta = sum_k lam**k eta_{k+1}, the distributional
limit of the AR(1) recursion.  It satisfies the functional equation
phi(u) = phi(lam*u) + psi(u) and is convex.  Its limiting slope
lim phi'(u) = ess-sup(eta)/(1 - lam) is the admissibility level y_adm: the
martingale integrals of exp(u*y - phi(u)) converge exactly for y < y_adm.

Series summation uses a geometric tail bound; closed forms exist for the
stable (hence Gaussian) and deterministic families, and the family alone
decides which path phi takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SeriesDivergenceError
from .innovations import Gaussian, InnovationSpec, StableSpectrallyNegative, _as_u

#: Reference scale below which no early-term ratio test is attempted.
_U0_REF = 1.0
#: Extra terms summed past the nominal horizon before tail tests engage.
_K_MIN_PAD = 8
#: Float64 capacity (1 MB) of one block of the u_i * lam**k psi matrix.
_SERIES_BUF_LEN = 1 << 17
#: The series stops once its geometric tail bound is below this.
ABS_TERM_FLOOR = 1e-12
#: The series raises SeriesDivergenceError if it has not stopped by this term.
K_MAX = 10**4


@dataclass(frozen=True)
class LimitCumulant:
    """Evaluator of phi for one (innovation family, lam) pair.

    The family decides phi's path, reported by mode:
      - "closed_form_deterministic": c*u/(1-lam) for a one-atom law eta = c
      - "closed_form_stable": m*u/(1-lam) + sgn(alpha-1)*C*u**alpha/(1-lam**alpha)
        for a Gaussian or stable law
      - "series": sum psi(lam**k u) with a geometric tail bound, for every
        other law
    series(u) sums the series for any family, to cross-check a closed form.

    In series mode phi keeps what it has summed, by u array (its shape and
    bytes), and sums only an array it has not seen: a repeated array gets
    the answer of its first call, bit for bit.  The memo holds some 24 bytes
    for each point the series summed, lives as long as this instance and is
    shared by none: not by equal instances, nor by copies from
    dataclasses.replace.
    """

    spec: InnovationSpec
    lam: float
    _summed: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lam must lie in (0, 1)")

    @property
    def mode(self) -> str:
        """The path phi takes for this family."""
        atoms = self.spec.atoms()
        if atoms is not None and len(atoms) == 1:
            return "closed_form_deterministic"
        if isinstance(self.spec, (Gaussian, StableSpectrallyNegative)):
            return "closed_form_stable"
        return "series"

    @property
    def y_adm(self) -> float:
        """Admissibility level lim phi'(u) = ess-sup(eta)/(1 - lam).

        The transform integrals converge exactly at states y < y_adm; the
        level is +inf when eta is unbounded above.
        """
        ub = self.spec.upper_support()
        return math.inf if ub is None else ub / (1.0 - self.lam)

    # -- evaluation --------------------------------------------------------

    def phi(self, u):
        """(phi(u), absolute error bound), elementwise for a u-array.

        A scalar u gives a pair of floats, an array a pair of arrays of its
        shape.  The bound is 0 for closed forms.
        """
        mode = self.mode
        if mode == "series":
            arr = np.asarray(u, dtype=float)
            key = (arr.shape, arr.tobytes())
            if key not in self._summed:  # series rejects a negative u: none is kept
                self._summed[key] = self.series(arr)
            val, err = self._summed[key]
            # copies: the caller's arrays never alias the memo
            return _pair(np.array(val), np.array(err))
        arr = _as_u(u)
        if mode == "closed_form_deterministic":
            val = self.spec.upper_support() * arr / (1.0 - self.lam)
        else:
            val = self._closed_form_stable(arr)
        return _pair(val, np.zeros_like(arr))

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

    def _k_min(self, u: np.ndarray) -> np.ndarray:
        # psi can dip negative on (0, u0), so early terms may be non-monotone;
        # sum past the point where lam**k * u has dropped below the reference
        # scale before trusting the geometric tail extrapolation.
        log_inv_lam = math.log(1.0 / self.lam)
        ratio = np.log(np.maximum(u, 1.0) / _U0_REF) / log_inv_lam
        # the ceiling is exact only with math.log's rounding; near-integer
        # ratios (u a power of 1/lam) are recomputed with it
        near = (u > _U0_REF) & (np.abs(ratio - np.rint(ratio)) < 1e-9)
        for i in np.flatnonzero(near):
            ratio[i] = math.log(u[i] / _U0_REF) / log_inv_lam
        return np.ceil(ratio).astype(np.int64) + _K_MIN_PAD

    def series(self, u):
        """(sum_k psi(lam**k u), geometric tail bound) for any family.

        Shapes as in phi; phi returns this when the family has no closed
        form.  psi is evaluated on the u_i * lam**k matrix a block of rows and
        columns at a time (at most _SERIES_BUF_LEN entries).  A block's first
        pass has the columns its rows can need: past the largest k_min, as
        many as a term of size lam**_K_MIN_PAD (psi's scale there) takes to
        bring its tail bound below ABS_TERM_FLOOR while shrinking by lam a
        term.  Each later pass, over the rows still running, sizes itself
        the same way from their largest last term: at least 8 columns, at
        most what the buffer holds for those rows.  Each row is summed in k
        order by a cumulative sum that starts from the row's carried total,
        and stops at the first k >= k_min whose term and predecessor are
        both 0 (bound 0) or whose geometric tail bound |t| r/(1-r),
        r = |t/t_prev| clipped to [lam, 1-1e-12], is below ABS_TERM_FLOOR.
        That is the term-by-term rule, so every row's value and bound depend
        neither on the other rows nor on the block sizes.
        """
        arr = _as_u(u)
        u = arr.ravel()
        lam = self.lam
        val = np.zeros(len(u))
        err = np.zeros(len(u))
        rows = np.flatnonzero(u != 0.0)  # phi(0) = 0 exactly
        k_min = self._k_min(u[rows])
        first = int(k_min.max(initial=0)) + _tail_columns(lam**_K_MIN_PAD, lam)
        block = max(1, _SERIES_BUF_LEN // first)
        for lo in range(0, len(rows), block):
            idx = rows[lo : lo + block]
            kmin = k_min[lo : lo + block]
            total = np.zeros(len(idx))
            prev = np.full(len(idx), np.nan)  # no term before k = 0
            k, width = 0, first
            while len(idx):
                if k >= K_MAX:
                    raise SeriesDivergenceError(
                        f"limit-cumulant series did not settle within {K_MAX} terms"
                    )
                hi = min(k + width, K_MAX)
                args = np.multiply.outer(u[idx], lam ** np.arange(k, hi))
                terms = np.asarray(self.spec.psi(args.ravel()), dtype=float)
                terms = terms.reshape(args.shape)
                sums = np.cumsum(np.column_stack([total, terms]), axis=1)[:, 1:]
                before = np.column_stack([prev, terms[:, :-1]])
                mag = np.abs(terms)
                with np.errstate(divide="ignore", invalid="ignore"):
                    r = np.minimum(np.maximum(mag / np.abs(before), lam), 1.0 - 1e-12)
                    bound = mag * r / (1.0 - r)
                zero_pair = (terms == 0.0) & (before == 0.0)
                stop = ((before != 0.0) & (bound < ABS_TERM_FLOOR)) | zero_pair
                stop &= np.arange(k, hi) >= kmin[:, None]
                done = stop.any(axis=1)
                at = stop.argmax(axis=1)[done]
                sel = np.flatnonzero(done)
                val[idx[done]] = sums[sel, at]
                err[idx[done]] = np.where(zero_pair[sel, at], 0.0, bound[sel, at])
                kept = ~done
                idx, kmin = idx[kept], kmin[kept]
                total, prev = sums[kept, -1], terms[kept, -1]
                k = hi
                if len(idx):
                    width = _tail_columns(mag[kept, -1].max(), lam)
                    width = min(max(8, width), _SERIES_BUF_LEN // len(idx))
        return _pair(val.reshape(arr.shape), err.reshape(arr.shape))


def _tail_columns(term: float, lam: float) -> int:
    """How many terms follow one of size term before, shrinking by lam a
    term, its tail bound t*lam/(1-lam) is below ABS_TERM_FLOOR (0 when
    term is 0 or not finite)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        n = np.log(term * lam / ((1.0 - lam) * ABS_TERM_FLOOR)) / math.log(1.0 / lam)
    return math.ceil(n) + 1 if math.isfinite(n) else 0


def _pair(val, err):
    """(value, bound): floats for a scalar u, arrays otherwise."""
    if np.ndim(val) == 0:
        return float(val), float(err)
    return val, err


def check_functional_equation(lc: LimitCumulant, u_grid) -> float:
    """max over the grid of |phi(u) - phi(lam*u) - psi(u)|."""
    grid = np.asarray(u_grid, dtype=float)
    phi, phi_lam = lc.phi(np.stack([grid, grid * lc.lam]))[0]  # one call: rows are independent
    resid = np.abs(phi - phi_lam - np.asarray(lc.spec.psi(grid)))
    return float(np.max(resid, initial=0.0))


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
