"""The limit cumulant phi(u) = sum_k psi(lam**k * u) of the stationary law.

phi is the cumulant of Theta = sum_k lam**k eta_{k+1}, the distributional
limit of the AR(1) recursion.  It satisfies the functional equation
phi(u) = phi(lam*u) + psi(u) and is convex.  Its limiting slope
lim phi'(u) = ess-sup(eta)/(1 - lam) is the admissibility level y_adm: the
martingale integrals of exp(u*y - phi(u)) converge exactly for y < y_adm.

Closed forms exist for the stable (hence Gaussian) and one-atom families,
and the family alone decides which path phi takes.  Every other law sums
K(u) = ceil(log(u/w0)/log(1/lam)) terms psi(lam**k u), a count known before
any psi call, and then phi(w) = sum_j kappa_j w**j/(j! (1 - lam**j)) at
w = lam**K u <= w0 = TAYLOR_REACH/width, inside psi's Taylor radius: a tail
exact to rounding relative to phi's own size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DivergenceError, SeriesDivergenceError
from .innovations import (
    _EPS,
    TAYLOR_REACH,
    Gaussian,
    InnovationSpec,
    StableSpectrallyNegative,
    _as_u,
    _cumulant_series,
)

#: Float64 capacity (1 MB) of one block of the u_i * lam**k psi matrix.
_SERIES_BUF_LEN = 1 << 17
#: The budget of K(u), beyond which the series raises SeriesDivergenceError:
#: it covers lam = 0.999 up to the engine's u = 1e5 for widths below 1e6.
K_MAX = 3 * 10**4


@dataclass(frozen=True)
class LimitCumulant:
    """Evaluator of phi for one (innovation family, lam) pair.

    The family decides phi's path, reported by mode:
      - "closed_form_deterministic": c*u/(1-lam) for a one-atom law eta = c
      - "closed_form_stable": m*u/(1-lam) + sgn(alpha-1)*C*u**alpha/(1-lam**alpha)
        for a Gaussian or stable law
      - "series": K(u) terms of psi and the cumulant tail, for every other
        law
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
    _powers: list = field(default_factory=lambda: [np.ones(1)], init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError("lam must lie in (0, 1)")

    @cached_property
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
        return _pair(self._closed_form(arr), np.zeros_like(arr))

    @np.errstate(over="ignore")  # a law as wide as 1e300 reaches inf, its value
    def _closed_form(self, u):
        spec = self.spec
        if self.mode == "closed_form_deterministic":
            return spec.upper_support() * u / (1.0 - self.lam)
        if isinstance(spec, Gaussian):
            m, c, alpha = spec.m, 0.5 * spec.sigma2, 2.0
            sgn = 1.0
        else:
            m, c, alpha = spec.m, spec.c_scale, spec.alpha_stab
            sgn = 1.0 if alpha > 1.0 else -1.0
        return m * u / (1.0 - self.lam) + sgn * c * u**alpha / (
            1.0 - self.lam**alpha
        )

    def _tail(self, w):
        """(phi(w), truncation bound) for w <= w0: the closed form, or the
        cumulant series; DivergenceError for a series law without them."""
        if self.mode != "series":
            return self._closed_form(w), np.zeros_like(w)
        if self.spec.cumulants is None:
            raise DivergenceError(
                "phi's series has no cumulant tail: the innovation law has no variance"
            )
        return _cumulant_series(self.spec.cumulants, w, self.lam, self.spec.cumulant_lows)

    def _lam_powers(self, n):
        """lam ** arange(n), read from the longest such array this instance has made."""
        powers = self._powers[0]
        if len(powers) < n:
            powers = self._powers[0] = self.lam ** np.arange(n)
        return powers[:n]

    def series(self, u):
        """(phi(u), error bound) in K(u) terms of psi and phi's tail, for any family.

        Shapes as in phi.  A K(u) above K_MAX, or a series law without
        cumulants, raises before psi is called.  psi is evaluated on the
        u_i lam**k, k < K_i, in one pass when the (rows x max K) matrix
        fits _SERIES_BUF_LEN entries, else a block of rows at a time, and
        each row is summed in k order by a cumulative sum S_k before phi(w)
        is added, so no row's bits depend on the other rows or the block
        sizes.  The powers lam**k are kept on the instance.  The bound is the tail's plus
        eps * (sum_k (1 + |psi_k| + |S_k|) + |phi(w)|): a psi value is good to
        some ulps of 1 + |psi|, and each addition to half an ulp of its sum.
        """
        arr = _as_u(u)
        u = arr.ravel()
        lam = self.lam
        with np.errstate(divide="ignore"):
            ratio = np.log(u * (self.spec._width / TAYLOR_REACH)) / math.log(1.0 / lam)
        n_terms = np.maximum(np.ceil(ratio), 0.0)
        k_top = float(n_terms.max(initial=0.0))
        if k_top > K_MAX:
            raise SeriesDivergenceError(
                f"phi at u = {float(u[n_terms.argmax()]):.6g} needs K(u) = {k_top:.0f} "
                f"terms of psi at lam = {lam}, beyond the budget K_MAX = {K_MAX}"
            )
        n_terms = n_terms.astype(np.int64)
        powers = self._lam_powers(int(k_top) + 1)
        w = u * powers[n_terms]
        tail, bound = self._tail(w)
        psi = self.spec.psi
        if 0 < len(u) * k_top <= _SERIES_BUF_LEN:  # one block of every row, rows with no term too
            head, scale = _psi_sums(psi, u, n_terms, powers)
        else:  # blocks of the rows with terms
            head, scale = np.zeros(len(u)), np.zeros(len(u))
            rows = np.flatnonzero(n_terms)
            block = max(1, _SERIES_BUF_LEN // max(int(k_top), 1))
            for lo in range(0, len(rows), block):
                idx = rows[lo : lo + block]
                head[idx], scale[idx] = _psi_sums(psi, u[idx], n_terms[idx], powers)
        val = head + tail
        err = bound + _EPS * (scale + np.abs(tail))
        return _pair(val.reshape(arr.shape), err.reshape(arr.shape))


def _psi_sums(psi, u, n, powers):
    """Each row's S_n = sum_{k < n} psi(u lam**k), summed in k order, and
    sum_{k < n} (1 + |psi_k| + |S_k|), from the row's cumulative sums.

    The rows share one matrix, padded with zeros past each row's n: the
    padding adds +0.0 to a row's sums, so the last column holds both.
    """
    live = np.arange(n.max()) < n[:, None]
    terms = np.zeros(live.shape)
    terms[live] = psi(np.multiply.outer(u, powers[: live.shape[1]])[live])
    sums = np.cumsum(terms, axis=1)
    sizes = np.cumsum(np.where(live, 1.0 + np.abs(terms) + np.abs(sums), 0.0), axis=1)
    return sums[:, -1], sizes[:, -1]


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
