"""Improper-integral engine for the martingale transform integrals.

All integrals here have the shape  int_0^inf h(u) * u**s du  with h decaying
(super)exponentially and an integrable algebraic singularity u**s, s > -1,
at the origin, and one call integrates a whole batch of them: the integrand
maps a 1-D array of nodes u to an array of shape (states..., len(u)), so
whatever the states share (phi(u) above all) is computed once per node set.

The engine uses Gauss-Kronrod panels (the G7/K15 pair of QUADPACK).  The
unit interval is the head: without a cusp (s = 0) it is one panel, and
under the power substitution u = w**p that removes the u**s cusp it is
the two panels [0, 1/2] and [1/2, 1] in w, which the bisection would
otherwise reach one round later on most such integrals.  The tail
is covered by the dyadic panels [1, 2], [2, 4], ....  The first integrand
call evaluates the head and the tail panels up to [128, 256] together;
while some state's integrand is still alive at the end of the tail, one
more call adds eight panels (to 65,536, then to the ceiling
DEFAULT_U_MAX).  A panel's error is |K15 - G7|, and the panels whose
error exceeds their share of some state's tolerance are bisected, all of
them in one integrand call per round, until no state is short of its
tolerance.

The geometry of the first call is constant but for the head: the eight
tail panels' K15 nodes and du/dx, and the head's in w, are read-only
module arrays, and a call computes only the head's 15 or 30 nodes u and
du/dx, which depend on the singular power.  The panels that extend the
tail and the halves of bisected panels are built as they arise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError

#: A state converges when its error is at most REL_TOL * |value| + ABS_TOL.
REL_TOL = 1e-9
ABS_TOL = 1e-12
DEFAULT_U_MAX = 1e5

#: Dyadic tail panels per integrand call: the first call reaches u = 256,
#: each call that extends the tail 256 times further, up to DEFAULT_U_MAX.
#: Of the 16 engine calls of an analytic-cli benchmark pass, 15 need the
#: tail past u = 16 and none past u = 256, so eight panels a call take 27
#: integrand calls a pass where four take 42 (32 and 47 with the head whole
#: in the first call).  Nine or more only add nodes.  Seven take 27 calls
#: too, but drop the panel [128, 256] that eight keep: a panel's K15 sum
#: does not depend on the other panels of its call, so every integral that
#: reached u = 256 with four panels a call keeps its bits with eight.
_TAIL_PANELS_PER_CALL = 8
#: Bisection stops adding panels beyond this count.
_MAX_PANELS = 400
#: The head substitution u = w**(_HEAD_ORDER/(1+s)) turns the leading cusp
#: term u**s into w**(_HEAD_ORDER-1) and the next, u**(s+1), into a power
#: above 2*_HEAD_ORDER-1, smooth enough for the 7-point Gauss rule.
_HEAD_ORDER = 3

# G7/K15 abscissae on [-1, 1] in increasing order and their weights; the
# Gauss nodes are the odd-indexed Kronrod nodes (QUADPACK qk15).
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.0,
    0.129484966168869693270611432679082,
    0.0,
    0.279705391489276667901467771423780,
    0.0,
    0.381830050505118944950369775488975,
    0.0,
    0.417959183673469387755102040816327,
])
_X15 = np.concatenate([-_XK, _XK[-2::-1]])
_WK15 = np.concatenate([_WK, _WK[-2::-1]])
_WG15 = np.concatenate([_WG, _WG[-2::-1]])


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an improper integral plus its reliability flags.

    tail_diagnostic is one of "decayed" (tail integrand fell below threshold),
    "truncated_at_umax" (ceiling reached with a still-visible integrand) or
    "diverged" (growing tail, or a non-finite value or error; value NaN).
    For a batch of integrals each field is an array of the batch's shape.
    """

    value: float
    abs_err: float
    converged: bool
    tail_diagnostic: str

    def require(self, what: str) -> QuadratureResult:
        """This result if every state converged, else DivergenceError.

        The error names what was integrated, how many states did not
        converge and their tail diagnostics.
        """
        bad = ~np.asarray(self.converged)
        if not bad.any():
            return self
        diags = ", ".join(np.unique(np.asarray(self.tail_diagnostic)[bad]))
        raise DivergenceError(
            f"{what} did not converge at {int(bad.sum())} of {bad.size} states ({diags})"
        )


def _dyadic_panels(n):
    """The head panel [0, 1] and the n dyadic panels [1, 2], ..., [2**(n-1), 2**n]."""
    edges = 2.0 ** np.arange(n + 1)
    return np.concatenate([[0.0], edges[:-1]]), np.concatenate([[1.0], edges[1:]])


def _nodes(a, b, head, p):
    """K15 nodes u of the panels [a, b], shape (panels, 15), and du/dx there.

    Head panels live in w with u = w**p; the others in u.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _X15
    u = x.copy()
    jac = np.repeat(half[:, None], len(_X15), axis=1)
    if p != 1.0:
        u[head] = x[head] ** p
        jac[head] *= p * x[head] ** (p - 1.0)
    return u, jac


def _read_only(arr):
    arr.flags.writeable = False
    return arr


# The first call's panels: the head [0, 1], whose K15 nodes in w (u = w**p)
# are _HEAD_X, and the dyadic tail [1, 2], ..., [128, 256].  Under a power
# substitution (p != 1) the head is instead its two halves [0, 1/2] and
# [1/2, 1] in w, with K15 nodes _SPLIT_X, which the bisection would reach
# one round later on most such integrals.
_FIRST_A, _FIRST_B = map(_read_only, _dyadic_panels(_TAIL_PANELS_PER_CALL))
_FIRST_HEAD = _read_only(np.arange(len(_FIRST_A)) == 0)
_SPLIT_A = _read_only(np.concatenate([[0.0, 0.5], _FIRST_A[1:]]))
_SPLIT_B = _read_only(np.concatenate([[0.5, 1.0], _FIRST_B[1:]]))
_SPLIT_HEAD = _read_only(np.arange(len(_SPLIT_A)) < 2)
_HEAD_X, _HEAD_JAC = map(_read_only, _nodes(_FIRST_A[:1], _FIRST_B[:1], _FIRST_HEAD[:1], 1.0))
_SPLIT_X, _SPLIT_JAC = map(_read_only, _nodes(_SPLIT_A[:2], _SPLIT_B[:2], _SPLIT_HEAD[:2], 1.0))
_TAIL_U, _TAIL_JAC = map(_read_only, _nodes(_FIRST_A[1:], _FIRST_B[1:], _FIRST_HEAD[1:], 1.0))


def _first_panels(p):
    """The first call's panels a, b and head flags, and _nodes(a, b, head, p),
    the same bytes, with only the head's nodes computed."""
    if p == 1.0:
        a, b, head, head_u, head_jac = _FIRST_A, _FIRST_B, _FIRST_HEAD, _HEAD_X, _HEAD_JAC
    else:
        a, b, head = _SPLIT_A, _SPLIT_B, _SPLIT_HEAD
        head_u, head_jac = _SPLIT_X ** p, _SPLIT_JAC * (p * _SPLIT_X ** (p - 1.0))
    return a, b, head, np.concatenate([head_u, _TAIL_U]), np.concatenate([head_jac, _TAIL_JAC])


def _panels(f, u, jac, edge=True):
    """K15 values, |K15 - G7| and |f| at the last node (None unless edge) of
    the panels with K15 nodes u and du/dx jac, both of shape (panels, 15).

    The first three results have shape (states, panels); the last is the
    states' shape.
    """
    raw = np.asarray(f(u.ravel()), dtype=float)
    state_shape = raw.shape[:-1]
    raw = raw.reshape(-1, *u.shape)
    vals = raw * jac
    k15 = vals @ _WK15
    return k15, np.abs(k15 - vals @ _WG15), np.abs(raw[..., -1]) if edge else None, state_shape


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def improper_integral(
    f,
    singular_power: float = 0.0,
    offset: float = 0.0,
) -> QuadratureResult:
    """Integrate f over (0, inf), for every state at once.

    f maps a 1-D array of u > 0 to an array of shape (states..., len(u)),
    finite on (0, DEFAULT_U_MAX], with f(u) ~ c * u**s near 0 where
    s = singular_power > -1.  offset, an exactly known part of the integral
    (such as an analytic tail), is added to the values before the
    convergence test: one number for every state, or an array of the
    states' shape.  A state converges when its tail decayed and its
    error is at most REL_TOL * |value| + ABS_TOL; a state whose tail grows or
    whose value or error is not finite (float warnings are silenced) diverges,
    with a NaN value and an infinite error.  Result fields have the states'
    shape, and are Python scalars when f returns a 1-D array.
    """
    if singular_power <= -1.0:
        raise ValueError("singular_power must exceed -1")
    p = 1.0 if singular_power == 0.0 else _HEAD_ORDER / (1.0 + singular_power)
    threshold = ABS_TOL * 1e-2
    offset = np.ravel(offset)

    # the head panel (two under a power substitution) and the first tail panels
    a, b, head, u, jac = _first_panels(p)
    val, err, edge, state_shape = _panels(f, u, jac)
    # extend the dyadic tail until every state's integrand has died
    while True:
        last, prev = val[:, -1], val[:, -2]
        dead = (edge[:, -1] < threshold) & (
            np.abs(last) < np.maximum(threshold, REL_TOL * np.abs(val.sum(axis=1)))
        )
        if dead.all() or b[-1] >= DEFAULT_U_MAX:
            break
        new = np.unique(
            np.minimum(b[-1] * 2.0 ** np.arange(_TAIL_PANELS_PER_CALL + 1), DEFAULT_U_MAX)
        )
        tail = np.zeros(len(new) - 1, dtype=bool)
        nv, ne, nedge, _ = _panels(f, *_nodes(new[:-1], new[1:], tail, p))
        a, b = np.concatenate([a, new[:-1]]), np.concatenate([b, new[1:]])
        head = np.concatenate([head, tail])
        val, err = np.concatenate([val, nv], axis=1), np.concatenate([err, ne], axis=1)
        edge = np.concatenate([edge, nedge], axis=1)

    # states still alive at the ceiling: diverged if the tail grows, else
    # truncated; the unseen tail is bounded by geometric extrapolation
    growing = ~dead & ((np.abs(last) > np.abs(prev)) | (edge[:, -1] >= edge[:, -2]))
    r = np.minimum(np.abs(last) / np.abs(prev), np.where(dead, 0.9, 0.99))
    tail_err = np.where(np.abs(prev) > 0, np.abs(last) * r / (1.0 - r), 0.0)

    # bisect, one integrand call per round, every panel whose error exceeds
    # its even share of some unconverged state's remaining budget
    while True:
        value = val.sum(axis=1) + offset
        abs_err = err.sum(axis=1) + tail_err
        tol = REL_TOL * np.abs(value) + ABS_TOL
        budget = (tol - tail_err) / len(a)
        short = ~growing & (abs_err > tol) & (budget > 0)
        if not short.any():
            break
        split = (err[short] > budget[short, None]).any(axis=0)
        n_split = int(split.sum())
        if n_split == 0 or len(a) + n_split > _MAX_PANELS:
            break
        sa, sb, sh = a[split], b[split], head[split]
        mid = 0.5 * (sa + sb)
        na, nb, nh = np.concatenate([sa, mid]), np.concatenate([mid, sb]), np.concatenate([sh, sh])
        nv, ne, _, _ = _panels(f, *_nodes(na, nb, nh, p), edge=False)
        keep = ~split
        a, b = np.concatenate([a[keep], na]), np.concatenate([b[keep], nb])
        head = np.concatenate([head[keep], nh])
        val = np.concatenate([val[:, keep], nv], axis=1)
        err = np.concatenate([err[:, keep], ne], axis=1)

    diverged = growing | ~np.isfinite(value) | ~np.isfinite(abs_err)
    diag = np.where(diverged, "diverged", np.where(dead, "decayed", "truncated_at_umax"))
    value = np.where(diverged, np.nan, value)
    abs_err = np.where(diverged, np.inf, abs_err)
    converged = dead & ~diverged & (abs_err <= tol)
    if state_shape == ():
        return QuadratureResult(
            float(value[0]), float(abs_err[0]), bool(converged[0]), str(diag[0])
        )
    return QuadratureResult(
        value.reshape(state_shape),
        abs_err.reshape(state_shape),
        converged.reshape(state_shape),
        diag.reshape(state_shape),
    )

