"""Improper-integral engine for the martingale transform integrals.

All integrals here have the shape  int_0^inf h(u) * u**s du  with h decaying
(super)exponentially and an integrable algebraic singularity u**s, s > -1,
at the origin, and one call integrates a whole batch of them: the integrand
maps a 1-D array of nodes u to an array of shape (states..., len(u)), so
whatever the states share (phi(u) above all) is computed once per node set.

The engine uses Gauss-Kronrod panels (the G7/K15 pair of QUADPACK).  The
unit interval is one panel after a power substitution that removes the
u**s cusp; the tail is covered by the dyadic panels [1, 2], [2, 4], ...,
added a few at a time until every state's integrand has died out or the
ceiling DEFAULT_U_MAX is reached.  A panel's error is |K15 - G7|, and the
panels whose error exceeds their share of some state's tolerance are
bisected, all of them in one integrand call per round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_REL_TOL = 1e-9
DEFAULT_ABS_TOL = 1e-12
DEFAULT_U_MAX = 1e5

#: Dyadic tail panels added per integrand call while the tail is alive.
_TAIL_PANELS_PER_CALL = 4
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


def _panels(f, a, b, head, p):
    """K15 values, |K15 - G7| and |f| at the last node of the panels [a, b].

    Head panels live in w with u = w**p; the others in u.  The first three
    results have shape (states, panels); the last is the states' shape.
    """
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _X15
    u = x.copy()
    jac = np.repeat(half[:, None], len(_X15), axis=1)
    if p != 1.0:
        u[head] = x[head] ** p
        jac[head] *= p * x[head] ** (p - 1.0)
    raw = np.asarray(f(u.ravel()), dtype=float)
    state_shape = raw.shape[:-1]
    raw = raw.reshape(-1, *x.shape)
    vals = raw * jac
    k15 = vals @ _WK15
    return k15, np.abs(k15 - vals @ _WG15), np.abs(raw[..., -1]), state_shape


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def improper_integral(
    f,
    singular_power: float = 0.0,
    rel_tol: float = DEFAULT_REL_TOL,
    abs_tol: float = DEFAULT_ABS_TOL,
    offset: float = 0.0,
) -> QuadratureResult:
    """Integrate f over (0, inf), for every state at once.

    f maps a 1-D array of u > 0 to an array of shape (states..., len(u)),
    finite on (0, DEFAULT_U_MAX], with f(u) ~ c * u**s near 0 where
    s = singular_power > -1.  offset, an exactly known part of the integral
    (such as an analytic tail), is added to every value before the
    convergence test.  A state converges when its tail decayed and its
    error is at most rel_tol * |value| + abs_tol; a state whose tail grows or
    whose value or error is not finite (float warnings are silenced) diverges,
    with a NaN value and an infinite error.  Result fields have the states'
    shape, and are Python scalars when f returns a 1-D array.
    """
    if singular_power <= -1.0:
        raise ValueError("singular_power must exceed -1")
    p = 1.0 if singular_power == 0.0 else _HEAD_ORDER / (1.0 + singular_power)
    threshold = abs_tol * 1e-2

    # the head panel and the first tail panels
    edges = np.minimum(2.0 ** np.arange(_TAIL_PANELS_PER_CALL + 1), DEFAULT_U_MAX)
    a = np.concatenate([[0.0], edges[:-1]])
    b = np.concatenate([[1.0], edges[1:]])
    head = np.arange(len(a)) == 0
    val, err, edge, state_shape = _panels(f, a, b, head, p)
    # extend the dyadic tail until every state's integrand has died
    while True:
        last, prev = val[:, -1], val[:, -2]
        dead = (edge[:, -1] < threshold) & (
            np.abs(last) < np.maximum(threshold, rel_tol * np.abs(val.sum(axis=1)))
        )
        if dead.all() or b[-1] >= DEFAULT_U_MAX:
            break
        new = np.unique(
            np.minimum(b[-1] * 2.0 ** np.arange(_TAIL_PANELS_PER_CALL + 1), DEFAULT_U_MAX)
        )
        tail = np.zeros(len(new) - 1, dtype=bool)
        nv, ne, nedge, _ = _panels(f, new[:-1], new[1:], tail, p)
        a, b, head = np.append(a, new[:-1]), np.append(b, new[1:]), np.append(head, tail)
        val, err, edge = np.hstack([val, nv]), np.hstack([err, ne]), np.hstack([edge, nedge])

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
        tol = rel_tol * np.abs(value) + abs_tol
        budget = (tol - tail_err) / len(a)
        short = ~growing & (abs_err > tol) & (budget > 0)
        split = (err[short] > budget[short, None]).any(axis=0)
        n_split = int(split.sum())
        if n_split == 0 or len(a) + n_split > _MAX_PANELS:
            break
        mid = 0.5 * (a[split] + b[split])
        na, nb = np.append(a[split], mid), np.append(mid, b[split])
        nh = np.tile(head[split], 2)
        nv, ne, _, _ = _panels(f, na, nb, nh, p)
        keep = ~split
        a, b, head = np.append(a[keep], na), np.append(b[keep], nb), np.append(head[keep], nh)
        val, err = np.hstack([val[:, keep], nv]), np.hstack([err[:, keep], ne])

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


# ---------------------------------------------------------------------------
# Fixed Gauss-Legendre node sets (for empirical plug-ins)
# ---------------------------------------------------------------------------


def panel_nodes(u_hi: float, n_per_panel: int = 32) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 0.5], [0.5, 1] and dyadic panels.

    Panels double in width from [1, 2] up to [u_hi/2, u_hi]; u_hi is rounded
    up to the next power of two.  Suitable for integrands that are smooth on
    (0, u_hi) and negligible beyond.
    """
    x, w = np.polynomial.legendre.leggauss(n_per_panel)
    edges = [0.0, 0.5, 1.0]
    hi = 1.0
    target = max(2.0, u_hi)
    while hi < target:
        hi *= 2.0
        edges.append(hi)
    nodes, weights = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes.append(mid + half * x)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)
