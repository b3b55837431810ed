"""Monte Carlo oracle: AR(1) paths, passage times, overshoots, stationary draws.

Randomness is counter-based: every block of paths owns a Philox stream keyed
by (seed, block index), and per-summary reductions are ordered folds over
block indices.  Results are therefore bit-identical for any worker count;
the FPT_THREADS environment variable merely caps parallelism, at the CPU
count.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .cumulant import LimitCumulant
from .errors import ConfigError
from .innovations import InnovationSpec
from .passage import PassageProblem, feasibility_report
from .transforms import transform

BLOCK_SIZE = 1 << 14

# Float64 capacity (1 MB) of the buffer that holds row chunks of a block's
# u_nodes x crossed-paths MGF matrix; buffers of 128 KB to 2 MB time alike.
_MGF_BUF_LEN = 1 << 17

# Domain tags keep the passage, stationary and martingale-check samplers on
# disjoint streams even when they share a seed.
_DOMAIN_PASSAGE = 0x9E3779B97F4A7C15
_DOMAIN_STATIONARY = 0xC2B2AE3D27D4EB4F
_DOMAIN_MARTINGALE = 0x165667B19E3779F9

_MASK64 = (1 << 64) - 1

#: Distinct states per engine call in empirical_martingale_check; bounds its
#: states x nodes integrand arrays to a few MB.
_STATE_BATCH = 256


def _worker_count() -> int:
    """Workers from FPT_THREADS, 1 to the CPU count; min(CPUs, 8) when unset."""
    env = os.environ.get("FPT_THREADS")
    cpus = os.cpu_count() or 1
    if not env:
        return min(cpus, 8)
    try:
        return min(max(1, int(env)), cpus)
    except ValueError:
        raise ConfigError(f"FPT_THREADS must be an integer, got {env!r}") from None


def _block_rng(seed: int, domain: int, block: int) -> np.random.Generator:
    key = np.array(
        [(seed & _MASK64) ^ domain, block & _MASK64], dtype=np.uint64
    )
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SimulationSummary:
    """Reduction of one passage simulation run.

    e_tau_hat is averaged over crossed paths only; censored paths (those
    still below the level after max_steps) are counted separately and the
    survival curve includes them.  mgf_* are aligned per-node arrays of
    the empirical estimate of E exp(u * X_tau) over crossed paths.
    """

    n_paths: int
    n_crossed: int
    max_steps: int
    seed: int
    e_tau_hat: float
    e_tau_std_err: float
    overshoot_mean: float
    overshoot_std_err: float
    survival_n: np.ndarray = field(repr=False)
    survival_p: np.ndarray = field(repr=False)
    mgf_u: np.ndarray = field(repr=False)
    mgf_value: np.ndarray = field(repr=False)
    mgf_std_err: np.ndarray = field(repr=False)

    @property
    def n_censored(self) -> int:
        return self.n_paths - self.n_crossed

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["n_censored"] = self.n_censored
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in out.items()}


@dataclass
class _BlockResult:
    tau_counts: np.ndarray  # histogram of tau over crossed paths
    n_censored: int
    sum_tau: float
    sum_tau2: float
    sum_xi: float
    sum_xi2: float
    mgf_m1: np.ndarray | None
    mgf_m2: np.ndarray | None


def _run_block(
    p: PassageProblem,
    block: int,
    size: int,
    max_steps: int,
    seed: int,
    u_nodes: np.ndarray | None,
) -> _BlockResult:
    rng = _block_rng(seed, _DOMAIN_PASSAGE, block)
    # alive_idx[i] is the path whose state is x_alive[i]
    alive_idx = np.arange(size)
    x_alive = np.full(size, float(p.x))
    tau = np.zeros(size, dtype=np.int64)
    x_tau = np.full(size, np.nan)
    step = 0
    while len(alive_idx) and step < max_steps:
        step += 1
        x_new = p.lam * x_alive + p.spec.sample(rng, len(alive_idx))
        crossed = x_new > p.a
        done = alive_idx[crossed]
        tau[done] = step
        x_tau[done] = x_new[crossed]
        kept = ~crossed
        alive_idx = alive_idx[kept]
        x_alive = x_new[kept]

    crossed_mask = tau > 0
    taus = tau[crossed_mask]
    xis = x_tau[crossed_mask] - p.a
    counts = np.bincount(taus) if len(taus) else np.zeros(1, dtype=np.int64)
    mgf_m1 = mgf_m2 = None
    if u_nodes is not None:
        mgf_m1, mgf_m2 = _mgf_moments(u_nodes, x_tau[crossed_mask])
    return _BlockResult(
        tau_counts=counts,
        n_censored=int(len(alive_idx)),
        sum_tau=float(taus.sum()),
        sum_tau2=float((taus.astype(float) ** 2).sum()),
        sum_xi=float(xis.sum()),
        sum_xi2=float((xis**2).sum()),
        mgf_m1=mgf_m1,
        mgf_m2=mgf_m2,
    )


def _mgf_moments(u_nodes: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row sums of e = exp(min(u_i * x_j, 709)) and of e**2 over the values x_j.

    The u_nodes x vals matrix is built a few rows at a time in one buffer of
    _MGF_BUF_LEN floats.  Each row is still summed over the same contiguous
    values, so the sums equal those of the whole matrix bit for bit.
    """
    m1 = np.empty(len(u_nodes))
    m2 = np.empty(len(u_nodes))
    n = len(vals)
    rows = max(1, _MGF_BUF_LEN // max(n, 1))
    buf = np.empty(min(rows, len(u_nodes)) * n)
    with np.errstate(over="ignore"):
        for lo in range(0, len(u_nodes), rows):
            hi = min(lo + rows, len(u_nodes))
            e = buf[: (hi - lo) * n].reshape(hi - lo, n)
            np.multiply.outer(u_nodes[lo:hi], vals, out=e)
            np.minimum(e, 709.0, out=e)
            np.exp(e, out=e)
            e.sum(axis=1, out=m1[lo:hi])
            np.multiply(e, e, out=e)
            e.sum(axis=1, out=m2[lo:hi])
    return m1, m2


def _in_block_order(job, n_blocks: int, n_workers: int):
    """job(0), ..., job(n_blocks - 1), yielded in block order.

    With several workers at most two blocks a worker are in flight, so
    neither pending work nor results grow with the number of blocks.
    """
    if n_workers == 1 or n_blocks == 1:
        yield from map(job, range(n_blocks))
        return
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        pending = deque()
        for i in range(n_blocks):
            pending.append(pool.submit(job, i))
            if len(pending) == 2 * n_workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def simulate_passage(
    p: PassageProblem,
    n_paths: int,
    max_steps: int = 10**6,
    seed: int = 0,
    mgf_u_nodes=None,
    block_size: int = BLOCK_SIZE,
) -> SimulationSummary:
    """Simulate n_paths independent passages of the level a.

    Censoring (a path still below the level after max_steps) is data, not an
    error: censored paths are excluded from e_tau_hat and the MGF but kept in
    the survival curve.  When feasibility_report proves that no path can
    cross, no step is run and every path is censored.
    """
    if n_paths < 1 or max_steps < 1 or block_size < 1:
        raise ValueError("n_paths, max_steps and block_size must be >= 1")
    u_nodes = None if mgf_u_nodes is None else np.asarray(mgf_u_nodes, dtype=float)
    steps = max_steps if feasibility_report(p).crossing_possible else 0

    n_blocks = -(-n_paths // block_size)

    def job(i):
        # every block is full but the last, which holds the remainder
        return _run_block(p, i, min(block_size, n_paths - i * block_size), steps, seed, u_nodes)

    # Ordered fold over block indices: bit-identical for any worker count.
    counts = np.zeros(0, dtype=np.int64)
    n_censored = 0
    sum_tau = sum_tau2 = sum_xi = sum_xi2 = 0.0
    mgf_m1 = np.zeros(len(u_nodes)) if u_nodes is not None else None
    mgf_m2 = np.zeros(len(u_nodes)) if u_nodes is not None else None
    for r in _in_block_order(job, n_blocks, _worker_count()):
        if len(r.tau_counts) > len(counts):
            counts = np.pad(counts, (0, len(r.tau_counts) - len(counts)))
        counts[: len(r.tau_counts)] += r.tau_counts
        n_censored += r.n_censored
        sum_tau += r.sum_tau
        sum_tau2 += r.sum_tau2
        sum_xi += r.sum_xi
        sum_xi2 += r.sum_xi2
        if u_nodes is not None:
            # sums at clipped nodes may overflow to inf, as in the block kernel
            with np.errstate(over="ignore"):
                mgf_m1 += r.mgf_m1
                mgf_m2 += r.mgf_m2

    n_crossed = n_paths - n_censored
    if n_crossed > 0:
        e_tau = sum_tau / n_crossed
        var_tau = max(sum_tau2 / n_crossed - e_tau**2, 0.0)
        se_tau = math.sqrt(var_tau / n_crossed)
        xi_mean = sum_xi / n_crossed
        var_xi = max(sum_xi2 / n_crossed - xi_mean**2, 0.0)
        se_xi = math.sqrt(var_xi / n_crossed)
    else:
        e_tau = se_tau = xi_mean = se_xi = float("nan")

    max_tau = len(counts) - 1
    ns = np.arange(max_tau + 1)
    survival = 1.0 - np.cumsum(counts) / n_paths

    if u_nodes is not None and n_crossed > 0:
        m1 = mgf_m1 / n_crossed
        with np.errstate(invalid="ignore", over="ignore"):
            var = np.maximum(mgf_m2 / n_crossed - m1**2, 0.0)
            se = np.sqrt(var / n_crossed)
        se = np.where(np.isfinite(se), se, np.inf)
    elif u_nodes is not None:
        m1 = np.full(len(u_nodes), np.nan)
        se = np.full(len(u_nodes), np.inf)
    else:
        u_nodes = np.array([])
        m1 = np.array([])
        se = np.array([])

    return SimulationSummary(
        n_paths=n_paths,
        n_crossed=n_crossed,
        max_steps=max_steps,
        seed=seed,
        e_tau_hat=float(e_tau),
        e_tau_std_err=float(se_tau),
        overshoot_mean=float(xi_mean),
        overshoot_std_err=float(se_xi),
        survival_n=ns,
        survival_p=survival,
        mgf_u=u_nodes,
        mgf_value=m1,
        mgf_std_err=se,
    )


def default_stationary_horizon(spec: InnovationSpec, lam: float) -> int:
    """Terms needed so the dropped tail of Theta is below 1e-8."""
    scale = spec.scale()
    return max(1, math.ceil(math.log(1e-8 / scale) / math.log(lam)))


def simulate_stationary(
    spec: InnovationSpec,
    lam: float,
    n_draws: int,
    seed: int = 0,
) -> np.ndarray:
    """Draws of Theta = sum_{k < K} lam**k * eta_{k+1}, K the default_stationary_horizon."""
    if not 0.0 < lam < 1.0:
        raise ValueError("lam must lie in (0, 1)")
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    rng = _block_rng(seed, _DOMAIN_STATIONARY, 0)
    theta = np.zeros(n_draws)
    for k in range(default_stationary_horizon(spec, lam)):
        theta += lam**k * spec.sample(rng, n_draws)
    return theta


@dataclass(frozen=True)
class DriftReport:
    """Empirical martingale drift E M_n - M_0 for n = 1..n_steps.

    ``quad_errs`` bounds the part of each drift that the transform's own
    quadrature error (its ``abs_err``, carried to M_n and M_0) can explain.
    """

    drifts: np.ndarray
    std_errs: np.ndarray
    quad_errs: np.ndarray
    n_escaped: int

    @property
    def max_sigma(self) -> float:
        """Largest |drift| over its standard error plus its quadrature error.

        A nonzero drift that neither explains reads inf.
        """
        drift = np.abs(self.drifts)
        with np.errstate(divide="ignore", invalid="ignore"):
            sig = np.where(drift == 0.0, 0.0, drift / (self.std_errs + self.quad_errs))
        return float(np.max(sig))


def empirical_martingale_check(
    lc: LimitCumulant,
    kind: str,
    v: float | None,
    y0: float,
    n_paths: int,
    n_steps: int,
    seed: int = 0,
) -> DriftReport:
    """Simulate paths from y0 and measure the transform's martingale drift.

    States outside the admissible domain (where the transform integral
    diverges) are counted as escapes and dropped from the averages rather
    than treated as fatal.  The transform is evaluated once per distinct
    state (a discrete family revisits few), so the cost grows with the
    number of distinct states.  Raises DivergenceError when its value at an
    admissible state did not converge.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    rng = _block_rng(seed, _DOMAIN_MARTINGALE, 0)
    states = np.empty((n_steps, n_paths))
    x_state = np.full(n_paths, float(y0))
    for n in range(n_steps):
        x_state = lc.lam * x_state + lc.spec.sample(rng, n_paths)
        states[n] = x_state

    kept = np.ones(states.shape, dtype=bool)
    escaped = 0
    if math.isfinite(lc.y_adm):
        # keep the evaluated states strictly below the admissibility level
        kept = states <= lc.y_adm - 1e-9 * abs(lc.y_adm)
        escaped = int(np.sum(~kept))

    # the transform at each distinct state, a bounded batch per engine call
    ys, where = np.unique(np.append(states[kept], y0), return_inverse=True)
    batches = [
        transform(lc, kind, ys[i : i + _STATE_BATCH], v).require(f"{kind} transform")
        for i in range(0, len(ys), _STATE_BATCH)
    ]
    vals = np.concatenate([b.value for b in batches])
    errs = np.concatenate([b.abs_err for b in batches])
    state_idx = np.zeros(states.shape, dtype=np.intp)
    state_idx[kept] = where[:-1]
    m0, m0_err = vals[where[-1]], errs[where[-1]]

    drifts = np.empty(n_steps)
    ses = np.empty(n_steps)
    quad_errs = np.empty(n_steps)
    for n in range(n_steps):
        idx_n = state_idx[n][kept[n]]
        scale = 1.0 if kind == "H" else lc.lam ** (v * (n + 1))
        m_n = vals[idx_n] - (n + 1) if kind == "H" else scale * vals[idx_n]
        drifts[n] = float(np.mean(m_n) - m0)
        ses[n] = float(np.std(m_n) / math.sqrt(max(len(idx_n), 1)))
        quad_errs[n] = float(scale * np.mean(errs[idx_n]) + m0_err)
    return DriftReport(drifts=drifts, std_errs=ses, quad_errs=quad_errs, n_escaped=escaped)
