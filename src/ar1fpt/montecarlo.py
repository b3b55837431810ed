"""Monte Carlo oracle: AR(1) paths, passage times, overshoots, stationary draws.

Randomness is keyed per block: every block of paths owns an SFC64 stream
seeded by the SeedSequence of (seed, block index).  A block reduces its
crossings in the order they happen, and the blocks' sums are folded in
block order.  Results are therefore bit-identical for any worker count;
the FPT_THREADS environment variable merely caps parallelism, at the CPU
count.

A block steps its paths with numpy until at most _FLOAT_TAIL live, and the
rest on Python floats, with the same roundings.  A numpy step with
crossings compacts the live paths: by index when at least _DENSE_SHARE of
them crossed, as on the flagship, and otherwise by mask, which is the
faster below the crossover of about 5% (32,768 or 16,384 live paths) to
9% (1,024).  Both keep the same survivors in the same order.  The float
loop reads its draws in order from chunks of the block's stream, which
gives the values of one sample call a step because every sampler is a
stream.  It holds the interpreter lock, so threads overlap only the
blocks' numpy steps.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

from .cumulant import LimitCumulant
from .errors import ConfigError
from .innovations import InnovationSpec
from .passage import PassageProblem, feasibility_report
from .transforms import transform

BLOCK_SIZE = 1 << 15

# Bytes of one array allocated and freed before the blocks run.  A block
# allocates and frees up to about 2 MB of block-sized arrays at once (a
# 32,768-path block's traced peak: 1.5 MB on the flagship, whose dense
# steps take an index array, 1.8 MB on the two-point law); where they end
# at the heap's top, glibc's malloc hands a freed top above its trim
# threshold (256 KB by then) back to the system, and the next block faults
# the pages in anew: some 760 to 790 minor faults a 65,536-path flagship
# identity-check and 1,340 to 1,500 a two-point one, in fresh processes
# without this array.  Freeing a mapped chunk this large sets glibc's trim
# threshold to twice it, so no block trims the heap; to another malloc it
# is one allocation.
_HEAP_RESERVE = 1 << 22

# Domain tags keep the passage, stationary and martingale-check samplers on
# disjoint streams even when they share a seed.
_DOMAIN_PASSAGE = 0x9E3779B97F4A7C15
_DOMAIN_STATIONARY = 0xC2B2AE3D27D4EB4F
_DOMAIN_MARTINGALE = 0x165667B19E3779F9

_MASK64 = (1 << 64) - 1

#: Live paths at or below which a block steps on Python floats.  A numpy
#: step costs about 4.5 us at up to 96 paths, the float loop 0.4 us plus
#: about 100 ns a path, draws included (Python 3.11, numpy 2.4, a 2-core
#: Xeon host): they meet at 32 to 48 paths.  A tail is as long as its
#: block's slowest paths: at lam 0.9, a 4, seed 7, tails of about 965
#: steps saved 8% of the CPU in two 16,384-path blocks (tails of 16 to 128
#: paths alike), and over the first twelve 32,768-path blocks, with tails
#: of 295 to 827 steps, 48 paths save 0.8% (16 paths: 2.7%).
_FLOAT_TAIL = 48
#: Draws the float loop reads from the block's stream in one sample call.
_TAIL_CHUNK = 1024
#: Share of a numpy step's live paths crossing from which it takes the
#: survivors by index, not by mask.  A boolean mask's copy mispredicts a
#: branch at each crossing; nonzero and take cost the same at any share.
#: The two meet at about 5% crossing at 32,768 and 16,384 live paths, 6% at
#: 4,096 and 9% at 1,024 (timings over 64 fresh random masks, numpy 2.4, a
#: 2-core Xeon host; at 32,768, 256 masks each timed once, after the heap
#: reserve).  The flagship crosses 11-16% of its live paths a step, about
#: 12.5% once past its first steps; at a 1/16 share its 65,536-path run
#: took 2% less CPU than at 1/8, in 10 of 12 alternating pairs.
_DENSE_SHARE = 1 / 16

#: Distinct states per engine call of _at_distinct; bounds its states x
#: nodes integrand arrays to a few MB.
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
    """SFC64 seeded by the SeedSequence of the key (seed ^ domain, block)."""
    key = [(seed & _MASK64) ^ domain, block & _MASK64]
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(key)))


@dataclass(frozen=True)
class SimulationSummary:
    """Reduction of one passage simulation run.

    e_tau_hat is averaged over crossed paths only; censored paths (those
    still below the level after max_steps) are counted separately and the
    survival curve includes them.

    With an h table (passage.HTable), h_mean and h_std_err estimate E h(Z)
    over the pre-crossing states Z = X_{tau-1} of the crossed paths, which
    is E H(X_tau): the identity's random half, unbiased and of finite
    variance where H(X_tau) has none.  h_abs_err bounds the error of the h
    values, and n_outside_table counts the states the table does not cover,
    evaluated directly.  Without a table the four are None and left out of
    to_dict.
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
    h_mean: float | None = None
    h_std_err: float | None = None
    h_abs_err: float | None = None
    n_outside_table: int | None = None

    @property
    def n_censored(self) -> int:
        return self.n_paths - self.n_crossed

    @property
    def survival_std_err(self) -> np.ndarray:
        """The binomial standard error sqrt(S(1 - S)/n_paths) of each survival
        point S; left out of to_dict until the benchmark's next revision, whose
        harness keeps every report it reads and so measures their size."""
        return np.sqrt(self.survival_p * (1.0 - self.survival_p) / self.n_paths)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.h_mean is None:  # a run without an h table reports as before
            for key in ("h_mean", "h_std_err", "h_abs_err", "n_outside_table"):
                del out[key]
        out["n_censored"] = self.n_censored
        # an average over no crossed path (NaN), or an error whose sum of
        # squares overflowed (inf), is null, not NaN or Infinity
        averages = ("e_tau_hat", "e_tau_std_err", "overshoot_mean", "overshoot_std_err", "h_mean", "h_std_err")
        for key in averages:
            if key in out and not math.isfinite(out[key]):
                out[key] = None
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in out.items()}


def _passages(
    p: PassageProblem, rng: np.random.Generator, size: int, max_steps: int, with_z: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The histogram of tau over the crossed paths, to the last crossing step
    (one 0 if none crossed), and each crossing's state x_tau and, if with_z,
    its pre-crossing state z = x_{tau-1}, in the order the crossings happen:
    step by step, and in path order within a step.

    Each step's draws go to the live paths in path order.  While more than
    _FLOAT_TAIL paths live, a step is a few numpy calls: it records its
    crossings once and only a step with crossings compacts the live paths,
    by index where at least _DENSE_SHARE of them crossed (the dense steps;
    a mask mispredicts at each crossing) and by mask where fewer did.
    The last _FLOAT_TAIL or fewer step as Python floats, their draws read in
    order from chunks of the block's stream.  lam * x + d rounds twice, as
    the numpy step does (CPython fuses no multiply-add), so both loops give
    the same bits.
    """
    x_alive = np.full(size, float(p.x))
    x_done = np.empty(size)
    z_done = np.empty(size if with_z else 0)
    hit_steps, hit_counts = [], []
    n_done = 0
    step = 0
    # the loop looks up no attribute, and nonzero()[0] skips the ravel and
    # checks of np.flatnonzero
    lam, a, sample = float(p.lam), float(p.a), p.spec.sample
    while len(x_alive) > _FLOAT_TAIL and step < max_steps:
        step += 1
        x_new = lam * x_alive
        x_new += sample(rng, len(x_alive))
        crossed = x_new > a
        hits = crossed.nonzero()[0]
        if len(hits):
            k = n_done + len(hits)
            x_new.take(hits, out=x_done[n_done:k])
            if with_z:
                x_alive.take(hits, out=z_done[n_done:k])
            hit_steps.append(step)
            hit_counts.append(len(hits))
            n_done = k
            if len(hits) >= _DENSE_SHARE * len(x_new):
                x_new = x_new.take(np.logical_not(crossed, out=crossed).nonzero()[0])
            else:
                x_new = x_new[~crossed]
        x_alive = x_new

    # the draws one at a time from chunks of the block's stream: the values
    # one sample call a step would give, as every sampler is a stream
    draws = chain.from_iterable(iter(lambda: sample(rng, _TAIL_CHUNK).tolist(), None))
    xs, tail_x, tail_z = x_alive.tolist(), [], []
    while xs and step < max_steps:
        step += 1
        alive = []
        # zip reads xs first, so a step takes exactly len(xs) draws
        for x, d in zip(xs, draws):
            y = lam * x + d
            if y > a:
                tail_x.append(y)
                tail_z.append(x)
            else:
                alive.append(y)
        if len(alive) < len(xs):
            hit_steps.append(step)
            hit_counts.append(len(xs) - len(alive))
        xs = alive
    k = n_done + len(tail_x)
    x_done[n_done:k] = tail_x
    if with_z:
        z_done[n_done:k] = tail_z
    n_done = k

    counts = np.zeros(max(hit_steps, default=0) + 1, dtype=np.int64)
    counts[hit_steps] = hit_counts
    return counts, x_done[:n_done], z_done[:n_done] if with_z else None


def _run_block(
    p: PassageProblem,
    block: int,
    size: int,
    max_steps: int,
    seed: int,
    h=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(The block's tau histogram, [sum xi, sum xi**2, sum h(Z), sum h(Z)**2]
    over its crossed paths, the states Z outside h's table), each sum and
    the states in the order the paths crossed; without h the h sums are 0."""
    rng = _block_rng(seed, _DOMAIN_PASSAGE, block)
    counts, x_tau, z = _passages(p, rng, size, max_steps, h is not None)
    xis = x_tau - p.a
    # overshoots past 1e154, or h values past 1e154: inf, and the error reads null
    with np.errstate(over="ignore"):
        h_sum, h_sum2, outside = (0.0, 0.0, np.empty(0)) if h is None else h.fold(z)
        return counts, np.array([xis.sum(), (xis**2).sum(), h_sum, h_sum2]), outside


def _mean_se(s1, s2, n: int):
    """Mean of n samples from their sum s1, and its standard error from
    their sum of squares s2; an error that is not finite reads inf.

    s2/n - m**2 cancels: the variance keeps the bits of s2/n less
    log2(1 + m**2/var), about log2(m**2/var) where the mean dominates.  At
    65,536 paths (seed 104) that is 1.0 bit for tau, 1.3 for the overshoot
    and 5.1 for h(Z) on the flagship, and 1.4, 1.9 and 3.2 on
    TwoPoint(1, -1, 0.5).  The 48 or more bits left lie far below the
    error's own sampling spread, about 1/sqrt(2n) of it, so the sums are
    not taken about a shift, which would move the results' bits.
    """
    m = np.divide(s1, n)  # a numpy scalar, whose square overflows to inf
    with np.errstate(invalid="ignore", over="ignore"):
        se = np.sqrt(np.maximum(s2 / n - m**2, 0.0) / n)
    return m, np.where(np.isfinite(se), se, np.inf)


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
    h=None,
) -> SimulationSummary:
    """Simulate n_paths independent passages of the level a.

    Censoring (a path still below the level after max_steps) is data, not an
    error: censored paths are excluded from e_tau_hat and the overshoot but
    kept in the survival curve.  When feasibility_report proves that no path
    can cross, no step is run and every path is censored.

    Each block sums the overshoots and their squares over its crossed paths
    in the order they crossed, and the blocks' sums are added in block
    order.  With h, an HTable of p, each block also folds h(Z) and h(Z)**2
    in that order, where the table covers Z; the states it does not cover
    are evaluated directly after the fold, in block and crossing order, so
    the sums are bit-identical for any worker count.  A direct
    value that does not converge raises DivergenceError.

    mgf_u_nodes accepts only None, and anything else raises ValueError:
    bench/tracing.py binds it in every traced run, and it goes with the
    benchmark's next revision.
    """
    if n_paths < 1 or max_steps < 1 or block_size < 1:
        raise ValueError("n_paths, max_steps and block_size must be >= 1")
    if mgf_u_nodes is not None:
        raise ValueError("mgf_u_nodes must be None: the overshoot MGF is no longer estimated")
    steps = max_steps if feasibility_report(p).crossing_possible else 0

    n_blocks = -(-n_paths // block_size)
    np.empty(_HEAP_RESERVE, dtype=np.uint8)

    def job(i):
        # every block is full but the last, which holds the remainder
        return _run_block(p, i, min(block_size, n_paths - i * block_size), steps, seed, h)

    # Ordered fold over block indices: bit-identical for any worker count.
    counts = np.zeros(0, dtype=np.int64)
    sums = np.zeros(4)
    outside = []
    for block_counts, block_sums, block_outside in _in_block_order(job, n_blocks, _worker_count()):
        if len(block_counts) > len(counts):
            counts = np.concatenate([counts, np.zeros(len(block_counts) - len(counts), dtype=np.int64)])
        counts[: len(block_counts)] += block_counts
        with np.errstate(over="ignore"):  # a sum past the largest float is inf, and its error reads null
            sums += block_sums
        outside.append(block_outside)

    n_crossed = int(counts.sum())
    sum_xi, sum_xi2, h_sum, h_sum2 = sums.tolist()
    ns = np.arange(len(counts))
    if n_crossed > 0:
        # tau's sums from its histogram: exact below 2**53
        hist = counts.astype(float)
        e_tau, se_tau = _mean_se(float((ns * hist).sum()), float((ns * ns * hist).sum()), n_crossed)
        xi_mean, se_xi = _mean_se(sum_xi, sum_xi2, n_crossed)
    else:
        e_tau = se_tau = xi_mean = se_xi = float("nan")
    h_fold = {}
    if h is not None:
        h_sum, h_sum2, h_err, n_outside = _fold_outside(h, np.concatenate(outside), h_sum, h_sum2)
        h_mean, h_se = _mean_se(h_sum, h_sum2, n_crossed) if n_crossed else (math.nan, math.nan)
        h_fold = {
            "h_mean": float(h_mean),
            "h_std_err": float(h_se),
            "h_abs_err": float(max(h.abs_err, h_err)),
            "n_outside_table": n_outside,
        }
    survival = 1.0 - np.cumsum(counts) / n_paths

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
        **h_fold,
    )


def _fold_outside(h, z, h_sum: float, h_sum2: float) -> tuple[float, float, float, int]:
    """(h_sum, h_sum2) with h of the states z added in order, the largest
    engine error among them (0 for none) and their count.  h is evaluated
    once per distinct state, a bounded batch per engine call."""
    if not len(z):
        return h_sum, h_sum2, 0.0, 0
    vals, errs, where = _at_distinct(h.direct, z, "h at a state outside its table")
    vals = vals[where]
    with np.errstate(over="ignore"):
        h_sum += float(vals.sum())
        h_sum2 += float((vals * vals).sum())
    return h_sum, h_sum2, float(errs.max()), len(z)


def _at_distinct(evaluate, states, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, engine errors) at the distinct states, in ascending order,
    and each state's index among them.

    evaluate maps an array of states to a QuadratureResult; it is called
    once per _STATE_BATCH distinct states, and each result must converge.
    """
    distinct, where = np.unique(states, return_inverse=True)
    batches = [
        evaluate(distinct[i : i + _STATE_BATCH]).require(what)
        for i in range(0, len(distinct), _STATE_BATCH)
    ]
    values = np.concatenate([b.value for b in batches])
    return values, np.concatenate([b.abs_err for b in batches]), where


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
    if n_paths < 1 or n_steps < 1:
        raise ValueError("n_paths and n_steps must be >= 1")
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

    vals, errs, where = _at_distinct(
        lambda ys: transform(lc, kind, ys, v), np.append(states[kept], y0), f"{kind} transform"
    )
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
