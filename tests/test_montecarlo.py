"""Monte Carlo oracle: reproducibility, stationary sampling, drift checks."""

import dataclasses
import json
import math
import os
import platform

import numpy as np
import pytest
from scipy import stats

from ar1fpt import (
    CappedAbove,
    Deterministic,
    DivergenceError,
    Gaussian,
    LimitCumulant,
    PassageProblem,
    StableSpectrallyNegative,
    TwoPoint,
    empirical_martingale_check,
    h_table,
    simulate_passage,
    simulate_stationary,
    stationary_reference,
)
from ar1fpt import montecarlo

GAUSS = PassageProblem(lam=0.5, x=0.0, a=1.0, spec=Gaussian(0.0, 1.0))


def test_deterministic_paths_all_hit_at_three():
    p = PassageProblem(lam=0.5, x=0.0, a=1.5, spec=Deterministic(1.0))
    sim = simulate_passage(p, n_paths=1000, max_steps=20, seed=5)
    assert sim.n_crossed == 1000
    assert sim.e_tau_hat == 3.0 and sim.e_tau_std_err == 0.0
    # survival curve: P(tau > n) = 1 for n < 3, 0 after
    lookup = dict(zip(sim.survival_n.tolist(), sim.survival_p.tolist()))
    assert lookup[2] == 1.0 and lookup[3] == 0.0
    assert math.isclose(sim.overshoot_mean, 0.25, rel_tol=1e-12)


def test_results_independent_of_worker_count(monkeypatch):
    table = h_table(GAUSS)
    runs = {}
    for threads in ("1", "7"):
        monkeypatch.setenv("FPT_THREADS", threads)
        sim = simulate_passage(GAUSS, n_paths=40_000, max_steps=10**4, seed=3, h=table)
        runs[threads] = json.dumps(sim.to_dict(), sort_keys=True)
    assert runs["1"] == runs["7"]
    assert json.loads(runs["1"])["h_mean"] is not None


def test_many_blocks_fold_alike_for_any_worker_count(monkeypatch):
    # 16 blocks of 64 paths and a last one of 40: more than the two blocks a
    # worker that are in flight at once
    runs = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("FPT_THREADS", threads)
        sim = simulate_passage(GAUSS, n_paths=1064, seed=11, block_size=64)
        runs[threads] = json.dumps(sim.to_dict(), sort_keys=True)
    assert runs["1"] == runs["2"]
    assert json.loads(runs["1"])["n_paths"] == 1064


def test_worker_count_is_capped_at_the_cpu_count(monkeypatch):
    # one worker a block would start a thread for every submitted block
    monkeypatch.setenv("FPT_THREADS", "1000000")
    assert montecarlo._worker_count() == (os.cpu_count() or 1)
    monkeypatch.setenv("FPT_THREADS", "0")
    assert montecarlo._worker_count() == 1


def _reference_run_block(p, block, size, max_steps, seed, h=None):
    # the kernel as first written: each step scatters its crossings into the
    # path-ordered tau, x_tau and pre-crossing z, then compacts the live paths
    rng = montecarlo._block_rng(seed, montecarlo._DOMAIN_PASSAGE, block)
    alive_idx = np.arange(size)
    x_alive = np.full(size, float(p.x))
    tau = np.zeros(size, dtype=np.int64)
    x_tau = np.full(size, np.nan)
    z_tau = np.full(size, np.nan)
    step = 0
    while len(alive_idx) and step < max_steps:
        step += 1
        x_new = p.lam * x_alive + p.spec.sample(rng, len(alive_idx))
        crossed = x_new > p.a
        done = alive_idx[crossed]
        tau[done] = step
        x_tau[done] = x_new[crossed]
        z_tau[done] = x_alive[crossed]
        alive_idx = alive_idx[~crossed]
        x_alive = x_new[~crossed]
    crossed_mask = tau > 0
    taus = tau[crossed_mask]
    xis = x_tau[crossed_mask] - p.a
    extra = {}
    if h is not None:
        extra = dict(zip(("h_sum", "h_sum2", "z_outside"), h.fold(z_tau[crossed_mask])))
    return montecarlo._BlockResult(
        tau_counts=np.bincount(taus) if len(taus) else np.zeros(1, dtype=np.int64),
        n_censored=int(len(alive_idx)),
        sum_xi=float(xis.sum()),
        sum_xi2=float((xis**2).sum()),
        **extra,
    )


@pytest.mark.parametrize("with_nodes", [False, "h"], ids=["plain", "h"])
@pytest.mark.parametrize(
    "p,n_paths,kwargs",
    [
        (GAUSS, 20_000, {}),  # 12-16% of the live paths cross a step
        (PassageProblem(lam=0.9, x=0.0, a=4.0, spec=Gaussian(0.0, 1.0)), 3000, {}),  # about 1%
        (PassageProblem(lam=0.5, x=0.0, a=1.0, spec=TwoPoint(1.0, -1.0, 0.5)), 5000, {}),
        (PassageProblem(lam=0.5, x=0.0, a=1.0, spec=CappedAbove(Gaussian(0.0, 1.0), 1.5)), 5000, {}),
        (PassageProblem(lam=0.5, x=0.0, a=1.0, spec=StableSpectrallyNegative(1.5, 1.0)), 5000, {}),
        (PassageProblem(lam=0.5, x=0.0, a=3.0, spec=Gaussian(0.3, 2.0)), 5000, {"max_steps": 4}),
        (GAUSS, 1000, {"block_size": 300}),
    ],
    ids=["flagship", "slow-mixing", "two-point", "capped", "stable", "censored", "ragged-blocks"],
)
def test_kernel_matches_the_step_by_step_reference(monkeypatch, p, n_paths, kwargs, with_nodes):
    if with_nodes == "h" and isinstance(p.spec, StableSpectrallyNegative):
        with pytest.raises(DivergenceError, match="partial MGF"):
            h_table(p)  # no h table for a stable law yet
        return
    if with_nodes == "h":
        kwargs = dict(kwargs, h=h_table(p))
    runs = []
    for kernel in (montecarlo._run_block, _reference_run_block):
        monkeypatch.setattr(montecarlo, "_run_block", kernel)
        sim = simulate_passage(p, n_paths, seed=5, **kwargs)
        runs.append(json.dumps(sim.to_dict(), sort_keys=True))
    assert runs[0] == runs[1]
    if with_nodes == "h":
        assert json.loads(runs[0])["h_mean"] is not None


@pytest.mark.parametrize("m,var", [(0.0, 1.0), (0.3, 2.0), (-1.7, 0.37)])
def test_gaussian_draws_are_those_of_rng_normal(m, var):
    draws = Gaussian(m, var).sample(np.random.default_rng(4), 1000)
    want = np.random.default_rng(4).normal(m, math.sqrt(var), 1000)
    assert draws.tobytes() == want.tobytes()


def test_never_crossing_runs_no_steps():
    p = PassageProblem(lam=0.5, x=0.0, a=3.0, spec=Deterministic(1.0))
    full = simulate_passage(p, n_paths=1000, seed=5).to_dict()
    one = simulate_passage(p, n_paths=1000, max_steps=1, seed=5).to_dict()
    assert full.pop("max_steps") == 10**6 and one.pop("max_steps") == 1
    assert json.dumps(full, sort_keys=True) == json.dumps(one, sort_keys=True)
    assert full["n_censored"] == 1000
    assert full["survival_n"] == [0] and full["survival_p"] == [1.0]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the trim threshold is glibc's")
def test_blocks_fault_no_pages_in_once_warm():
    # each block allocates and frees about 1 MB; were the heap's top handed
    # back to the system, the next block would fault about 290 pages in anew
    import resource

    table = h_table(GAUSS)
    for _ in range(2):  # the heap grows to its working size
        simulate_passage(GAUSS, n_paths=1 << 16, seed=104, h=table)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        simulate_passage(GAUSS, n_paths=1 << 16, seed=104, h=table)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def test_seed_changes_results():
    a = simulate_passage(GAUSS, n_paths=5000, max_steps=1000, seed=1)
    b = simulate_passage(GAUSS, n_paths=5000, max_steps=1000, seed=2)
    assert a.e_tau_hat != b.e_tau_hat


def test_partial_final_block_handled():
    sim = simulate_passage(GAUSS, n_paths=(1 << 14) + 7, max_steps=1000, seed=0)
    assert sim.n_paths == (1 << 14) + 7
    assert sim.n_crossed + sim.n_censored == sim.n_paths


def test_censoring_is_reported_not_fatal():
    p = PassageProblem(lam=0.5, x=0.0, a=6.0, spec=Gaussian(0.0, 1.0))
    sim = simulate_passage(p, n_paths=2000, max_steps=50, seed=9)
    assert sim.n_censored > 0
    assert np.isnan(sim.e_tau_hat) or sim.e_tau_hat > 0


def test_overshoot_nonnegative():
    sim = simulate_passage(GAUSS, n_paths=20_000, max_steps=10**4, seed=21)
    assert sim.overshoot_mean > 0


def test_stationary_moments_and_fixed_point():
    mean_ref, var_ref = stationary_reference(Gaussian(0.0, 1.0), 0.5)
    theta = simulate_stationary(Gaussian(0.0, 1.0), 0.5, 200_000, seed=6)
    assert abs(theta.mean() - mean_ref) < 3 * math.sqrt(var_ref / len(theta))
    assert abs(theta.var() / var_ref - 1.0) < 0.02
    # fixed point Theta =d lam*Theta + eta, via independent samples
    theta2 = simulate_stationary(Gaussian(0.0, 1.0), 0.5, 200_000, seed=7)
    eta = Gaussian(0.0, 1.0).sample(np.random.default_rng(8), 200_000)
    ks = stats.ks_2samp(theta, 0.5 * theta2 + eta)
    assert ks.pvalue > 0.01


def test_stationary_two_point_bounded():
    theta = simulate_stationary(TwoPoint(1.0, -1.0, 0.5), 0.5, 50_000, seed=4)
    assert np.all(np.abs(theta) <= 2.0 + 1e-9)


@pytest.mark.parametrize("kind,v", [("N", 1.0), ("H", None), ("W", -0.4)])
def test_empirical_martingale_drift(kind, v):
    # bounded states keep the transform values bounded, so the empirical
    # mean of the martingale obeys a clean CLT (Gaussian states make the
    # transforms too heavy-tailed for a mean test at this sample size)
    lc = LimitCumulant(TwoPoint(1.0, -1.0, 0.5), 0.5)
    rep = empirical_martingale_check(
        lc, kind, v=v, y0=0.0, n_paths=40_000, n_steps=6, seed=10
    )
    assert rep.max_sigma < 4.0, rep


@pytest.mark.parametrize("kind,v", [("N", 1.0), ("H", None), ("W", -0.4)])
def test_martingale_drift_of_a_zero_spread_law(kind, v):
    # every path of a one-atom law is the same, so the standard errors are
    # (about) 0 and the quadrature error must account for rounding drifts
    lc = LimitCumulant(Deterministic(0.5), 0.5)
    rep = empirical_martingale_check(lc, kind, v=v, y0=0.0, n_paths=10, n_steps=3)
    assert np.all(rep.std_errs < 1e-15) and np.all(rep.quad_errs > 0)
    assert rep.max_sigma < 4.0, rep


def test_martingale_drift_forced_nonzero(monkeypatch):
    # H scaled by 1 + 1e-6 drifts by 1e-6 a step: far beyond the quadrature error
    unscaled = montecarlo.transform

    def transform(lc, kind, y, v=None):
        res = unscaled(lc, kind, y, v)
        return dataclasses.replace(res, value=res.value * (1.0 + 1e-6))

    monkeypatch.setattr(montecarlo, "transform", transform)
    lc = LimitCumulant(Deterministic(0.5), 0.5)
    rep = empirical_martingale_check(lc, "H", None, y0=0.0, n_paths=10, n_steps=3)
    assert np.all(rep.std_errs == 0.0) and rep.max_sigma > 1e3
    # with no error to explain it, a nonzero drift reads inf, not 0
    assert dataclasses.replace(rep, quad_errs=np.zeros(3)).max_sigma == math.inf


def test_martingale_check_rejects_unconverged_transform():
    # W_{-0.97} does not converge at any state, so no drift can be measured
    lc = LimitCumulant(TwoPoint(1.0, -1.0, 0.5), 0.5)
    with pytest.raises(DivergenceError):
        empirical_martingale_check(lc, "W", v=-0.97, y0=0.0, n_paths=100, n_steps=2)


@pytest.mark.parametrize("block_size", [0, -3])
def test_simulate_rejects_block_size_below_one(block_size):
    with pytest.raises(ValueError, match="block_size"):
        simulate_passage(GAUSS, n_paths=10, max_steps=5, block_size=block_size)


@pytest.mark.parametrize("nodes", [np.array([0.1, 0.5]), np.array([]), [1.0]])
def test_simulate_rejects_mgf_nodes(nodes):
    # the overshoot MGF is no longer estimated: even no node is not None
    with pytest.raises(ValueError, match="mgf_u_nodes must be None"):
        simulate_passage(GAUSS, n_paths=10, max_steps=5, mgf_u_nodes=nodes)


@pytest.mark.parametrize("lam", [0.0, 1.0, -0.5])
def test_stationary_draws_reject_lam_outside_the_unit_interval(lam):
    with pytest.raises(ValueError, match="lam must lie in"):
        simulate_stationary(Gaussian(0.0, 1.0), lam, n_draws=10)


def test_draw_counts_below_one_are_rejected():
    with pytest.raises(ValueError):
        simulate_stationary(Gaussian(0.0, 1.0), 0.5, n_draws=0)
    lc = LimitCumulant(GAUSS.spec, GAUSS.lam)
    for n_paths, n_steps in [(0, 1), (10, 0), (10, -1)]:
        with pytest.raises(ValueError, match="n_paths and n_steps must be >= 1"):
            empirical_martingale_check(lc, "H", None, y0=0.0, n_paths=n_paths, n_steps=n_steps)


def test_martingale_check_has_its_own_stream(monkeypatch):
    first_draws = []
    gaussian_sample = Gaussian.sample

    def recording_sample(spec, rng, n):
        draws = gaussian_sample(spec, rng, n)
        first_draws.append(draws[0])
        return draws

    monkeypatch.setattr(Gaussian, "sample", recording_sample)
    lc = LimitCumulant(GAUSS.spec, GAUSS.lam)
    empirical_martingale_check(lc, "H", None, y0=0.0, n_paths=8, n_steps=1, seed=10)
    simulate_passage(GAUSS, n_paths=8, max_steps=1, seed=10)
    assert len(first_draws) == 2 and first_draws[0] != first_draws[1]


def test_distinct_stream_keys_give_distinct_first_draws():
    domains = (montecarlo._DOMAIN_PASSAGE, montecarlo._DOMAIN_STATIONARY, montecarlo._DOMAIN_MARTINGALE)
    keys = [(seed, domain, block) for seed in (0, 1, 2**63) for domain in domains for block in (0, 1, 7)]
    firsts = {montecarlo._block_rng(*key).standard_normal() for key in keys}
    assert len(firsts) == len(keys)


@pytest.mark.parametrize("seed", [2**64 + 5, 2**200 - 1, -3])
def test_seeds_are_masked_to_64_bits(seed):
    # SeedSequence takes no negative entropy: the seed is masked to 64 bits first
    masked = seed & (2**64 - 1)
    domain = montecarlo._DOMAIN_PASSAGE
    draws = montecarlo._block_rng(seed, domain, 2).standard_normal(8)
    want = np.random.Generator(np.random.SFC64(np.random.SeedSequence([masked ^ domain, 2])))
    assert draws.tobytes() == want.standard_normal(8).tobytes()
    runs = [simulate_passage(GAUSS, n_paths=500, max_steps=100, seed=s).to_dict() for s in (seed, masked)]
    for run in runs:
        del run["seed"]
    assert json.dumps(runs[0], sort_keys=True) == json.dumps(runs[1], sort_keys=True)


def test_stationary_and_martingale_draws_reproduce_from_their_seed():
    draws = [simulate_stationary(Gaussian(0.0, 1.0), 0.5, 1000, seed=s) for s in (3, 3, 4)]
    assert draws[0].tobytes() == draws[1].tobytes() != draws[2].tobytes()
    lc = LimitCumulant(TwoPoint(1.0, -1.0, 0.5), 0.5)
    reports = [empirical_martingale_check(lc, "H", None, y0=0.0, n_paths=200, n_steps=3, seed=s) for s in (3, 3, 4)]
    drifts = [r.drifts.tobytes() for r in reports]
    assert drifts[0] == drifts[1] != drifts[2]
