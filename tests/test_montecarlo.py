"""Monte Carlo oracle: reproducibility, stationary sampling, drift checks."""

import dataclasses
import json
import math
import os
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import stats

from ar1fpt import (
    Deterministic,
    DivergenceError,
    Gaussian,
    LimitCumulant,
    PassageProblem,
    TwoPoint,
    empirical_martingale_check,
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
    runs = {}
    for threads in ("1", "7"):
        monkeypatch.setenv("FPT_THREADS", threads)
        sim = simulate_passage(
            GAUSS,
            n_paths=40_000,
            max_steps=10**4,
            seed=3,
            mgf_u_nodes=np.array([0.1, 0.5, 1.0]),
        )
        runs[threads] = json.dumps(sim.to_dict(), sort_keys=True)
    assert runs["1"] == runs["7"]


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


def test_never_crossing_runs_no_steps():
    p = PassageProblem(lam=0.5, x=0.0, a=3.0, spec=Deterministic(1.0))
    full = simulate_passage(p, n_paths=1000, seed=5).to_dict()
    one = simulate_passage(p, n_paths=1000, max_steps=1, seed=5).to_dict()
    assert full.pop("max_steps") == 10**6 and one.pop("max_steps") == 1
    assert json.dumps(full, sort_keys=True) == json.dumps(one, sort_keys=True)
    assert full["n_censored"] == 1000
    assert full["survival_n"] == [0] and full["survival_p"] == [1.0]


def _direct_mgf_moments(u_nodes, vals):
    # the whole u_nodes x vals matrix at once
    with np.errstate(over="ignore"):
        e1 = np.exp(np.minimum(np.multiply.outer(u_nodes, vals), 709.0))
        return e1.sum(axis=1), (e1 * e1).sum(axis=1)


@pytest.mark.parametrize(
    "u_nodes,n_vals",
    [
        # 26 rows per chunk: 192 nodes leave a final chunk of 10 rows
        (np.linspace(0.0, 3.0, 192), 5000),
        # exp clips at 709 and the squares overflow to inf
        (np.geomspace(1e-3, 800.0, 64), 3),
        (np.linspace(0.0, 3.0, 192), 0),
    ],
    ids=["ragged-chunks", "clipped", "no-crossing"],
)
def test_chunked_mgf_moments_match_direct_formula(u_nodes, n_vals):
    vals = 1.0 + np.random.default_rng(12).exponential(0.5, n_vals)
    m1, m2 = montecarlo._mgf_moments(u_nodes, vals)
    d1, d2 = _direct_mgf_moments(u_nodes, vals)
    assert m1.tobytes() == d1.tobytes() and m2.tobytes() == d2.tobytes()


def test_clipped_mgf_nodes_have_infinite_std_err():
    nodes = np.array([0.5, 400.0])
    sim = simulate_passage(GAUSS, n_paths=2000, max_steps=1000, seed=2, mgf_u_nodes=nodes)
    assert math.isfinite(sim.mgf_std_err[0]) and sim.mgf_std_err[1] == math.inf


def test_mgf_block_memory_stays_small():
    # one 16,384-path block with 192 nodes; the whole node x path matrix
    # and its square would take about 50 MB
    nodes = np.linspace(0.0, 3.0, 192)
    simulate_passage(GAUSS, n_paths=1 << 14, seed=1, mgf_u_nodes=nodes)
    tracemalloc.start()
    try:
        simulate_passage(GAUSS, n_paths=1 << 14, seed=1, mgf_u_nodes=nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_fold_of_overflowing_block_sums_is_silent():
    # at u >= 100 each block's MGF sums are finite but their total is not
    nodes = np.linspace(100.0, 400.0, 3000)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        sim = simulate_passage(GAUSS, n_paths=30_000, seed=1, mgf_u_nodes=nodes)
    assert np.isinf(sim.mgf_value).any() and np.isinf(sim.mgf_std_err).any()


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


def test_draw_counts_below_one_are_rejected():
    with pytest.raises(ValueError):
        simulate_stationary(Gaussian(0.0, 1.0), 0.5, n_draws=0)
    lc = LimitCumulant(GAUSS.spec, GAUSS.lam)
    with pytest.raises(ValueError):
        empirical_martingale_check(lc, "H", None, y0=0.0, n_paths=0, n_steps=1)


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
