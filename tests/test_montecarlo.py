"""Monte Carlo oracle: reproducibility, stationary sampling, drift checks."""

import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

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

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import reference  # noqa: E402  (the benchmark's references: numpy only, no ar1fpt)

GAUSS = PassageProblem(lam=0.5, x=0.0, a=1.0, spec=Gaussian(0.0, 1.0))
SLOW = PassageProblem(lam=0.9, x=0.0, a=4.0, spec=Gaussian(0.0, 1.0))
#: Half the paths cross at step 1.
HALF = PassageProblem(lam=0.5, x=0.0, a=0.0, spec=Gaussian(0.0, 1.0))
#: At seed 5, 2,000 paths: step 26 crosses 19 of 304 live paths, exactly
#: the dense share, and 17 other steps cross fewer than it.
AT_THE_SHARE = PassageProblem(lam=0.5, x=0.0, a=1.5, spec=Gaussian(0.0, 1.0))


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
    # the kernel as first written, reduced in crossing order: each step
    # appends its crossings' tau, x_tau and pre-crossing z in path order,
    # then compacts the live paths
    rng = montecarlo._block_rng(seed, montecarlo._DOMAIN_PASSAGE, block)
    x_alive = np.full(size, float(p.x))
    taus, x_tau, z_tau = [np.empty(0, dtype=np.int64)], [np.empty(0)], [np.empty(0)]
    step = 0
    while len(x_alive) and step < max_steps:
        step += 1
        x_new = p.lam * x_alive + p.spec.sample(rng, len(x_alive))
        crossed = x_new > p.a
        taus.append(np.full(crossed.sum(), step))
        x_tau.append(x_new[crossed])
        z_tau.append(x_alive[crossed])
        x_alive = x_new[~crossed]
    taus = np.concatenate(taus)
    xis = np.concatenate(x_tau) - p.a
    hz, outside = (np.empty(0), np.empty(0)) if h is None else h.lookup(np.concatenate(z_tau))
    counts = np.bincount(taus) if len(taus) else np.zeros(1, dtype=np.int64)
    return counts, np.array([xis.sum(), (xis**2).sum(), hz.sum(), (hz**2).sum()]), outside


class _CompactionSpy:
    """numpy for the montecarlo module, recording the (crossings, live paths)
    of each step that takes its survivors by index."""

    def __init__(self):
        self.dense = []

    def __getattr__(self, name):
        return getattr(np, name)

    def logical_not(self, crossed, out):
        self.dense.append((int(crossed.sum()), len(crossed)))
        return np.logical_not(crossed, out=out)


def _numpy_steps(size: int, counts) -> list[tuple[int, int]]:
    """(crossings, live paths) of each numpy step with crossings, in a block
    of size paths with the tau histogram counts."""
    steps, alive = [], size
    for c in counts[1:].tolist():
        if alive <= montecarlo._FLOAT_TAIL:
            break
        if c:
            steps.append((c, alive))
        alive -= c
    return steps


@pytest.mark.parametrize("with_nodes", [False, "h"], ids=["plain", "h"])
@pytest.mark.parametrize(
    "p,n_paths,kwargs",
    [
        (GAUSS, 20_000, {}),  # 12-16% of the live paths cross a step
        (SLOW, 3000, {}),  # about 1%
        (PassageProblem(lam=0.5, x=0.0, a=1.0, spec=TwoPoint(1.0, -1.0, 0.5)), 5000, {}),
        (PassageProblem(lam=0.5, x=0.0, a=1.0, spec=CappedAbove(Gaussian(0.0, 1.0), 1.5)), 5000, {}),
        (PassageProblem(lam=0.5, x=0.0, a=1.0, spec=StableSpectrallyNegative(1.5, 1.0)), 5000, {}),
        (PassageProblem(lam=0.5, x=0.0, a=3.0, spec=Gaussian(0.3, 2.0)), 5000, {"max_steps": 4}),
        (GAUSS, 1000, {"block_size": 300}),
        # blocks of one path fewer than, as many as and one more than the
        # float tail: the first two step on Python floats from the start
        (SLOW, montecarlo._FLOAT_TAIL - 1, {}),
        (SLOW, montecarlo._FLOAT_TAIL, {}),
        (SLOW, montecarlo._FLOAT_TAIL + 1, {}),
        # 48 paths live from step 144; one crosses at the last step and 26 are censored
        (SLOW, 200, {"max_steps": 199}),
        # a quarter of the paths sit at the level after two steps, not above it
        (PassageProblem(lam=0.5, x=0.0, a=1.5, spec=TwoPoint(1.0, -1.0, 0.5)), 40, {}),
        (HALF, 5000, {}),
        (AT_THE_SHARE, 2000, {}),
    ],
    ids=[
        "flagship", "slow-mixing", "two-point", "capped", "stable", "censored", "ragged-blocks",
        "float-tail-below", "float-tail-at", "float-tail-above", "censored-float-tail",
        "at-the-level", "half-cross", "at-the-dense-share",
    ],
)
def test_kernel_matches_the_step_by_step_reference(monkeypatch, p, n_paths, kwargs, with_nodes):
    if with_nodes == "h" and isinstance(p.spec, StableSpectrallyNegative):
        with pytest.raises(DivergenceError, match="partial MGF"):
            h_table(p)  # no h table for a stable law yet
        return
    if with_nodes == "h":
        kwargs = dict(kwargs, h=h_table(p))
    spy, histograms = _CompactionSpy(), {}

    def reference(p, block, size, max_steps, seed, h=None):
        out = _reference_run_block(p, block, size, max_steps, seed, h)
        histograms[block] = (size, out[0])
        return out

    runs = []
    for kernel, numpy in ((montecarlo._run_block, spy), (reference, np)):
        monkeypatch.setattr(montecarlo, "_run_block", kernel)
        monkeypatch.setattr(montecarlo, "np", numpy)
        sim = simulate_passage(p, n_paths, seed=5, **kwargs)
        runs.append(json.dumps(sim.to_dict(), sort_keys=True))
    assert runs[0] == runs[1]
    if with_nodes == "h":
        assert json.loads(runs[0])["h_mean"] is not None
    # the steps that took their survivors by index are exactly the dense ones
    steps = [step for size, counts in histograms.values() for step in _numpy_steps(size, counts)]
    dense = sorted(step for step in steps if step[0] >= montecarlo._DENSE_SHARE * step[1])
    assert sorted(spy.dense) == dense
    if p is HALF:
        assert spy.dense[0] == (2556, 5000)
    if p is AT_THE_SHARE:
        # both branches ran, and a step at exactly the share took the index
        assert (19, 304) in spy.dense and len(steps) - len(dense) == 17


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


#: Five 65,536-path identity-checks through cli.main in this process;
#: prints each one's minor page faults.
_FAULTS_PER_OP = """
import json, resource, sys
from ar1fpt import cli
faults = []
for _ in range(5):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(["identity-check", "--config", sys.argv[1], "--paths", "65536", "--out", sys.argv[2]]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the trim threshold is glibc's")
def test_blocks_fault_no_pages_in_once_warm(tmp_path):
    # a 32,768-path block's allocations peak at 1.5 MB on the flagship and
    # 1.8 MB on the two-point law; were the heap's top handed back to the
    # system, the next block would fault its pages in anew, some 760 to 790
    # minor faults an op on the flagship and 1,340 to 1,500 on the two-point
    # law.  Fresh processes, because a test process's
    # earlier allocations have already raised glibc's trim threshold; where
    # the heap's top falls varies between processes, and without a guard the
    # two-point op faults in about two of three, so it runs in three
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), FPT_THREADS="1")
    flagship = {"name": "gaussian", "m": 0, "var": 1}
    two_point = {"name": "two_point", "h_up": 1, "h_down": -1, "p": 0.5}
    for family, seed in [(flagship, 104)] + [(two_point, 0)] * 3:
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"family": family, "lambda": 0.5, "x": 0, "a": 1, "seed": seed}))
        argv = [sys.executable, "-c", _FAULTS_PER_OP, str(cfg), str(tmp_path / "out")]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        faults = json.loads(proc.stdout.splitlines()[-1])
        # two ops grow the heap to its working size; the next three fault no page in
        assert sum(faults[2:]) < 100, (family["name"], faults)


def test_overshoot_sums_that_overflow_across_blocks_read_null():
    # each block's sum of squares is 1e308, finite; their fold is not
    p = PassageProblem(lam=0.5, x=0.0, a=0.0, spec=Deterministic(1e153))
    out = simulate_passage(p, n_paths=200, block_size=100).to_dict()
    assert out["overshoot_std_err"] is None and math.isfinite(out["overshoot_mean"])


def test_survival_points_lie_within_their_standard_errors():
    p = PassageProblem(lam=0.5, x=0.0, a=1.0, spec=TwoPoint(1.0, -1.0, 0.5))
    sim = simulate_passage(p, n_paths=20_000, seed=3)
    # enumeration's live states double a step: 20 steps end near 18,000
    exact = reference.discrete_survival(list(p.spec.pairs), p.lam, p.x, p.a, 20)
    got, se = sim.survival_p[:21], sim.survival_std_err[:21]
    assert np.all(np.abs(got - exact) <= 5.0 * se + 1.0 / sim.n_paths)
    at_edge = (sim.survival_p == 0.0) | (sim.survival_p == 1.0)
    assert at_edge.any() and np.all(sim.survival_std_err[at_edge] == 0.0)


def test_seed_changes_results():
    a = simulate_passage(GAUSS, n_paths=5000, max_steps=1000, seed=1)
    b = simulate_passage(GAUSS, n_paths=5000, max_steps=1000, seed=2)
    assert a.e_tau_hat != b.e_tau_hat


def test_partial_final_block_handled(monkeypatch):
    sizes, run = [], montecarlo._run_block

    def run_block(p, block, size, max_steps, seed, h=None):
        sizes.append((block, size))
        return run(p, block, size, max_steps, seed, h)

    monkeypatch.setattr(montecarlo, "_run_block", run_block)
    monkeypatch.setenv("FPT_THREADS", "1")
    n_paths = montecarlo.BLOCK_SIZE + 7
    sim = simulate_passage(GAUSS, n_paths=n_paths, max_steps=1000, seed=0)
    # one full block, then the remainder
    assert sizes == [(0, montecarlo.BLOCK_SIZE), (1, 7)]
    assert sim.n_paths == n_paths
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
