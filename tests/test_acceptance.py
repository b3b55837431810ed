"""Acceptance gate: one test per criterion, at the pinned tolerances.

Each test prints a single PASS line with the measured quantity so the
pytest -v log doubles as the acceptance report.
"""

import json
import math

import numpy as np
import pytest
from scipy import stats

from ar1fpt import (
    CappedAbove,
    Deterministic,
    FlooredPositive,
    Gaussian,
    LimitCumulant,
    PassageProblem,
    StableSpectrallyNegative,
    TwoPoint,
    check_functional_equation,
    check_harmonic,
    exponential_certificate,
    feasibility_report,
    h_table,
    identity_estimate,
    lower_bound_e_tau,
    simulate_passage,
    simulate_stationary,
    upper_bound_e_tau,
)

FLAGSHIP = PassageProblem(lam=0.5, x=0.0, a=1.0, spec=Gaussian(0.0, 1.0))
FLAGSHIP_SEED = 20260824
Z99_ONE_SIDED = 2.3263478740408408


@pytest.fixture(scope="module")
def flagship_run():
    table = h_table(FLAGSHIP)
    sim = simulate_passage(
        FLAGSHIP,
        n_paths=10**6,
        max_steps=10**6,
        seed=FLAGSHIP_SEED,
        h=table,
    )
    return table, sim


def test_criterion_01_series_matches_closed_form():
    worst = 0.0
    for lam in (0.3, 0.5, 0.9):
        lc = LimitCumulant(Gaussian(0.0, 1.0), lam)
        for u in np.linspace(0.0, 50.0, 51):
            worst = max(worst, abs(lc.phi(float(u))[0] - lc.series(float(u))[0]))
    assert worst < 1e-10
    print(f"PASS criterion 1: series vs closed form, max |delta| = {worst:.3e} < 1e-10")


def test_criterion_02_functional_equation_all_families():
    families = [
        Gaussian(0.0, 1.0),
        Deterministic(1.0),
        TwoPoint(1.0, -1.0, 0.5),
        StableSpectrallyNegative(1.5, 1.0, 0.0),
        StableSpectrallyNegative(0.7, 1.0, 0.0),
        CappedAbove(Gaussian(0.0, 1.0), 1.0),
        FlooredPositive(Gaussian(0.0, 1.0), 1.0),
    ]
    grid = np.linspace(0.0, 50.0, 26)
    worst = 0.0
    for lam in (0.3, 0.5, 0.9):
        for spec in families:
            worst = max(worst, check_functional_equation(LimitCumulant(spec, lam), grid))
    assert worst < 1e-8
    print(f"PASS criterion 2: functional equation, max residual = {worst:.3e} < 1e-8")


def test_criterion_03_harmonicity_suite():
    configs = [Gaussian(0.0, 1.0), TwoPoint(1.0, -1.0, 0.5), Deterministic(1.0)]
    worst = 0.0
    for spec in configs:
        lc = LimitCumulant(spec, 0.5)
        a_dom = spec.upper_support()
        a_dom = a_dom / (1.0 - 0.5) if a_dom is not None else 2.0
        for y in (-2.0, 0.0, 0.5 * a_dom):
            for v in (0.5, 1.0, 2.0):
                worst = max(worst, check_harmonic(lc, "N", y=y, v=v))
            worst = max(worst, check_harmonic(lc, "H", y=y))
            for v in (-0.1, -0.4):
                worst = max(worst, check_harmonic(lc, "W", y=y, v=v))
    assert worst < 1e-6
    print(f"PASS criterion 3: harmonicity, max residual = {worst:.3e} < 1e-6")


def test_criterion_04_deterministic_identity_exact():
    p = PassageProblem(lam=0.5, x=0.0, a=1.5, spec=Deterministic(1.0))
    table = h_table(p)
    sim = simulate_passage(p, n_paths=4096, max_steps=50, seed=1, h=table)
    assert sim.n_crossed == sim.n_paths
    assert sim.e_tau_hat == 3.0 and sim.e_tau_std_err == 0.0
    value, _ = identity_estimate(p, sim, table)
    assert abs(value - 3.0) < 1e-8
    print(
        f"PASS criterion 4: deterministic identity = {value!r} "
        f"(|delta| = {abs(value - 3.0):.3e} < 1e-8), simulated tau == 3"
    )


def test_criterion_05_flagship_identity_cross_check(flagship_run):
    table, sim = flagship_run
    assert sim.n_censored == 0
    value, std_err = identity_estimate(FLAGSHIP, sim, table)
    combined = math.hypot(std_err, sim.e_tau_std_err)
    diff = abs(value - sim.e_tau_hat)
    assert diff <= 3.0 * combined
    print(
        f"PASS criterion 5: flagship identity {value:.4f} vs MC {sim.e_tau_hat:.4f}, "
        f"|delta| = {diff:.4f} <= 3 x combined SE = {3 * combined:.4f}, 0 censored"
    )


def test_criterion_06_bound_sandwich(flagship_run):
    _, sim = flagship_run
    msgs = []
    for p, mc, se in [
        (FLAGSHIP, sim.e_tau_hat, sim.e_tau_std_err),
        (None, None, None),
    ]:
        if p is None:
            p = PassageProblem(lam=0.5, x=0.0, a=1.0, spec=TwoPoint(1.0, -1.0, 0.5))
            tp_sim = simulate_passage(p, n_paths=200_000, max_steps=10**5, seed=2)
            mc, se = tp_sim.e_tau_hat, tp_sim.e_tau_std_err
        lower, _ = lower_bound_e_tau(p)
        upper, _ = upper_bound_e_tau(p, h_cap=4.0)
        allowance = Z99_ONE_SIDED * se
        assert lower <= mc + allowance, (lower, mc)
        assert mc - allowance <= upper, (mc, upper)
        msgs.append(f"{type(p.spec).__name__}: {lower:.3f} <= {mc:.3f} <= {upper:.3f}")
    print(f"PASS criterion 6: bound sandwich holds ({'; '.join(msgs)})")


def test_criterion_07_exponential_certificate():
    cert = exponential_certificate(FLAGSHIP)
    assert cert.alpha > 0
    sim = simulate_passage(FLAGSHIP, n_paths=10**6, max_steps=10**4, seed=314159)
    p_hat = sim.survival_p
    allowance = Z99_ONE_SIDED * np.sqrt(
        np.maximum(p_hat * (1.0 - p_hat), 1e-12) / sim.n_paths
    )
    bound = cert.survival_bound(sim.survival_n)
    assert np.all(p_hat <= bound + allowance)
    print(
        f"PASS criterion 7: certificate alpha = {cert.alpha:.3e} > 0, "
        f"c = {cert.c_bound:.3f}, dominates the empirical survival curve "
        f"at all {len(p_hat)} points (99% allowance)"
    )


def test_criterion_08_floored_slope():
    fl = FlooredPositive(Gaussian(0.0, 1.0), 1.0)
    lc = LimitCumulant(fl, 0.5)
    probes = np.array([1e2, 1e3, 1e4])
    slopes = lc.phi(probes)[0] / probes
    gap = abs(slopes[-1] - 2.0)
    assert gap < 0.02
    delta_over_u = lc.y_adm - slopes
    assert np.all(delta_over_u >= 0.0)
    assert np.all(np.diff(delta_over_u) <= 0.0)
    print(
        f"PASS criterion 8: floored slope |phi(1e4)/1e4 - 2| = {gap:.3e} < 0.02, "
        f"delta/u nonnegative and nonincreasing {np.round(delta_over_u, 6).tolist()}"
    )


def test_criterion_09_stationary_law():
    n = 10**6
    theta = simulate_stationary(Gaussian(0.0, 1.0), 0.5, n, seed=4)
    var_ref = 4.0 / 3.0
    mean_tol = 3.0 * math.sqrt(var_ref) / 1e3
    assert abs(theta.mean()) < mean_tol
    assert abs(theta.var() / var_ref - 1.0) < 0.01
    theta2 = simulate_stationary(Gaussian(0.0, 1.0), 0.5, n, seed=5)
    eta = Gaussian(0.0, 1.0).sample(np.random.default_rng(6), n)
    ks = stats.ks_2samp(theta, 0.5 * theta2 + eta)
    assert ks.pvalue > 0.01
    print(
        f"PASS criterion 9: stationary mean {theta.mean():.2e} (tol {mean_tol:.2e}), "
        f"var {theta.var():.4f} vs 4/3, KS fixed-point p = {ks.pvalue:.3f} > 0.01"
    )


def test_criterion_10_certain_infinite_detection():
    p = PassageProblem(lam=0.5, x=0.0, a=3.0, spec=Deterministic(1.0))
    rep = feasibility_report(p)
    assert rep.certain_infinite
    sim = simulate_passage(p, n_paths=2000, max_steps=500, seed=7)
    assert sim.n_censored == sim.n_paths
    print(
        "PASS criterion 10: certain-infinite configuration detected, "
        f"{sim.n_censored}/{sim.n_paths} paths censored"
    )


def test_criterion_11_thread_count_reproducibility(monkeypatch):
    blobs = {}
    for threads in ("1", "8"):
        monkeypatch.setenv("FPT_THREADS", threads)
        table = h_table(FLAGSHIP)
        sim5 = simulate_passage(
            FLAGSHIP,
            n_paths=10**6,
            max_steps=10**6,
            seed=FLAGSHIP_SEED,
            h=table,
        )
        value, std_err = identity_estimate(FLAGSHIP, sim5, table)
        sim7 = simulate_passage(FLAGSHIP, n_paths=10**6, max_steps=10**4, seed=314159)
        blobs[threads] = json.dumps(
            {
                "run5": sim5.to_dict(),
                "identity": [value, std_err],
                "run7": sim7.to_dict(),
            },
            sort_keys=True,
        )
    assert blobs["1"] == blobs["8"]
    print(
        "PASS criterion 11: FPT_THREADS in {1, 8} give byte-identical "
        "JSON numeric fields for the flagship and certificate runs"
    )
