"""Tests of the benchmark's own references (numpy only, no ar1fpt).

    python3 -m pytest bench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference

TWO_POINT = [(1.0, 0.5), (-1.0, 0.5)]


@pytest.mark.parametrize(
    "lam, a, e_tau, n_max",
    [(0.5, 1.0, 7.51708, 200), (0.9, 4.0, 100.994, 1500)],
)
def test_nystrom_grid_refinement(lam, a, e_tau, n_max):
    coarse = reference.GaussianPassage(lam, a, 0.0)
    fine = reference.GaussianPassage(lam, a, 0.0, panel_width=0.5, order=20)
    assert abs(coarse.e_tau() - fine.e_tau()) < 1e-8
    assert np.max(np.abs(coarse.survival(n_max) - fine.survival(n_max))) < 1e-8
    assert round(coarse.e_tau(), 5 if lam == 0.5 else 3) == e_tau


def test_nystrom_survival_sums_to_e_tau():
    ref = reference.GaussianPassage(0.5, 1.0, 0.0)
    surv = ref.survival(400)
    assert surv[0] == 1.0 and np.all(np.diff(surv) <= 0.0)
    assert abs(math.fsum(surv) - ref.e_tau()) < 1e-9


def test_deterministic_passage_exact():
    # X = 0, 1, 1.5, 1.75, ...: the level 1.5 is first exceeded at n = 3
    surv = reference.discrete_survival([(1.0, 1.0)], 0.5, 0.0, 1.5, 8)
    assert surv.tolist() == [1.0, 1.0, 1.0] + [0.0] * 6
    assert reference.discrete_e_tau_bracket([(1.0, 1.0)], 0.5, 0.0, 1.5, 8) == (3.0, 3.0)


def test_two_point_enumeration_first_steps():
    # from 0: up reaches 1 (not above 1), down -1; two ups in a row cross
    surv = reference.discrete_survival(TWO_POINT, 0.5, 0.0, 1.0, 3)
    assert surv.tolist() == [1.0, 1.0, 0.75, 0.625]
    lo, hi = reference.discrete_e_tau_bracket(TWO_POINT, 0.5, 0.0, 1.0, 22)
    assert lo < hi < lo + 0.5


def test_phi_direct_matches_closed_forms():
    lam = 0.5
    for u in (0.0, 1e-7, 0.0137, 3.0, 40.0):
        # a single atom c: phi(u) = c u / (1 - lam)
        phi, _ = reference.phi_direct(reference.Atoms([(1.5, 1.0)]), lam, u)
        assert abs(phi - 1.5 * u / (1.0 - lam)) < 1e-14 * (1.0 + phi)
        # a cap far above the mass leaves phi = m u / (1 - lam) + v u^2 / (2 (1 - lam^2))
        phi, _ = reference.phi_direct(reference.CappedGaussian(0.5, 2.0, 1e3), lam, u)
        exact = 0.5 * u / (1.0 - lam) + 2.0 * u * u / (2.0 * (1.0 - lam * lam))
        assert abs(phi - exact) < 1e-14 * (1.0 + phi)


def test_capped_gaussian_moments():
    fam = reference.CappedGaussian(0.0, 1.0, 1.5)
    # E min(Z, 1.5) = -phi(1.5) + 1.5 P(Z > 1.5), with both values by hand
    assert abs(fam.mean - (-0.12951759566589174 + 1.5 * 0.0668072012688581)) < 1e-15
    # the cumulants are the slope and curvature of psi at 0
    h = 1e-4
    slope = (fam.psi(h) - fam.psi(-h)) / (2 * h)
    curve = (fam.psi(h) - 2 * fam.psi(0.0) + fam.psi(-h)) / (h * h)
    assert abs(slope - fam.mean) < 1e-8 and abs(curve - fam.var) < 1e-6


def test_log_ndtr_asymptotic_branch_joins_erfc():
    for z in (-20.0, -25.0, -30.0):
        direct = math.log(0.5 * math.erfc(-z / math.sqrt(2.0)))
        assert abs(reference._log_ndtr(z - 1e-12) - direct) < 1e-12 * abs(direct)
        assert abs(reference._log_ndtr(z) - direct) < 1e-12 * abs(direct)
