"""Martingale transforms against closed-form oracles and harmonic equations."""

import math

import numpy as np
import pytest
from scipy.special import gamma

from ar1fpt import (
    CappedAbove,
    Deterministic,
    DivergenceError,
    FlooredPositive,
    Gaussian,
    LimitCumulant,
    StableSpectrallyNegative,
    TwoPoint,
    check_harmonic,
    eval_C,
    eval_H,
    eval_N,
    eval_W,
    transform,
)

EULER_GAMMA = 0.5772156649015329

LC_DET = LimitCumulant(Deterministic(1.0), 0.5)  # phi(u) = 2u, theta = 2
LC_GAUSS = LimitCumulant(Gaussian(0.0, 1.0), 0.5)


# -- deterministic closed forms: phi = theta*u turns every transform into a
#    gamma/Frullani integral in s = theta - y -------------------------------


@pytest.mark.parametrize("y,v", [(0.0, 0.5), (1.0, 1.0), (1.5, 2.0), (-2.0, 0.5)])
def test_N_deterministic_gamma_oracle(y, v):
    s = 2.0 - y
    res = eval_N(LC_DET, y, v)
    assert res.converged
    assert math.isclose(res.value, gamma(v) * s**-v, rel_tol=1e-9)


@pytest.mark.parametrize("y", [0.5, 1.0, 1.75, 1.99, -1.0])
def test_H_deterministic_frullani_oracle(y):
    res = eval_H(LC_DET, y)
    assert res.converged
    oracle = math.log(2.0 / (2.0 - y)) / math.log(2.0)
    assert math.isclose(res.value, oracle, rel_tol=1e-9)


def test_H_at_zero_is_exactly_zero():
    res = eval_H(LC_DET, 0.0)
    assert res.value == 0.0 and res.abs_err == 0.0


@pytest.mark.parametrize("y,v", [(1.0, -0.5), (0.5, -0.3), (1.5, -0.8), (-1.0, -0.5)])
def test_W_deterministic_gamma_oracle(y, v):
    s = 2.0 - y
    res = eval_W(LC_DET, y, v, delta=1.0)
    assert res.converged
    assert math.isclose(res.value, gamma(v) * s**-v, rel_tol=1e-8)


def test_C_deterministic_euler_gamma():
    # s = 1: C(y, 0) = -gamma - log s = -gamma
    res = eval_C(LC_DET, 1.0, 0.0)
    assert res.converged
    assert math.isclose(res.value, -EULER_GAMMA, rel_tol=1e-9)


def test_W_equals_C_plus_reciprocal_order():
    v, y = -0.5, 1.0
    w = eval_W(LC_DET, y, v)
    c = eval_C(LC_DET, y, v)
    assert abs(w.value - (1.0 / v + c.value)) <= w.abs_err + c.abs_err + 1e-12


def test_N_gaussian_closed_form_at_zero():
    # N_1(0) = int e^{-b u^2} du = sqrt(pi/b)/2 with b = 1/(2(1 - lam^2))
    b = 1.0 / (2.0 * (1.0 - 0.25))
    res = eval_N(LC_GAUSS, 0.0, 1.0)
    assert res.converged
    assert math.isclose(res.value, 0.5 * math.sqrt(math.pi / b), rel_tol=1e-9)


# -- integral convergence (condition 19): states below y_adm ----------------


def test_condition_19_gaussian_always_holds():
    for y in (-3.0, 0.0, 5.0):
        assert y < LC_GAUSS.y_adm


def test_condition_19_bounded_family_threshold():
    assert 1.9 < LC_DET.y_adm
    assert not 2.1 < LC_DET.y_adm


def test_condition_19_heavy_stable_needs_negative_state():
    lc = LimitCumulant(StableSpectrallyNegative(0.5, 1.0, 0.0), 0.5)
    assert -0.5 < lc.y_adm
    # the law lives on (-inf, 0], so y_adm = 0 and even y = 0 diverges
    assert not 0.0 < lc.y_adm
    assert not 1.0 < lc.y_adm


def test_transforms_raise_on_divergent_state():
    with pytest.raises(DivergenceError):
        eval_H(LC_DET, 2.5)
    with pytest.raises(DivergenceError):
        eval_N(LC_DET, 2.5, 1.0)


def test_order_domain_validation():
    with pytest.raises(ValueError):
        eval_N(LC_DET, 0.0, -1.0)
    with pytest.raises(ValueError):
        eval_W(LC_DET, 0.0, 0.5)
    with pytest.raises(ValueError):
        eval_W(LC_DET, 0.0, -0.9, delta=0.5)


# -- harmonic equations ------------------------------------------------------

LC_CAPPED = LimitCumulant(CappedAbove(Gaussian(0.0, 1.0), 1.0), 0.5)
HARMONIC_FAMILIES = [
    LC_GAUSS,
    LimitCumulant(TwoPoint(1.0, -1.0, 0.5), 0.5),
    LC_DET,
    LC_CAPPED,
    LimitCumulant(FlooredPositive(Gaussian(0.0, 1.0), 1.0), 0.5),
    # the capped base puts an atom exactly at the floor level
    LimitCumulant(FlooredPositive(CappedAbove(Gaussian(0.0, 1.0), 1.0), 1.0), 0.5),
]
HARMONIC_IDS = ["Gaussian", "TwoPoint", "Deterministic", "Capped", "Floored", "FlooredCapped"]


@pytest.mark.parametrize("lc", HARMONIC_FAMILIES, ids=HARMONIC_IDS)
@pytest.mark.parametrize("v", [0.5, 1.0, 2.0])
def test_harmonic_N(lc, v):
    for y in (-2.0, 0.0, 0.5):
        assert check_harmonic(lc, "N", y=y, v=v) < 1e-6


@pytest.mark.parametrize("lc", HARMONIC_FAMILIES, ids=HARMONIC_IDS)
def test_harmonic_H(lc):
    for y in (-2.0, 0.0, 0.5):
        assert check_harmonic(lc, "H", y=y) < 1e-6


@pytest.mark.parametrize("lc", HARMONIC_FAMILIES, ids=HARMONIC_IDS)
@pytest.mark.parametrize("v", [-0.1, -0.4])
def test_harmonic_W(lc, v):
    for y in (-2.0, 0.0, 0.5):
        assert check_harmonic(lc, "W", y=y, v=v) < 1e-6


@pytest.mark.parametrize("lc", HARMONIC_FAMILIES[3:5], ids=HARMONIC_IDS[3:5])
def test_truncated_W_converges_near_the_singular_order(lc):
    # the u**(v-1) weight amplifies any noise of phi near u = 0
    res = eval_W(lc, 0.0, -0.5)
    assert res.converged and res.tail_diagnostic == "decayed"


def test_truncated_W_batch_matches_single_states():
    # the states share every panel, so phi noise near 0 at one spoils all
    y = [-0.5, -3.0, -8.0, -15.0]
    batch = transform(LC_CAPPED, "W", y, -0.4)
    assert batch.converged.all()
    for yi, value, err in zip(y, batch.value, batch.abs_err):
        one = eval_W(LC_CAPPED, yi, -0.4)
        assert one.converged
        assert abs(value - one.value) <= err + one.abs_err


# -- batch evaluator ---------------------------------------------------------


def test_batch_transform_matches_scalar_eval():
    y = np.array([-1.0, 0.0, 0.5, 1.5])
    for kind, v in (("N", 1.0), ("N", 0.5), ("H", None), ("W", -0.4)):
        got = transform(LC_DET, kind, y, v=v).value
        for i, yi in enumerate(y):
            if kind == "N":
                ref = eval_N(LC_DET, float(yi), v).value
            elif kind == "H":
                ref = eval_H(LC_DET, float(yi)).value
            else:
                ref = eval_W(LC_DET, float(yi), v).value
            assert math.isclose(got[i], ref, rel_tol=1e-7, abs_tol=1e-9), (kind, yi)


def test_batch_transform_rejects_out_of_domain_state():
    # the batch's domain is y < y_adm = 2; one state at the level rejects it
    assert transform(LC_DET, "H", np.array([0.0, 1.9])).converged.all()
    with pytest.raises(DivergenceError):
        transform(LC_DET, "H", np.array([0.0, 2.0]))
