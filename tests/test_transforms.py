"""Martingale transforms against closed-form oracles and harmonic equations."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from ar1fpt import (
    CappedAbove,
    Deterministic,
    Discrete,
    DivergenceError,
    FlooredPositive,
    Gaussian,
    LimitCumulant,
    PassageProblem,
    StableSpectrallyNegative,
    TwoPoint,
    check_harmonic,
    passage,
    quadrature,
    transform,
    transforms,
)

EULER_GAMMA = 0.5772156649015329

LC_DET = LimitCumulant(Deterministic(1.0), 0.5)  # phi(u) = 2u, theta = 2
LC_GAUSS = LimitCumulant(Gaussian(0.0, 1.0), 0.5)


# -- deterministic closed forms: phi = theta*u turns every transform into a
#    gamma/Frullani integral in s = theta - y -------------------------------


@pytest.mark.parametrize("y,v", [(0.0, 0.5), (1.0, 1.0), (1.5, 2.0), (-2.0, 0.5)])
def test_N_deterministic_gamma_oracle(y, v):
    s = 2.0 - y
    res = transform(LC_DET, "N", y, v)
    assert res.converged
    assert math.isclose(res.value, gamma(v) * s**-v, rel_tol=1e-9)


@pytest.mark.parametrize("y", [0.5, 1.0, 1.75, 1.99, -1.0])
def test_H_deterministic_frullani_oracle(y):
    res = transform(LC_DET, "H", y)
    assert res.converged
    oracle = math.log(2.0 / (2.0 - y)) / math.log(2.0)
    assert math.isclose(res.value, oracle, rel_tol=1e-9)


def test_H_at_zero_is_exactly_zero():
    res = transform(LC_DET, "H", 0.0)
    assert res.value == 0.0 and res.abs_err == 0.0 and res.converged


@pytest.mark.parametrize("y,v", [(1.0, -0.5), (0.5, -0.3), (1.5, -0.8), (-1.0, -0.5)])
def test_W_deterministic_gamma_oracle(y, v):
    s = 2.0 - y
    res = transform(LC_DET, "W", y, v)
    assert res.converged
    assert math.isclose(res.value, gamma(v) * s**-v, rel_tol=1e-8)


def test_C_deterministic_euler_gamma():
    # s = 1: C(y, 0) = -gamma - log s = -gamma
    res = transform(LC_DET, "C", 1.0, 0.0)
    assert res.converged
    assert math.isclose(res.value, -EULER_GAMMA, rel_tol=1e-9)


def test_W_equals_C_plus_reciprocal_order():
    v, y = -0.5, 1.0
    w = transform(LC_DET, "W", y, v)
    c = transform(LC_DET, "C", y, v)
    assert abs(w.value - (1.0 / v + c.value)) <= w.abs_err + c.abs_err + 1e-12


def test_N_gaussian_closed_form_at_zero():
    # N_1(0) = int e^{-b u^2} du = sqrt(pi/b)/2 with b = 1/(2(1 - lam^2))
    b = 1.0 / (2.0 * (1.0 - 0.25))
    res = transform(LC_GAUSS, "N", 0.0, 1.0)
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
        transform(LC_DET, "H", 2.5)
    with pytest.raises(DivergenceError):
        transform(LC_DET, "N", 2.5, 1.0)


def test_H_diverges_where_exp_minus_phi_underflows_at_every_node():
    # Gaussian(0, 1e300): phi(u) > 745 from the engine's first node on, so the
    # integrand's mass lies below it, and a zero there is no answer
    res = transform(LimitCumulant(Gaussian(0.0, 1e300), 0.5), "H", -1e300)
    assert not res.converged and res.tail_diagnostic == "diverged"
    assert math.isnan(res.value) and res.abs_err == math.inf
    # a tail call past u = 256, where e^{-phi} underflows at every node of a
    # capped law, still converges
    res = transform(LimitCumulant(CappedAbove(Gaussian(0.0, 1.0), 1.5), 0.5), "H", 2.999)
    assert res.converged and res.tail_diagnostic == "decayed"


def test_order_domain_validation():
    with pytest.raises(ValueError):
        transform(LC_DET, "N", 0.0, -1.0)
    with pytest.raises(ValueError):
        transform(LC_DET, "W", 0.0, 0.5)
    with pytest.raises(ValueError, match="unknown transform kind 'X'"):
        transform(LC_DET, "X", 0.0, 0.5)
    with pytest.raises(ValueError, match="unknown transform kind 'C'"):
        check_harmonic(LC_DET, "C", y=0.0, v=-0.5)


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
    res = transform(lc, "W", 0.0, -0.5)
    assert res.converged and res.tail_diagnostic == "decayed"


def test_truncated_W_batch_matches_single_states():
    # the states share every panel, so phi noise near 0 at one spoils all
    y = [-0.5, -3.0, -8.0, -15.0]
    batch = transform(LC_CAPPED, "W", y, -0.4)
    assert batch.converged.all()
    for yi, value, err in zip(y, batch.value, batch.abs_err):
        one = transform(LC_CAPPED, "W", yi, -0.4)
        assert one.converged
        assert abs(value - one.value) <= err + one.abs_err


# -- batch evaluator ---------------------------------------------------------


def test_batch_transform_matches_scalar_eval():
    # the batch against one-state calls
    y = np.array([-1.0, 0.0, 0.5, 1.5])
    for kind, v in (("N", 1.0), ("N", 0.5), ("H", None), ("W", -0.4)):
        got = transform(LC_DET, kind, y, v=v).value
        for i, yi in enumerate(y):
            ref = transform(LC_DET, kind, float(yi), v).value
            assert math.isclose(got[i], ref, rel_tol=1e-7, abs_tol=1e-9), (kind, yi)


def test_batch_transform_takes_one_order_per_state():
    # W_v(1) = gamma(v) * (2 - 1)**-v for the deterministic law
    v = np.array([-0.8, -0.5, -0.1, -1e-6])
    res = transform(LC_DET, "W", 1.0, v)
    assert res.converged.all() and res.value.shape == v.shape
    for vi, value in zip(v, res.value):
        assert math.isclose(value, gamma(vi), rel_tol=1e-8)
    y = np.array([-1.0, 0.5])
    grid = transform(LC_DET, "W", y[:, None], v[None, :])
    assert grid.value.shape == (2, 4)
    assert np.allclose(grid.value, gamma(v) * (2.0 - y[:, None]) ** -v, rtol=1e-8)


def test_batch_transform_rejects_out_of_domain_state():
    # the batch's domain is y < y_adm = 2; one state at the level rejects it
    assert transform(LC_DET, "H", np.array([0.0, 1.9])).converged.all()
    with pytest.raises(DivergenceError):
        transform(LC_DET, "H", np.array([0.0, 2.0]))


# -- phi's relative accuracy carried to orders near -1 ------------------------

#: Laws with a nonzero mean, whose phi is about mean*u/(1 - lam) near 0,
#: and the state of their harmonic check.
MEAN_LAWS = [
    (TwoPoint(2.0, -0.5, 0.3), 1.0),
    (Discrete(((1.5, 0.2), (0.3, 0.5), (-2.0, 0.3))), 1.0),
    (CappedAbove(Gaussian(0.0, 1.0), 1.5), 0.0),
]
MEAN_LAW_IDS = ["two-point", "three-atom", "capped"]


@pytest.mark.parametrize("kind", ["W", "C"])
@pytest.mark.parametrize("v", [-0.6, -0.9])
@pytest.mark.parametrize("spec,y", MEAN_LAWS, ids=MEAN_LAW_IDS)
def test_W_and_C_near_minus_one_lie_within_their_error_of_a_tight_evaluation(monkeypatch, spec, y, v, kind):
    # u**(v-1) weights phi's error near u = 0; a phi accurate relative to its
    # size keeps the engine's bar honest there
    lc = LimitCumulant(spec, 0.5)
    sd = math.sqrt(spec.var() / (1.0 - 0.25))
    ys = np.array([-1.0, y, lc.y_adm - 6.0 * sd, lc.y_adm - 0.25 * sd])
    res = transform(lc, kind, ys, v).require("W or C at the battery's states")
    monkeypatch.setattr(quadrature, "REL_TOL", 1e-13)
    ref = transform(LimitCumulant(spec, 0.5), kind, ys, v)
    assert ref.converged.all()
    assert np.all(np.abs(res.value - ref.value) <= res.abs_err)


#: The engine's transforms and orders: H, N at v = 1 and 0.3, W at v = -0.1, -0.5 and -0.8.
BAR_KINDS = [("H", None), ("N", 1.0), ("N", 0.3), ("W", -0.1), ("W", -0.5), ("W", -0.8)]


@pytest.mark.parametrize("lam", [0.3, 0.5, 0.8])
@pytest.mark.parametrize(
    "spec",
    [Gaussian(0.0, 1.0), TwoPoint(1.0, -1.0, 0.5), CappedAbove(Gaussian(0.0, 1.0), 1.5), MEAN_LAWS[1][0]],
    ids=["gauss", "two-point", "capped", "three-atom"],
)
def test_error_bars_cover_a_tight_evaluation(monkeypatch, spec, lam):
    # the default engine against one at REL_TOL 1e-13 and ABS_TOL 1e-16, whose
    # geometry differs (more bisection rounds): six states a transform, and
    # the certificate's scan of 64 orders at lam*a + cap for a = 1
    lc = LimitCumulant(spec, lam)
    sd = math.sqrt(spec.var() / (1.0 - lam**2))
    ys = np.linspace(-4.0, min(lc.y_adm - 0.25 * sd, 2.0), 6)
    p = PassageProblem(lam=lam, x=0.0, a=1.0, spec=spec)
    capped, h = passage._capped(p, max(p.a * (1.0 - lam), 0.0) + spec.scale())
    orders = -np.geomspace(0.5 * (1.0 - 1e-3), 1e-6, 64)
    batches = [(lc, kind, ys, v) for kind, v in BAR_KINDS] + [(capped, "W", lam * p.a + h, orders)]
    results = [transform(*batch) for batch in batches]
    monkeypatch.setattr(quadrature, "REL_TOL", 1e-13)
    monkeypatch.setattr(quadrature, "ABS_TOL", 1e-16)
    for res, batch in zip(results, batches):
        ref = transform(*batch)
        assert np.all(res.converged)
        assert np.all(np.abs(res.value - ref.value) <= res.abs_err + ref.abs_err)


@pytest.mark.parametrize("spec,y", MEAN_LAWS, ids=MEAN_LAW_IDS)
def test_harmonic_W_near_minus_one_on_laws_with_a_mean(spec, y):
    assert check_harmonic(LimitCumulant(spec, 0.5), "W", y=y, v=-0.9) < 1e-10


@pytest.mark.parametrize("kind,v", [("N", 1.0), ("H", None), ("W", -0.1)])
def test_stable_harmonic_check_fails_typed(kind, v):
    # no expectation over a stable law carries a checked error bar yet
    lc = LimitCumulant(StableSpectrallyNegative(1.5, 1.0), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError, match="no partial expectation") as exc:
            check_harmonic(lc, kind, y=0.0, v=v)
    assert exc.value.exit_code == 4


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["W", "C"]),
    ys=st.lists(st.floats(-6.0, 1.99), min_size=1, max_size=5),
    orders=st.lists(st.floats(-0.99, -0.01), min_size=1, max_size=5),
    per_state=st.booleans(),
    extra=st.lists(st.floats(1e-6, 300.0), max_size=30),
    shuffle=st.integers(0, 2**32 - 1),
)
def test_W_integrand_takes_expm1_on_the_head_columns_bit_for_bit(kind, ys, orders, per_state, extra, shuffle):
    # the integrand as the engine sees it, on nodes either side of u = 1 in any order
    lc = LimitCumulant(TwoPoint(1.0, -1.0, 0.5), 0.5)  # y_adm = 2
    y = np.array(ys)
    v = np.resize(orders, len(ys)) if per_state else orders[0]
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "improper_integral", lambda f, **kw: seen.append(f))
        transform(lc, kind, y, v)
    first = quadrature._first_panels(quadrature._HEAD_ORDER / (1.0 + min(orders)))[2].ravel()
    u = np.random.default_rng(shuffle).permutation(np.concatenate([first, extra, [1.0]]))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        got = seen[0](u)
        vs = v[:, None] if per_state else v
        expo = np.minimum(u * y[:, None] - lc.phi(u)[0], transforms._EXP_CLIP)
        want = np.where(u <= 1.0, np.expm1(expo), np.exp(expo)) * u ** (vs - 1.0)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
