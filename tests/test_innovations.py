"""Innovation families: cumulants, samplers, truncations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from ar1fpt import (
    CappedAbove,
    Deterministic,
    Discrete,
    FlooredPositive,
    Gaussian,
    InfeasibleTruncationError,
    LimitCumulant,
    StableSpectrallyNegative,
    Truncated,
    TwoPoint,
    UnsupportedSamplerError,
    psi,
    sample,
    truncate_cap_above,
    truncate_floor_positive,
)

RNG = lambda s=0: np.random.default_rng(s)


# -- cumulant closed forms ---------------------------------------------------


def test_gaussian_psi_closed_form():
    g = Gaussian(0.3, 2.0)
    u = np.linspace(0.0, 10.0, 21)
    expected = 0.3 * u + 0.5 * 2.0 * u**2
    np.testing.assert_allclose(psi(g, u), expected, rtol=1e-14)


def test_deterministic_psi():
    d = Deterministic(1.5)
    u = np.linspace(0.0, 5.0, 11)
    np.testing.assert_allclose(psi(d, u), 1.5 * u, rtol=1e-14)


def test_two_point_psi():
    tp = TwoPoint(1.0, -1.0, 0.5)
    u = np.linspace(0.0, 20.0, 41)
    expected = np.log(0.5 * np.exp(u) + 0.5 * np.exp(-u))
    np.testing.assert_allclose(psi(tp, u), expected, rtol=1e-12)


def test_stable_psi_signs():
    heavy = StableSpectrallyNegative(1.5, 1.0, 0.0)  # alpha > 1: +C u^alpha
    light = StableSpectrallyNegative(0.7, 1.0, 0.0)  # alpha < 1: -C u^alpha
    assert math.isclose(float(psi(heavy, 2.0)), 2.0**1.5, rel_tol=1e-12)
    assert math.isclose(float(psi(light, 2.0)), -(2.0**0.7), rel_tol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    m=st.floats(-2, 2),
    var=st.floats(0.1, 4),
    u=st.floats(0, 30),
)
def test_gaussian_psi_zero_and_convex(m, var, u):
    g = Gaussian(m, var)
    assert float(psi(g, 0.0)) == 0.0
    # midpoint convexity on [0, u]
    half = float(psi(g, 0.5 * u))
    assert half <= 0.5 * (float(psi(g, 0.0)) + float(psi(g, u))) + 1e-9


def test_gaussian_partial_mgf_matches_quadrature():
    g = Gaussian(0.2, 1.3)
    sigma = math.sqrt(1.3)
    for u, t in [(0.5, 1.0), (2.0, 0.0), (5.0, 2.5)]:
        ref, _ = integrate.quad(
            lambda x: math.exp(u * x) * stats.norm.pdf(x, 0.2, sigma),
            -40.0,
            t,
        )
        got = g.log_partial_mgf_below(u, t)
        assert math.isclose(got, math.log(ref), rel_tol=1e-8)


# -- samplers ----------------------------------------------------------------


def test_gaussian_sampler_moments():
    draws = sample(Gaussian(0.5, 2.0), RNG(1), 200_000)
    assert abs(draws.mean() - 0.5) < 0.02
    assert abs(draws.var() - 2.0) < 0.05


def test_stable_alpha_two_is_gaussian():
    # alpha = 2 with scale C is Gaussian with variance 2C
    s = StableSpectrallyNegative(2.0, 0.5, 0.0)
    draws = sample(s, RNG(2), 200_000)
    assert abs(draws.mean()) < 0.02
    assert abs(draws.var() - 1.0) < 0.05
    ks = stats.kstest(draws[:20_000], "norm")
    assert ks.pvalue > 0.01


def test_stable_heavy_tail_sampler_matches_cdf():
    s = StableSpectrallyNegative(1.5, 1.0, 0.0)
    draws = sample(s, RNG(3), 50_000)
    ks = stats.kstest(draws, lambda x: s.cdf(x))
    assert ks.pvalue > 0.01


def test_stable_alpha_below_one_sampler_unsupported():
    s = StableSpectrallyNegative(0.7, 1.0, 0.0)
    with pytest.raises(UnsupportedSamplerError):
        sample(s, RNG(0), 10)


def test_two_point_sampler_stream_pinned():
    # the inverse-CDF sampler consumes one uniform per draw, upper atom first
    draws = sample(TwoPoint(1.0, -2.0, 0.25), RNG(5), 10_000)
    expected = np.where(RNG(5).random(10_000) < 0.25, 1.0, -2.0)
    np.testing.assert_array_equal(draws, expected)


def test_two_point_sampler_exact_support():
    tp = TwoPoint(1.0, -2.0, 0.25)
    draws = sample(tp, RNG(4), 50_000)
    assert set(np.unique(draws)) == {1.0, -2.0}
    assert abs((draws == 1.0).mean() - 0.25) < 0.01


# -- truncations -------------------------------------------------------------


def test_cap_sampling_is_coupled_min():
    base = Gaussian(0.0, 1.0)
    capped = CappedAbove(base, 0.7)
    a = sample(base, RNG(7), 10_000)
    b = sample(capped, RNG(7), 10_000)
    np.testing.assert_allclose(b, np.minimum(a, 0.7), rtol=0, atol=0)


@settings(max_examples=25, deadline=None)
@given(u=st.floats(0.0, 20.0), cap=st.floats(-1.0, 3.0))
def test_capped_psi_below_base_psi(u, cap):
    base = Gaussian(0.1, 1.0)
    capped = truncate_cap_above(base, cap)
    assert float(psi(capped, u)) <= float(psi(base, u)) + 1e-9


def test_cap_beyond_support_is_noop():
    tp = TwoPoint(1.0, -1.0, 0.5)
    assert truncate_cap_above(tp, 5.0) == tp


def test_cap_discrete_merges_atoms():
    tp = TwoPoint(1.0, -1.0, 0.5)
    capped = truncate_cap_above(tp, 0.0)
    # both atoms map to {0, -1}: still a two-point law
    atoms = dict(capped.atoms())
    assert atoms == {0.0: 0.5, -1.0: 0.5}


def test_floor_positive_atom_mass():
    fl = truncate_floor_positive(Gaussian(0.0, 1.0), 1.0)
    assert isinstance(fl, Truncated)
    assert math.isclose(fl.point_mass(1.0), 1.0 - stats.norm.cdf(1.0), rel_tol=1e-12)
    draws = sample(fl, RNG(8), 50_000)
    pos = draws[draws > 0]
    assert np.all(pos == 1.0)
    assert abs((draws == 1.0).mean() - fl.point_mass(1.0)) < 0.01


def test_floored_tail_counts_the_mass_moved_to_zero():
    # P(eta~ > -1) = P(eta > -1): eta~ >= 0 wherever eta > 0
    fl = FlooredPositive(Gaussian(0.0, 1.0), 1.0)
    assert math.isclose(fl.tail_prob(-1.0), special.ndtr(1.0), rel_tol=1e-12)
    assert math.isclose(fl.tail_prob(0.5), special.ndtr(-1.0), rel_tol=1e-12)
    assert fl.tail_prob(1.0) == 0.0


@pytest.mark.parametrize(
    "base",
    [FlooredPositive(Gaussian(0.0, 1.0), 1.0), CappedAbove(Gaussian(0.0, 1.0), 1.0)],
    ids=["floored", "capped"],
)
def test_floor_counts_base_atom_at_level(base):
    # the base's only mass at or above 1 is its atom at 1: P(eta >= 1) = 0.1587
    nested = truncate_floor_positive(base, 1.0)
    assert isinstance(nested, Truncated)
    assert math.isclose(nested.point_mass(1.0), special.ndtr(-1.0), rel_tol=1e-12)
    single = FlooredPositive(Gaussian(0.0, 1.0), 1.0)
    u = np.array([0.0, 0.5, 2.0, 5.0])
    np.testing.assert_allclose(psi(nested, u), psi(single, u), rtol=1e-12)


def test_floor_positive_infeasible_when_no_mass():
    with pytest.raises(InfeasibleTruncationError):
        truncate_floor_positive(Deterministic(1.0), 2.0)


def test_floored_psi_oracle_two_point():
    # TwoPoint(2, -1, 0.4) floored at 1.5: positive branch keeps its mass at
    # the 2 >= 1.5 atom remapped to 1.5
    fl = truncate_floor_positive(TwoPoint(2.0, -1.0, 0.4), 1.5)
    u = 1.3
    expected = math.log(0.4 * math.exp(1.5 * u) + 0.6 * math.exp(-u))
    assert math.isclose(float(psi(fl, u)), expected, rel_tol=1e-12)


def test_floored_partial_mgf_three_ranges():
    base = Gaussian(0.0, 1.0)
    fl = FlooredPositive(base, 1.0)
    u = np.array([0.0, 0.7, 3.0])
    moved = stats.norm.cdf(1.0) - 0.5  # P(0 < eta < 1), mapped to 0
    np.testing.assert_allclose(
        fl.log_partial_mgf_below(u, -0.5), base.log_partial_mgf_below(u, -0.5), rtol=1e-14
    )
    np.testing.assert_allclose(
        fl.log_partial_mgf_below(u, 0.5),
        np.log(np.exp(base.log_partial_mgf_below(u, 0.0)) + moved),
        rtol=1e-12,
    )
    np.testing.assert_allclose(fl.log_partial_mgf_below(u, 1.0), psi(fl, u), rtol=1e-14)


def test_nested_floor_psi_matches_three_piece_sum():
    # floor 1 then floor 0.55: eta on eta <= 0, 0 on (0, 1), 0.55 on [1, inf)
    nested = truncate_floor_positive(FlooredPositive(Gaussian(0.0, 1.0), 1.0), 0.55)
    for u in (0.0, 0.5, 2.0, 5.0, 12.0):
        below = math.exp(0.5 * u * u) * special.ndtr(-u)  # E[e^{u eta}; eta <= 0]
        middle = special.ndtr(1.0) - 0.5
        top = special.ndtr(-1.0) * math.exp(0.55 * u)
        assert math.isclose(float(psi(nested, u)), math.log(below + middle + top), rel_tol=1e-12, abs_tol=1e-15)


# -- Discrete with random atoms ----------------------------------------------


@st.composite
def discrete_laws(draw):
    values = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4, unique=True))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(values), max_size=len(values))))
    return list(zip(values, weights / weights.sum()))


def _direct_map(atoms, f):
    out: dict[float, float] = {}
    for a, p in atoms:
        out[f(a)] = out.get(f(a), 0.0) + p
    return out


@settings(max_examples=40, deadline=None)
@given(atoms=discrete_laws(), u=st.floats(0.0, 20.0))
def test_discrete_psi_is_log_sum_exp(atoms, u):
    vals, probs = np.array(atoms).T
    direct = special.logsumexp(u * vals, b=probs)
    assert math.isclose(float(psi(Discrete(tuple(atoms)), u)), direct, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=40, deadline=None)
@given(atoms=discrete_laws(), u=st.floats(0.0, 20.0), lam=st.sampled_from((0.3, 0.5, 0.9)))
def test_discrete_functional_equation(atoms, u, lam):
    spec = Discrete(tuple(atoms))
    lc = LimitCumulant(spec, lam)
    resid = lc.phi(u)[0] - lc.phi(lam * u)[0] - float(psi(spec, u))
    assert abs(resid) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(atoms=discrete_laws(), level=st.floats(0.05, 3.0))
def test_discrete_cap_and_floor_are_atom_maps(atoms, level):
    spec = Discrete(tuple(atoms))
    capped = truncate_cap_above(spec, level)
    want = _direct_map(atoms, lambda a: min(a, level))
    got = dict(capped.atoms())
    assert got.keys() == want.keys()
    assert all(math.isclose(got[k], want[k], rel_tol=1e-12) for k in want)
    assert [a for a, _ in capped.atoms()] == sorted(want, reverse=True)

    want = _direct_map(atoms, lambda a: a if a <= 0 else (level if a >= level else 0.0))
    if level not in want:
        with pytest.raises(InfeasibleTruncationError):
            truncate_floor_positive(spec, level)
        return
    got = dict(truncate_floor_positive(spec, level).atoms())
    assert got.keys() == want.keys()
    assert all(math.isclose(got[k], want[k], rel_tol=1e-12) for k in want)


# -- partial expectations ----------------------------------------------------


@pytest.mark.parametrize(
    "m,var,t",
    [
        (0.0, 1.0, 0.3),
        (1.0, 4.0, -1.0),
        (0.5, 2.0, 0.5 + 10.0 * math.sqrt(2.0)),  # z = 10: past the midpoint of the nodes
        (0.0, 1.0, 20.0),  # z = 20: every Gauss-Hermite node below t
        (0.0, 1.0, -8.0),
        (5.0, 1e-12, 0.0),
        (-5.0, 1e-12, 0.0),
    ],
)
def test_gaussian_expectation_below_matches_closed_form(m, var, t):
    g = Gaussian(m, var)
    s = math.sqrt(var)
    z = (t - m) / s
    mass = g.expectation_below(np.ones_like, t)
    first = g.expectation_below(lambda e: e, t)
    assert math.isclose(mass, special.ndtr(z), rel_tol=1e-9, abs_tol=1e-12)
    want = m * special.ndtr(z) - s * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    assert math.isclose(first, want, rel_tol=1e-9, abs_tol=1e-12)


@st.composite
def truncated_laws(draw):
    kind = draw(st.sampled_from(("discrete", "capped", "floored", "floored_capped")))
    if kind == "discrete":
        return Discrete(tuple(draw(discrete_laws())))
    base = Gaussian(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.1, 4.0)))
    level = draw(st.floats(0.1, 3.0))
    if kind == "capped":
        return CappedAbove(base, level)
    if kind == "floored":
        return FlooredPositive(base, level)
    return FlooredPositive(CappedAbove(base, level + draw(st.floats(0.0, 1.0))), level)


@settings(max_examples=60, deadline=None)
@given(spec=truncated_laws(), u=st.floats(0.0, 3.0), t=st.floats(-3.0, 4.0))
def test_expectation_below_matches_partial_mgf(spec, u, t):
    got = spec.expectation_below(lambda e: np.exp(u * e), t)
    want = math.exp(float(spec.log_partial_mgf_below(u, t)))
    if want > 1e-6:
        assert abs(got - want) <= 1e-8 * want


@settings(max_examples=40, deadline=None)
@given(spec=truncated_laws().filter(lambda s: isinstance(s, Truncated)))
def test_truncated_psi_is_mean_times_u_near_zero(spec):
    # psi(u)/u -> mean: the log form alone rounds to 1e-16 absolute noise
    m = spec.mean()
    for u in (1e-20, 1e-12, 1e-8):
        assert abs(float(psi(spec, u)) / u - m) <= 1e-6 * (1.0 + abs(m))


def test_truncated_moments_come_from_the_expectation():
    # the whole mass sits 5000 sd below the cap
    assert math.isclose(CappedAbove(Gaussian(-5.0, 1e-6), 0.0).mean(), -5.0, rel_tol=1e-12)
    capped = CappedAbove(TwoPoint(1.0, -1.0, 0.5), 0.5)
    assert math.isclose(capped.mean(), -0.25, rel_tol=1e-15)
    assert math.isclose(capped.var(), 0.5625, rel_tol=1e-15)
    # E[eta; eta <= 0] + P(eta >= 1) for a standard normal floored at 1
    floored = FlooredPositive(Gaussian(0.0, 1.0), 1.0)
    want = -1.0 / math.sqrt(2.0 * math.pi) + special.ndtr(-1.0)
    assert math.isclose(floored.mean(), want, rel_tol=1e-9)
    # truncation above keeps the heavy left tail: no variance
    assert CappedAbove(StableSpectrallyNegative(1.5, 1.0), 1.0).var() is None
