"""Innovation families: cumulants, samplers, truncations."""

import decimal
import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from ar1fpt import (
    CappedAbove,
    Deterministic,
    Discrete,
    DivergenceError,
    FlooredPositive,
    Gaussian,
    InfeasibleTruncationError,
    LimitCumulant,
    StableSpectrallyNegative,
    Truncated,
    TwoPoint,
    UnsupportedSamplerError,
)
from ar1fpt.innovations import TAYLOR_REACH, _cumulant_series

RNG = lambda s=0: np.random.default_rng(s)


# -- cumulant closed forms ---------------------------------------------------


def test_gaussian_psi_closed_form():
    g = Gaussian(0.3, 2.0)
    u = np.linspace(0.0, 10.0, 21)
    expected = 0.3 * u + 0.5 * 2.0 * u**2
    np.testing.assert_allclose(g.psi(u), expected, rtol=1e-14)


def test_deterministic_psi():
    d = Deterministic(1.5)
    u = np.linspace(0.0, 5.0, 11)
    np.testing.assert_allclose(d.psi(u), 1.5 * u, rtol=1e-14)


def test_two_point_psi():
    tp = TwoPoint(1.0, -1.0, 0.5)
    u = np.linspace(0.0, 20.0, 41)
    expected = np.log(0.5 * np.exp(u) + 0.5 * np.exp(-u))
    np.testing.assert_allclose(tp.psi(u), expected, rtol=1e-12)


def test_stable_psi_signs():
    heavy = StableSpectrallyNegative(1.5, 1.0, 0.0)  # alpha > 1: +C u^alpha
    light = StableSpectrallyNegative(0.7, 1.0, 0.0)  # alpha < 1: -C u^alpha
    assert math.isclose(float(heavy.psi(2.0)), 2.0**1.5, rel_tol=1e-12)
    assert math.isclose(float(light.psi(2.0)), -(2.0**0.7), rel_tol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    m=st.floats(-2, 2),
    var=st.floats(0.1, 4),
    u=st.floats(0, 30),
)
def test_gaussian_psi_zero_and_convex(m, var, u):
    g = Gaussian(m, var)
    assert float(g.psi(0.0)) == 0.0
    # midpoint convexity on [0, u]
    half = float(g.psi(0.5 * u))
    assert half <= 0.5 * (float(g.psi(0.0)) + float(g.psi(u))) + 1e-9


def test_gaussian_partial_mgf_matches_quadrature():
    g = Gaussian(0.2, 1.3)
    sigma = math.sqrt(1.3)
    for u, t in [(0.5, 1.0), (2.0, 0.0), (5.0, 2.5)]:
        ref, _ = integrate.quad(
            lambda x: math.exp(u * x) * stats.norm.pdf(x, 0.2, sigma),
            -40.0,
            t,
        )
        got = g.log_partial_mgf(u, hi=t)
        assert math.isclose(got, math.log(ref), rel_tol=1e-8)


# -- samplers ----------------------------------------------------------------


def test_gaussian_sampler_moments():
    draws = Gaussian(0.5, 2.0).sample(RNG(1), 200_000)
    assert abs(draws.mean() - 0.5) < 0.02
    assert abs(draws.var() - 2.0) < 0.05


def test_stable_alpha_two_is_gaussian():
    # alpha = 2 with scale C is Gaussian with variance 2C
    s = StableSpectrallyNegative(2.0, 0.5, 0.0)
    draws = s.sample(RNG(2), 200_000)
    assert abs(draws.mean()) < 0.02
    assert abs(draws.var() - 1.0) < 0.05
    ks = stats.kstest(draws[:20_000], "norm")
    assert ks.pvalue > 0.01


def test_stable_heavy_tail_sampler_matches_cdf():
    # scipy's law written out here, scale (C |cos(pi alpha/2)|)**(1/alpha), so
    # the check rests on no parametrisation that the program supplies
    s = StableSpectrallyNegative(1.5, 1.0, 0.0)
    law = stats.levy_stable(1.5, -1.0, loc=0.0, scale=abs(math.cos(0.75 * math.pi)) ** (1 / 1.5))
    draws = s.sample(RNG(3), 50_000)
    ks = stats.kstest(draws, law.cdf)
    assert ks.pvalue > 0.01


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Discrete(()), "at least one atom"),
        (lambda: Discrete(((1.0, 1.0), (0.0, 0.0))), "must be positive"),
        (lambda: Discrete(((1.0, 0.5), (0.0, 0.4))), "must sum to 1"),
        (lambda: TwoPoint(1.0, -1.0, 1.0), r"p in \(0, 1\)"),
        (lambda: TwoPoint(-1.0, 1.0, 0.5), "h_down < h_up"),
        (lambda: Gaussian(0.0, 0.0), "sigma2 > 0"),
        (lambda: StableSpectrallyNegative(1.0, 1.0), "alpha_stab must lie in"),
        (lambda: StableSpectrallyNegative(1.5, 0.0), "c_scale must be positive"),
    ],
    ids=[
        "discrete-empty", "discrete-zero-mass", "discrete-sum", "two-point-p", "two-point-order",
        "gaussian-variance", "stable-alpha-one", "stable-scale",
    ],
)
def test_family_constructors_reject_invalid_parameters(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_stable_alpha_below_one_sampler_unsupported():
    s = StableSpectrallyNegative(0.7, 1.0, 0.0)
    with pytest.raises(UnsupportedSamplerError):
        s.sample(RNG(0), 10)


def test_two_point_sampler_stream_pinned():
    # the inverse-CDF sampler consumes one uniform per draw, upper atom first
    draws = TwoPoint(1.0, -2.0, 0.25).sample(RNG(5), 10_000)
    expected = np.where(RNG(5).random(10_000) < 0.25, 1.0, -2.0)
    np.testing.assert_array_equal(draws, expected)


def test_two_point_sampler_exact_support():
    tp = TwoPoint(1.0, -2.0, 0.25)
    draws = tp.sample(RNG(4), 50_000)
    assert set(np.unique(draws)) == {1.0, -2.0}
    assert abs((draws == 1.0).mean() - 0.25) < 0.01


@pytest.mark.parametrize(
    "spec",
    [
        Gaussian(0.3, 2.0),
        TwoPoint(1.0, -1.0, 0.5),
        Discrete(((1.0, 0.2), (0.25, 0.5), (-2.0, 0.3))),
        CappedAbove(Gaussian(0.0, 1.0), 0.7),
        FlooredPositive(Gaussian(0.0, 1.0), 1.0),
        StableSpectrallyNegative(1.5, 1.0),
        StableSpectrallyNegative(2.0, 0.5),
    ],
    ids=["gaussian", "two-point", "discrete", "capped", "floored", "stable-1.5", "stable-2"],
)
def test_samplers_are_streams(spec):
    # the passage kernel reads its last steps' draws from fixed-size chunks
    def rng():
        return np.random.Generator(np.random.SFC64(8))

    split_rng, whole = rng(), spec.sample(rng(), 1037)
    split = np.concatenate([spec.sample(split_rng, 1000), spec.sample(split_rng, 37)])
    assert split.tobytes() == whole.tobytes()


# -- truncations -------------------------------------------------------------


def test_cap_sampling_is_coupled_min():
    base = Gaussian(0.0, 1.0)
    capped = CappedAbove(base, 0.7)
    a = base.sample(RNG(7), 10_000)
    b = capped.sample(RNG(7), 10_000)
    np.testing.assert_allclose(b, np.minimum(a, 0.7), rtol=0, atol=0)


@settings(max_examples=25, deadline=None)
@given(u=st.floats(0.0, 20.0), cap=st.floats(-1.0, 3.0))
def test_capped_psi_below_base_psi(u, cap):
    base = Gaussian(0.1, 1.0)
    capped = CappedAbove(base, cap)
    assert float(capped.psi(u)) <= float(base.psi(u)) + 1e-9


def test_cap_beyond_support_is_noop():
    tp = TwoPoint(1.0, -1.0, 0.5)
    assert CappedAbove(tp, 5.0) is tp
    capped = CappedAbove(Gaussian(0.0, 1.0), 1.0)
    assert CappedAbove(capped, 1.0) is capped


def test_cap_discrete_merges_atoms():
    tp = TwoPoint(1.0, -1.0, 0.5)
    capped = CappedAbove(tp, 0.0)
    # both atoms map to {0, -1}: still a two-point law
    assert capped == TwoPoint(0.0, -1.0, 0.5)
    atoms = dict(capped.atoms())
    assert atoms == {0.0: 0.5, -1.0: 0.5}


def test_floor_positive_atom_mass():
    fl = FlooredPositive(Gaussian(0.0, 1.0), 1.0)
    assert isinstance(fl, Truncated)
    assert math.isclose(fl.point_mass(1.0), 1.0 - stats.norm.cdf(1.0), rel_tol=1e-12)
    draws = fl.sample(RNG(8), 50_000)
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
    nested = FlooredPositive(base, 1.0)
    assert isinstance(nested, Truncated)
    assert math.isclose(nested.point_mass(1.0), special.ndtr(-1.0), rel_tol=1e-12)
    single = FlooredPositive(Gaussian(0.0, 1.0), 1.0)
    u = np.array([0.0, 0.5, 2.0, 5.0])
    np.testing.assert_allclose(nested.psi(u), single.psi(u), rtol=1e-12)


def test_floor_positive_infeasible_when_no_mass():
    with pytest.raises(InfeasibleTruncationError):
        FlooredPositive(Deterministic(1.0), 2.0)


@pytest.mark.parametrize(
    "levels", [(1.0, 1.0), (2.0, 1.0), (0.0, math.inf), (-math.inf,), ()],
    ids=["equal", "decreasing", "infinite", "minus-infinite", "empty"],
)
def test_truncation_levels_must_be_finite_and_increasing(levels):
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        Truncated(Gaussian(), levels)


def test_floored_psi_oracle_two_point():
    # TwoPoint(2, -1, 0.4) floored at 1.5: positive branch keeps its mass at
    # the 2 >= 1.5 atom remapped to 1.5
    fl = FlooredPositive(TwoPoint(2.0, -1.0, 0.4), 1.5)
    u = 1.3
    expected = math.log(0.4 * math.exp(1.5 * u) + 0.6 * math.exp(-u))
    assert math.isclose(float(fl.psi(u)), expected, rel_tol=1e-12)


def test_floored_partial_mgf_three_ranges():
    base = Gaussian(0.0, 1.0)
    fl = FlooredPositive(base, 1.0)
    u = np.array([0.0, 0.7, 3.0])
    moved = stats.norm.cdf(1.0) - 0.5  # P(0 < eta < 1), mapped to 0
    np.testing.assert_allclose(
        fl.log_partial_mgf(u, hi=-0.5), base.log_partial_mgf(u, hi=-0.5), rtol=1e-14
    )
    np.testing.assert_allclose(
        fl.log_partial_mgf(u, hi=0.5),
        np.log(np.exp(base.log_partial_mgf(u, hi=0.0)) + moved),
        rtol=1e-12,
    )
    np.testing.assert_allclose(fl.log_partial_mgf(u, hi=1.0), fl.psi(u), rtol=1e-14)


def test_nested_floor_psi_matches_three_piece_sum():
    # floor 1 then floor 0.55: eta on eta <= 0, 0 on (0, 1), 0.55 on [1, inf)
    nested = FlooredPositive(FlooredPositive(Gaussian(0.0, 1.0), 1.0), 0.55)
    for u in (0.0, 0.5, 2.0, 5.0, 12.0):
        below = math.exp(0.5 * u * u) * special.ndtr(-u)  # E[e^{u eta}; eta <= 0]
        middle = special.ndtr(1.0) - 0.5
        top = special.ndtr(-1.0) * math.exp(0.55 * u)
        assert math.isclose(float(nested.psi(u)), math.log(below + middle + top), rel_tol=1e-12, abs_tol=1e-15)


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
    assert math.isclose(float(Discrete(tuple(atoms)).psi(u)), direct, rel_tol=1e-12, abs_tol=1e-12)


def _exact_psi(pairs, u):
    """(psi(u), u E|eta - mean|) of the atoms to 60 digits, their
    probabilities normalised: the law the program evaluates.  The sum of
    the e^{u a} is near 1, so it carries as many more digits as 1/(u max|a|)
    has, lest psi round to 0."""
    atoms = [(Decimal(a), Decimal(p)) for a, p in pairs]
    du = Decimal(u)
    with decimal.localcontext() as ctx:
        ctx.prec = 60 + max(0, -(du * max(abs(a) for a, _ in atoms)).adjusted())
        total = sum(p for _, p in atoms)
        psi = (sum(p * (du * a).exp() for a, p in atoms) / total).ln()
        mean = sum(a * p for a, p in atoms) / total
        return psi, du * sum(abs(a - mean) * p for a, p in atoms) / total


@st.composite
def psi_cases(draw):
    """A Discrete law and a u about u*width = TAYLOR_REACH, where psi leaves
    its series, about u*max|a| = 0.5, or anywhere up to u*max|a| = 20."""
    values = draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=6, unique=True))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(values), max_size=len(values))))
    spec = Discrete(tuple(zip(values, (weights / weights.sum()).tolist())))
    reach = max(abs(a) for a in values)
    kind = draw(st.sampled_from(("series", "atoms", "wide")))
    if kind == "wide":
        return spec, draw(st.floats(0.0, 20.0)) / reach
    edge = TAYLOR_REACH / spec.width() if kind == "series" else 0.5 / reach
    return spec, edge * draw(st.floats(0.5, 2.0))


@settings(max_examples=200, deadline=None)
@given(case=psi_cases())
# a lopsided law: a log-sum shifted by its top atom loses psi ~ 1e-9 to rounding
@example(case=(Discrete(((1000.0, 1e-9), (0.0, 1.0 - 1e-9))), 6e-4))
# mean 0: psi(u) ~ u**2/2 is the difference of terms of size u
@example(case=(TwoPoint(1.0, -1.0, 0.5), 1e-5))
def test_discrete_psi_is_exact_to_rounding(case):
    spec, u = case
    assume(math.isfinite(u))
    want, spread = _exact_psi(spec.pairs, u)
    assume(u == 0.0 or spread > 1e-290)  # a subnormal psi has fewer than 53 bits to be exact in
    got = spec.psi(u)
    eps = Decimal(np.finfo(float).eps)
    assert abs(Decimal(got) - want) <= 32 * eps * (abs(want) + spread)


@pytest.mark.xfail(
    strict=True,
    reason="CHANGES.md lines 126 and 134 (FOUND) and ROADMAP item 20: just past the switch from the "
    "cumulant series, Discrete.psi's logaddexp fold errs by some eps*|log p|, not eps*|psi|",
)
@pytest.mark.parametrize(
    "pairs,u",
    [
        # the example that line records, at u*width = 0.15: 1.33e-16 off against 1.25e-16 allowed
        (((2.25, 0.02789886660854403), (0.125, 0.4882301656495205), (0.0, 0.4838709677419355)), 0.07054843669912866),
        # hypothesis seed 711's, at u*width = 0.11: 1.68e-16 off against 1.64e-16 allowed (1.02 times)
        (
            ((0.8576238205357685, 0.10190977239198154), (0.0, 0.3136036277277855), (-0.15291809902442743, 0.584486599880233)),
            0.1279661756906757,
        ),
    ],
    ids=["line-126", "seed-711"],
)
def test_discrete_psi_just_past_the_series_switch_is_exact_to_rounding(pairs, u):
    spec = Discrete(pairs)
    want, spread = _exact_psi(spec.pairs, u)
    eps = Decimal(np.finfo(float).eps)
    assert abs(Decimal(spec.psi(u)) - want) <= 32 * eps * (abs(want) + spread)


@pytest.mark.parametrize("u", [1e-302, 3e-302, 5e-302])
def test_series_with_an_overflowing_carry_is_within_its_bound(u):
    # u*width 0.005 to 0.025, on the series; the Veltkamp split of the mean
    # 1.5e300 overflows, so the carried error is dropped for the plain sum
    spec = TwoPoint(2e300, 1e300, 0.5)
    value, bound = _cumulant_series(spec.cumulants, np.array([u]), lows=spec.cumulant_lows)
    assert spec.psi(u) == value[0]
    atoms = [(Decimal(a), Decimal(p)) for a, p in spec.pairs]
    with decimal.localcontext() as ctx:
        ctx.prec = 80
        want = (sum(p * (Decimal(u) * a).exp() for a, p in atoms) / sum(p for _, p in atoms)).ln()
    assert abs(Decimal(float(value[0])) - want) <= Decimal(float(bound[0]))


def test_a_law_has_unit_mass_exactly():
    # the partial MGF is normalised by the law's own log-sum at u = 0
    for spec in (Discrete(((1000.0, 1e-9), (0.0, 1.0 - 1e-9))), FlooredPositive(Gaussian(), 1.0)):
        assert spec.log_partial_mgf(0.0) == 0.0
        assert spec.psi(0.0) == 0.0


def test_discrete_psi_near_zero_follows_the_mean():
    # the log-sum shifted by the top atom would give psi(u)/u -> 1
    spec = TwoPoint(1.0, -1.0, 0.3)
    assert math.isclose(float(spec.psi(1e-20)) / 1e-20, -0.4, rel_tol=1e-12)
    assert LimitCumulant(spec, 0.5).phi(1e-20)[0] < 0.0


@settings(max_examples=40, deadline=None)
@given(atoms=discrete_laws(), u=st.floats(0.0, 20.0), lam=st.sampled_from((0.3, 0.5, 0.9)))
def test_discrete_functional_equation(atoms, u, lam):
    spec = Discrete(tuple(atoms))
    lc = LimitCumulant(spec, lam)
    resid = lc.phi(u)[0] - lc.phi(lam * u)[0] - float(spec.psi(u))
    assert abs(resid) <= 1e-8


@settings(max_examples=40, deadline=None)
@given(atoms=discrete_laws(), level=st.floats(0.05, 3.0))
def test_discrete_cap_and_floor_are_atom_maps(atoms, level):
    spec = Discrete(tuple(atoms))
    capped = CappedAbove(spec, level)
    assert isinstance(capped, Discrete)
    want = _direct_map(atoms, lambda a: min(a, level))
    got = dict(capped.atoms())
    assert got.keys() == want.keys()
    assert all(math.isclose(got[k], want[k], rel_tol=1e-12) for k in want)
    assert [a for a, _ in capped.atoms()] == sorted(want, reverse=True)

    want = _direct_map(atoms, lambda a: a if a <= 0 else (level if a >= level else 0.0))
    if level not in want:
        with pytest.raises(InfeasibleTruncationError):
            FlooredPositive(spec, level)
        return
    floored = FlooredPositive(spec, level)
    assert isinstance(floored, Discrete)
    got = dict(floored.atoms())
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
    mass = g.expectation(np.ones_like, t)
    first = g.expectation(lambda e: e, t)
    assert math.isclose(mass, special.ndtr(z), rel_tol=1e-9, abs_tol=1e-12)
    want = m * special.ndtr(z) - s * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    assert math.isclose(first, want, rel_tol=1e-9, abs_tol=1e-12)


def test_gaussian_expectation_below_raises_when_unconverged():
    # t = 0.3 is below the top Hermite node, so the engine integrates g, and
    # a NaN there reads diverged
    with pytest.raises(DivergenceError, match="Gaussian expectation below t=0.3"):
        Gaussian(0.0, 1.0).expectation(lambda e: np.full_like(e, np.nan), 0.3)


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
def test_expectation_matches_partial_mgf(spec, u, t):
    got = spec.expectation(lambda e: np.exp(u * e), t)
    want = math.exp(float(spec.log_partial_mgf(u, hi=t)))
    if want > 1e-6:
        assert abs(got - want) <= 1e-8 * want


@st.composite
def partial_mgf_laws(draw):
    if draw(st.booleans()):
        return Gaussian(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.1, 4.0)))
    return draw(truncated_laws())


@settings(max_examples=150, deadline=None)
@given(
    spec=partial_mgf_laws(),
    u=st.floats(0.0, 3.0),
    cuts=st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3, unique=True),
    open_lo=st.booleans(),
    open_hi=st.booleans(),
)
def test_partial_mgf_adds_over_adjacent_intervals(spec, u, cuts, open_lo, open_hi):
    # M(lo, t) and M(t, hi) are each formed directly, below and above t, and
    # over the whole line M is psi's log form
    lo, t, hi = sorted(cuts)
    lo, hi = -math.inf if open_lo else lo, math.inf if open_hi else hi
    m = lambda a, b: float(spec.log_partial_mgf(u, a, b))
    whole = m(lo, hi)
    if whole > math.log(1e-300):
        assert abs(np.logaddexp(m(lo, t), m(t, hi)) - whole) <= 1e-12
    assert abs(m(-math.inf, math.inf) - float(spec.psi(u))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(m=st.floats(-2.0, 2.0), var=st.floats(0.1, 4.0), u=st.floats(0.0, 3.0))
def test_gaussian_far_tail_partial_mgf_is_its_mills_ratio_asymptote(m, var, u):
    # M(m + 40s, inf) = e^{psi(u)} P(Y > z) for Y standard normal and
    # z = 40 - s*u >= 34, where the asymptotic series of the Mills ratio has
    # converged to rounding by its z**-12 term
    s = math.sqrt(var)
    z = 40.0 - s * u
    series = math.fsum((-1) ** k * math.prod(range(1, 2 * k, 2)) / z ** (2 * k) for k in range(7))
    want = m * u + 0.5 * var * u * u - 0.5 * z * z - math.log(z * math.sqrt(2.0 * math.pi))
    got = float(Gaussian(m, var).log_partial_mgf(u, m + 40.0 * s))
    assert math.isfinite(got)
    assert abs(got - (want + math.log(series))) <= 1e-12 * abs(want)


#: u on both sides of u*width = TAYLOR_REACH for the laws of truncated_laws.
psi_points = st.lists(
    st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, 0.3), st.floats(0.0, 60.0)),
    min_size=1,
    max_size=24,
).map(np.array)


@settings(max_examples=150, deadline=None)
@given(spec=truncated_laws(), u=psi_points)
def test_psi_of_a_point_does_not_depend_on_its_batch(spec, u):
    alone = [spec.psi(x) for x in u.tolist()]
    assert all(type(v) is float for v in alone)
    alone = np.array(alone)
    assert spec.psi(u).tobytes() == alone.tobytes()
    assert spec.psi(np.stack([u, u[::-1]])).tobytes() == np.stack([alone, alone[::-1]]).tobytes()


@settings(max_examples=60, deadline=None)
@given(spec=truncated_laws())
def test_truncated_psi_is_mean_times_u_near_zero(spec):
    # psi(u)/u -> mean, discrete laws included: a log-sum alone rounds to
    # 1e-16 absolute noise
    m = spec.mean()
    for u in (1e-20, 1e-12, 1e-8):
        assert abs(float(spec.psi(u)) / u - m) <= 1e-6 * (1.0 + abs(m))


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


def test_stable_partial_expectations_fail_typed():
    # none carries a checked error bar yet, and a capped law's psi needs one
    stable = StableSpectrallyNegative(1.5, 1.0)
    capped = CappedAbove(stable, 1.0)
    calls = [
        lambda: stable.log_partial_mgf(1.0, hi=0.0),
        lambda: stable.expectation(np.ones_like),
        lambda: capped.psi(1.0),
        lambda: capped.expectation(np.ones_like, 0.5),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(DivergenceError, match="checked error bar") as exc:
                call()
            assert exc.value.exit_code == 4
