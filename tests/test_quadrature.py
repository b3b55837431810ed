"""Improper-integral engine against closed-form integrals.

Integrands are vectorized: they map a node array to values at those nodes,
with a leading axis when they stand for a batch of states.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import gamma

from ar1fpt import DivergenceError, Gaussian, LimitCumulant, improper_integral, transform
from ar1fpt import quadrature
from ar1fpt.quadrature import panel_nodes


def test_exponential_integral():
    res = improper_integral(lambda u: np.exp(-u))
    assert res.converged
    assert abs(res.value - 1.0) <= res.abs_err + 1e-12


@pytest.mark.parametrize("v", [0.5, 0.25, 1.0, 3.0])
def test_gamma_integral_with_singularity(v):
    res = improper_integral(lambda u: np.exp(-u) * u ** (v - 1.0), singular_power=v - 1.0)
    assert res.converged
    assert math.isclose(res.value, gamma(v), rel_tol=1e-9)


def test_frullani_integral():
    # int (e^-u - e^-2u)/u du = log 2
    res = improper_integral(lambda u: (np.exp(-u) - np.exp(-2 * u)) / u)
    assert res.converged
    assert math.isclose(res.value, math.log(2.0), rel_tol=1e-9)


@pytest.mark.parametrize(
    "f,power,exact,calls",
    [
        # dies before u = 256: the first call's head and tail panels suffice
        (lambda u: np.exp(-u), 0.0, 1.0, 1),
        # alive at u = 256, dead by 65,536: one call extends the tail
        (lambda u: np.exp(-u / 1000), 0.0, 1000.0, 2),
        # a cusp at 0 and a tail alive at u = 256, with no bisection
        (lambda u: np.exp(-u / 100) * u**-0.5, -0.5, math.sqrt(100 * math.pi), 2),
    ],
    ids=["e^-u", "e^-u/1000", "e^-u/100-cusp"],
)
def test_integrand_calls_per_integral(f, power, exact, calls):
    sizes = []

    def counted(u):
        sizes.append(len(u))
        return f(u)

    res = improper_integral(counted, singular_power=power)
    assert res.converged and res.tail_diagnostic == "decayed"
    assert math.isclose(res.value, exact, rel_tol=1e-12)
    assert len(sizes) == calls
    # the first call: the head panel and the tail panels [1, 2], ..., [128, 256]
    assert sizes[0] == 9 * 15


def test_divergent_integrand_flagged():
    res = improper_integral(lambda u: np.exp(np.minimum(0.01 * u, 700.0)) / (1.0 + u))
    assert not res.converged
    assert res.tail_diagnostic == "diverged"
    assert math.isnan(res.value)


def test_slow_algebraic_tail_hits_ceiling():
    res = improper_integral(lambda u: (1.0 + u) ** -1.5)
    assert not res.converged
    assert res.tail_diagnostic == "truncated_at_umax"


def test_require_returns_a_converged_result_itself():
    scalar = improper_integral(lambda u: np.exp(-u))
    batch = improper_integral(lambda u: np.exp(-np.array([[1.0], [2.0]]) * u))
    assert scalar.require("e^-u") is scalar
    assert batch.require("e^-ru") is batch


def test_require_names_the_unconverged_states():
    scalar = improper_integral(lambda u: (1.0 + u) ** -1.5)
    with pytest.raises(DivergenceError) as exc:
        scalar.require("the slow tail")
    assert str(exc.value) == "the slow tail did not converge at 1 of 1 states (truncated_at_umax)"
    # one decayed, one truncated and two growing states
    powers = np.array([[0.0], [-1.5], [0.0], [0.0]])
    rates = np.array([[1.0], [0.0], [-0.01], [-0.02]])
    batch = improper_integral(lambda u: np.exp(np.minimum(-rates * u, 700.0)) * (1.0 + u) ** powers)
    assert batch.tail_diagnostic.tolist() == ["decayed", "truncated_at_umax", "diverged", "diverged"]
    with pytest.raises(DivergenceError) as exc:
        batch.require("the batch")
    assert str(exc.value) == (
        "the batch did not converge at 3 of 4 states (diverged, truncated_at_umax)"
    )


def test_halving_rel_tol_is_self_consistent(monkeypatch):
    f = lambda u: np.exp(-u) * np.cos(u)
    monkeypatch.setattr(quadrature, "REL_TOL", 1e-6)
    coarse = improper_integral(f)
    monkeypatch.setattr(quadrature, "REL_TOL", 5e-7)
    fine = improper_integral(f)
    assert abs(coarse.value - fine.value) < coarse.abs_err + 1e-12
    assert math.isclose(fine.value, 0.5, rel_tol=1e-6)


def test_batch_of_states_matches_one_state_at_a_time():
    # rates 1, 2, 3: int_0^inf e^{-c u} u^{-1/2} du = sqrt(pi / c)
    rates = np.array([1.0, 2.0, 3.0])
    batch = improper_integral(
        lambda u: np.exp(-rates[:, None] * u) * u**-0.5, singular_power=-0.5
    )
    assert batch.value.shape == (3,) and batch.converged.all()
    assert list(batch.tail_diagnostic) == ["decayed"] * 3
    for c, value, err in zip(rates, batch.value, batch.abs_err):
        one = improper_integral(lambda u: np.exp(-c * u) * u**-0.5, singular_power=-0.5)
        assert abs(value - math.sqrt(math.pi / c)) <= err + 1e-12
        assert abs(one.value - math.sqrt(math.pi / c)) <= one.abs_err + 1e-12


def test_diverged_state_does_not_spoil_the_batch():
    rates = np.array([1.0, -0.01])
    res = improper_integral(lambda u: np.exp(np.minimum(-rates[:, None] * u, 700.0)) / (1.0 + u))
    assert list(res.tail_diagnostic) == ["decayed", "diverged"]
    assert res.converged.tolist() == [True, False]
    assert math.isnan(res.value[1]) and res.abs_err[1] == math.inf
    # int_0^inf e^{-u}/(1+u) du = e E_1(1)
    assert math.isclose(res.value[0], 0.5963473623231940, rel_tol=1e-9)


def test_non_finite_state_reads_diverged():
    # the first state divides by zero below u = 0.5, the second is e^{-u}
    def f(u):
        return np.stack([np.exp(-u) / np.where(u < 0.5, 0.0, 1.0), np.exp(-u)])

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = improper_integral(f)
    assert list(res.tail_diagnostic) == ["diverged", "decayed"]
    assert res.converged.tolist() == [False, True]
    assert math.isnan(res.value[0]) and res.abs_err[0] == math.inf
    assert math.isclose(res.value[1], 1.0, rel_tol=1e-9)


def test_overflowing_order_weight_reads_diverged():
    # u**(v-1) overflows at the head panel's nodes for v = -0.95
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = transform(LimitCumulant(Gaussian(0.0, 1.0), 0.5), "W", 0.0, -0.95)
    assert res.tail_diagnostic == "diverged" and not res.converged
    assert math.isnan(res.value) and res.abs_err == math.inf


def test_offset_is_part_of_the_value():
    # int_0^inf (e^{-u} - 1) u^{v-1} du = Gamma(v) for v in (-1, 0), split as
    # the expm1 bracket on (0, 1], e^{-u} u^{v-1} beyond, and the exact
    # -int_1^inf u^{v-1} du = 1/v
    v = -0.4
    res = improper_integral(
        lambda u: np.where(u <= 1.0, np.expm1(-u), np.exp(-u)) * u ** (v - 1.0),
        singular_power=v,
        offset=1.0 / v,
    )
    assert res.converged
    assert math.isclose(res.value, gamma(v), rel_tol=1e-9)


def test_panel_nodes_integrate_smooth_decay():
    u, w = panel_nodes(32.0)
    assert np.all(np.diff(u) > 0) and np.all(w > 0)
    val = float(np.sum(w * np.exp(-u)))
    assert math.isclose(val, 1.0 - math.exp(-32.0), rel_tol=1e-12)
    # polynomial exactness inside a panel span
    val = float(np.sum(w * np.where(u <= 1.0, u**3, 0.0)))
    assert math.isclose(val, 0.25, rel_tol=1e-12)
