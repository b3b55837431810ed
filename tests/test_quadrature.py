"""Improper-integral engine against closed-form integrals.

Integrands are vectorized: they map a node array to values at those nodes,
with a leading axis when they stand for a batch of states.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.special import gamma

from ar1fpt import DivergenceError, Gaussian, LimitCumulant, TwoPoint, improper_integral, transform
from ar1fpt import quadrature, transforms


def test_singular_power_must_exceed_minus_one():
    # u**-1 near 0 has no finite integral
    with pytest.raises(ValueError, match="singular_power must exceed -1"):
        improper_integral(lambda u: np.exp(-u) / u, singular_power=-1.0)


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
    # the first call: the head panel, or its two halves under a power
    # substitution, and the tail panels [1, 2], ..., [128, 256]
    assert sizes[0] == (9 if power == 0.0 else 10) * 15


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


# -- the first call's geometry: constant tail panels, a head built per call --

#: Singular powers: none (p = 1), W at v = -0.4995, -0.1 and -0.9, N at v = 0.3.
FIRST_CALL_POWERS = [0.0, -0.4995, -0.1, -0.9, 0.3 - 1.0]


def _head_power(s):
    return 1.0 if s == 0.0 else quadrature._HEAD_ORDER / (1.0 + s)


def _first_panels_built_per_call(p, whole_head=False):
    """The first call's panels and nodes as the engine builds the panels it
    bisects: the head [0, 1], or under a power substitution (unless
    whole_head) its halves [0, 1/2] and [1/2, 1], then the tail [1, 2],
    ..., [128, 256]."""
    a, b = quadrature._dyadic_panels(1.0, quadrature._TAIL_PANELS_PER_CALL)
    if p != 1.0 and not whole_head:
        a, b = np.concatenate([[0.0, 0.5], a]), np.concatenate([[0.5, 1.0], b])
    else:
        a, b = np.concatenate([[0.0], a]), np.concatenate([[1.0], b])
    return (a, b, *quadrature._nodes(a, b, p))


@pytest.mark.parametrize("power", FIRST_CALL_POWERS)
def test_first_call_geometry_is_the_dyadic_panels_bit_for_bit(power):
    p = _head_power(power)
    got, want = quadrature._first_panels(p), _first_panels_built_per_call(p)
    n_head = 1 if power == 0.0 else 2
    assert (got[0] < 1.0).tolist() == [True] * n_head + [False] * quadrature._TAIL_PANELS_PER_CALL
    for g, w in zip(got, want):
        assert g.shape[0] == n_head + quadrature._TAIL_PANELS_PER_CALL
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_first_call_geometry_is_read_only():
    constants = [
        quadrature._FIRST_A, quadrature._FIRST_B, quadrature._SPLIT_A, quadrature._SPLIT_B,
        quadrature._HEAD_X, quadrature._HEAD_JAC, quadrature._SPLIT_X, quadrature._SPLIT_JAC,
        quadrature._TAIL_U, quadrature._TAIL_JAC,
    ]
    for arr in constants:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[-1]
    # a call hands the integrand nodes it may write to
    quadrature._first_panels(_head_power(-0.1))[2][0, 0] = 0.0
    quadrature._first_panels(1.0)[2][0, 0] = 0.0


ENGINE_BATCHES = [
    ("W", 0.0, -0.4995),
    ("W", 0.5, np.linspace(-0.9, -0.05, 64)),  # one order per state, as the certificate scans
    ("N", np.linspace(-3.0, 1.5, 64), 0.3),
]
ENGINE_BATCH_IDS = ["W-one-state", "W-64-orders", "N-64-states"]


def _same_bytes(got, want):
    for field in ("value", "abs_err", "converged", "tail_diagnostic"):
        assert np.asarray(getattr(got, field)).tobytes() == np.asarray(getattr(want, field)).tobytes()


@pytest.mark.parametrize("kind,y,v", ENGINE_BATCHES, ids=ENGINE_BATCH_IDS)
def test_engine_reads_the_same_bytes_as_with_geometry_built_per_call(monkeypatch, kind, y, v):
    # a fresh series cumulant each time, so that phi's memo serves neither run
    law = TwoPoint(1.0, -1.0, 0.5)
    kept = transform(LimitCumulant(law, 0.5), kind, y, v)
    monkeypatch.setattr(quadrature, "_first_panels", _first_panels_built_per_call)
    rebuilt = transform(LimitCumulant(law, 0.5), kind, y, v)
    assert np.all(kept.converged)
    _same_bytes(kept, rebuilt)


@pytest.mark.parametrize("kind,y,v", ENGINE_BATCHES, ids=ENGINE_BATCH_IDS)
def test_split_head_saves_the_round_that_bisected_it(monkeypatch, kind, y, v):
    # with the head whole the first round bisects it into the halves the
    # split head starts from; the values agree within the error bars
    law = TwoPoint(1.0, -1.0, 0.5)
    real, calls, runs = quadrature.improper_integral, [], []

    def counted(f, **kw):
        def g(u):
            calls[-1] += 1
            return f(u)

        return real(g, **kw)

    monkeypatch.setattr(transforms, "improper_integral", counted)
    for first_panels in (quadrature._first_panels, lambda p: _first_panels_built_per_call(p, whole_head=True)):
        monkeypatch.setattr(quadrature, "_first_panels", first_panels)
        calls.append(0)
        runs.append(transform(LimitCumulant(law, 0.5), kind, y, v))
    split, whole = runs
    assert np.all(split.converged) and np.all(whole.converged)
    assert calls[0] == calls[1] - 1
    assert np.all(np.abs(split.value - whole.value) <= split.abs_err + whole.abs_err)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _engine_without_trims(f, singular_power=0.0, offset=0.0):
    """improper_integral's value and error as before its rounds were trimmed:
    every round, the last too, builds its split set, and every integrand
    call reads |f| at its panels' last nodes."""
    q = quadrature
    p = 1.0 if singular_power == 0.0 else q._HEAD_ORDER / (1.0 + singular_power)
    threshold = q.ABS_TOL * 1e-2
    offset = np.ravel(offset)
    a, b, u, jac = q._first_panels(p)
    val, err, edge, state_shape = q._panels(f, u, jac)
    while True:
        last, prev = val[:, -1], val[:, -2]
        dead = (edge[:, -1] < threshold) & (
            np.abs(last) < np.maximum(threshold, q.REL_TOL * np.abs(val.sum(axis=1)))
        )
        if dead.all() or b[-1] >= q.DEFAULT_U_MAX:
            break
        new = np.unique(np.minimum(b[-1] * 2.0 ** np.arange(q._TAIL_PANELS_PER_CALL + 1), q.DEFAULT_U_MAX))
        nv, ne, nedge, _ = q._panels(f, *q._nodes(new[:-1], new[1:], p))
        a, b = np.concatenate([a, new[:-1]]), np.concatenate([b, new[1:]])
        val, err = np.concatenate([val, nv], axis=1), np.concatenate([err, ne], axis=1)
        edge = np.concatenate([edge, nedge], axis=1)
    growing = ~dead & ((np.abs(last) > np.abs(prev)) | (edge[:, -1] >= edge[:, -2]))
    r = np.minimum(np.abs(last) / np.abs(prev), np.where(dead, 0.9, 0.99))
    tail_err = np.where(np.abs(prev) > 0, np.abs(last) * r / (1.0 - r), 0.0)
    while True:
        value = val.sum(axis=1) + offset
        abs_err = err.sum(axis=1) + tail_err
        tol = q.REL_TOL * np.abs(value) + q.ABS_TOL
        budget = (tol - tail_err) / len(a)
        short = ~growing & (abs_err > tol) & (budget > 0)
        split = (err[short] > budget[short, None]).any(axis=0)
        n_split = int(split.sum())
        if n_split == 0 or len(a) + n_split > q._MAX_PANELS:
            break
        sa, sb = a[split], b[split]
        mid = 0.5 * (sa + sb)
        na, nb = np.concatenate([sa, mid]), np.concatenate([mid, sb])
        nv, ne, _, _ = q._panels(f, *q._nodes(na, nb, p))
        keep = ~split
        a, b = np.concatenate([a[keep], na]), np.concatenate([b[keep], nb])
        val = np.concatenate([val[:, keep], nv], axis=1)
        err = np.concatenate([err[:, keep], ne], axis=1)
    return value.reshape(state_shape), abs_err.reshape(state_shape)


@pytest.mark.parametrize(
    "kind,y,v",
    [
        ("W", np.linspace(-4.0, 1.5, 16), -0.5),
        ("W", 0.5, -np.geomspace(0.4995, 1e-6, 64)),
        ("H", np.linspace(-6.0, 1.5, 32), None),
        ("N", np.linspace(-3.0, 1.5, 16), 1.0),
        ("N", np.linspace(-3.0, 1.5, 16), 0.3),
    ],
    ids=["W-states", "W-64-orders", "H-states", "N-1-states", "N-0.3-states"],
)
@pytest.mark.parametrize("law", [Gaussian(0.0, 1.0), TwoPoint(1.0, -1.0, 0.5)], ids=["gauss", "two-point"])
def test_engine_rounds_stop_early_bit_for_bit(monkeypatch, law, kind, y, v):
    # the engine's value and error against the same engine with every round
    # built in full; each run integrates through a fresh limit cumulant
    got = transform(LimitCumulant(law, 0.5), kind, y, v)
    want = []
    real = quadrature.improper_integral

    def untrimmed(f, singular_power=0.0, offset=0.0):
        want.extend(_engine_without_trims(f, singular_power, offset))
        return real(f, singular_power, offset)

    monkeypatch.setattr(transforms, "improper_integral", untrimmed)
    transform(LimitCumulant(law, 0.5), kind, y, v)
    scale = 1.0 / math.log(2.0) if kind == "H" else 1.0
    assert np.all(got.converged)
    assert (want[0] * scale).tobytes() == got.value.tobytes()
    assert (want[1] * scale).tobytes() == got.abs_err.tobytes()
