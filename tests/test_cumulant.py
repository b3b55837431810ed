"""Limit cumulant: series vs closed forms, functional equation, convexity."""

import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ar1fpt import (
    CappedAbove,
    Deterministic,
    Discrete,
    FlooredPositive,
    Gaussian,
    LimitCumulant,
    StableSpectrallyNegative,
    TwoPoint,
    check_functional_equation,
    stationary_reference,
)
from ar1fpt import DivergenceError, SeriesDivergenceError, cumulant, innovations
from ar1fpt.cumulant import K_MAX
from ar1fpt.innovations import TAYLOR_REACH, Truncated
from ar1fpt import quadrature

U_GRID = np.linspace(0.0, 50.0, 26)
LAMBDAS = (0.3, 0.5, 0.9)

FAMILIES = [
    Gaussian(0.0, 1.0),
    Gaussian(0.4, 2.0),
    Deterministic(1.0),
    TwoPoint(1.0, -1.0, 0.5),
    StableSpectrallyNegative(1.5, 1.0, 0.0),
    StableSpectrallyNegative(0.7, 1.0, 0.0),
    CappedAbove(Gaussian(0.0, 1.0), 1.0),
    FlooredPositive(Gaussian(0.0, 1.0), 1.0),
]
FAMILY_IDS = [
    "Gaussian0",
    "Gaussian1",
    "Deterministic",
    "TwoPoint",
    "StableSpectrallyNegative0",
    "StableSpectrallyNegative1",
    "CappedAbove",
    "FlooredPositive",
]


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize(
    "spec",
    [Gaussian(0.0, 1.0), Gaussian(0.4, 2.0)],
    ids=["std", "shifted"],
)
def test_series_matches_gaussian_closed_form(spec, lam):
    lc = LimitCumulant(spec, lam)
    assert lc.mode == "closed_form_stable"
    for u in U_GRID:
        a, _ = lc.phi(float(u))
        b, err = lc.series(float(u))
        assert abs(a - b) < 1e-10 + err, f"u={u}"


@pytest.mark.parametrize("alpha", [1.5, 0.7])
def test_series_matches_stable_closed_form(alpha):
    spec = StableSpectrallyNegative(alpha, 1.0, 0.1)
    lc = LimitCumulant(spec, 0.5)
    for u in np.linspace(0.0, 20.0, 21):
        a, _ = lc.phi(float(u))
        b, err = lc.series(float(u))
        assert abs(a - b) < 1e-10 + err


def test_deterministic_closed_form():
    lc = LimitCumulant(Deterministic(1.5), 0.25)
    assert lc.mode == "closed_form_deterministic"
    assert math.isclose(lc.phi(3.0)[0], 1.5 * 3.0 / 0.75, rel_tol=1e-15)


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize("spec", FAMILIES, ids=FAMILY_IDS)
def test_functional_equation_all_families(spec, lam):
    lc = LimitCumulant(spec, lam)
    grid = U_GRID if spec.psi(50.0) < 1e6 else np.linspace(0.0, 20.0, 11)
    assert check_functional_equation(lc, grid) < 1e-8


def test_phi_zero_is_zero():
    for spec in FAMILIES:
        assert LimitCumulant(spec, 0.5).phi(0.0)[0] == 0.0


def test_phi_rejects_negative_u():
    with pytest.raises(ValueError):
        LimitCumulant(Gaussian(0, 1), 0.5).phi(-1.0)


@settings(max_examples=25, deadline=None)
@given(u=st.floats(0.1, 30.0), lam=st.sampled_from(LAMBDAS))
def test_phi_midpoint_convex_two_point(u, lam):
    lc = LimitCumulant(TwoPoint(1.0, -1.0, 0.5), lam)
    mid = lc.phi(0.5 * u)[0]
    assert mid <= 0.5 * (lc.phi(0.0)[0] + lc.phi(u)[0]) + 1e-9


@st.composite
def series_families(draw):
    """A random Discrete law, or a Gaussian capped above or floored."""
    kind = draw(st.sampled_from(["discrete", "capped", "floored"]))
    if kind == "discrete":
        values = draw(st.lists(st.floats(-3.0, 3.0), min_size=2, max_size=4, unique=True))
        weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(values), max_size=len(values)))
        total = sum(weights)
        return Discrete(tuple((a, w / total) for a, w in zip(values, weights)))
    base = Gaussian(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.25, 4.0)))
    level = draw(st.floats(0.1, 3.0))
    return CappedAbove(base, level) if kind == "capped" else FlooredPositive(base, level)


u_arrays = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(0.0, 1e-6),
        st.floats(0.0, 50.0),
        st.floats(9e3, 1.1e4),
    ),
    min_size=1,
    max_size=30,
).map(np.array)


def series_by_terms(lc, u):
    """phi(u) summed term by term: the reference for the batched series.

    K(u) terms psi(lam**k u) added one at a time in k order, then phi's tail
    at w = lam**K u; the bound is the tail's plus eps * (sum_k (1 + |psi_k|
    + |S_k|) + |tail|), S_k the partial sums."""
    lam = lc.lam
    with np.errstate(divide="ignore"):
        ratio = np.log(np.array([u]) * (lc.spec.width() / TAYLOR_REACH)) / math.log(1.0 / lam)
    n = int(max(np.ceil(ratio[0]), 0.0))
    total = scale = 0.0
    for t in np.asarray(lc.spec.psi(u * lam ** np.arange(n)), dtype=float):
        total += t
        scale += 1.0 + abs(t) + abs(total)
    tail, bound = lc._tail(np.array([u * lam ** np.arange(n + 1)[-1]]))
    eps = np.finfo(float).eps
    return total + tail[0], bound[0] + eps * (scale + abs(tail[0]))


@settings(max_examples=40, deadline=None)
@given(spec=series_families(), u=u_arrays, lam=st.sampled_from(LAMBDAS))
def test_functional_equation_random_families(spec, u, lam):
    assert check_functional_equation(LimitCumulant(spec, lam), u) < 1e-8


@settings(max_examples=40, deadline=None)
@given(spec=series_families(), u=u_arrays, lam=st.sampled_from(LAMBDAS))
def test_batched_series_equals_term_by_term_sum(spec, u, lam):
    lc = LimitCumulant(spec, lam)
    value, abs_err = lc.series(u)
    ref = np.array([series_by_terms(lc, float(x)) for x in u]).reshape(-1, 2)
    assert value.tobytes() == ref[:, 0].tobytes()
    assert abs_err.tobytes() == ref[:, 1].tobytes()
    # one u at a time through the same call gives the same bits
    single = np.array([lc.series(float(x)) for x in u]).reshape(-1, 2)
    assert single.tobytes() == ref.tobytes()


@pytest.mark.parametrize("narrow", ["buffer", "buffer-and-widths"])
@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize(
    "spec",
    [TwoPoint(1.0, -1.0, 0.3), CappedAbove(Gaussian(0.0, 1.0), 1.5), FlooredPositive(Gaussian(0.0, 1.0), 1.0)],
    ids=["two-point", "capped", "floored"],
)
def test_series_bytes_do_not_depend_on_block_sizes(monkeypatch, spec, lam, narrow):
    lc = LimitCumulant(spec, lam)
    u = np.concatenate([[0.0, 1e-9, 0.3], np.linspace(0.5, 60.0, 22), [1e4]]).reshape(2, 13)
    value, abs_err = lc.series(u)
    if narrow == "buffer":  # one or two rows a block
        monkeypatch.setattr(cumulant, "_SERIES_BUF_LEN", 64)
    else:  # a buffer narrower than a row: one row a block, as wide as its K(u)
        monkeypatch.setattr(cumulant, "_SERIES_BUF_LEN", 4)
    narrow_value, narrow_err = lc.series(u)
    assert narrow_value.tobytes() == value.tobytes()
    assert narrow_err.tobytes() == abs_err.tobytes()


def series_by_blocks(lc, u, buf_len):
    """phi's series summed as blocks of the rows with terms, each block at most
    buf_len entries and each row read at its own last term: the loop the
    series ran on every call before it summed a matrix that fits one buffer
    in one pass."""
    arr = np.asarray(u, dtype=float)
    u = arr.ravel()
    lam = lc.lam
    with np.errstate(divide="ignore"):
        ratio = np.log(u * (lc.spec.width() / TAYLOR_REACH)) / math.log(1.0 / lam)
    n_terms = np.maximum(np.ceil(ratio), 0.0)
    k_top = float(n_terms.max(initial=0.0))
    n_terms = n_terms.astype(np.int64)
    powers = lam ** np.arange(int(k_top) + 1)
    tail, bound = lc._tail(u * powers[n_terms])
    head = np.zeros(len(u))
    scale = np.zeros(len(u))
    rows = np.flatnonzero(n_terms)
    block = max(1, buf_len // max(int(k_top), 1))
    for lo in range(0, len(rows), block):
        idx = rows[lo : lo + block]
        n = n_terms[idx]
        live = np.arange(n.max()) < n[:, None]
        terms = np.zeros(live.shape)
        terms[live] = lc.spec.psi(np.multiply.outer(u[idx], powers[: live.shape[1]])[live])
        sums = np.cumsum(terms, axis=1)
        sizes = np.cumsum(live * (1.0 + np.abs(terms) + np.abs(sums)), axis=1)
        last = (np.arange(len(idx)), n - 1)
        head[idx], scale[idx] = sums[last], sizes[last]
    eps = np.finfo(float).eps
    return (head + tail).reshape(arr.shape), (bound + eps * (scale + np.abs(tail))).reshape(arr.shape)


@pytest.mark.parametrize("buf_len", [cumulant._SERIES_BUF_LEN, 64, 4], ids=["default", "64", "4"])
@pytest.mark.parametrize("lam", [0.3, 0.5, 0.9, 0.999])
@pytest.mark.parametrize(
    "spec",
    [TwoPoint(1.0, -1.0, 0.3), CappedAbove(Gaussian(0.0, 1.0), 1.5), Discrete(((1.5, 0.2), (0.3, 0.5), (-2.0, 0.3)))],
    ids=["two-point", "capped", "three-atom"],
)
def test_series_in_one_pass_reads_the_bytes_of_the_block_loop(monkeypatch, spec, lam, buf_len):
    # rows with no psi term (u = 0 and below w0) beside rows of up to some
    # 12,000 terms at lam 0.999, in a 2-D array: one pass at the default
    # buffer but at lam 0.999, blocks of a few rows or of one at the others
    monkeypatch.setattr(cumulant, "_SERIES_BUF_LEN", buf_len)
    u = np.concatenate([[0.0, 1e-9, 0.3], np.linspace(0.5, 60.0, 22), [1e4]]).reshape(2, 13)
    want = series_by_blocks(LimitCumulant(spec, lam), u, buf_len)
    used = LimitCumulant(spec, lam)
    used.series(np.array([3e4, 7.0]))  # keeps lam**k beyond this u's K(u)
    for lc in (LimitCumulant(spec, lam), used):
        got = lc.series(u)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def _engine_nodes(k):
    """The K15 nodes of the engine's head panel [0, 1] and its dyadic panels up to u = 2**k."""
    edges = np.concatenate([[0.0], 2.0 ** np.arange(k + 1)])
    return quadrature._nodes(edges[:-1], edges[1:], 1.0)[0].ravel()


#: Node sets of the engine's head and dyadic panels, up to u = 2, 16, 256, 2**17.
NODE_SETS = [_engine_nodes(k) for k in (1, 4, 8, 17)]


@st.composite
def u_batches(draw):
    """Successive u arrays as the engine asks them: slices of its node sets
    and arbitrary points, repeated and shuffled, some of them 2-D."""
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        nodes = draw(st.sampled_from(NODE_SETS))
        lo = draw(st.integers(0, len(nodes) - 1))
        part = nodes[lo : lo + draw(st.integers(1, 45))]
        points = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 300.0)), max_size=10))
        again = part[: draw(st.integers(0, 5))]
        u = np.array(draw(st.permutations(np.concatenate([part, points, again]).tolist())))
        if len(u) % 2 == 0 and draw(st.booleans()):
            u = u.reshape(2, -1)
        batches.append(u)
    return batches


@pytest.mark.parametrize(
    "spec",
    [Discrete(((1.0, 0.3), (-0.5, 0.5), (-2.0, 0.2))), CappedAbove(Gaussian(0.0, 1.0), 1.5)],
    ids=["discrete", "truncated"],
)
@settings(max_examples=20, deadline=None)
@given(batches=u_batches(), lam=st.sampled_from(LAMBDAS))
def test_phi_of_a_used_cumulant_equals_a_fresh_series(spec, batches, lam):
    used = LimitCumulant(spec, lam)
    assert isinstance(spec, (Discrete, Truncated)) and used.mode == "series"
    for u in batches + [u.copy() for u in reversed(batches)]:  # each asked twice
        value, bound = used.phi(u)
        ref_value, ref_bound = LimitCumulant(spec, lam).series(u)
        assert value.shape == bound.shape == u.shape
        assert value.tobytes() == ref_value.tobytes()
        assert bound.tobytes() == ref_bound.tobytes()
        x = float(u.flat[-1])
        pair = used.phi(x)
        assert type(pair[0]) is float and type(pair[1]) is float
        assert np.array(pair).tobytes() == np.array(LimitCumulant(spec, lam).series(x)).tobytes()
    # what it keeps changes neither equality nor the hash
    assert used == LimitCumulant(spec, lam) and hash(used) == hash(LimitCumulant(spec, lam))


def test_changing_what_phi_returned_changes_no_later_answer():
    lc = LimitCumulant(TwoPoint(1.0, -1.0, 0.5), 0.5)
    u = np.array([0.5, 2.0, 7.0, 2.0])
    value, bound = lc.phi(u)
    want = np.stack([value, bound]).tobytes()
    value[:], bound[:], u[:] = -1.0, -1.0, 3.0
    again = lc.phi(np.array([0.5, 2.0, 7.0, 2.0]))
    assert np.stack(again).tobytes() == want
    # nor do two answers share memory with each other
    again[0][:] = 9.0
    assert np.stack(lc.phi(np.array([0.5, 2.0, 7.0, 2.0]))).tobytes() == want
    # the same u in another shape comes back in that shape
    assert lc.phi(np.array([[0.5, 2.0], [7.0, 2.0]]))[0].shape == (2, 2)


def test_threads_sharing_a_cumulant_get_fresh_series_bits():
    spec, lam = TwoPoint(1.0, -1.0, 0.3), 0.5
    batches = [NODE_SETS[k % 4][k % 7 :: 3] for k in range(24)]
    want = [np.stack(LimitCumulant(spec, lam).series(u)).tobytes() for u in batches]
    shared = LimitCumulant(spec, lam)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = list(pool.map(lambda u: np.stack(shared.phi(u)).tobytes(), batches * 3, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert got == want * 3


#: The laws of the value path's tests: the series laws and the closed forms.
VALUE_PATH_LAWS = [
    TwoPoint(1.0, -1.0, 0.3),
    Discrete(((1.5, 0.2), (0.3, 0.5), (-2.0, 0.3))),
    CappedAbove(Gaussian(0.0, 1.0), 1.5),
    FlooredPositive(Gaussian(0.0, 1.0), 1.0),
    Gaussian(0.4, 2.0),
    StableSpectrallyNegative(1.5, 1.0, 0.0),
]


@pytest.mark.parametrize("lam", LAMBDAS)
@pytest.mark.parametrize(
    "spec", VALUE_PATH_LAWS, ids=["two-point", "three-atom", "capped", "floored", "gaussian", "stable"]
)
def test_the_value_path_gives_phis_bits(spec, lam):
    # u = 0, points below w0 where K(u) = 0 and phi is its tail alone, and the
    # rest, as an array, a 2-D array and scalars; fresh instances, no memo
    rng = np.random.default_rng(36)
    w0 = TAYLOR_REACH / spec.width()
    u = np.concatenate([[0.0], w0 * rng.random(8), rng.exponential(15.0, 27)])
    rng.shuffle(u)
    for x in (u, u.reshape(4, 9), float(u[0]), float(u[-1]), 0.0, w0):
        for path in ("phi", "series"):
            want = getattr(LimitCumulant(spec, lam), path)(x)[0]
            value, none = getattr(LimitCumulant(spec, lam), path)(x, bound=False)
            assert none is None and type(value) is type(want)
            assert np.shape(value) == np.shape(x)
            assert np.asarray(value).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize(
    "spec,lam,u",
    [
        (TwoPoint(1.0, -1.0, 0.5), 0.9, 0.1234567901234568),
        (Discrete(((1.5, 0.2), (0.3, 0.5), (-2.0, 0.3))), 0.7, 0.07722007722007723),
        (CappedAbove(Gaussian(0.0, 1.0), 1.5), 0.95, 0.07626663170229384),
        (FlooredPositive(Gaussian(0.0, 1.0), 1.0), 0.95, 0.09403877933938211),
    ],
    ids=["two-point", "three-atom", "capped", "floored"],
)
def test_a_term_that_rounds_onto_the_reach_takes_psis_branch(spec, lam, u):
    # K(u) counts a last term u lam**(K-1) that lies past w0 in exact
    # arithmetic but rounds onto it, where psi takes its cumulant series,
    # whose bits differ from the fold's there, and phi's with them: the
    # series must give psi's
    k = int(np.ceil(np.log(u * (spec.width() / TAYLOR_REACH)) / math.log(1.0 / lam)))  # the series' own K(u)
    last = u * (lam ** np.arange(k))[-1:]
    assert last[0] * spec.width() <= TAYLOR_REACH
    assert spec.psi(last).tobytes() != spec._fold(last, -math.inf, math.inf).tobytes()
    grid = np.array([0.5, u, 3.0])
    want = series_by_blocks(LimitCumulant(spec, lam), grid, cumulant._SERIES_BUF_LEN)
    for bound in (True, False):
        got = LimitCumulant(spec, lam).phi(grid, bound)
        assert got[0].tobytes() == want[0].tobytes()
    assert got[1] is None and LimitCumulant(spec, lam).phi(grid)[1].tobytes() == want[1].tobytes()


def test_the_memo_keeps_value_only_sums_and_adds_a_bound_on_request(monkeypatch):
    spec, lam, u = TwoPoint(1.0, -1.0, 0.3), 0.5, NODE_SETS[2]
    fresh = np.stack(LimitCumulant(spec, lam).series(u)).tobytes()
    sums = []
    series = LimitCumulant.series

    def counted(self, u, bound=True):
        sums.append(bound)
        return series(self, u, bound)

    monkeypatch.setattr(LimitCumulant, "series", counted)
    # value then full: a second value-only call reuses the sum; the full
    # call sums the bound too, with the same value bits
    lc = LimitCumulant(spec, lam)
    value = lc.phi(u, bound=False)[0]
    assert lc.phi(u.copy(), bound=False)[0].tobytes() == value.tobytes()
    pair = lc.phi(u.copy())
    assert sums == [False, True]
    assert value.tobytes() == pair[0].tobytes() and np.stack(pair).tobytes() == fresh
    assert np.stack(lc.phi(u.copy())).tobytes() == fresh and sums == [False, True]
    # full then value: the value comes from the full sum, and keeps it
    sums.clear()
    lc = LimitCumulant(spec, lam)
    pair = lc.phi(u)
    value, none = lc.phi(u.copy(), bound=False)
    assert none is None and value.tobytes() == pair[0].tobytes()
    assert np.stack(lc.phi(u.copy())).tobytes() == fresh and sums == [True]
    # a value-only answer does not alias the memo either
    value[:] = -1.0
    assert lc.phi(u.copy(), bound=False)[0].tobytes() == pair[0].tobytes()


def test_threads_mixing_value_and_full_calls_get_fresh_series_bits():
    # a value-only sum may land over a full one and a full one over it: each
    # answer is still the fresh series' bits, its bound present when asked
    spec, lam = TwoPoint(1.0, -1.0, 0.3), 0.5
    batches = [NODE_SETS[k % 4][k % 7 :: 3] for k in range(24)]
    want = [np.stack(LimitCumulant(spec, lam).series(u)).tobytes() for u in batches]
    shared = LimitCumulant(spec, lam)

    def value_only(k):  # each batch is asked value-only, full and value-only, or the other way
        return (k + k // len(batches)) % 2

    def ask(job):
        k, u = job
        if value_only(k):
            return shared.phi(u, bound=False)[0].tobytes()
        return np.stack(shared.phi(u)).tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            got = list(pool.map(ask, enumerate(batches * 3), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    for k, (answer, full) in enumerate(zip(got, want * 3)):
        assert answer == (full[: len(full) // 2] if value_only(k) else full)


def test_phi_value_vectorized_matches_scalar():
    lc = LimitCumulant(TwoPoint(1.0, -1.0, 0.5), 0.5)
    u = np.array([0.0, 0.5, 2.0, 10.0])
    vec = lc.phi(u)[0]
    np.testing.assert_allclose(vec, [lc.phi(float(x))[0] for x in u], rtol=1e-14)


def test_mode_validation():
    # the family decides phi's path; no argument selects it
    capped_point = CappedAbove(Deterministic(2.0), 1.0)
    assert LimitCumulant(capped_point, 0.5).mode == "closed_form_deterministic"
    assert LimitCumulant(StableSpectrallyNegative(0.7, 1.0), 0.5).mode == "closed_form_stable"
    capped_pair = CappedAbove(TwoPoint(1.0, -1.0, 0.5), 0.5)
    assert LimitCumulant(capped_pair, 0.5).mode == "series"
    with pytest.raises(TypeError):
        LimitCumulant(Gaussian(0, 1), 0.5, mode="series")
    with pytest.raises(ValueError):
        LimitCumulant(Gaussian(0, 1), 1.5)


def test_stationary_reference_moments():
    mean, var = stationary_reference(Gaussian(0.0, 1.0), 0.5)
    assert mean == 0.0
    assert math.isclose(var, 4.0 / 3.0, rel_tol=1e-15)
    mean, var = stationary_reference(StableSpectrallyNegative(1.5, 1.0, 0.3), 0.5)
    assert math.isclose(mean, 0.6, rel_tol=1e-12)
    assert var is None  # alpha < 2: infinite variance
    # alpha < 1: no mean, so no reference at all
    assert stationary_reference(StableSpectrallyNegative(0.5, 1.0, 0.0), 0.5) is None


def test_series_that_never_settles_raises_typed():
    # K(1e5) is about 138,000 terms at lam 0.9999, beyond the budget K_MAX
    lc = LimitCumulant(TwoPoint(1.0, -1.0, 0.5), 0.9999)
    with pytest.raises(SeriesDivergenceError) as exc:
        lc.phi(1e5)
    assert exc.value.exit_code == 4


def test_phi_slope_gaussian_superlinear():
    # eta unbounded above: y_adm is inf and phi(u)/u grows without limit
    lc = LimitCumulant(Gaussian(0, 1), 0.5)
    probes = np.geomspace(1.0, 1e4, 17)
    slopes = lc.phi(probes)[0] / probes
    assert lc.y_adm == math.inf
    assert slopes[-1] >= 2.0 * slopes[probes >= 1e3][0]


def test_phi_slope_floored_linear_limit():
    # eta bounded above: phi(u)/u rises to y_adm = ess-sup / (1 - lam)
    fl = FlooredPositive(Gaussian(0.0, 1.0), 1.0)
    lc = LimitCumulant(fl, 0.5)
    probes = np.geomspace(1.0, 1e4, 17)
    slopes = lc.phi(probes)[0] / probes
    assert lc.y_adm == 2.0
    assert slopes[-1] < 2.0 * slopes[probes >= 1e3][0]
    assert abs(slopes[-1] - 2.0) < 0.02


# -- the cumulant tail -----------------------------------------------------


def exact_cumulants(spec, n):
    """kappa_1..kappa_n of a Discrete law in exact rational arithmetic, its
    probabilities normalised by their sum: the law that psi and phi evaluate."""
    atoms = [(Fraction(a), Fraction(p)) for a, p in spec.atoms()]
    total = sum(p for _, p in atoms)
    m = [sum(p * a**j for a, p in atoms) / total for j in range(n + 1)]
    kappa = []
    for j in range(1, n + 1):
        kappa.append(m[j] - sum(math.comb(j - 1, k - 1) * kappa[k - 1] * m[j - k] for k in range(1, j)))
    return kappa


#: Atom values whose products with the probabilities are normal floats: a
#: subnormal moment carries fewer than 53 bits, so no ulp claim holds there.
atom_values = st.floats(-3.0, 3.0).filter(lambda a: a == 0.0 or abs(a) > 1e-290)


#: Atoms on the grid of 2**-20, so that a law moved by a shift on the same
#: grid (below 2**32 in size) has its atoms moved exactly.
dyadic_values = st.integers(-3 << 20, 3 << 20).map(lambda k: k / 2.0**20)


@st.composite
def discrete_laws(draw, atom_values=atom_values):
    values = draw(st.lists(atom_values, min_size=2, max_size=4, unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(values), max_size=len(values)))
    total = sum(weights)
    return Discrete(tuple((a, w / total) for a, w in zip(values, weights)))


@settings(max_examples=40, deadline=None)
@given(spec=discrete_laws(), frac=st.floats(1e-12, 0.5), lam=st.sampled_from(LAMBDAS))
def test_phi_near_zero_is_the_cumulant_series(spec, frac, lam):
    # below w0 = TAYLOR_REACH/width phi is its cumulant series alone, exact to
    # a few ulps of its scale E|eta| u/(1 - lam), at which the mean is formed
    u = frac * TAYLOR_REACH / spec.width()
    assume(math.isfinite(u))  # a width near the subnormal range puts w0 past the floats
    lam_q, u_q = Fraction(lam), Fraction(u)
    want = sum(
        k * u_q**j / (math.factorial(j) * (1 - lam_q**j))
        for j, k in enumerate(exact_cumulants(spec, 30), start=1)
    )
    value, bound = LimitCumulant(spec, lam).phi(u)
    scale = sum(p * abs(a) for a, p in spec.atoms()) * u / (1.0 - lam)
    assert abs(value - float(want)) <= 4 * np.finfo(float).eps * scale
    assert bound <= 2 * np.finfo(float).eps * abs(value)


@settings(max_examples=40, deadline=None)
@given(
    spec=discrete_laws(dyadic_values),
    shift=st.integers(-100 << 20, 100 << 20).map(lambda k: k / 2.0**20),
    u=st.one_of(st.floats(0.0, 1e-3), st.floats(0.0, 50.0)),
    lam=st.sampled_from(LAMBDAS),
)
# at K(u) = 0 phi is the cumulant tail alone, led by its mean term
@example(
    spec=Discrete(((8949 / 2**20, 1 / 3), (0.0, 1 / 3), (-7111 / 2**20, 1 / 3))),
    shift=2.0**-20,
    u=8.064e-4,
    lam=0.3,
)
def test_phi_of_a_shifted_law_shifts_by_its_mean_term(spec, shift, u, lam):
    # phi(law + c)(u) = phi(law)(u) + c u/(1 - lam), within the two bounds;
    # atoms and shift on one dyadic grid, so every moved atom is exact
    moved = Discrete(tuple((a + shift, p) for a, p in spec.atoms()))
    assert all(a - shift == b for (a, _), (b, _) in zip(moved.atoms(), spec.atoms()))
    value, bound = LimitCumulant(spec, lam).phi(u)
    moved_value, moved_bound = LimitCumulant(moved, lam).phi(u)
    drift = shift * u / (1.0 - lam)
    # relative rounding, and absolute in the subnormal range
    slack = 4 * np.finfo(float).eps * abs(drift) + 4 * np.finfo(float).smallest_subnormal
    assert abs(moved_value - drift - value) <= bound + moved_bound + slack


#: Most of its mass at 0, a rare atom far out: psi's Taylor radius is set by
#: the width 1000, not by the standard deviation 0.03.
LOPSIDED = Discrete(((1000.0, 1e-9), (0.0, 1.0 - 1e-9)))


@pytest.mark.parametrize("lam", [0.5, 0.9])
@pytest.mark.parametrize("u", [1e-3, 0.02, 0.05])
def test_lopsided_law_phi_within_its_bound_of_a_direct_sum(u, lam):
    terms, t = [], u
    while t * 1000.0 > 1e-30:
        terms.append(float(LOPSIDED.psi(t)))
        t *= lam
    value, bound = LimitCumulant(LOPSIDED, lam).phi(u)
    assert abs(value - math.fsum(terms)) <= bound
    assert bound <= 1e-6 * abs(value)


def test_cumulants_of_a_truncated_law_take_no_engine_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("engine called")

    monkeypatch.setattr(innovations, "improper_integral", refuse)
    per_law = math.inf
    for _ in range(3):  # the best of three rounds of fresh laws
        laws = [CappedAbove(Gaussian(0.1 * k, 1.0), 1.5) for k in range(50)]
        laws += [FlooredPositive(Gaussian(0.1 * k, 2.0), 1.0) for k in range(50)]
        start = time.perf_counter()
        cumulants = [law.cumulants for law in laws]
        per_law = min(per_law, (time.perf_counter() - start) / len(laws))
    assert per_law <= 100e-6, f"{per_law * 1e6:.0f} us per law"
    # the mean and variance read the same tuple
    for law, (mean, unit, scaled) in zip(laws, cumulants):
        assert law.mean() == mean and law.var() == scaled[0] * unit * unit


def test_truncated_gaussian_moments_match_the_closed_form():
    # E[eta; eta <= 1.5] + 1.5 P(eta > 1.5) and E[eta**2; ...] for N(0, 1) capped at 1.5
    capped = CappedAbove(Gaussian(0.0, 1.0), 1.5)
    pdf, tail = math.exp(-1.125) / math.sqrt(2.0 * math.pi), 0.5 * math.erfc(1.5 / math.sqrt(2.0))
    mean = -pdf + 1.5 * tail
    second = (1.0 - tail) - 1.5 * pdf + 2.25 * tail
    assert math.isclose(capped.mean(), mean, rel_tol=1e-14)
    assert math.isclose(capped.var(), second - mean**2, rel_tol=1e-13)


@pytest.mark.parametrize("alpha,cap", [(1.5, 1.0), (0.7, -0.5)])  # the 0.7 law tops out at 0
def test_a_series_law_without_variance_raises_before_any_psi_call(monkeypatch, alpha, cap):
    spec = CappedAbove(StableSpectrallyNegative(alpha, 1.0), cap)
    calls = []
    monkeypatch.setattr(Truncated, "psi", lambda self, u: calls.append(u))
    start = time.perf_counter()
    with pytest.raises(DivergenceError, match="no variance") as exc:
        LimitCumulant(spec, 0.5).phi(np.array([0.5, 2.0]))
    assert exc.value.exit_code == 4
    assert calls == [] and time.perf_counter() - start < 1.0


def test_series_names_its_term_count_and_budget():
    with pytest.raises(SeriesDivergenceError, match=f"K\\(u\\) = .* K_MAX = {K_MAX}"):
        LimitCumulant(TwoPoint(1.0, -1.0, 0.5), 0.9999).phi(1e5)
    # lam 0.999 fits the budget up to the engine's u of 1e5
    value, bound = LimitCumulant(TwoPoint(1.0, -1.0, 0.5), 0.999).phi(1e5)
    assert math.isclose(value, 1e5 / 0.001, rel_tol=1e-3) and bound <= 1e-10 * value
