"""Passage problems: feasibility, expectation identity, bounds, certificates."""

import dataclasses
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import reference  # noqa: E402  (the benchmark's references: numpy only, no ar1fpt)

from ar1fpt import (
    CappedAbove,
    CertificateInfeasibleError,
    CoverageError,
    Deterministic,
    Discrete,
    DivergenceError,
    FlooredPositive,
    Gaussian,
    InfeasibleTruncationError,
    NoCrossingError,
    PassageProblem,
    StableSpectrallyNegative,
    TwoPoint,
    check_harmonic,
    exponential_certificate,
    feasibility_report,
    h_table,
    identity_estimate,
    lower_bound_e_tau,
    passage,
    simulate_passage,
    transform,
    upper_bound_e_tau,
)

DET = PassageProblem(lam=0.5, x=0.0, a=1.5, spec=Deterministic(1.0))
GAUSS = PassageProblem(lam=0.5, x=0.0, a=1.0, spec=Gaussian(0.0, 1.0))
THREE_ATOM = Discrete(((1.5, 0.2), (0.3, 0.5), (-2.0, 0.3)))


def test_problem_validation():
    with pytest.raises(ValueError):
        PassageProblem(lam=1.2, x=0.0, a=1.0, spec=Gaussian(0, 1))
    with pytest.raises(ValueError):
        PassageProblem(lam=0.5, x=2.0, a=1.0, spec=Gaussian(0, 1))


def test_crossing_mass_values():
    assert feasibility_report(DET).crossing_mass == 1.0  # eta = 1 > a(1-lam) = 0.75
    assert math.isclose(
        feasibility_report(GAUSS).crossing_mass, 1.0 - 0.6914624612740131, rel_tol=1e-9
    )


def test_feasibility_reachable():
    rep = feasibility_report(DET)
    assert not rep.certain_infinite and rep.crossing_possible
    assert rep.sup_bound == 2.0


def test_feasibility_certain_infinite():
    p = PassageProblem(lam=0.5, x=0.0, a=3.0, spec=Deterministic(1.0))
    rep = feasibility_report(p)
    assert rep.certain_infinite and not rep.crossing_possible
    assert rep.crossing_mass == 0.0


def test_feasibility_unbounded_family_never_certain_infinite():
    p = PassageProblem(lam=0.5, x=0.0, a=50.0, spec=Gaussian(0, 1))
    rep = feasibility_report(p)
    assert not rep.certain_infinite and rep.crossing_possible
    assert rep.sup_bound is None


# -- expectation identity ----------------------------------------------------
#
# The identity's nodes are the h table's Chebyshev points in the
# pre-crossing state z, frozen before any path is simulated.


def test_deterministic_identity_exact():
    table = h_table(DET)
    sim = simulate_passage(DET, n_paths=512, max_steps=50, seed=0, h=table)
    assert sim.e_tau_hat == 3.0 and sim.e_tau_std_err == 0.0
    value, std_err = identity_estimate(DET, sim, table)
    assert abs(value - 3.0) < 1e-8
    assert std_err < 1e-6


def test_identity_rejects_foreign_nodes():
    table = h_table(DET)
    sim = simulate_passage(DET, n_paths=16, max_steps=50, seed=0, h=table)
    # the same law, tabulated with the H(x) of another start
    other = PassageProblem(lam=DET.lam, x=-1.0, a=DET.a, spec=DET.spec)
    with pytest.raises(CoverageError, match="built for"):
        identity_estimate(other, sim, table)
    # a simulation that folded no h(Z)
    plain = simulate_passage(DET, n_paths=16, max_steps=50, seed=0)
    with pytest.raises(CoverageError, match="folded no h"):
        identity_estimate(DET, plain, table)


@pytest.mark.parametrize(
    "p",
    [
        # from x = -60 one step crosses a = 1 only past 31 sigmas (P < 1e-210)
        PassageProblem(lam=0.5, x=-60.0, a=1.0, spec=Gaussian(0.0, 1.0)),
        PassageProblem(lam=0.5, x=0.0, a=1.0, spec=TwoPoint(1.0, -1.0, 0.5)),
    ],
    ids=["unbounded-law", "hard-envelope"],
)
def test_identity_with_no_crossed_path_raises(p):
    table = h_table(p)
    sim = simulate_passage(p, 5, max_steps=1, seed=0, h=table)
    assert sim.n_crossed == 0
    with pytest.raises(CoverageError, match="no path crossed"):
        identity_estimate(p, sim, table)


def test_identity_with_censored_paths_raises():
    # the paths cut off at max_steps are the slowest: the mean of h(Z) over
    # the others is biased low by far more than its error bar
    table = h_table(GAUSS)
    sim = simulate_passage(GAUSS, n_paths=2000, max_steps=3, seed=3, h=table)
    assert 0 < sim.n_censored < sim.n_paths
    with pytest.raises(CoverageError, match=f"{sim.n_censored} of 2000 paths did not cross"):
        identity_estimate(GAUSS, sim, table)


def test_identity_hard_envelope_covers_a_level_below_zero():
    # tau = 1, Z = x = -2 and X_tau = -0.9 exactly: the table's one piece
    # covers the negative state, and h(-2) = H(-0.9)
    p = PassageProblem(lam=0.5, x=-2.0, a=-1.0, spec=Deterministic(0.1))
    table = h_table(p)
    sim = simulate_passage(p, n_paths=100, seed=0, h=table)
    assert sim.n_outside_table == 0 and sim.h_abs_err == table.abs_err
    value, std_err = identity_estimate(p, sim, table)
    assert abs(value - 1.0) <= std_err < 1e-7
    h_y = transform(p.limit_cumulant(), "H", -0.9)
    assert abs(sim.h_mean - h_y.value) <= table.abs_err + h_y.abs_err


def test_identity_nodes_deterministic_envelope_is_hard():
    # a law bounded above is crossed only from z > (a - ess-sup)/lam: the
    # table starts there and covers every pre-crossing state
    table = h_table(DET)
    (count, lo, hi, _), = table.pieces
    (threshold,) = table.thresholds
    assert (count, lo, hi) == (1, threshold, 1.5)
    # the kernel's own test: 0.5*z + 1 > 1.5 holds from the threshold on,
    # two ulps above 1, where 0.5*z + 1 first rounds above 1.5
    assert 0.5 * threshold + 1.0 > 1.5 >= 0.5 * np.nextafter(threshold, 0.0) + 1.0
    assert threshold == np.nextafter(np.nextafter(1.0, 2.0), 2.0)
    # a Gaussian has no such bound: the table reaches 12 scales below the
    # level, and a state further down is evaluated directly
    (count, lo, hi, _), = h_table(GAUSS).pieces
    assert (count, lo, hi) == (0, -11.0, 1.0)
    _, outside = h_table(GAUSS).lookup(np.array([-11.5, -11.0, 0.0]))
    assert outside.tolist() == [-11.5]


def test_identity_nodes_raise_on_truncated_envelope():
    # lam*z + 1 reaches 1.99995, 5e-5 below y_adm = 2: at u = 1e5 the
    # integrand exp(u*(y - 2))/u is still about 7e-8
    p = PassageProblem(lam=0.5, x=0.0, a=2.0 - 1e-4, spec=Deterministic(1.0))
    with pytest.raises(DivergenceError, match="h table"):
        h_table(p)
    # the flagship table: one piece of 24 Chebyshev coefficients
    (_, _, _, coef), = h_table(GAUSS).pieces
    assert len(coef) == 24


NODE_RULE_PROBLEMS = [
    GAUSS,
    PassageProblem(lam=0.9, x=0.0, a=4.0, spec=Gaussian(0.0, 1.0)),
    PassageProblem(lam=0.5, x=0.0, a=1.0, spec=TwoPoint(1.0, -1.0, 0.5)),
    PassageProblem(lam=0.5, x=0.0, a=1.0, spec=CappedAbove(Gaussian(0.0, 1.0), 1.5)),
    PassageProblem(lam=0.5, x=-1.0, a=1.0, spec=FlooredPositive(Gaussian(0.0, 1.0), 1.0)),
    PassageProblem(lam=0.5, x=0.0, a=1.0, spec=Deterministic(0.75)),
    PassageProblem(lam=0.5, x=-100.0, a=1.0, spec=Gaussian(0.0, 1.0)),
    PassageProblem(lam=0.5, x=-1000.0, a=1.0, spec=Gaussian(0.0, 1.0)),
    PassageProblem(lam=0.5, x=-2.0, a=-1.0, spec=Deterministic(0.1)),
]


def _off_node_states(table, k=41):
    """k states strictly inside each piece, none of them a Chebyshev point."""
    return np.concatenate([np.linspace(lo, hi, k + 2)[1:-1] for _, lo, hi, _ in table.pieces])


@pytest.mark.parametrize(
    "p",
    NODE_RULE_PROBLEMS,
    ids=[
        "flagship", "lam0.9", "TwoPoint", "Capped", "Floored", "Deterministic", "x-100", "x-1000",
        "y_env-below-0",
    ],
)
def test_identity_nodes_reproduce_H_increments(p):
    # the identity's increment at a pre-crossing state z is h(z) - H(x):
    # the table's, at 41 off-node states a piece, against a direct
    # evaluation, within the table's bound and the engine's errors; H(x) is
    # the engine's own
    table = h_table(p)
    h_x = transform(p.limit_cumulant(), "H", p.x)
    assert (table.h_x.value, table.h_x.abs_err) == (h_x.value, h_x.abs_err)
    z = _off_node_states(table)
    got, outside = table.lookup(z)
    assert len(outside) == 0
    ref = table.direct(z)
    assert ref.converged.all()
    gap = np.abs((got - h_x.value) - (ref.value - h_x.value))
    np.testing.assert_array_less(gap, table.abs_err + ref.abs_err)


def test_identity_far_below_the_level_matches_monte_carlo():
    # x = -1000 enters only through H(x); lam**n * 1000 falls below 1 after
    # about ten steps, so E tau is about ten more than at x = 0
    p = PassageProblem(lam=0.5, x=-1000.0, a=1.0, spec=Gaussian(0.0, 1.0))
    table = h_table(p)
    sim = simulate_passage(p, n_paths=20_000, seed=3, h=table)
    value, std_err = identity_estimate(p, sim, table)
    combined = math.hypot(std_err, sim.e_tau_std_err)
    assert abs(value - sim.e_tau_hat) <= 3.0 * combined


def test_identity_raises_where_H_of_x_diverges():
    # H(-1e300) needs the integrand (e^{u*x} - 1)/u resolved on u < 1e-300:
    # the engine does not converge there, and the table, built before any
    # path is simulated, refuses the problem
    p = PassageProblem(lam=0.5, x=-1e300, a=1.0, spec=Gaussian(0.0, 1.0))
    with pytest.raises(DivergenceError, match="H\\(x\\)"):
        h_table(p)


# -- the h table against independent references --------------------------------


def _gauss_legendre(lo, hi, panels=64, order=20):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()


def _normal_tail(t):
    return 0.5 * math.erfc(t / math.sqrt(2.0))


def _h_by_quadrature(p, z, cap=math.inf):
    """E[H(lam*z + eta) | lam*z + eta > a] for eta ~ N(0, 1) capped at cap:
    Gauss-Legendre over (t, min(cap, t + 24)) for the density part, plus the
    atom at the cap, and H from the engine at every point."""
    lc = p.limit_cumulant()
    t = p.a - p.lam * z
    eta, w = _gauss_legendre(t, min(cap, t + 24.0))
    dens = w * np.exp(-0.5 * eta**2) / math.sqrt(2.0 * math.pi)
    total = dens @ transform(lc, "H", p.lam * z + eta).require("reference H").value
    mass = dens.sum()
    if cap < math.inf:
        top = _normal_tail(cap)
        total += top * transform(lc, "H", p.lam * z + cap).value
        mass += top
    return total / mass


@pytest.mark.parametrize("cap", [math.inf, 1.5], ids=["gaussian", "capped"])
def test_h_table_matches_gauss_legendre_over_the_crossing_innovation(cap):
    spec = Gaussian(0.0, 1.0) if cap == math.inf else CappedAbove(Gaussian(0.0, 1.0), cap)
    p = PassageProblem(lam=0.5, x=0.0, a=1.0, spec=spec)
    table = h_table(p)
    # the reach of the capped table starts where the cap crosses, z = -1
    z = np.linspace(max(-4.0, table.pieces[0][1]), 1.0, 9)[1:]
    got, _ = table.lookup(z)
    want = np.array([_h_by_quadrature(p, zi, cap) for zi in z])
    np.testing.assert_allclose(got, want, rtol=1e-8, atol=table.abs_err)


def test_h_table_matches_exact_atom_sums():
    # a skewed three-atom law at lam 0.3, a 0.2: the top two atoms cross
    # from z > -4.33 and z > -0.33, so the table has two pieces
    p = PassageProblem(lam=0.3, x=0.0, a=0.2, spec=THREE_ATOM)
    table = h_table(p)
    assert [c for c, *_ in table.pieces] == [1, 2]
    lc = p.limit_cumulant()
    z = _off_node_states(table, 37)
    got, outside = table.lookup(z)
    assert len(outside) == 0
    for zi, hi in zip(z, got):
        crossing = [(v, w) for v, w in THREE_ATOM.pairs if p.lam * zi + v > p.a]
        h_vals = transform(lc, "H", [p.lam * zi + v for v, _ in crossing])
        mass = math.fsum(w for _, w in crossing)
        want = math.fsum(w * h for (_, w), h in zip(crossing, h_vals.value)) / mass
        assert abs(hi - want) <= table.abs_err + float(h_vals.abs_err.max()), zi


def _masked_lookup(table, z):
    # HTable.lookup with no shortcut: a mask per piece, whatever z holds
    counts = np.searchsorted(table.thresholds, z, side="right") if len(table.thresholds) else 0
    inside = np.zeros(len(z), dtype=bool)
    out = np.empty(len(z))
    for count, lo, hi, coef in table.pieces:
        mine = (counts == count) & (z >= lo) & (z <= hi)
        inside |= mine
        out[mine] = passage._polyval(z[mine], lo, hi, coef)
    return out[inside], z[~inside]


class _MaskCalls:
    """numpy for the passage module, counting the calls that build a mask."""

    def __init__(self):
        self.masks = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, *args, **kwargs):
        self.masks += 1
        return np.zeros(*args, **kwargs)


def _lookup_bytes(table, z) -> tuple[bytes, bytes]:
    hz, outside = table.lookup(z)
    return hz.tobytes(), outside.tobytes()


_CHUNK = 8192


def _flagship_states(where: str) -> np.ndarray:
    """Three and a half chunks of 8,192 states on the flagship's one piece,
    [-11, 1], shuffled, with its edges or states off it placed as named."""
    z = np.random.default_rng(8).permutation(np.linspace(-11.0, 1.0, 7 * _CHUNK // 2 + 2)[1:-1])
    if where == "edges":
        # each edge at a chunk's ends and inside another chunk
        z[[0, _CHUNK - 1, 2 * _CHUNK + 17]] = -11.0
        z[[_CHUNK, 2 * _CHUNK - 1, 3 * _CHUNK + 5]] = 1.0
    elif where == "below":
        # one state just below the piece in the second chunk; in the fourth,
        # one just above it and, after that, one further below
        z[_CHUNK + 100] = np.nextafter(-11.0, -np.inf)
        z[[3 * _CHUNK + 9, 3 * _CHUNK + 3]] = [-11.5, np.nextafter(1.0, 2.0)]
    return z


@pytest.mark.parametrize("where", ["inside", "edges", "below"])
def test_one_piece_fold_reads_the_bytes_of_the_masked_lookup(monkeypatch, where):
    table = h_table(GAUSS)
    assert len(table.thresholds) == 0 and [piece[:3] for piece in table.pieces] == [(0, -11.0, 1.0)]
    z = _flagship_states(where)
    spy = _MaskCalls()
    monkeypatch.setattr(passage, "np", spy)
    got = _lookup_bytes(table, z)
    monkeypatch.setattr(passage, "np", np)
    monkeypatch.setattr(passage.HTable, "lookup", _masked_lookup)
    assert got == _lookup_bytes(table, z)
    if where == "below":
        # states off the piece: the one lookup builds its mask
        assert np.frombuffer(got[1]).tolist() == [np.nextafter(-11.0, -np.inf), np.nextafter(1.0, 2.0), -11.5]
        assert spy.masks == 1
    else:
        assert got[1] == b"" and spy.masks == 0


def test_a_table_with_thresholds_folds_through_its_masks(monkeypatch):
    # the two-point table has one piece, from the up-atom's threshold just
    # above 0 to the level 1; the down-atom's, near 4, lies past the level
    p = PassageProblem(lam=0.5, x=0.0, a=1.0, spec=TwoPoint(1.0, -1.0, 0.5))
    table = h_table(p)
    lo, beyond = table.thresholds.tolist()
    assert 0.0 < lo < 1e-15 and beyond > 1.0
    assert [piece[:3] for piece in table.pieces] == [(1, lo, 1.0)]
    z = np.random.default_rng(9).uniform(lo, 1.0, 2 * _CHUNK + 3)
    z[5] = 0.0  # below the threshold: no atom crosses, so it is outside
    spy = _MaskCalls()
    monkeypatch.setattr(passage, "np", spy)
    got = _lookup_bytes(table, z)
    monkeypatch.setattr(passage, "np", np)
    monkeypatch.setattr(passage.HTable, "lookup", _masked_lookup)
    assert got == _lookup_bytes(table, z)
    # the state off the piece makes the lookup build its mask
    assert np.frombuffer(got[1]).tolist() == [0.0] and spy.masks == 1


@pytest.mark.parametrize("where", ["lower", "lower-to-threshold", "upper"])
def test_a_piece_covers_a_chunk_only_with_its_count(monkeypatch, where):
    # the three-atom table at lam 0.3, a 0.2 splits at the middle atom's
    # threshold t: a state at t lies on the lower piece, [lo, t], but the
    # middle atom crosses from it, so it takes the upper piece's count
    p = PassageProblem(lam=0.3, x=0.0, a=0.2, spec=THREE_ATOM)
    table = h_table(p)
    (_, lo, t, _), (_, t_up, hi, _) = table.pieces
    assert t == t_up == table.thresholds[1]
    rng = np.random.default_rng(10)
    z = rng.uniform(t, hi, 100) if where == "upper" else rng.uniform(lo, t, 100)
    if where == "lower-to-threshold":
        z[7] = t
    spy = _MaskCalls()
    monkeypatch.setattr(passage, "np", spy)
    got = table.lookup(z)
    monkeypatch.setattr(passage, "np", np)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in _masked_lookup(table, z)]
    assert len(got[1]) == 0 and spy.masks == int(where == "lower-to-threshold")


@pytest.mark.parametrize(
    "lam,a,x,n_paths,seed",
    [(0.5, 1.0, 0.0, 1 << 16, 104), (0.5, 2.0, -1.0, 20_000, 7)],
    ids=["flagship", "higher-level"],
)
def test_identity_matches_the_nystrom_e_tau(lam, a, x, n_paths, seed):
    p = PassageProblem(lam=lam, x=x, a=a, spec=Gaussian(0.0, 1.0))
    table = h_table(p)
    sim = simulate_passage(p, n_paths=n_paths, seed=seed, h=table)
    value, std_err = identity_estimate(p, sim, table)
    assert abs(value - reference.GaussianPassage(lam, a, x).e_tau()) <= 3.0 * std_err


def test_identity_lies_in_the_enumeration_bracket():
    p = PassageProblem(lam=0.5, x=0.0, a=1.0, spec=TwoPoint(1.0, -1.0, 0.5))
    table = h_table(p)
    sim = simulate_passage(p, n_paths=40_000, seed=1, h=table)
    value, std_err = identity_estimate(p, sim, table)
    lo, hi = reference.discrete_e_tau_bracket(list(p.spec.pairs), 0.5, 0.0, 1.0, 22)
    assert lo - 3.0 * std_err <= value <= hi + 3.0 * std_err


def test_stable_law_has_no_h_table():
    p = PassageProblem(lam=0.5, x=0.0, a=1.0, spec=StableSpectrallyNegative(1.5, 1.0))
    with pytest.raises(DivergenceError, match="partial MGF"):
        h_table(p)


# -- bounds ------------------------------------------------------------------


def test_bound_sandwich_deterministic():
    lower, _ = lower_bound_e_tau(DET)
    upper, _ = upper_bound_e_tau(DET, h_cap=4.0)
    assert lower <= 3.0 <= upper + 1e-9
    assert math.isclose(lower, 2.0, rel_tol=1e-9)  # H(1.5) - H(0) = log2(4)
    assert math.isclose(upper, 3.0, rel_tol=1e-8)  # cap truncates to ess-sup


def test_bound_sandwich_two_point():
    p = PassageProblem(lam=0.5, x=0.0, a=1.0, spec=TwoPoint(1.0, -1.0, 0.5))
    sim = simulate_passage(p, n_paths=50_000, max_steps=10**5, seed=13)
    lower, _ = lower_bound_e_tau(p)
    upper, _ = upper_bound_e_tau(p, h_cap=4.0)
    slack = 3 * sim.e_tau_std_err
    assert lower <= sim.e_tau_hat + slack
    assert sim.e_tau_hat - slack <= upper


def test_upper_bound_infeasible_cap():
    # effective cap at/below a(1-lam) leaves no room to cross
    with pytest.raises(InfeasibleTruncationError):
        upper_bound_e_tau(DET, h_cap=0.75)


def test_bounds_reject_unconverged_quadrature():
    # a just below y_adm = 2: H(a) = log2(2/(2-a)) needs u far beyond the
    # quadrature ceiling, so its tail is truncated and the bound must fail
    p = PassageProblem(lam=0.5, x=0.0, a=2.0 - 1e-7, spec=Deterministic(1.0))
    with pytest.raises(DivergenceError):
        lower_bound_e_tau(p)
    with pytest.raises(DivergenceError):
        upper_bound_e_tau(p, h_cap=4.0)


def test_lower_bound_nonnegative():
    p = PassageProblem(lam=0.5, x=0.0, a=0.0, spec=Gaussian(0, 1))
    assert lower_bound_e_tau(p)[0] >= 0.0


# -- exponential certificate -------------------------------------------------


def test_certificate_structure_and_validity():
    cert = exponential_certificate(GAUSS)
    assert cert.alpha > 0 and cert.c_bound >= 1.0
    assert math.isclose(cert.alpha, -cert.v_star * math.log(1.0 / 0.5), rel_tol=1e-12)
    # the default cap: max(a*(1-lam), 0) plus the family's scale
    assert cert.h_cap == GAUSS.a * (1.0 - GAUSS.lam) + 1.0
    bound = cert.survival_bound(np.array([0, 10, 100]))
    assert np.all(np.diff(bound) < 0)


def _spoil_ends(monkeypatch, n_unconverged: int) -> tuple[list, list]:
    """Make the certificate's first n_unconverged W_v calls at [x, a] come
    back unconverged; (the orders that certify W_v(y_top) < 0, the orders
    tried at [x, a]), filled in as the certificate runs."""
    certifying, tried = [], []

    def spoiled(lc, kind, y, v):
        res = transform(lc, kind, y, v)
        if not isinstance(y, list):
            certifying.extend(v[res.converged & (res.value + res.abs_err < 0.0)].tolist())
            return res
        tried.append(v)
        if len(tried) > n_unconverged:
            return res
        return dataclasses.replace(res, converged=np.zeros_like(res.converged))

    monkeypatch.setattr(passage, "transform", spoiled)
    return certifying, tried


def test_certificate_takes_the_next_order_when_x_and_a_do_not_converge(monkeypatch):
    certifying, tried = _spoil_ends(monkeypatch, 1)
    cert = exponential_certificate(GAUSS)
    assert len(certifying) >= 2 and tried == certifying[:2]
    assert cert.v_star == certifying[1]


def test_certificate_with_no_converged_x_and_a_is_infeasible(monkeypatch):
    certifying, tried = _spoil_ends(monkeypatch, passage._CERT_ORDERS)
    with pytest.raises(CertificateInfeasibleError):
        exponential_certificate(GAUSS)
    assert tried == certifying


def test_certificate_dominates_survival_curve():
    cert = exponential_certificate(GAUSS)
    sim = simulate_passage(GAUSS, n_paths=100_000, max_steps=10**4, seed=77)
    allowance = 2.326 * np.sqrt(
        np.maximum(sim.survival_p * (1 - sim.survival_p), 1e-12) / sim.n_paths
    )
    assert np.all(sim.survival_p <= cert.survival_bound(sim.survival_n) + allowance)


def _enumerated_survival(atoms, lam, x, a, steps):
    """[P_x(tau > n) for n = 0..steps], following every path that stays <= a."""
    vals, probs = np.array(atoms).T
    states, weight = np.array([x]), np.array([1.0])
    out = [1.0]
    for _ in range(steps):
        nxt = (lam * states[:, None] + vals).ravel()
        w = (weight[:, None] * probs).ravel()
        alive = nxt <= a
        states, inverse = np.unique(nxt[alive], return_inverse=True)
        weight = np.bincount(inverse, weights=w[alive], minlength=len(states))
        out.append(weight.sum())
    return np.array(out)


def _nystrom_survival(lam, x, a, steps, lower=-12.0, panels=52, order=16):
    """[P_x(tau > n) for n = 0..steps] for N(0, 1) innovations.

    Composite Gauss-Legendre on [lower, a]: the states below lower, 10
    stationary standard deviations down at lam = 0.5, carry no visible mass.
    """
    g, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lower, a, panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    nodes, weights = (mid[:, None] + half[:, None] * g).ravel(), (half[:, None] * w).ravel()

    def step(frm):  # [i, j]: weight of one step from frm[i] to nodes[j]
        z = nodes - lam * np.asarray(frm)[..., None]
        return weights * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)

    kernel, start = step(nodes), step(x)
    s, out = np.ones(len(nodes)), [1.0]
    for _ in range(steps):
        out.append(start @ s)
        s = kernel @ s
    return np.array(out)


@pytest.mark.parametrize(
    "p,exact,min_alpha",
    [
        (GAUSS, lambda: _nystrom_survival(0.5, 0.0, 1.0, 300), 7.9e-3),
        (
            PassageProblem(lam=0.5, x=0.0, a=1.0, spec=TwoPoint(1.0, -1.0, 0.5)),
            lambda: _enumerated_survival([(1.0, 0.5), (-1.0, 0.5)], 0.5, 0.0, 1.0, 22),
            5.2e-2,
        ),
        (
            PassageProblem(lam=0.5, x=0.0, a=0.8, spec=TwoPoint(1.0, -1.0, 0.4)),
            lambda: _enumerated_survival([(1.0, 0.4), (-1.0, 0.6)], 0.5, 0.0, 0.8, 22),
            1.7e-2,
        ),
    ],
    ids=["gaussian-nystrom", "two-point-0.5", "two-point-0.4"],
)
def test_certificate_dominates_exact_survival(p, exact, min_alpha):
    cert = exponential_certificate(p)
    surv = exact()
    assert cert.alpha >= min_alpha
    assert np.all(cert.survival_bound(np.arange(len(surv))) >= surv)


@pytest.mark.parametrize(
    "spec",
    [
        Gaussian(0.0, 1.0),
        TwoPoint(1.0, -1.0, 0.5),
        CappedAbove(Gaussian(0.0, 1.0), 1.5),
        FlooredPositive(Gaussian(0.0, 1.0), 1.0),
    ],
    ids=["gaussian", "two_point", "capped_above", "floored_positive"],
)
def test_certificate_finishes_within_a_second(spec):
    p = PassageProblem(lam=0.5, x=0.0, a=1.0, spec=spec)
    start = time.perf_counter()
    cert = exponential_certificate(p)
    assert time.perf_counter() - start < 1.0
    assert cert.alpha > 0


def test_certificate_floored_family():
    # the default cap sits above the floored law's top atom, so the
    # certificate works on the floored law itself
    for lam in (0.3, 0.5):
        p = PassageProblem(
            lam=lam, x=0.0, a=1.0, spec=FlooredPositive(Gaussian(0.0, 1.0), 1.0)
        )
        cert = exponential_certificate(p)
        assert cert.alpha > 0 and cert.c_bound > 0 and cert.h_cap == 1.0


def test_certificate_no_crossing():
    p = PassageProblem(lam=0.5, x=0.0, a=3.0, spec=TwoPoint(1.0, -1.0, 0.5))
    with pytest.raises(NoCrossingError):
        exponential_certificate(p)


@pytest.mark.parametrize("spec", [Gaussian(0.0, 1.0), TwoPoint(1.0, -1.0, 0.5)], ids=["gauss", "two-point"])
def test_certificate_past_the_engines_orders_raises_divergence(spec):
    # the scan shares the singular power of its most negative order: from
    # delta 0.975 on, every order reads diverged, a failure of the engine
    # and not of the certificate; at 0.97 eight orders diverge and the rest
    # certify, as at 0.5
    p = PassageProblem(lam=0.5, x=0.0, a=1.0, spec=spec)
    with pytest.raises(DivergenceError, match=r"all 64 orders .* v = -0\.98901: .* about -0\.95"):
        exponential_certificate(p, delta=0.99)
    for delta, n_diverged in ((0.97, 8), (0.5, 0)):
        lc, h = passage._capped(p, p.a * (1.0 - p.lam) + spec.scale())
        orders = -np.geomspace(delta * (1.0 - 1e-3), 1e-6, 64)
        scan = transform(lc, "W", p.lam * p.a + h, orders)
        assert int(np.sum(scan.tail_diagnostic == "diverged")) == n_diverged
        cert = exponential_certificate(p, delta=delta)
        assert cert.v_star in orders[scan.converged] and cert.alpha > 0.0 and math.isfinite(cert.c_bound)


def test_certificate_rejects_delta_outside_the_unit_interval():
    with pytest.raises(ValueError, match="delta must lie in"):
        exponential_certificate(GAUSS, delta=1.0)


NEVER_CROSSING = [
    # a constant 1 keeps every state below y_adm = 2 < a
    PassageProblem(lam=0.5, x=0.0, a=3.0, spec=Deterministic(1.0)),
    # y_adm = 2 = a: the level is reached, never crossed
    PassageProblem(lam=0.5, x=0.0, a=2.0, spec=TwoPoint(1.0, -1.0, 0.5)),
    # the floored N(1, 1) tops out at 0.5, so y_adm = 1 = a
    PassageProblem(lam=0.5, x=0.0, a=1.0, spec=FlooredPositive(Gaussian(1.0, 1.0), 0.5)),
]
PASSAGE_ANSWERS = {
    "lower_bound": lower_bound_e_tau,
    # a cap above the ess-sup: the gate, not the cap, must refuse it
    "upper_bound": lambda p: upper_bound_e_tau(p, h_cap=4.0),
    # the identity's nodes: its h table, built before any path
    "identity_nodes": h_table,
    "certificate": exponential_certificate,
}


@pytest.mark.parametrize("p", NEVER_CROSSING, ids=["Deterministic", "TwoPoint", "Floored"])
@pytest.mark.parametrize("answer", PASSAGE_ANSWERS.values(), ids=PASSAGE_ANSWERS.keys())
def test_every_passage_answer_refuses_a_never_crossing_problem(p, answer):
    assert not feasibility_report(p).crossing_possible
    with pytest.raises(NoCrossingError, match="the level is never crossed"):
        answer(p)


# -- error bars of the bounds, and lam near 1 ----------------------------------


def test_bounds_carry_the_engine_error_of_their_H_increment():
    p = PassageProblem(lam=0.5, x=0.0, a=1.0, spec=TwoPoint(1.0, -1.0, 0.5))
    h = transform(p.limit_cumulant(), "H", [p.a, p.x])
    lower, lower_err = lower_bound_e_tau(p)
    assert lower_err == float(h.abs_err[0] + h.abs_err[1]) > 0.0
    assert lower == max(float(h.value[0] - h.value[1]) - lower_err, 0.0)
    # the ess-sup 1 is the cap in force: the capped law is the law itself
    h = transform(p.limit_cumulant(), "H", [p.lam * p.a + 1.0, p.x])
    upper, upper_err = upper_bound_e_tau(p, h_cap=4.0)
    assert upper_err == float(h.abs_err[0] + h.abs_err[1]) > 0.0
    assert upper == float(h.value[0] - h.value[1]) + upper_err


def test_three_atom_law_at_lam_0999():
    # K(u) runs to some 20,000 terms of psi; E tau is near 1e8 (mean -0.15)
    p = PassageProblem(lam=0.999, x=0.0, a=1.0, spec=THREE_ATOM)
    start = time.perf_counter()
    lower, _ = lower_bound_e_tau(p)
    upper, _ = upper_bound_e_tau(p, h_cap=4.0)
    assert 0.0 < lower <= upper
    lc = p.limit_cumulant()
    for kind, v in (("N", 1.0), ("H", None), ("W", -0.1)):
        assert check_harmonic(lc, kind, y=0.0, v=v) < 1e-6, kind
    assert time.perf_counter() - start < 2.0
    start = time.perf_counter()
    try:
        assert exponential_certificate(p).alpha > 0.0
    except CertificateInfeasibleError:
        pass
    assert time.perf_counter() - start < 2.0


def test_to_powers_is_numpys_cheb2poly_of_each_chebyshev_polynomial():
    # column k of the h table's conversion to the power basis is T_k's, exactly
    n = passage._TABLE_NODES
    for k, column in enumerate(passage._TO_POWERS.T):
        want = np.zeros(n)
        want[: k + 1] = np.polynomial.chebyshev.cheb2poly(np.eye(n)[k])
        assert column.tobytes() == want.tobytes(), k
