"""Passage problems: feasibility, expectation identity, bounds, certificates."""

import math
import time

import numpy as np
import pytest

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
    TwoPoint,
    check_harmonic,
    exponential_certificate,
    feasibility_report,
    identity_e_tau,
    identity_nodes,
    lower_bound_e_tau,
    simulate_passage,
    transform,
    upper_bound_e_tau,
)

DET = PassageProblem(lam=0.5, x=0.0, a=1.5, spec=Deterministic(1.0))
GAUSS = PassageProblem(lam=0.5, x=0.0, a=1.0, spec=Gaussian(0.0, 1.0))


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


def test_deterministic_identity_exact():
    nodes = identity_nodes(DET)
    sim = simulate_passage(DET, n_paths=512, max_steps=50, seed=0, mgf_u_nodes=nodes.u)
    assert sim.e_tau_hat == 3.0 and sim.e_tau_std_err == 0.0
    value, std_err = identity_e_tau(DET, sim.mgf_u, sim.mgf_value, sim.mgf_std_err, nodes)
    assert abs(value - 3.0) < 1e-8
    assert std_err < 1e-6


def test_identity_rejects_foreign_nodes():
    nodes = identity_nodes(DET)
    u = np.linspace(0.01, 5.0, 40)
    with pytest.raises(CoverageError):
        identity_e_tau(DET, u, np.ones_like(u), np.zeros_like(u), nodes)
    # the same u, frozen with the H(x) of another start
    other = PassageProblem(lam=DET.lam, x=-1.0, a=DET.a, spec=DET.spec)
    ones = np.ones_like(nodes.u)
    with pytest.raises(CoverageError, match="frozen for x = 0"):
        identity_e_tau(other, nodes.u, ones, np.zeros_like(ones), nodes)


@pytest.mark.parametrize(
    "p",
    [GAUSS, PassageProblem(lam=0.5, x=0.0, a=1.0, spec=TwoPoint(1.0, -1.0, 0.5))],
    ids=["unbounded-law", "hard-envelope"],
)
def test_identity_with_no_crossed_path_raises(p):
    # every estimate is NaN and every standard error inf; the two branches
    # that bound the dropped nodes gave (0.0, nan) and (0.0, 9.27)
    nodes = identity_nodes(p)
    sim = simulate_passage(p, 5, max_steps=1, seed=0, mgf_u_nodes=nodes.u)
    assert sim.n_crossed == 0
    with pytest.raises(CoverageError, match="no path crossed"):
        identity_e_tau(p, sim.mgf_u, sim.mgf_value, sim.mgf_std_err, nodes)


def test_identity_hard_envelope_bounds_the_clipped_nodes():
    # tau = 7 exactly; 69 of the 210 nodes have overflowed moments and are
    # clipped.  Their neglected part, the sum of w/u (e^{u*y_env - phi} -
    # e^{-phi}) / log(1/lam) at x = 0, is 0.1042; capping e^{u*y_env} at e^700
    # apart from e^{-phi} would understate it as 0.0934
    p = PassageProblem(lam=0.5, x=0.0, a=0.99, spec=Deterministic(0.5))
    nodes = identity_nodes(p)
    sim = simulate_passage(p, n_paths=100, seed=0, mgf_u_nodes=nodes.u)
    value, std_err = identity_e_tau(p, sim.mgf_u, sim.mgf_value, sim.mgf_std_err, nodes)
    assert abs(value - 7.0) <= std_err
    assert math.isclose(std_err, 0.1042, rel_tol=1e-3)


def test_identity_hard_envelope_covers_a_level_below_zero():
    # tau = 1 and X_tau = -0.9 exactly, y_env = -0.4.  With every node
    # clipped the value is -H(x), and the dropped E H(X_tau) = H(-0.9) =
    # -log2(5.5) is bounded by 1 - e^{u*a}, not by |e^{u*y_env} - 1|: that
    # bound integrates to log2(3) and falls short
    p = PassageProblem(lam=0.5, x=-2.0, a=-1.0, spec=Deterministic(0.1))
    nodes = identity_nodes(p)
    mgf = np.exp(nodes.u * -0.9)
    value, std_err = identity_e_tau(p, nodes.u, mgf, mgf, nodes)
    assert abs(value - 1.0) <= std_err
    assert math.isclose(std_err - nodes.h_x.abs_err, math.log2(6.0), rel_tol=1e-8)


def test_identity_nodes_deterministic_envelope_is_hard():
    nodes = identity_nodes(DET)
    assert nodes.env_is_hard and nodes.y_env == 1.75  # lam*a + ess-sup
    gn = identity_nodes(GAUSS)
    assert not gn.env_is_hard


def test_identity_nodes_raise_on_truncated_envelope():
    # y_env = 1.9999 sits 5e-5 below y_adm = 2: at u = 2**17 the envelope
    # exp(u*(y_env - 2))/u is still about 7e-8, far above the cutoff
    p = PassageProblem(lam=0.5, x=0.0, a=2.0 - 1e-4, spec=Deterministic(1.0))
    with pytest.raises(DivergenceError):
        identity_nodes(p)
    # the flagship envelope dies at u = 16: five 15-node panels, [0, 1] to [8, 16]
    assert len(identity_nodes(GAUSS).u) == 75


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


@pytest.mark.parametrize(
    "p",
    NODE_RULE_PROBLEMS,
    ids=[
        "flagship", "lam0.9", "TwoPoint", "Capped", "Floored", "Deterministic", "x-100", "x-1000",
        "y_env-below-0",
    ],
)
def test_identity_nodes_reproduce_H_increments(p):
    # the frozen rule with the MGF of a point mass at y is H(y) alone, and
    # the identity of that point mass is H(y) - H(x); the nodes' u and
    # weights do not depend on x, so x far below the level tests H(x) alone
    lc = p.limit_cumulant()
    nodes = identity_nodes(p)
    y = np.linspace(p.a, nodes.y_env, 9)
    coef = nodes.w * np.exp(-nodes.phi_u) / nodes.u / math.log(1.0 / p.lam)
    mgf = np.exp(np.outer(y, nodes.u))
    ref = transform(lc, "H", np.append(y, p.x))
    assert ref.converged.all()
    np.testing.assert_allclose((mgf - 1.0) @ coef, ref.value[:-1], rtol=1e-10, atol=0.0)
    zero = np.zeros_like(nodes.u)
    identity = [identity_e_tau(p, nodes.u, row, zero, nodes)[0] for row in mgf]
    want = ref.value[:-1] - ref.value[-1]
    np.testing.assert_allclose(identity, want, rtol=1e-10, atol=0.0)


def test_identity_far_below_the_level_matches_monte_carlo():
    # x = -1000 enters only through H(x); lam**n * 1000 falls below 1 after
    # about ten steps, so E tau is about ten more than at x = 0
    p = PassageProblem(lam=0.5, x=-1000.0, a=1.0, spec=Gaussian(0.0, 1.0))
    nodes = identity_nodes(p)
    sim = simulate_passage(p, n_paths=20_000, seed=3, mgf_u_nodes=nodes.u)
    value, std_err = identity_e_tau(p, sim.mgf_u, sim.mgf_value, sim.mgf_std_err, nodes)
    combined = math.hypot(std_err, sim.e_tau_std_err)
    assert abs(value - sim.e_tau_hat) <= 3.0 * combined


def test_identity_raises_where_H_of_x_diverges():
    # H(-1e300) needs the integrand (e^{u*x} - 1)/u resolved on u < 1e-300:
    # the engine does not converge there, and the nodes, frozen before any
    # path is simulated, refuse the problem
    p = PassageProblem(lam=0.5, x=-1e300, a=1.0, spec=Gaussian(0.0, 1.0))
    with pytest.raises(DivergenceError, match="H\\(x\\)"):
        identity_nodes(p)


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
    "identity_nodes": identity_nodes,
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


THREE_ATOM = Discrete(((1.5, 0.2), (0.3, 0.5), (-2.0, 0.3)))


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
