"""Command line surface: config validation, reports, exit codes."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ar1fpt import Ar1FptError, DivergenceError, cli
from ar1fpt.cli import main

GAUSS_CFG = {
    "family": {"name": "gaussian", "m": 0, "var": 1},
    "lambda": 0.5,
    "x": 0,
    "a": 1,
}
DET_CFG = {
    "family": {"name": "deterministic", "c": 1},
    "lambda": 0.5,
    "x": 0,
    "a": 1.5,
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(tmp_path, subcommand, cfg, *extra):
    cfg_path = write_cfg(tmp_path, cfg)
    out = tmp_path / "out"
    code = main([subcommand, "--config", cfg_path, "--out", str(out), *extra])
    report = None
    if (out / "report.json").exists():
        report = json.loads((out / "report.json").read_text())
    return code, report, out


def test_phi_report_and_csv(tmp_path):
    code, report, out = run(tmp_path, "phi", GAUSS_CFG)
    assert code == 0
    assert report["meta"]["tool"] == "ar1fpt"
    with open(out / "table.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u", "phi", "abs_err"]
    by_u = {float(r[0]): (float(r[1]), float(r[2])) for r in rows[1:]}
    phi1, err1 = by_u[1.0]
    assert abs(phi1 - 2.0 / 3.0) <= 1e-12 and err1 <= 1e-12


def test_csv_full_precision(tmp_path):
    _, _, out = run(tmp_path, "phi", GAUSS_CFG)
    with open(out / "table.csv") as fh:
        rows = list(csv.reader(fh))
    # 17 significant digits survive a text round trip exactly
    val = [r[1] for r in rows if r[0] == "1"][0]
    assert float(val) == 2.0 / 3.0


def test_report_is_one_line_of_plain_json_values(tmp_path):
    results = {
        "grid": np.arange(3.0),
        "count": np.int64(7),
        "passed": np.bool_(True),
        "value": np.float64(0.1),
        "pair": (1, np.float32(0.5)),
    }
    cfg = {"_spec": object(), "seed": 1}
    cli._write_outputs(tmp_path, "phi", cfg, results, [("u", "phi"), (0.5, 1 / 3)], 0.25)
    text = (tmp_path / "report.json").read_text()
    assert text.count("\n") == 1 and text.endswith("}\n")
    report = json.loads(text)
    assert report["config"] == {"seed": 1}
    res = report["results"]
    assert res == {"grid": [0.0, 1.0, 2.0], "count": 7, "passed": True, "value": 0.1, "pair": [1, 0.5]}
    assert (tmp_path / "table.csv").read_bytes() == b"u,phi\r\n0.5,0.33333333333333331\r\n"
    # the report is strict JSON: a NaN or an infinity in it is a fault
    for bad in (math.nan, math.inf):
        with pytest.raises(Ar1FptError, match="not JSON compliant"):
            cli._write_outputs(tmp_path, "phi", cfg, {"missing": bad}, None, 0.25)


def test_identity_check_deterministic_zero_discrepancy(tmp_path, capsys):
    code, report, _ = run(tmp_path, "identity-check", DET_CFG, "--paths", "500")
    assert code == 0
    res = report["results"]
    assert abs(res["identity_value"] - 3.0) < 1e-8
    assert res["mc_e_tau_hat"] == 3.0
    assert res["discrepancy"] < 1e-8
    assert "combined std errs" in capsys.readouterr().out


def test_identity_check_with_overflowing_moments(tmp_path):
    # near y_adm, where an MGF of X_tau would overflow at the large u its
    # integral needs: the h table integrates it whole, E[e^{uX} | Z] e^{-phi}
    det = {"family": {"name": "deterministic", "c": 0.5}, "lambda": 0.5, "x": 0, "a": 0.99}
    code, report, _ = run(tmp_path, "identity-check", det, "--paths", "100")
    assert code == 0
    res = report["results"]
    assert abs(res["identity_value"] - 7.0) <= res["identity_std_err"]  # tau = 7 exactly
    two_point = dict(det, family={"name": "two_point", "h_up": 1, "h_down": -1, "p": 0.5}, a=1.9)
    code, report, _ = run(tmp_path, "identity-check", two_point, "--paths", "100")
    assert code == 0 and report["results"]["discrepancy_sigmas"] <= 3.0


def _two_point(h_up, p):
    return {"name": "two_point", "h_up": h_up, "h_down": -1, "p": p}


@pytest.mark.parametrize("subcommand", ["phi", "bounds", "certificate", "validate", "simulate"])
@pytest.mark.parametrize(
    "truncated,plain",
    [
        ({"name": "capped_above", "cap": 0.5, "base": _two_point(1, 0.5)}, _two_point(0.5, 0.5)),
        ({"name": "floored_positive", "floor": 1.5, "base": _two_point(2, 0.4)}, _two_point(1.5, 0.4)),
        (
            {"name": "capped_above", "cap": 1, "base": {"name": "deterministic", "c": 2}},
            {"name": "deterministic", "c": 1},
        ),
    ],
    ids=["capped_two_point", "floored_two_point", "capped_deterministic"],
)
def test_truncated_discrete_config_reports_its_plain_law(tmp_path, subcommand, truncated, plain):
    # a truncated discrete law is the Discrete law of its mapped atoms, on
    # every path from the config to the results
    results = []
    for family in (truncated, plain):
        cfg = dict(GAUSS_CFG, family=family, a=0.5)
        code, report, _ = run(tmp_path, subcommand, cfg, "--paths", "2000")
        assert code == 0
        results.append(json.dumps(report["results"], sort_keys=True))
    assert results[0] == results[1]


def test_lambda_out_of_range_rejected(tmp_path):
    cfg = dict(GAUSS_CFG, **{"lambda": 1.2})
    code, report, _ = run(tmp_path, "phi", cfg)
    assert code == 2 and report is None


def test_unknown_config_key_rejected(tmp_path):
    cfg = dict(GAUSS_CFG, typo_key=1)
    code, _, _ = run(tmp_path, "phi", cfg)
    assert code == 2


def test_unknown_family_rejected(tmp_path):
    cfg = dict(GAUSS_CFG, family={"name": "cauchy"})
    code, _, _ = run(tmp_path, "phi", cfg)
    assert code == 2


def test_missing_family_field_rejected(tmp_path):
    cfg = dict(GAUSS_CFG, family={"name": "deterministic"})
    code, _, _ = run(tmp_path, "phi", cfg)
    assert code == 2


def test_flag_overrides_file_seed(tmp_path):
    cfg = dict(GAUSS_CFG, seed=42)
    code, report, _ = run(tmp_path, "simulate", cfg, "--seed", "7", "--paths", "1000")
    assert code == 0
    assert report["config"]["seed"] == 7
    assert report["results"]["seed"] == 7


def test_bounds_no_crossing_exit_code(tmp_path):
    cfg = dict(DET_CFG, a=3)
    code, report, _ = run(tmp_path, "bounds", cfg)
    assert code == 3 and report is None


def test_bounds_with_cap(tmp_path):
    cfg = {
        "family": {"name": "two_point", "h_up": 1, "h_down": -1, "p": 0.5},
        "lambda": 0.5,
        "x": 0,
        "a": 1,
    }
    code, report, _ = run(tmp_path, "bounds", cfg, "--cap", "4")
    assert code == 0
    res = report["results"]
    assert res["lower_bound_e_tau"] <= res["upper_bound_e_tau"]


@pytest.mark.parametrize(
    "family,flags,h_cap,upper",
    [
        ({"name": "two_point", "h_up": 1, "h_down": -1, "p": 0.5}, [], 1.0, 9.2692905885951),
        ({"name": "two_point", "h_up": 1, "h_down": -1, "p": 0.5}, ["--cap", "4"], 1.0, 9.2692905885951),
        ({"name": "capped_above", "cap": 1.5, "base": {"name": "gaussian"}}, [], 1.5, 29.526051218328814),
        ({"name": "capped_above", "cap": 1.5, "base": {"name": "gaussian"}}, ["--cap", "1.2"], 1.2, 27.138188086312457),
    ],
    ids=["two-point", "two-point-cap-above-support", "capped", "capped-cap-below-support"],
)
def test_bounds_reports_the_cap_in_force(tmp_path, family, flags, h_cap, upper):
    # the cap in force is the lower of the requested cap and the ess-sup;
    # the reported bound is the capped H increment plus its error bar
    code, report, _ = run(tmp_path, "bounds", dict(GAUSS_CFG, family=family), *flags)
    assert code == 0
    res = report["results"]
    assert res["h_cap"] == h_cap
    assert math.isclose(res["upper_bound_e_tau"] - res["upper_bound_abs_err"], upper, rel_tol=1e-12)


def test_bounds_crossing_mass_of_floored_family(tmp_path):
    # crossing needs eta~ > a(1 - lam) = -0.5, which holds iff eta > -0.5 as
    # eta~ >= 0 wherever eta > 0: the mass is Phi(0.5)
    family = {"name": "floored_positive", "floor": 1, "base": GAUSS_CFG["family"]}
    code, report, _ = run(tmp_path, "bounds", dict(GAUSS_CFG, family=family, x=-3, a=-1))
    assert code == 0
    assert math.isclose(report["results"]["crossing_mass"], 0.6914624612740131, rel_tol=1e-12)


@pytest.mark.parametrize(
    "flag,value,exit_code,error",
    [("--delta", "1.0", 2, "ConfigError"), ("--cap", "0.4", 5, "InfeasibleTruncationError")],
)
def test_certificate_bad_options_fail_typed(tmp_path, capsys, flag, value, exit_code, error):
    code, report, _ = run(tmp_path, "certificate", GAUSS_CFG, flag, value)
    err = capsys.readouterr().err
    assert code == exit_code and report is None
    assert f"error[{error}]" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "subcommand,cfg,flags",
    [
        ("bounds", GAUSS_CFG, ["--cap", "inf"]),
        ("bounds", GAUSS_CFG, ["--cap", "nan"]),
        ("certificate", GAUSS_CFG, ["--cap", "nan"]),
        ("phi", GAUSS_CFG, ["--u-grid", "0:inf:1"]),
        ("phi", GAUSS_CFG, ["--u-grid", "0:1:nan"]),
        ("phi", dict(GAUSS_CFG, u_grid=[0.0, math.inf]), []),
        ("bounds", dict(GAUSS_CFG, x=math.nan), []),
    ],
    ids=["cap-inf", "cap-nan", "certificate-cap-nan", "grid-inf", "grid-step-nan", "grid-list-inf", "x-nan"],
)
def test_non_finite_inputs_fail_typed(tmp_path, capsys, subcommand, cfg, flags):
    code, report, _ = run(tmp_path, subcommand, cfg, *flags)
    err = capsys.readouterr().err
    assert code == 2 and report is None
    assert "error[ConfigError]" in err and "Traceback" not in err


def test_identity_check_truncated_envelope_fails_typed(tmp_path, capsys):
    # X_tau = 1.99995 sits 5e-5 below y_adm = 2: the h table's integrand is
    # still alive at the engine's ceiling u = 1e5
    cfg = dict(DET_CFG, a=2.0 - 1e-4)
    code, report, _ = run(tmp_path, "identity-check", cfg, "--paths", "100")
    err = capsys.readouterr().err
    assert code == 4 and report is None
    assert "error[DivergenceError]: the h table did not converge" in err and "Traceback" not in err


@pytest.mark.parametrize("subcommand", ["identity-check", "bounds", "certificate"])
def test_never_crossing_problem_exits_3(tmp_path, capsys, subcommand):
    # a floored N(1, 1) has y_adm = a = 1: the level is reached, never crossed
    floored = {"name": "floored_positive", "floor": 0.5, "base": {"name": "gaussian", "m": 1, "var": 1}}
    cfg = dict(GAUSS_CFG, family=floored)
    code, report, _ = run(tmp_path, subcommand, cfg, "--paths", "100")
    err = capsys.readouterr().err
    assert code == 3 and report is None
    assert "error[NoCrossingError]" in err and "Traceback" not in err


#: From x = -60 one step of the flagship law crosses a = 1 only past 31
#: standard deviations, with probability below 1e-210 a path.
FAR_BELOW_CFG = dict(GAUSS_CFG, x=-60)


def test_identity_check_with_no_crossed_path_fails_typed(tmp_path, capsys):
    few = ("--paths", "5", "--max-steps", "1")
    (tmp_path / "sim").mkdir()
    code, report, _ = run(tmp_path / "sim", "simulate", FAR_BELOW_CFG, *few)
    assert code == 0 and report["results"]["n_crossed"] == 0
    code, report, _ = run(tmp_path, "identity-check", FAR_BELOW_CFG, *few)
    err = capsys.readouterr().err
    assert code == 6 and report is None
    assert "error[CoverageError]" in err and "Traceback" not in err


def test_unexplained_discrepancy_reads_inf(tmp_path, monkeypatch, capsys):
    # a deterministic law has no spread, so the Monte Carlo standard error
    # is 0; with an identity error of 0 too, a discrepancy is explained by
    # nothing: inf on stdout, null in the report
    exact = cli.identity_estimate

    def off_by_a_little(*args):
        return exact(*args)[0] + 1e-3, 0.0

    monkeypatch.setattr(cli, "identity_estimate", off_by_a_little)
    code, report, _ = run(tmp_path, "identity-check", DET_CFG, "--paths", "500")
    res = report["results"]
    assert code == 0 and res["mc_e_tau_std_err"] == 0.0
    assert res["discrepancy"] > 0 and res["discrepancy_sigmas"] is None
    assert "discrepancy: inf combined std errs" in capsys.readouterr().out


def test_bad_thread_count_fails_typed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FPT_THREADS", "abc")
    code, report, _ = run(tmp_path, "simulate", GAUSS_CFG, "--paths", "100")
    err = capsys.readouterr().err
    assert code == 2 and report is None
    assert "error[ConfigError]: FPT_THREADS" in err and "Traceback" not in err


def test_certificate_report(tmp_path):
    code, report, _ = run(tmp_path, "certificate", GAUSS_CFG)
    assert code == 0
    res = report["results"]
    assert res["alpha"] > 0 and res["c_bound"] > 0 and res["v_star"] < 0


def test_certificate_cap_beyond_the_support(tmp_path):
    family = {"name": "two_point", "h_up": 1, "h_down": -1, "p": 0.5}
    code, report, _ = run(tmp_path, "certificate", dict(GAUSS_CFG, family=family), "--cap", "100")
    assert code == 0
    assert report["results"]["alpha"] > 0 and report["results"]["h_cap"] == 1.0


def test_certificate_cap_too_high_fails_typed(tmp_path, capsys):
    # W_v(lam*a + 100) is of order exp(3787) for every order on the scan, so
    # the sign condition cannot hold; a moderate cap certifies
    code, report, _ = run(tmp_path, "certificate", GAUSS_CFG, "--cap", "100")
    err = capsys.readouterr().err
    assert code == 5 and report is None
    assert "error[CertificateInfeasibleError]" in err and "Traceback" not in err
    code, report, _ = run(tmp_path, "certificate", GAUSS_CFG, "--cap", "3")
    assert code == 0 and report["results"]["h_cap"] == 3.0


def test_validate_all_checks_pass(tmp_path):
    code, report, out = run(tmp_path, "validate", GAUSS_CFG)
    assert code == 0
    assert report["results"]["all_passed"]
    assert (out / "table.csv").exists()


GAUSS = GAUSS_CFG["family"]
CAPPED = {"name": "capped_above", "cap": 1.5, "base": GAUSS}


@pytest.mark.parametrize(
    "family",
    [
        CAPPED,
        {"name": "floored_positive", "floor": 1, "base": GAUSS},
        {"name": "floored_positive", "floor": 1, "base": CAPPED},
    ],
    ids=["capped", "floored", "floored-capped"],
)
def test_validate_truncated_gaussian_passes_every_check(tmp_path, family):
    code, report, _ = run(tmp_path, "validate", dict(GAUSS_CFG, family=family))
    assert code == 0
    names = [c["check"] for c in report["results"]["checks"]]
    assert names == ["functional_equation_residual"] + [
        f"harmonic_{kind}_residual" for kind in "NHW"
    ]
    assert report["results"]["all_passed"]


def test_validate_keeps_checks_below_the_admissible_level(tmp_path):
    # a constant -1 innovation has y_adm = -2 < x = 0, so the harmonic checks
    # run at y = y_adm - 1.  H itself diverges there (e^{-phi(u)} = e^{2u}),
    # and the report says so instead of dropping the check.
    cfg = dict(GAUSS_CFG, family={"name": "deterministic", "c": -1})
    code, report, _ = run(tmp_path, "validate", cfg)
    assert code == 0
    checks = {c["check"]: c for c in report["results"]["checks"]}
    assert checks["harmonic_N_residual"]["passed"]
    assert checks["harmonic_W_residual"]["passed"]
    h = checks["harmonic_H_residual"]
    assert not h["passed"] and h["error"].startswith("DivergenceError: H transform")
    assert not report["results"]["all_passed"]


def test_validate_records_a_raising_check(tmp_path, monkeypatch):
    def diverge(*args, **kwargs):
        raise DivergenceError("no convergence")

    monkeypatch.setattr(cli, "check_harmonic", diverge)
    code, report, _ = run(tmp_path, "validate", GAUSS_CFG)
    assert code == 0
    res = report["results"]
    assert not res["all_passed"]
    failed = [c for c in res["checks"] if c["check"].startswith("harmonic_")]
    assert len(failed) == 3
    for c in failed:
        assert not c["passed"] and c["error"] == "DivergenceError: no convergence"


@pytest.mark.parametrize(
    "subcommand,family,path",
    [
        ("bounds", {"name": "deterministic", "c": math.inf}, "family.c"),
        ("bounds", dict(CAPPED, cap=math.inf), "family.cap"),
        ("bounds", dict(GAUSS, var=math.inf), "family.var"),
        ("phi", dict(GAUSS, m=math.nan), "family.m"),
        ("phi", {"name": "two_point", "h_up": 1, "h_down": -1, "p": math.nan}, "family.p"),
        ("phi", {"name": "floored_positive", "floor": 1, "base": dict(CAPPED, cap=math.nan)}, "family.base.cap"),
    ],
    ids=["deterministic-inf", "cap-inf", "var-inf", "m-nan", "p-nan", "nested-cap-nan"],
)
def test_non_finite_family_fields_fail_typed(tmp_path, capsys, subcommand, family, path):
    code, report, _ = run(tmp_path, subcommand, dict(GAUSS_CFG, family=family))
    err = capsys.readouterr().err
    assert code == 2 and report is None
    assert f"error[ConfigError]: {path}: must be finite" in err and "Traceback" not in err


def test_nested_family_config(tmp_path):
    cfg = dict(
        GAUSS_CFG,
        family={
            "name": "capped_above",
            "cap": 1.0,
            "base": {"name": "gaussian", "m": 0, "var": 1},
        },
    )
    code, report, _ = run(tmp_path, "phi", cfg)
    assert code == 0
    assert report["config"]["family"]["base"]["name"] == "gaussian"


def test_reports_reproduce_across_thread_counts(tmp_path, monkeypatch):
    blobs = {}
    for threads in ("1", "8"):
        monkeypatch.setenv("FPT_THREADS", threads)
        _, report, _ = run(tmp_path, "identity-check", GAUSS_CFG, "--paths", "20000")
        blobs[threads] = json.dumps(report["results"], sort_keys=True)
    assert blobs["1"] == blobs["8"]


def test_main_builds_no_parser(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, _, _ = run(tmp_path, "phi", GAUSS_CFG, "--u-grid", "0:1:1")
    assert code == 0 and built == []


ALL_OPTIONS = {
    "--config": ("config", "c.json"),
    "--seed": ("seed", 7),
    "--out": ("out", "o"),
    "--paths": ("paths", 9),
    "--max-steps": ("max_steps", 11),
    "--u-grid": ("u_grid", "0:1:0.5"),
    "--delta": ("delta", 0.25),
    "--cap": ("cap", 1.5),
}


@pytest.mark.parametrize("subcommand", list(cli._SUBCOMMANDS))
def test_every_subcommand_takes_every_option(subcommand):
    argv = [subcommand]
    for flag, (_, value) in ALL_OPTIONS.items():
        argv += [flag, str(value)]
    expected = dict(ALL_OPTIONS.values(), subcommand=subcommand)
    assert vars(cli._PARSER.parse_args(argv)) == expected
    defaults = vars(cli._PARSER.parse_args([subcommand]))
    assert defaults == dict.fromkeys(expected, None) | {"subcommand": subcommand, "out": "."}


@pytest.mark.parametrize("argv,exit_code", [(["--version"], 0), ([], 2), (["nope"], 2)])
def test_version_and_bad_subcommands_exit_typed(capsys, argv, exit_code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == exit_code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if exit_code == 0:
        assert out.strip() == cli.__version__


CFG_TEXT = json.dumps(GAUSS_CFG)


@pytest.mark.parametrize(
    "subcommand,cfg_bytes,flags,out_dir,needle",
    [
        ("phi", b"\xff\xfe{", [], "out", "is unreadable"),
        ("simulate", (CFG_TEXT[:-1] + ', "n_paths": 1e400}').encode(), [], "out", "n_paths: must be an integer"),
        ("certificate", json.dumps(dict(GAUSS_CFG, delta="abc")).encode(), [], "out", "delta: must be a number"),
        ("phi", CFG_TEXT.encode(), ["--u-grid", "0:1e9:1e-9"], "out", "u_grid: more than"),
        ("simulate", CFG_TEXT.encode(), [], "cfg.json/sub", "cfg.json/sub"),
        ("phi", CFG_TEXT.encode(), [], "cfg.json", "cfg.json"),
        ("phi", CFG_TEXT.encode(), [], "full", "report.json"),
        ("simulate", json.dumps(dict(GAUSS_CFG, n_paths=1.7)).encode(), [], "out", "n_paths: must be an integer"),
        ("simulate", json.dumps(dict(GAUSS_CFG, seed=True)).encode(), [], "out", "seed: must be an integer"),
        ("simulate", json.dumps(dict(GAUSS_CFG, max_steps=2.9)).encode(), [], "out", "max_steps: must be an integer"),
        ("simulate", json.dumps(dict(GAUSS_CFG, n_paths="10")).encode(), [], "out", "n_paths: must be an integer"),
        ("phi", json.dumps(dict(GAUSS_CFG, x=True)).encode(), [], "out", "x: must be a number"),
        ("certificate", json.dumps(dict(GAUSS_CFG, cap=False)).encode(), [], "out", "cap: must be a number"),
        ("phi", json.dumps(dict(GAUSS_CFG, family=dict(GAUSS, var=True))).encode(), [], "out", "family.var: must be a number"),
        ("phi", json.dumps(dict(GAUSS_CFG, family=dict(CAPPED, cap=True))).encode(), [], "out", "family.cap: must be a number"),
        ("phi", json.dumps(dict(GAUSS_CFG, u_grid=[0.5, True])).encode(), [], "out", "u_grid: expected a list of numbers"),
        ("phi", json.dumps(dict(GAUSS_CFG, u_grid=[[0.5, 1.0], [1.5, 2.0]])).encode(), [], "out", "u_grid: expected a list of numbers"),
        ("validate", json.dumps(dict(GAUSS_CFG, u_grid=[])).encode(), [], "out", "u_grid: expected a list of numbers"),
        ("phi", json.dumps(dict(GAUSS_CFG, u_grid=["0.5", "1"])).encode(), [], "out", "u_grid: expected a list of numbers"),
        ("certificate", json.dumps(dict(GAUSS_CFG, x="0")).encode(), [], "out", "x: must be a number"),
        ("certificate", json.dumps(dict(GAUSS_CFG, **{"lambda": "0.5"})).encode(), [], "out", "lambda: must be a number"),
        ("certificate", json.dumps(dict(GAUSS_CFG, family=dict(GAUSS, var="2"))).encode(), [], "out", "family.var: must be a number"),
        ("bounds", json.dumps(dict(GAUSS_CFG, cap="2")).encode(), [], "out", "cap: must be a number"),
        ("phi", json.dumps(dict(GAUSS_CFG, x=10**400)).encode(), [], "out", "x: must be finite"),
        ("simulate", json.dumps(dict(GAUSS_CFG, n_paths=10**30)).encode(), [], "out", "n_paths: must be below 2**63"),
        ("simulate", json.dumps(dict(GAUSS_CFG, n_paths=2**63)).encode(), [], "out", "n_paths: must be below 2**63"),
        ("simulate", CFG_TEXT.encode(), ["--paths", "100000000000000000000"], "out", "n_paths: must be below 2**63"),
        ("identity-check", CFG_TEXT.encode(), ["--paths", str(2**63)], "out", "n_paths: must be below 2**63"),
        ("phi", json.dumps(dict(GAUSS_CFG, family={"name": "two_point", "h_up": 1, "h_down": -1, "p": 1.5})).encode(), [], "out", "family: TwoPoint requires p in (0, 1)"),
        ("phi", json.dumps(dict(GAUSS_CFG, family="gaussian")).encode(), [], "out", "family: must be an object"),
        ("phi", json.dumps(dict(GAUSS_CFG, family=dict(GAUSS, sigma=1))).encode(), [], "out", "family.sigma: unknown key"),
        ("phi", CFG_TEXT.encode(), ["--config", "no-such-dir/cfg.json"], "out", "config file not found"),
        ("phi", b"{not json", [], "out", "config is not valid JSON"),
        ("phi", b"[1, 2]", [], "out", "config root must be a JSON object"),
        ("bounds", json.dumps({k: v for k, v in GAUSS_CFG.items() if k != "a"}).encode(), [], "out", "a: required field missing"),
        ("bounds", json.dumps(dict(GAUSS_CFG, x=2)).encode(), [], "out", "a: violates a >= x"),
        ("simulate", json.dumps(dict(GAUSS_CFG, n_paths=0)).encode(), [], "out", "n_paths: must be positive"),
        ("simulate", CFG_TEXT.encode(), ["--max-steps", "-1"], "out", "max_steps: must be positive"),
        ("phi", CFG_TEXT.encode(), ["--u-grid", "0:1"], "out", "u_grid: expected LO:HI:STEP"),
        ("phi", CFG_TEXT.encode(), ["--u-grid", "0:one:1"], "out", "u_grid: expected numeric LO:HI:STEP"),
        ("phi", CFG_TEXT.encode(), ["--u-grid", "1:0:0.5"], "out", "u_grid: needs HI >= LO and STEP > 0"),
        ("phi", CFG_TEXT.encode(), ["--u-grid", "0:1:0"], "out", "u_grid: needs HI >= LO and STEP > 0"),
        ("phi", CFG_TEXT.encode(), ["--u-grid=-1:1:0.5"], "out", "u_grid: phi is only defined for u >= 0"),
        ("phi", CFG_TEXT.encode(), ["--u-grid", "1e16:1e16:1"], "out", "u_grid: 1e16:1e16:1 expands to no point"),
        ("validate", CFG_TEXT.encode(), ["--u-grid", "1e16:1e16:1"], "out", "u_grid: 1e16:1e16:1 expands to no point"),
        ("phi", CFG_TEXT.encode(), ["--u-grid", "0:1e200:1e199"], "out", "u_grid: phi or its error bound is not finite at u = 1e+199"),
        ("validate", CFG_TEXT.encode(), ["--u-grid", "0:1e200:1e199"], "out", "u_grid: phi or its error bound is not finite at u = 1e+199"),
        ("phi", json.dumps(dict(GAUSS_CFG, u_grid=[0] * (10**6 + 1))).encode(), [], "out", "u_grid: more than 1000000 points"),
    ],
    ids=[
        "not-utf8", "n-paths-overflow", "delta-not-number", "grid-too-large", "out-under-a-file", "out-is-a-file", "report-unwritable",
        "n-paths-fraction", "seed-bool", "max-steps-fraction", "n-paths-string", "x-bool", "cap-bool", "var-bool", "nested-cap-bool", "grid-bool",
        "grid-nested", "grid-empty", "grid-strings", "x-string", "lambda-string", "var-string", "cap-string", "x-beyond-float",
        "n-paths-beyond-int64", "n-paths-2-pow-63", "paths-flag-beyond-int64", "paths-flag-2-pow-63",
        "family-constructor-rejects", "family-not-object", "family-unknown-key", "config-not-found", "config-not-json",
        "config-root-not-object", "field-missing", "a-below-x", "n-paths-zero", "max-steps-negative", "grid-malformed",
        "grid-not-numeric", "grid-hi-below-lo", "grid-step-zero", "grid-negative", "grid-expands-to-no-point",
        "validate-grid-expands-to-no-point", "grid-phi-overflows", "validate-grid-phi-overflows", "grid-list-too-large",
    ],
)
def test_unusable_inputs_fail_typed(tmp_path, capsys, subcommand, cfg_bytes, flags, out_dir, needle):
    (tmp_path / "cfg.json").write_bytes(cfg_bytes)
    (tmp_path / "full" / "report.json").mkdir(parents=True)  # a directory where the report goes
    argv = [subcommand, "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / out_dir)]
    code = main(argv + flags)
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    assert "error[ConfigError]" in err and needle in err


def test_integral_float_counts_are_integers(tmp_path):
    code, report, _ = run(tmp_path, "simulate", dict(GAUSS_CFG, n_paths=1e3, seed=3.0, max_steps=1e6))
    assert code == 0
    cfg = report["config"]
    assert (cfg["n_paths"], cfg["seed"], cfg["max_steps"]) == (1000, 3, 10**6)
    assert all(type(cfg[k]) is int for k in ("n_paths", "seed", "max_steps"))


TWO_POINT_CFG = dict(GAUSS_CFG, family={"name": "two_point", "h_up": 1, "h_down": -1, "p": 0.5})


def test_certificate_past_the_engines_orders_exits_4(tmp_path, capsys):
    code, report, _ = run(tmp_path, "certificate", TWO_POINT_CFG, "--delta", "0.99")
    err = capsys.readouterr().err
    assert code == 4 and report is None
    assert "error[DivergenceError]" in err and "v = -0.98901" in err and "Traceback" not in err
    code, report, _ = run(tmp_path, "certificate", TWO_POINT_CFG, "--delta", "0.97")
    assert code == 0 and report["results"]["alpha"] > 0


@pytest.mark.parametrize("subcommand,sums", [("bounds", 1), ("validate", 3)])
def test_a_command_sums_each_node_set_once(tmp_path, monkeypatch, subcommand, sums):
    # bounds' two bounds share the problem's LimitCumulant (the cap in force
    # is the ess-sup), and validate's N, H and W checks share the node sets
    # phi has summed: 2 series calls without the sharing, and 5 without the memo
    calls = []
    series = cli.LimitCumulant.series

    def counted(self, u):
        calls.append(self)
        return series(self, u)

    monkeypatch.setattr(cli.LimitCumulant, "series", counted)
    code, report, _ = run(tmp_path, subcommand, TWO_POINT_CFG)
    assert code == 0 and len(calls) == sums
    if subcommand == "validate":
        assert report["results"]["all_passed"]


def test_bounds_report_their_error_bars(tmp_path):
    code, report, _ = run(tmp_path, "bounds", TWO_POINT_CFG)
    assert code == 0
    res = report["results"]
    assert 0.0 < res["lower_bound_abs_err"] < 1e-8 and 0.0 < res["upper_bound_abs_err"] < 1e-8


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_simulate_with_no_crossing_writes_null_not_nan(tmp_path):
    code, _, out = run(tmp_path, "simulate", dict(FAR_BELOW_CFG, a=3), "--paths", "100", "--max-steps", "1")
    assert code == 0
    res = json.loads((out / "report.json").read_text(), parse_constant=refuse_constant)["results"]
    assert res["n_crossed"] == 0
    for key in ("e_tau_hat", "e_tau_std_err", "overshoot_mean", "overshoot_std_err"):
        assert res[key] is None


def test_simulate_reports_no_overshoot_mgf(tmp_path):
    code, report, _ = run(tmp_path, "simulate", GAUSS_CFG, "--paths", "2000")
    assert code == 0 and report["results"]["n_crossed"] > 0
    assert not [key for key in report["results"] if key.startswith("mgf_")]


LAM_0999 = dict(TWO_POINT_CFG, **{"lambda": 0.999})


@pytest.mark.parametrize("subcommand", ["bounds", "certificate", "validate"])
def test_two_point_at_lam_0999(tmp_path, subcommand):
    # K(u) runs to some 14,000 terms of psi on the engine's nodes
    start = time.perf_counter()
    code, report, _ = run(tmp_path, subcommand, LAM_0999)
    assert code == 0 and time.perf_counter() - start < 2.0
    if subcommand == "validate":
        assert report["results"]["all_passed"] is True


def test_two_point_at_lam_0999_simulates_between_its_bounds(tmp_path):
    _, bounds, _ = run(tmp_path, "bounds", LAM_0999)
    code, sim, _ = run(tmp_path, "simulate", LAM_0999, "--paths", "10000")
    assert code == 0 and sim["results"]["n_crossed"] == 10000
    res = bounds["results"]
    assert res["lower_bound_e_tau"] <= sim["results"]["e_tau_hat"] <= res["upper_bound_e_tau"]


@pytest.mark.parametrize(
    "subcommand,flags",
    [
        ("phi", []),
        ("simulate", ["--paths", "2000"]),
        ("bounds", ["--cap", "2"]),
        ("identity-check", ["--paths", "2000"]),
        ("certificate", []),
        ("validate", []),
    ],
)
def test_every_report_is_strict_json(tmp_path, subcommand, flags):
    code, _, out = run(tmp_path, subcommand, GAUSS_CFG, *flags)
    assert code == 0
    report = json.loads((out / "report.json").read_text(), parse_constant=refuse_constant)
    assert report["meta"]["subcommand"] == subcommand


STABLE_CFG = dict(GAUSS_CFG, family={"name": "stable", "alpha": 1.5, "c_scale": 1})


def test_stable_validate_records_typed_harmonic_failures(tmp_path, capsys):
    # the stable law has no expectation with a checked error bar, so each
    # harmonic check fails typed while the cumulant checks still run
    start = time.perf_counter()
    code, report, _ = run(tmp_path, "validate", STABLE_CFG)
    assert code == 0 and time.perf_counter() - start < 1.0
    assert "Traceback" not in capsys.readouterr().err
    res = report["results"]
    assert res["all_passed"] is False
    checks = {c["check"]: c for c in res["checks"]}
    for kind in "NHW":
        check = checks[f"harmonic_{kind}_residual"]
        assert check["value"] is None and check["passed"] is False
        assert check["error"].startswith("DivergenceError: ")
    for name in ("functional_equation_residual", "series_vs_closed_form"):
        assert checks[name]["passed"] is True and "error" not in checks[name]


def test_cli_import_leaves_scipy_integrate_out():
    # scipy.integrate, with the scipy packages it pulls in, costs a CLI call
    # about a third of its start-up
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import sys, ar1fpt.cli; sys.exit('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_simulate_with_an_overflowing_overshoot_error_writes_null(tmp_path):
    # overshoots near 5e299: their mean is a float, their sum of squares is not
    far = dict(GAUSS_CFG, x=-1e300, a=-1e300)
    code, _, out = run(tmp_path, "simulate", far, "--paths", "100")
    assert code == 0
    res = json.loads((out / "report.json").read_text(), parse_constant=refuse_constant)["results"]
    assert res["n_crossed"] == 100 and math.isfinite(res["overshoot_mean"])
    assert res["overshoot_std_err"] is None


def test_identity_check_with_an_unbounded_error_fails_typed(tmp_path, capsys):
    # paths cross near 1500 to 2000, where the empirical MGF of X_tau
    # overflowed at nodes whose e^{-phi(u)} underflows and its error had no
    # finite bound (exit 6).  h(Z) has none of that: about half the states,
    # near 1000, lie below the table and are evaluated directly, and the
    # identity is checked against the Monte Carlo mean
    far = dict(GAUSS_CFG, family={"name": "gaussian", "m": 1000, "var": 1}, a=1500)
    code, report, _ = run(tmp_path, "identity-check", far, "--paths", "500")
    assert code == 0 and "Traceback" not in capsys.readouterr().err
    res = report["results"]
    assert 0 < res["n_outside_table"] < 500
    assert math.isfinite(res["identity_std_err"]) and res["discrepancy_sigmas"] <= 3.0


def test_identity_check_on_a_law_wider_than_its_level_writes_no_warning(tmp_path):
    # Gaussian(0, 1e300) at x = a = -1e300: e^{-phi} underflows at every
    # engine node, so H(x) diverges and the run fails typed, silently,
    # before any path is simulated
    cfg = dict(GAUSS_CFG, family={"name": "gaussian", "m": 0, "var": 1e300}, x=-1e300, a=-1e300)
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    argv = ["identity-check", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "out")]
    argv += ["--paths", "200"]
    proc = subprocess.run(
        [sys.executable, "-m", "ar1fpt.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 4, proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "subcommand,cfg",
    [("phi", TWO_POINT_CFG), ("phi", GAUSS_CFG), ("validate", TWO_POINT_CFG), ("validate", STABLE_CFG)],
    ids=["phi-two-point", "phi-gauss", "validate-two-point", "validate-stable"],
)
def test_table_csv_is_what_csv_writer_writes(tmp_path, monkeypatch, subcommand, cfg):
    # the stable validate's harmonic rows are typed failures with value None
    tables = []
    write = cli._write_outputs

    def kept(out_dir, subcommand, cfg, results, rows, wall_clock):
        tables.append(rows)
        return write(out_dir, subcommand, cfg, results, rows, wall_clock)

    monkeypatch.setattr(cli, "_write_outputs", kept)
    code, _, out = run(tmp_path, subcommand, cfg)
    assert code == 0
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows([cli._fmt(c) for c in row] for row in tables[0])
    assert (out / "table.csv").read_bytes() == buf.getvalue().encode()
    if cfg is STABLE_CFG:
        assert [row[1] for row in tables[0] if str(row[0]).startswith("harmonic_")] == [None] * 3


def test_stable_identity_check_fails_typed(tmp_path, capsys):
    # no partial MGF with a checked error bar, so no h table
    code, report, _ = run(tmp_path, "identity-check", STABLE_CFG, "--paths", "200")
    err = capsys.readouterr().err
    assert code == 4 and report is None
    assert "error[DivergenceError]" in err and "partial MGF" in err and "Traceback" not in err
