"""Command line surface: config validation, reports, exit codes."""

import csv
import json
import math

import pytest

from ar1fpt import DivergenceError, cli
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


def test_identity_check_deterministic_zero_discrepancy(tmp_path, capsys):
    code, report, _ = run(tmp_path, "identity-check", DET_CFG, "--paths", "500")
    assert code == 0
    res = report["results"]
    assert abs(res["identity_value"] - 3.0) < 1e-8
    assert res["mc_e_tau_hat"] == 3.0
    assert res["discrepancy"] < 1e-8
    assert "combined std errs" in capsys.readouterr().out


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
    cfg = dict(DET_CFG, a=2.0 - 1e-4)
    code, report, _ = run(tmp_path, "identity-check", cfg, "--paths", "100")
    err = capsys.readouterr().err
    assert code == 4 and report is None
    assert "error[DivergenceError]" in err and "Traceback" not in err


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
