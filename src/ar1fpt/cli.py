"""Command line surface: config parsing, subcommand orchestration, reports.

Every run writes ``report.json`` (and ``table.csv`` for the tabular
subcommands) into the output directory.  The report separates ``meta``
(version, wall clock) from ``config`` (the fully resolved echo) and
``results``: re-running from the echoed config and seed reproduces the
``results`` subtree byte for byte, independent of FPT_THREADS.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cumulant import LimitCumulant, check_functional_equation
from .errors import Ar1FptError, ConfigError
from .innovations import (
    CappedAbove,
    Deterministic,
    FlooredPositive,
    Gaussian,
    InnovationSpec,
    StableSpectrallyNegative,
    TwoPoint,
)
from .montecarlo import simulate_passage
from .passage import (
    PassageProblem,
    exponential_certificate,
    feasibility_report,
    h_table,
    identity_estimate,
    lower_bound_e_tau,
    upper_bound_e_tau,
)
from .transforms import check_harmonic

#: Each family's constructor and its fields in argument order, with their
#: defaults (None: required).  A "base" field is itself a family block.
_FAMILIES = {
    "gaussian": (Gaussian, {"m": 0.0, "var": 1.0}),
    "deterministic": (Deterministic, {"c": None}),
    "two_point": (TwoPoint, {"h_up": None, "h_down": None, "p": None}),
    "stable": (StableSpectrallyNegative, {"alpha": None, "c_scale": None, "m": 0.0}),
    "capped_above": (CappedAbove, {"base": None, "cap": None}),
    "floored_positive": (FlooredPositive, {"base": None, "floor": None}),
}

#: The config keys with no default.
_REQUIRED = ("family", "lambda", "x", "a")
#: The other config keys and their defaults.  A flag overrides each one;
#: its dest is the key, but for n_paths (--paths).
_DEFAULTS = {
    "seed": 0,
    "n_paths": 100_000,
    "max_steps": 10**6,
    "u_grid": "0:10:0.5",
    "delta": 0.5,
    "cap": None,
}

#: The first n_paths the simulation's int64 counters cannot hold.
_PATHS_LIMIT = 2**63
#: The most points a LO:HI:STEP grid may expand to.
_MAX_GRID_POINTS = 10**6


def _fail(path: str, message: str) -> ConfigError:
    return ConfigError(f"{path}: {message}")


def _build_family(block, path: str = "family") -> InnovationSpec:
    if not isinstance(block, dict):
        raise _fail(path, "must be an object with a 'name' field")
    block = dict(block)
    name = block.pop("name", None)
    if name not in _FAMILIES:
        raise _fail(f"{path}.name", f"unknown family {name!r}; one of {sorted(_FAMILIES)}")
    build, fields = _FAMILIES[name]
    unknown = set(block) - set(fields)
    if unknown:
        raise _fail(f"{path}.{sorted(unknown)[0]}", "unknown key")
    args = []
    for key, default in fields.items():
        if key not in block and default is None:
            raise _fail(f"{path}.{key}", "required field missing")
        value, where = block.get(key, default), f"{path}.{key}"
        args.append(_build_family(value, where) if key == "base" else _finite(value, where))
    try:
        return build(*args)
    except (TypeError, ValueError) as exc:
        raise _fail(path, str(exc)) from exc


def parse_config(args: argparse.Namespace) -> dict:
    """Merge config file, CLI flag overrides, and defaults into one dict.

    The result echoes into the report verbatim; flags win over file values.
    """
    raw = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} is unreadable: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - set(_REQUIRED) - set(_DEFAULTS)
        if unknown:
            raise _fail(sorted(unknown)[0], "unknown key")
    cfg = dict(_DEFAULTS)
    cfg.update(raw)
    for key in _DEFAULTS:
        val = getattr(args, "paths" if key == "n_paths" else key, None)
        if val is not None:
            cfg[key] = val

    for key in _REQUIRED:
        if key not in cfg:
            raise _fail(key, "required field missing")
    spec = _build_family(cfg["family"])
    for key in _REQUIRED[1:]:
        cfg[key] = _finite(cfg[key], key)
    if not 0.0 < cfg["lambda"] < 1.0:
        raise _fail("lambda", "violates 0 < lambda < 1")
    if cfg["a"] < cfg["x"]:
        raise _fail("a", "violates a >= x")
    for key in ("seed", "n_paths", "max_steps"):
        cfg[key] = _integer(cfg[key], key)
    if cfg["n_paths"] <= 0:
        raise _fail("n_paths", "must be positive")
    if cfg["n_paths"] >= _PATHS_LIMIT:
        raise _fail("n_paths", "must be below 2**63: path counts are int64")
    if cfg["max_steps"] <= 0:
        raise _fail("max_steps", "must be positive")
    cfg["delta"] = _finite(cfg["delta"], "delta")
    if not 0.0 < cfg["delta"] < 1.0:
        raise _fail("delta", "violates 0 < delta < 1")
    if cfg["cap"] is not None:
        cfg["cap"] = _finite(cfg["cap"], "cap")
    cfg["_spec"] = spec
    cfg["_u_grid"] = _parse_u_grid(cfg["u_grid"])
    return cfg


def _integer(value, key: str) -> int:
    """An int, or a float of integral value such as 1e6; not a bool."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(key, "must be an integer")
    return value


def _is_number(value) -> bool:
    """A JSON number: an int or a float, not a bool or a string."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value, key: str) -> float:
    if not _is_number(value):
        raise _fail(key, "must be a number")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise _fail(key, "must be finite")
    return number


def _parse_u_grid(text) -> np.ndarray:
    if isinstance(text, (list, tuple)):
        if len(text) > _MAX_GRID_POINTS:
            raise _fail("u_grid", f"more than {_MAX_GRID_POINTS} points")
        if not text or not all(map(_is_number, text)):
            raise _fail("u_grid", "expected a list of numbers, flat and non-empty")
        grid = np.array([_finite(x, "u_grid") for x in text])
    else:
        parts = str(text).split(":")
        if len(parts) != 3:
            raise _fail("u_grid", "expected LO:HI:STEP")
        try:
            lo, hi, step = (float(p) for p in parts)
        except ValueError:
            raise _fail("u_grid", "expected numeric LO:HI:STEP")
        if not all(map(math.isfinite, (lo, hi, step))):
            raise _fail("u_grid", "LO, HI and STEP must be finite")
        if step <= 0 or hi < lo:
            raise _fail("u_grid", "needs HI >= LO and STEP > 0")
        if (hi - lo) / step + 0.5 > _MAX_GRID_POINTS:
            raise _fail("u_grid", f"more than {_MAX_GRID_POINTS} points")
        grid = np.arange(lo, hi + 0.5 * step, step)
        if not len(grid):  # hi + step/2 rounded to hi at LO = HI
            raise _fail("u_grid", f"{text} expands to no point")
    if np.any(grid < 0):
        raise _fail("u_grid", "phi is only defined for u >= 0")
    return grid


def _problem(cfg: dict) -> PassageProblem:
    return PassageProblem(lam=cfg["lambda"], x=cfg["x"], a=cfg["a"], spec=cfg["_spec"])


# ---------------------------------------------------------------------------
# Subcommands.  Each returns (results dict, csv rows or None).
# ---------------------------------------------------------------------------


def _finite_phi(lc: LimitCumulant, u):
    """lc.phi(u), or a u_grid ConfigError at the first u where either half is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # fails typed below
        vals, errs = lc.phi(u)
    bad = ~(np.isfinite(vals) & np.isfinite(errs))
    if bad.any():
        raise _fail("u_grid", f"phi or its error bound is not finite at u = {float(u.flat[bad.argmax()])!r}")
    return vals, errs


def _cmd_phi(cfg):
    lc = LimitCumulant(cfg["_spec"], cfg["lambda"])
    grid = cfg["_u_grid"]
    vals, errs = _finite_phi(lc, grid)
    rows = [("u", "phi", "abs_err")]
    out = []
    for u, val, err in zip(grid.tolist(), vals.tolist(), errs.tolist()):
        rows.append((u, val, err))
        out.append({"u": u, "phi": val, "abs_err": err})
    return {"mode": lc.mode, "grid": out}, rows


def _cmd_simulate(cfg):
    p = _problem(cfg)
    summary = simulate_passage(
        p, n_paths=cfg["n_paths"], max_steps=cfg["max_steps"], seed=cfg["seed"]
    )
    return summary.to_dict(), None


def _cmd_bounds(cfg):
    p = _problem(cfg)
    feas = feasibility_report(p)
    results = {"sup_bound": feas.sup_bound, "crossing_mass": feas.crossing_mass}
    results["lower_bound_e_tau"], results["lower_bound_abs_err"] = lower_bound_e_tau(p)
    # the cap in force: the requested one, or the ess-sup where lower
    caps = [c for c in (cfg["cap"], p.spec.upper_support()) if c is not None]
    if caps:
        h_cap = results["h_cap"] = min(caps)
        results["upper_bound_e_tau"], results["upper_bound_abs_err"] = upper_bound_e_tau(p, h_cap)
    return results, None


def _cmd_identity_check(cfg):
    p = _problem(cfg)
    table = h_table(p)
    summary = simulate_passage(
        p, n_paths=cfg["n_paths"], max_steps=cfg["max_steps"], seed=cfg["seed"], h=table
    )
    value, std_err = identity_estimate(p, summary, table)
    combined = math.hypot(std_err, summary.e_tau_std_err)
    discrepancy = abs(value - summary.e_tau_hat)
    # as DriftReport.max_sigma: a discrepancy that no error explains reads inf (null in the report)
    if combined > 0:
        sigmas = discrepancy / combined
    else:
        sigmas = 0.0 if discrepancy == 0 else math.inf
    print(f"identity vs Monte Carlo discrepancy: {sigmas:.17g} combined std errs")
    return {
        "identity_value": value,
        "identity_std_err": std_err,
        "mc_e_tau_hat": summary.e_tau_hat,
        "mc_e_tau_std_err": summary.e_tau_std_err,
        "n_censored": summary.n_censored,
        "n_outside_table": summary.n_outside_table,
        "discrepancy": discrepancy,
        "discrepancy_sigmas": sigmas if math.isfinite(sigmas) else None,
    }, None


def _cmd_certificate(cfg):
    p = _problem(cfg)
    cert = exponential_certificate(p, delta=cfg["delta"], h_cap=cfg["cap"])
    return {
        "v_star": cert.v_star,
        "alpha": cert.alpha,
        "c_bound": cert.c_bound,
        "h_cap": cert.h_cap,
    }, None


def _cmd_validate(cfg):
    """Desk-scale consistency battery for the configured family."""
    lc = LimitCumulant(cfg["_spec"], cfg["lambda"])
    grid = cfg["_u_grid"]
    checks = []

    def record(name, value, tol, error=None):
        entry = {"check": name, "value": value, "tolerance": tol}
        entry["passed"] = error is None and value < tol
        if error is not None:
            entry["error"] = error
        checks.append(entry)

    # the array check_functional_equation evaluates, so a series law sums it once
    _finite_phi(lc, np.stack([grid, grid * lc.lam]))
    record("functional_equation_residual", check_functional_equation(lc, grid), 1e-8)
    if lc.mode != "series":
        resid = np.abs(lc.phi(grid)[0] - lc.series(grid)[0])
        record("series_vs_closed_form", float(np.max(resid, initial=0.0)), 1e-10)
    # a state inside the admissible domain, below x and never above 0
    y = min(0.0, cfg["x"], lc.y_adm - 1.0)
    for kind, v in (("N", 1.0), ("H", None), ("W", -0.1)):
        try:
            resid, error = check_harmonic(lc, kind, y=y, v=v), None
        except Ar1FptError as exc:
            resid, error = None, f"{type(exc).__name__}: {exc}"
        record(f"harmonic_{kind}_residual", resid, 1e-6, error)
    rows = [("check", "value", "tolerance", "passed")]
    for c in checks:
        rows.append((c["check"], c["value"], c["tolerance"], c["passed"]))
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}, rows


_SUBCOMMANDS = {
    "phi": _cmd_phi,
    "simulate": _cmd_simulate,
    "bounds": _cmd_bounds,
    "identity-check": _cmd_identity_check,
    "certificate": _cmd_certificate,
    "validate": _cmd_validate,
}


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _plain(obj):
    """json's hook for numpy values: arrays as lists, scalars as Python's."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_outputs(out_dir: Path, subcommand, cfg, results, rows, wall_clock):
    echo = {k: v for k, v in cfg.items() if not k.startswith("_")}
    report = {
        "meta": {
            "tool": "ar1fpt",
            "version": __version__,
            "subcommand": subcommand,
            "wall_clock_sec": wall_clock,
        },
        "config": echo,
        "results": results,
    }
    # compact, so the C encoder writes it (indent takes the Python one), and
    # strict: a value that does not exist is null, never NaN or Infinity
    try:
        text = json.dumps(report, sort_keys=True, default=_plain, allow_nan=False)
    except ValueError as exc:
        raise Ar1FptError(f"report.json would not be strict JSON: {exc}") from exc
    (out_dir / "report.json").write_text(text + "\n")
    if rows is not None:
        # csv's excel dialect, "," and "\r\n": no field of these tables needs quoting
        text = "".join(",".join(map(_fmt, row)) + "\r\n" for row in rows)
        (out_dir / "table.csv").write_text(text, newline="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ar1fpt",
        description="First passage times of AR(1) sequences: analytics vs Monte Carlo.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("subcommand", choices=list(_SUBCOMMANDS))
    parser.add_argument("--config")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", default=".")
    parser.add_argument("--paths", type=int)
    parser.add_argument("--max-steps", type=int)
    parser.add_argument("--u-grid")
    parser.add_argument("--delta", type=float)
    parser.add_argument("--cap", type=float)
    return parser


_PARSER = build_parser()  # built once, not per call of main: a build costs several parses


@contextlib.contextmanager
def _output_errors():
    """An OSError creating or writing the output becomes a ConfigError."""
    try:
        yield
    except OSError as exc:
        raise _fail("out", str(exc)) from exc


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    out_dir = Path(args.out)
    try:
        cfg = parse_config(args)
        with _output_errors():  # before the subcommand, so a bad --out fails fast
            out_dir.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        results, rows = _SUBCOMMANDS[args.subcommand](cfg)
        wall = time.perf_counter() - t0
        with _output_errors():
            _write_outputs(out_dir, args.subcommand, cfg, results, rows, wall)
    except Ar1FptError as exc:
        print(f"error[{type(exc).__name__}]: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
