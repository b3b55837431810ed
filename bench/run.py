"""Benchmark of ar1fpt: one workload per call, in fresh single-threaded processes.

    python3 bench/run.py --workload flagship-mgf --seed 1 --seconds 25 --trace 0

Workloads: flagship-mgf, long-paths and analytic-cli (see bench/README.md).
With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics of BENCHMARK.json; with --trace 1 it holds the per-layer
metrics of a traced run instead.  Lines before it are for people: the
machine, the op count and tail percentile, any failed checks, and
unbounded figures that follow the host's phase (median op, throughput).  A
record of the run goes to bench/_out/.

Set-up is timed in SETUP_SAMPLES processes: SETUP_SAMPLES - 1 that stop
where the first timed op would start, and the measuring process itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
#: Longest a whole run may take, workers included; callers stop a run at 180 s.
RUN_TIMEOUT_S = 170
#: Single-threaded: the Monte Carlo pool and any BLAS threads.  A fixed
#: hash seed fixes dict and set order, and with it the order of large
#: allocations: under random seeds one flagship process in four kept an
#: extra 24 MB block and peaked at 155 MB instead of 131 MB.
ENV = {
    "PYTHONHASHSEED": "0",
    "FPT_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


class BenchError(Exception):
    pass


def worker(args, *extra: str) -> tuple[float, dict]:
    """Start worker.py; return (its start time, the JSON it printed last)."""
    timeout = max(1.0, args.deadline - time.monotonic())
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), *extra,
    ]
    env = dict(os.environ, **ENV)
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish in {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return started, json.loads(lines[-1])


def tail_percentile(op_ms: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(op_ms)
    for q in TAIL_PERCENTILES:
        if n * (1.0 - q / 100.0) >= 10.0:
            cuts = statistics.quantiles(op_ms, n=1000, method="inclusive")
            return q, cuts[round(q * 10) - 1]
    return None


def end_to_end(args) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        started, out = worker(args, "--setup-only")
        setups.append(out["ready"] - started)
    started, out = worker(args, "--seconds", str(args.seconds))
    setups.append(out["ready"] - started)
    out["setup_s_samples"] = setups
    kinds = out["op_kind"]
    mine = [i for i, k in enumerate(kinds) if k == out["timed_kind"]]
    op_ms = [out["op_ms"][i] for i in mine]
    out["metrics"] = {
        "setup_s": statistics.median(setups),
        "op_cost": statistics.median(out["op_cost"][i] for i in mine),
        "peak_rss_mb": out["peak_rss_mb"],
    }
    # unbounded, for people: they follow the host's phase
    out["info"] = {
        f"{k} op_p50_ms": statistics.median(
            [ms for ms, kk in zip(out["op_ms"], kinds) if kk == k]
        )
        for k in sorted(set(kinds))
    }
    out["info"]["work_per_s"] = sum(out["work"]) / (sum(out["op_ms"]) / 1e3)
    out["info"]["calibration_unit_ms"] = statistics.median(out["calibration_ms"])
    tail = tail_percentile(op_ms)
    out["tail"] = (
        f"{len(op_ms)} {out['timed_kind']} ops, p{tail[0]:g} {tail[1]:.4f} ms"
        if tail
        else "no percentile beyond the median"
    )
    return out


def traced(args) -> dict:
    _, out = worker(args, "--seconds", str(args.seconds), "--trace")
    out["tail"] = f"{out['rounds']} traced rounds, {out['spans']} spans"
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + RUN_TIMEOUT_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "ar1fpt" / "__init__.py").is_file():
        print("error: src/ar1fpt is missing from this checkout", file=sys.stderr)
        return 2
    try:
        out = traced(args) if args.trace else end_to_end(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in out["metrics"]]
    if missing:
        print(f"error: the run did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]} for m in wanted
    }
    out.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    out_dir = BENCH / "_out"
    out_dir.mkdir(exist_ok=True)
    record = out_dir / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(out, indent=1))

    print(f"# machine {json.dumps(out['machine'])}, seed {args.seed}")
    cal = out["calibration_ms"]
    print(f"# calibration loop: {len(cal)} passes, {min(cal):.4f} to {max(cal):.4f} ms")
    print(
        f"# {args.workload}: {out['attempted']} ops, {out['failed']} failed; {out['tail']}"
    )
    for reason in out["reasons"]:
        print(f"# failed: {reason}")
    for name, value in out.get("info", {}).items():
        print(f"# {name} = {value!r} (unbounded)")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": out["correct"],
                "attempted": out["attempted"],
                "failed": out["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
