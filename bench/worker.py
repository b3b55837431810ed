"""One workload in one fresh process: set-up, warm-up, timed ops, checks.

``run.py`` starts this script and reads the JSON object it prints last.
Set-up ends when the first timed op could start; the script reports that
moment on the shared monotonic clock so the parent can time set-up from
its own process start.

    python3 bench/worker.py --workload analytic-cli --seed 1 --seconds 25
    python3 bench/worker.py --workload analytic-cli --seed 1 --setup-only
    python3 bench/worker.py --workload analytic-cli --seed 1 --seconds 25 --trace
"""

from __future__ import annotations

import argparse
import json
import math
import mmap
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy
from scipy import integrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
MAX_TRACED_ROUNDS = 6


def import_program():
    """ar1fpt.cli from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ar1fpt.cli

    where = Path(ar1fpt.cli.__file__).resolve().parent
    if where != (src / "ar1fpt").resolve():
        raise SystemExit(f"ar1fpt imported from {where}, not from {src}")
    return ar1fpt.cli


_CAL_BIG = np.linspace(0.0, 1.0, 1 << 16)
_CAL_OUT = np.empty_like(_CAL_BIG)
_CAL_SMALL = np.linspace(0.0, 1.0, 1 << 12)
_CAL_FRESH = np.linspace(0.0, 1.0, 1 << 17)


def calibration_unit(large_temporaries: bool = False) -> float:
    """Wall milliseconds of one pass of a fixed loop, about 4 ms.

    The loop mixes the kinds of work the program does: ufunc passes over
    arrays that fit in a core's cache, many small numpy calls, scipy
    ``quad`` over a Python integrand, and plain Python arithmetic and dict
    updates.  With ``large_temporaries`` it also fills and sums 1 MB of
    fresh pages four times (a few ms more), which, like an op that
    allocates large temporaries, faults in new pages and streams through
    memory.  Those pages are mapped apart from the heap and unmapped at
    once, so they leave the program's heap as it was and add at most 1 MB
    to the process's peak memory.  It does
    not touch ar1fpt, so no change to the program changes it.  The
    end-to-end runs time one pass after every call, and ``op_cost``
    divides each call by the passes beside it (see README).
    """
    t0 = time.perf_counter()
    for _ in range(4 if large_temporaries else 0):
        with mmap.mmap(-1, _CAL_FRESH.nbytes) as pages:
            fresh = np.frombuffer(pages, dtype=float)
            np.exp(_CAL_FRESH, out=fresh)
            fresh.sum()
            del fresh
    for _ in range(10):
        np.exp(_CAL_BIG, out=_CAL_OUT)
        np.multiply(_CAL_OUT, _CAL_BIG, out=_CAL_OUT)
    for _ in range(20):
        np.log1p(np.exp(_CAL_SMALL)).sum()
    for k in range(4):
        integrate.quad(lambda t: math.exp(-t * t) * math.cos(k * t), 0.0, 10.0)
    total, counts = 0, {}
    for i in range(30_000):
        total += i * i
    for i in range(3_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return (time.perf_counter() - t0) * 1e3


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "FPT_THREADS": os.environ.get("FPT_THREADS"),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(workload, kind: str, after_call=None) -> tuple[float, list[float], dict]:
    """Run one op; return its wall ms, each call's wall ms and its record.

    ``after_call`` runs after each call, outside the op's time.
    """
    codes, call_ms = [], []
    for argv in workload.op_calls(kind):
        t0 = time.perf_counter()
        codes.append(workload.invoke(argv))
        call_ms.append((time.perf_counter() - t0) * 1e3)
        if after_call:
            after_call()
    return sum(call_ms), call_ms, workload.collect(kind, codes)


def verdict(workload, records: list[dict]) -> dict:
    reasons = workload.check(records)
    unexpected = [r for r in reasons if r is not None and not workload.known_fault(r)]
    return {
        "attempted": len(records),
        "failed": sum(r is not None for r in reasons),
        "correct": not unexpected,
        "reasons": sorted(set(r for r in reasons if r is not None)),
    }


def run_plain(cli, args, registry) -> dict:
    """Whole rounds of the workload's ops until --seconds have passed."""
    wl = registry[args.workload](cli, OUT / args.workload, args.seed)
    wl.warm_up()
    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready}
    # a calibration pass before the first call and after every call: each
    # call's cost is its time over the mean of the passes either side
    calibration = [calibration_unit(wl.large_temporaries)]

    def after_call():
        calibration.append(calibration_unit(wl.large_temporaries))

    op_kind, op_ms, op_cost, records = [], [], [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for kind in wl.round:
            first = len(calibration) - 1
            ms, calls, rec = timed(wl, kind, after_call)
            cal = calibration[first:]
            op_cost.append(sum(c / ((a + b) / 2) for c, a, b in zip(calls, cal, cal[1:])))
            op_kind.append(kind)
            op_ms.append(ms)
            records.append(rec)
    return {
        "ready": ready,
        "timed_kind": wl.timed_kind,
        "op_kind": op_kind,
        "op_ms": op_ms,
        "op_cost": op_cost,
        "work": [wl.work(r) for r in records],
        "peak_rss_mb": peak_rss_mb(),
        "calibration_ms": calibration,
        **verdict(wl, records),
    }


def run_traced(cli, args, registry) -> dict:
    """Rounds of every workload's op, traced, until --seconds have passed.

    At most MAX_TRACED_ROUNDS rounds run, which bounds the spans kept in
    memory (about 100,000 a round).

    Each round runs one traced op of each workload (of its traced kind:
    the full flagship op, the long-paths op and one analytic pass), a
    traced replay of the full flagship simulation without MGF nodes by the
    ``simulate`` subcommand (for montecarlo.mgf_ms and the kernel figures),
    and then one op of --workload with the wrappers removed (for
    trace.overhead_ms).
    """
    import tracing

    kinds = {name: cls(cli, OUT / "traced" / name, args.seed) for name, cls in registry.items()}
    for wl in kinds.values():
        wl.warm_up()
    flagship = kinds["flagship-mgf"]
    target = kinds[args.workload]
    tracer = tracing.Tracer()
    traced_ms, plain_ms, records = [], [], {name: [] for name in kinds}
    mine = []
    start = time.perf_counter()
    calibration = [calibration_unit() for _ in range(3)]
    while not traced_ms or (
        time.perf_counter() - start < args.seconds and len(traced_ms) < MAX_TRACED_ROUNDS
    ):
        r = len(traced_ms)
        tracer.install()
        try:
            for name, wl in kinds.items():
                tracer.op = (r, name)
                ms, _, rec = timed(wl, wl.traced_kind)
                records[name].append(rec)
                if wl is target:
                    traced_ms.append(ms)
                    mine.append(rec)
            tracer.op = (r, tracing.PAIRED)
            if flagship.replay_without_nodes() != 0:
                raise SystemExit("the simulate replay of the flagship op failed")
        finally:
            tracer.uninstall()
            tracer.op = None
        ms, _, rec = timed(target, target.traced_kind)
        plain_ms.append(ms)
        mine.append(rec)
    calibration += [calibration_unit() for _ in range(3)]
    rounds = len(traced_ms)
    overhead = float(np.median(traced_ms) - np.median(plain_ms))
    metrics = tracing.layer_metrics(tracer, rounds, overhead)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    others = {name: verdict(kinds[name], recs) for name, recs in records.items()}
    return {
        "metrics": metrics,
        "rounds": rounds,
        "spans": len(tracer.spans),
        "op_ms": traced_ms,
        "untraced_op_ms": plain_ms,
        "calibration_ms": calibration,
        "traced_workloads": others,
        **verdict(target, mine),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    cli = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    run = run_traced if args.trace else run_plain
    out = run(cli, args, WORKLOADS)
    out["machine"] = machine()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
