"""Benchmark for the bccsp workbench.

    python3 bench/run.py --workload spectrum --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the workbench is imported from ./src, and
nothing else. One process, one thread, a closed loop with one operation
outstanding. The run sets the program up SETUP_REPEATS times (import,
axiom systems, fixtures) and reports the median, makes its inputs from the
seed, warms up where the workload asks for it, then runs whole rounds of
operations until the operations have kept the program busy for `--seconds`.
Every result is checked; failing checks make `correct` false and are listed
on standard error.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics. With `--trace 1` every other operation is traced (the
parity flips from round to round, so over two rounds each position is traced
once), spans around every call into the workbench are written to
.bench_out/, and the metrics are the per-layer figures plus the tracing
overhead: operations per second of the untraced minus the traced operations.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 5
# A run stops after the round in which its wall time passes this many times
# the requested seconds, even if checks made it slower than planned.
WALL_FACTOR = 4

WORKLOADS = ("spectrum", "soundness", "eliminate", "models")


class Recorder:
    """Times operations and collects check failures."""

    FAILED = object()

    def __init__(self, tracer: Tracer, trace: bool):
        self.tracer = tracer
        self.trace = trace
        self.latencies = {False: [], True: []}  # by whether the operation was traced
        self.attempted = 0
        self.failed = 0
        self.errors: list = []
        self.busy = 0.0  # seconds spent inside operations
        self.turn = 0

    def start_round(self, r: int) -> None:
        self.turn = r

    def op(self, fn, *args):
        self.attempted += 1
        self.tracer.enabled = self.trace and self.turn % 2 == 0
        self.turn += 1
        self.tracer.begin_op()
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:
            self.failed += 1
            print(f"operation failed:\n{traceback.format_exc()}", file=sys.stderr)
            return self.FAILED
        dt = time.perf_counter() - t0
        self.latencies[self.tracer.enabled].append(dt)
        self.busy += dt
        return out

    def check(self, ok, message: str) -> None:
        if not ok:
            if len(self.errors) < 20:
                print(f"check failed: {message}", file=sys.stderr)
            self.errors.append(message)


def _import_fresh():
    for name in [m for m in sys.modules if m == "bccsp" or m.startswith("bccsp.")]:
        del sys.modules[name]
    pkg = importlib.import_module("bccsp")
    where = Path(pkg.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"bccsp was imported from {where}, not from {SRC}")
    return pkg


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _e2e_metrics(setup_times, rec):
    lat = rec.latencies[False]
    busy = sum(lat)
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "ops_per_s": _metric(len(lat) / busy, "op/s"),
        "latency_p50_ms": _metric(statistics.median(lat) * 1000.0, "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="bccsp workbench benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bccsp" / "__init__.py").is_file():
        print(f"error: no workbench sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = importlib.import_module("wl_" + args.workload)

    tracer = Tracer(enabled=bool(args.trace))
    rec = Recorder(tracer, bool(args.trace))

    setup_times = []
    for i in range(SETUP_REPEATS):
        # only the last set-up is traced, so set-up counts are per set-up
        tracer.enabled = tracer.counting = bool(args.trace) and i == SETUP_REPEATS - 1
        t0 = time.perf_counter()
        try:
            pkg = _import_fresh()
        except ImportError as e:
            print(f"error: cannot import the workbench: {e}", file=sys.stderr)
            return 2
        env = wl.setup(pkg, tracer)
        setup_times.append(time.perf_counter() - t0)
    tracer.mark("setup")

    inp = wl.inputs(args.seed, env)
    tracer.enabled = tracer.counting = False
    if hasattr(wl, "warm"):
        wl.warm(env, inp, rec)
    tracer.counting = bool(args.trace)

    # a traced run needs two rounds, so that every position is traced once
    min_rounds = 2 if args.trace else 1
    wall0 = time.perf_counter()
    r = 0
    while True:
        rec.start_round(r)
        wl.run_round(env, inp, r, rec)
        if r == 0:
            tracer.mark("round0")
        r += 1
        late = time.perf_counter() - wall0 > WALL_FACTOR * args.seconds
        if r >= min_rounds and (rec.busy >= args.seconds or late):
            break
    tracer.enabled = tracer.counting = False

    if args.trace:
        metrics = layers.per_layer_metrics(tracer, env, rec)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics = _e2e_metrics(setup_times, rec)
    result = {
        "correct": not rec.errors,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": metrics,
    }
    print(
        f"{args.workload}: seed {args.seed}, {r} rounds, {rec.attempted} operations, "
        f"{rec.busy:.2f}s busy, {len(rec.errors)} failed checks",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
