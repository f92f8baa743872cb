"""Benchmark for qlin: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qlin is imported from ``src/`` there.
``--trace 0`` times operations with nothing installed and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced rounds of
the same operations and reports per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Results and span files go to ``bench/out/``.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# One caller on one core: keep BLAS from spawning threads of its own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit (used for setup_s)")
    return p.parse_args(argv)


def import_program():
    """Import qlin from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "qlin", "__init__.py")):
        sys.exit(f"bench: no qlin sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import qlin
    if os.path.dirname(os.path.dirname(os.path.abspath(qlin.__file__))) != SRC:
        sys.exit(f"bench: imported qlin from {qlin.__file__}, not from {SRC}")
    import workloads
    return workloads


def tail_rank(n: int, pct: int) -> int:
    """0-based nearest-rank index of the pct-th percentile of n samples."""
    return math.ceil(pct * n / 100) - 1


def min_ops(pct: int) -> int:
    """Fewest samples that leave ten beyond the pct-th percentile."""
    return -(-1000 // (100 - pct))


class Loop:
    """Runs rounds of operations one after another and records latencies."""

    def __init__(self, workload):
        self.workload = workload
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.trials = 0
        self.wrong: list[str] = []

    def run_round(self, ops) -> list[float]:
        lat = []
        for op in ops:
            t0 = time.perf_counter()
            out = op.run()
            lat.append(time.perf_counter() - t0)
            fails = op.check(out)
            self.attempted += 1
            self.trials += op.trials
            if fails and op.known_fault:
                self.failed += 1
            elif fails:
                self.wrong.append(f"op {self.attempted}: " + "; ".join(fails[:3]))
        self.latencies += lat
        return lat


def set_up(args, workloads):
    """Input generation and warm-up; returns the workload."""
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    done = k = 0
    while done < wl.warmup:
        for op in wl.round(k)[:wl.warmup - done]:
            op.run()
            done += 1
        k += 1
    return wl, workdir


def measure_setup_in_children(args) -> list[float]:
    """Set-up times of fresh processes doing the same set-up."""
    times = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.strip().split("\n")[-1])["setup_s"])
    return times


def end_to_end(loop: Loop, setup_s: float) -> dict:
    lat = sorted(loop.latencies)
    pct = loop.workload.tail_pct
    return {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_tail_ms": 1e3 * lat[tail_rank(len(lat), pct)],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_timed(wl, args) -> Loop:
    loop = Loop(wl)
    k = 0
    while sum(loop.latencies) < args.seconds or len(loop.latencies) < min_ops(wl.tail_pct):
        loop.run_round(wl.round(k))
        k += 1
    return loop


def run_traced(wl, args):
    """Untraced and traced passes over the same rounds, until the time is up."""
    import tracing
    loop = Loop(wl)
    tracer = tracing.Tracer()
    plain, traced, traced_ops, traced_trials = [], [], 0, 0
    k = 0
    while k == 0 or sum(loop.latencies) < args.seconds:
        ops = wl.round(k)
        plain += loop.run_round(ops)
        tracer.install()
        try:
            for i, op in enumerate(ops):
                tracer.op = traced_ops + i
                traced += loop.run_round([op])
        finally:
            tracer.uninstall()
        traced_ops += len(ops)
        traced_trials += sum(op.trials for op in ops)
        k += 1
    metrics = tracing.layer_metrics(tracer.self_times(), traced_ops, traced_trials)
    metrics["trace.overhead_ms"] = 1e3 * (statistics.fmean(traced) - statistics.fmean(plain))
    return loop, metrics, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl, workdir = set_up(args, workloads)
    setup_s = time.perf_counter() - T_START
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            loop, metrics, tracer = run_traced(wl, args)
            units = {m: ("count" if m.endswith(".calls") else "ms") for m in metrics}
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl"))
        else:
            loop = run_timed(wl, args)
            metrics = end_to_end(loop, setup_s)
            setups = [setup_s] + measure_setup_in_children(args)
            metrics["setup_s"] = statistics.median(setups)
            units = END_TO_END_UNITS
        wrong = loop.wrong + wl.final_checks()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": not wrong,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  tail_percentile=wl.tail_pct, samples=len(loop.latencies),
                  trials=loop.trials, wrong=wrong[:20])
    if not args.trace:
        detail["setup_runs_s"] = setups
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    for msg in wrong[:20]:
        print(f"bench: WRONG {msg}", file=sys.stderr)
    print(f"bench: {args.workload} seed={args.seed} ops={loop.attempted} "
          f"failed={loop.failed} tail=p{wl.tail_pct}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
