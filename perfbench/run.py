"""Benchmark of the tripkit CLI, driven in-process the way its users drive it.

    python3 perfbench/run.py --workload recommend-alns --seed 1 --seconds 20 --trace 0

Makes the workload's inputs from --seed, runs the set-up calls (ingest, and
train for the recommend workloads) several times, then issues the workload's
calls back to back through `tripkit.cli.main` in whole rounds for about
--seconds, and checks every answer. The last line of standard output is one
JSON object: end-to-end metrics with --trace 0, per-layer metrics from spans
attached around tripkit's functions with --trace 1. See README.md.
"""

import os

# one caller thread and single-threaded BLAS: at most nproc = 2 threads busy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TAIL_MIN_CALLS = 40


def tail(latencies: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least 10 calls beyond it, and its value."""
    n = len(latencies)
    if n < TAIL_MIN_CALLS:
        return None
    pct = 100 * (n - 10) // n
    return pct, statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]


def run(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from tripkit import cli

    import spans
    import workloads

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = workloads.make(args.workload, args.seed, work)
        setup_tr, timed_tr = spans.Tracer(), spans.Tracer()
        tracer = None

        def call(argv):
            out, err = io.StringIO(), io.StringIO()
            main = tracer.wrap("cli.main", cli.main) if tracer else cli.main
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                rc = main(argv)
                dt = time.perf_counter() - t0
            return rc, out.getvalue(), err.getvalue(), dt

        def traced(tr):
            nonlocal tracer
            tracer = tr if args.trace else None
            return spans.attached(tr) if args.trace else contextlib.nullcontext()

        errors = []
        setup_times = []
        with traced(setup_tr):
            for _ in range(wl.setup_reps):
                outputs, total = [], 0.0
                for argv in wl.setup_calls():
                    rc, out, err, dt = call(argv)
                    if rc != 0:
                        errors.append(f"set-up {argv[0]} exit {rc}: {err.strip()}")
                    outputs.append(out)
                    total += dt
                setup_times.append(total)
        errors += wl.check_setup(outputs)
        ingests = wl.setup_reps * sum(1 for a in wl.setup_calls() if a[0] == "ingest")

        ops = wl.ops()
        results = [[] for _ in ops]
        latencies = []
        rounds = 0
        with traced(timed_tr):
            start = time.perf_counter()
            while True:
                r0 = time.perf_counter()
                for i, op in enumerate(ops):
                    rc, out, err, dt = call(op.argv)
                    csv = op.csv.read_text() if rc == 0 and op.csv and op.csv.exists() else None
                    results[i].append((rc, out, err, csv))
                    latencies.append(dt)
                rounds += 1
                now = time.perf_counter()
                # whole rounds only; stop when less than half a round's time is left
                if now - start + (now - r0) / 2 > args.seconds:
                    break
            timed_s = time.perf_counter() - start

        verdicts = []
        for op, res in zip(ops, results):
            v = wl.check(op, *res[0])
            errors += v.errors
            first = wl.answer(res[0][0], res[0][1], res[0][3])
            if any(wl.answer(rc, out, csv) != first for rc, out, _, csv in res[1:]):
                errors.append(f"{op.argv[0]} {op.key}: answer changed between rounds")
            verdicts.append(v)
        attempted = rounds * sum(v.attempted for v in verdicts)
        failed = rounds * sum(v.failed for v in verdicts)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        lat_ms = [1000.0 * x for x in latencies]
        print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
              f"{rounds} round(s) of {len(ops)} call(s) in {timed_s:.2f} s, "
              f"set-up x{wl.setup_reps}")
        for e in errors[:20]:
            print(f"CHECK FAILED: {e}")
        t = tail(lat_ms)
        print(f"  info latency_tail_ms {'%.3f ms (p%d of %d calls)' % (t[1], t[0], len(lat_ms)) if t else 'n/a (under %d calls)' % TAIL_MIN_CALLS}")
        if args.trace:
            metrics = spans.layer_metrics(timed_tr, setup_tr, len(latencies), ingests)
            print(f"  info traced latency_p50_ms {statistics.median(lat_ms):.3f} ms, "
                  f"setup_s {statistics.median(setup_times):.4f} s")
        else:
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "latency_p50_ms": (statistics.median(lat_ms), "ms"),
                "ops_per_s": ((attempted - failed) / timed_s, "1/s"),
                "mean_score": (wl.mean_score(verdicts), "score"),
                "peak_rss_mb": (peak_mb, "MB"),
            }
        for name, (value, unit) in metrics.items():
            print(f"  {name} {value:.6g} {unit}")
        print(f"  attempted {attempted} failed {failed}")
        return {"correct": not errors, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["recommend-alns", "recommend-exact", "evaluate-loo"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "tripkit" / "__init__.py").is_file():
        print(f"perfbench: no tripkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
