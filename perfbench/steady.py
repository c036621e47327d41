"""Steadiness check: run the benchmark once per seed and print, per workload
and end-to-end metric, the median, the quartiles and the quartile spread as a
share of the median, next to the metric's bound.

    python3 perfbench/steady.py --workloads recommend-alns,evaluate-loo --seeds 1-10
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True, help="comma list")
    p.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    p.add_argument("--out", help="append each run's JSON line here")
    args = p.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    first, last = (int(x) for x in args.seeds.split("-"))
    ok = True
    walls = []
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(first, last + 1):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"], capture_output=True, text=True, check=False)
            walls.append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(lines[-1])
            runs.append(result)
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
            ok &= result["correct"]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed share {sorted(shares)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "" if name == "setup_s" or spread <= bound / 3 else "  <-- over a third of bound"
            print(f"  {name:16s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {spread:6.3f}  bound {bound}{flag}")
    print(f"wall time per run: mean {statistics.mean(walls):.1f} s, max {max(walls):.1f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
