"""Run-to-run spread of the end-to-end metrics.

    python3 bench/spread.py --workload ring --seeds 1-10

Runs bench/run.py once per seed, one run at a time, for the run_seconds of
BENCHMARK.json and with tracing off. Prints for every metric the median and
the distance between the first and third quartiles (statistics.quantiles,
n=4) as a share of the median. Results are also
written to bench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in seeds(args.seeds):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["seed"], result["elapsed_s"] = seed, time.perf_counter() - t0
        runs.append(result)
        print(json.dumps(result), flush=True)
    summary = {"workload": args.workload, "runs": runs, "metrics": {}}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
        summary["metrics"][name] = {"median": med, "iqr_share": (q[2] - q[0]) / med}
        print(f"{args.workload:8s} {name:40s} median {med:12.6g}  "
              f"IQR/median {(q[2] - q[0]) / med:.4f}")
    print(f"failed shares: {sorted({r['failed'] / r['attempted'] for r in runs})}; "
          f"all correct: {all(r['correct'] for r in runs)}; "
          f"longest run {max(r['elapsed_s'] for r in runs):.1f} s")
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"spread-{args.workload}.json").write_text(json.dumps(summary, indent=1))


if __name__ == "__main__":
    main()
