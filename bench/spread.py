"""Run the benchmark once per seed and report each metric's spread.

    python3 bench/spread.py --workloads train eval gradcheck --seeds 1 10 \
        --seconds 15 --trace 0 --out .bench_out/spread.json

Runs one `bench/run.py` process at a time. For every workload and metric it
prints the median, the quartiles (`statistics.quantiles(values, n=4)`), the
interquartile range as a share of the median and, for end-to-end metrics,
whether that share stays under a third of the metric's bound in
`BENCHMARK.json`. With `--out`, the raw result lines are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  {workload} seed {seed} | {line}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=["train", "eval", "gradcheck"])
    parser.add_argument("--seeds", nargs=2, type=int, default=[1, 10],
                        metavar=("FIRST", "LAST"))
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length; defaults to BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    raw = {}
    for workload in args.workloads:
        results = []
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            results.append(run_once(workload, seed, seconds, args.trace))
            print(f"{workload} seed {seed}: {json.dumps(results[-1])}", flush=True)
        raw[workload] = results
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: correct {correct}, failed shares {sorted(shares)}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median if median else 0.0
            verdict = ""
            if name in bounds and name != "setup_s":
                verdict = "ok" if share < bounds[name] / 3 else "WIDE"
            print(f"  {name:40s} {median:12.6g} {unit:6s} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"iqr/median {share:7.3%} {verdict}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(raw, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
