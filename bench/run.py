"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload train --seed 1 --seconds 15 --trace 0

Starts `bench/worker.py` as one process with the BLAS and OpenMP thread
pools pinned to one thread, waits for it, and passes its output through;
the last line is the JSON result. Run from a checkout of the repository:
the program under test is imported from `src/`.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("train", "eval", "gradcheck")
TIMEOUT_S = 175
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mmqa" / "__init__.py").is_file():
        print(f"error: the program's sources are missing: {ROOT / 'src' / 'mmqa'}",
              file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    command = [sys.executable, "-m", "bench.worker", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    with subprocess.Popen(command, cwd=ROOT, env=env) as child:
        try:
            return child.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"error: {args.workload} run exceeded {TIMEOUT_S} s", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
