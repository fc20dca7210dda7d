"""robinlab benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload robin-sweep --seed 1 --seconds 20 --trace 0

Generates the workload's inputs and independent references from --seed
(inputs.py, without importing robinlab), then runs the workload in a child
process with pinned threads (worker.py) and prints one JSON line as the last
line of standard output:

    {"correct": true, "attempted": 100, "failed": 15,
     "metrics": {"wall_s": {"value": 3.1, "unit": "s"}, ...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (and writes the spans to perfbench/out/).  Exits non-zero,
printing no result, when robinlab's sources are missing or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIME_LIMIT_S = 170.0

sys.path.insert(0, str(HERE))
import inputs  # noqa: E402


def pinned_env() -> dict:
    """Fixed hash seed, one BLAS/OpenMP thread, and at most two concurrent
    stencil solves (never more than the cores this process may use)."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    cores = len(os.sched_getaffinity(0))
    env.update({"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
                "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
                "NUMEXPR_NUM_THREADS": "1", "ROBIN_THREADS": str(min(2, cores))})
    return env


def main(argv=None) -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "robinlab" / "__init__.py").is_file():
        print(f"robinlab sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}

    data = json.dumps(inputs.make(args.workload, args.seed))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(out_dir / f"spans-{args.workload}-{args.seed}.json")]
    spawned = time.time()
    proc = subprocess.Popen(cmd + ["--spawned", repr(spawned)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=pinned_env(), cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(
            data, timeout=TIME_LIMIT_S - (time.monotonic() - started))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("worker exceeded the time limit", file=sys.stderr)
        return 3
    if proc.returncode != 0:
        print(f"worker failed with exit code {proc.returncode}", file=sys.stderr)
        return 4
    res = json.loads(stdout.strip().splitlines()[-1])

    absent = set(res.get("absent", ()))
    missing = [n for n in units if n not in res["metrics"] and n not in absent]
    if missing:
        print(f"worker reported no value for {missing}", file=sys.stderr)
        return 5
    print(f"{args.workload}: {res['passes']} passes (median "
          f"{res['median_pass_s']:.3f} s), {res['attempted']} operations, "
          f"{res['failed']} failed", file=sys.stderr)
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": res["metrics"][n], "unit": u}
                    for n, u in units.items() if n in res["metrics"]}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
