"""One workload in a process of its own, started by run.py with pinned
threads.  Reads the generated inputs as JSON on stdin and prints one JSON
result line on stdout.

Order of work: import robinlab and build the objects every pass reuses
(timed as set-up, from the process's spawn time given by run.py); the
program-side references (untimed); one discarded warm-up pass; then whole
timed passes until --seconds have elapsed, each after gc.collect().  Every
pass's outputs are checked outside its timing.  With --trace 1, untraced
and traced passes alternate, so the traced run measures its own overhead.

A pass times each of its steps (`Steps`).  `wall_s` is the sum over the
steps of each step's fastest time in the run's timed passes: the wall time
of one pass at the machine's undisturbed speed.  On a shared host that
switches between speeds for seconds at a time, the median pass depends on
how much of the run fell in a slow period; a step's fastest time needs only
one of the run's passes to reach it at full speed.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import tracemalloc

MIN_PASSES = 3


class Steps:
    """The step timer a pass calls each program operation through."""

    def __init__(self):
        self.times: dict = {}

    def __call__(self, key, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.times[key] = time.perf_counter() - start
        return out


def timed_pass(wl, tracer=None):
    gc.collect()
    steps = Steps()
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        start = time.perf_counter()
        out = wl.run_pass(steps)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.remove()
    return out, wall, steps.times


def fastest_pass(step_times: list) -> float:
    """Sum over the steps of each step's fastest time across passes."""
    return sum(min(times[key] for times in step_times)
               for key in step_times[0])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.time() just before this process was started")
    ap.add_argument("--spans", help="file for the traced run's spans")
    args = ap.parse_args(argv)

    inp = json.load(sys.stdin)
    import workloads                       # imports robinlab
    wl = workloads.WORKLOADS[args.workload](inp)
    setup_s = time.time() - args.spawned

    wl.prepare()
    timed_pass(wl)                         # warm-up, discarded

    tracer = None
    if args.trace:
        from layertrace import METRICS, Tracer
        tracer = Tracer()
    walls, steps, traced_steps, layers = [], [], [], []
    attempted = failed = unexpected = 0
    messages: list = []
    accuracy: dict = {}
    min_passes = MIN_PASSES if tracer is None else 4   # two of each kind
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k < min_passes or time.perf_counter() < deadline:
        traced = tracer is not None and k % 2 == 1
        out, wall, times = timed_pass(wl, tracer if traced else None)
        if traced:
            traced_steps.append(times)
            layers.append(tracer.metrics())
        else:
            walls.append(wall)
            steps.append(times)
        pass_failed = 0
        for group, fails in wl.check(out):
            attempted += 1
            if fails:
                pass_failed += 1
                unexpected += group != workloads.KNOWN_FAULT
                messages += [m for m in fails if m not in messages]
        failed += pass_failed
        print(f"pass {k}{' traced' if traced else ''}: {wall:.3f} s, "
              f"{pass_failed} failed", file=sys.stderr)
        for key, value in wl.accuracy(out).items():
            accuracy[key] = max(accuracy.get(key, 0.0), value)
        del out
        k += 1

    for m in messages[:8]:
        print(f"check failed: {m}", file=sys.stderr)
    result = {"attempted": attempted, "failed": failed,
              "correct": unexpected == 0, "passes": k,
              "median_pass_s": statistics.median(walls)}
    if tracer is None:
        result["metrics"] = {
            "setup_s": setup_s,
            "wall_s": fastest_pass(steps),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        per_layer = {name: statistics.median([s[name] for s in layers])
                     for name in layers[0]}
        per_layer["trace.overhead_s"] = (fastest_pass(traced_steps)
                                         - fastest_pass(steps))
        per_layer["robin_max_rel_err"] = accuracy.get("robin_max_rel_err", 0.0)
        per_layer["var2_mismatch"] = accuracy.get("var2_mismatch", 0.0)
        tracemalloc.start()
        built = wl.build_largest()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        per_layer["green.domain_peak_mb"] = peak / 2 ** 20 if built else 0.0
        result["metrics"] = per_layer
        result["absent"] = sorted(set(METRICS) - set(per_layer))
        for name in tracer.absent:
            print(f"absent: wrapped name {name} no longer exists",
                  file=sys.stderr)
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(tracer.dump(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
