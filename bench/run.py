"""Run one workload of the weilcodes benchmark and print its metrics.

    python3 bench/run.py --workload {sweep,large,oracle} --seed N --seconds S --trace {0,1}

Run it from the repository root: the program is imported from ./src.  The
run makes whole rounds of operations until S seconds have passed and at
least MIN_OPS operations ran, in one process and one thread.  Before each
round it sets up SETUP_REPS times; `setup_s` is the median of all set-ups.
The cyclic garbage collector runs before each timed interval and is off
inside it.  Each operation's output is checked outside its timed interval.
The last line of standard output is one JSON object with "correct",
"attempted", "failed" and "metrics"; with --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones from spans.  Per-run
details and spans go to bench/out/.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

SETUP_REPS = 2  # set-ups before each round
# the tail is the highest percentile with ten operations beyond it, which
# needs forty operations to be a tail at all
MIN_OPS = 40
TAIL_BEYOND = 10


def load_program(root: Path):
    src = root / "src"
    if not (src / "weilcodes" / "__init__.py").is_file():
        sys.exit(f"error: no src/weilcodes under {root}; run from the repository root")
    sys.path.insert(0, str(src))
    import weilcodes

    if Path(weilcodes.__file__).resolve().parent != (src / "weilcodes").resolve():
        sys.exit(f"error: weilcodes was imported from {weilcodes.__file__}, not from {src}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "large", "oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def timed(fn):
    """(result, error, seconds) of fn(), with the cyclic collector kept out of it."""
    gc.disable()
    t0 = time.perf_counter()
    try:
        res, err = fn(), None
    except Exception:
        res, err = None, traceback.format_exc(limit=3)
    dt = time.perf_counter() - t0
    gc.enable()
    return res, err, dt


def run(wl, seconds, tracer, clear_caches):
    """Whole rounds of operations, each after SETUP_REPS set-ups.

    Spreading the set-ups over the run lets `setup_s` see the same machine
    as the operations do, not only the first seconds of the process.
    Returns (set-up seconds, per-operation records, rounds, wall seconds).
    """
    setup_s = []
    records = []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds or len(records) < MIN_OPS:
        for _ in range(SETUP_REPS):
            gc.collect()
            if tracer:
                tracer.op = "setup"
            _, err, dt = timed(wl.setup)
            if tracer:
                tracer.op = None
            if err:
                raise RuntimeError(f"set-up failed:\n{err}")
            setup_s.append(dt)
        for op in wl.round(r):
            if wl.cold:
                clear_caches()
            gc.collect()
            if tracer:
                tracer.op = len(records)
                span = tracer.open(wl.layer)
            res, err, dt = timed(op.run)
            if tracer:
                tracer.close(span)
                if wl.layer == "cli" and err is None:
                    tracer.spans[span][5]["json_bytes"] = len(res[1])
                tracer.op = None
            problems = []
            if err is None:
                try:
                    problems = op.check(res)
                except Exception:
                    problems = [traceback.format_exc(limit=3)]
            records.append({"op": op.label, "s": dt, "error": err, "problems": problems})
            del res
        r += 1
    return setup_s, records, r, time.perf_counter() - start


def e2e_metrics(setup_s, times):
    times = sorted(times)
    n = len(times)
    out = {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (n / sum(times), "1/s"),
        "op_p50_ms": (statistics.median(times) * 1000, "ms"),
        "op_tail_ms": (times[n - TAIL_BEYOND - 1] * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    load_program(root)
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS, clear_caches

    wl = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    t_origin = time.perf_counter()
    setup_s, records, rounds, wall = run(wl, args.seconds, tracer, clear_caches)
    if tracer:
        tracer.uninstall()

    bad = [r for r in records if r["problems"]]
    failed = [r for r in records if r["error"] or r["problems"]]
    times = [r["s"] for r in records if not (r["error"] or r["problems"])]
    if len(times) <= TAIL_BEYOND:
        print(f"error: only {len(times)} operations succeeded", file=sys.stderr)
        for r in failed[:5]:
            print(r["op"], r["error"] or r["problems"], file=sys.stderr)
        return 1
    if tracer:
        metrics = layer_metrics(tracer, len(records), len(setup_s))
    else:
        metrics = e2e_metrics(setup_s, times)

    out_dir = root / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "rounds": rounds, "setup_s": setup_s,
                   "metrics": metrics, "ops": records}, fh, indent=1)
    if tracer:
        tracer.write(out_dir / f"{stem}.spans.jsonl", t_origin)

    n = len(times)
    print(f"# {args.workload} seed={args.seed}: {len(records)} operations in {rounds} rounds, "
          f"{len(failed)} failed, {wall:.1f} s; median of {n}, tail = p{100 * (n - TAIL_BEYOND) / n:.1f} "
          f"({TAIL_BEYOND} beyond); set-up x{len(setup_s)}; "
          f"timed {sum(times):.2f} s, mean {1000 * sum(times) / n:.2f} ms")
    for r in failed[:5]:
        print(f"# FAILED {r['op']}: {r['error'] or r['problems']}")
    print(json.dumps({"correct": not bad, "attempted": len(records), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
