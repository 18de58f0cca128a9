"""Run one krflow benchmark workload and print its metrics.

    python3 perfbench/run.py --workload generic16 --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory, never from an installed copy.  One process, one workload, a
closed loop of one caller: the run measures set-up in fresh processes,
builds its inputs, repeats whole operations while the next one is expected
to end within `--seconds` (always at least one), then checks the first
operation's outputs in full and that every other operation's match them.

`--trace 0` prints the end-to-end metrics; `--trace 1` records spans
around krflow's public calls, writes them to
`.perfbench_out/trace-<workload>-seed<n>.json` and prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# Set-up is timed in this many fresh processes, because krflow memoizes
# part of it per process (the octagon's orbit of the origin).
SETUP_PROCESSES = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("generic16", "separable32", "octagon64"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest grids; for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="print the seconds taken by import and set-up, and exit")
    args = parser.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    src = os.path.join(root, "src")

    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import krflow
    if os.path.dirname(os.path.dirname(os.path.abspath(krflow.__file__))) != src:
        raise SystemExit(f"krflow imported from {krflow.__file__}, not from {src}")

    from krflow import discretization
    from spans import FIELDS, LAYER_UNITS, OP_SPAN, Tracer, layer_metrics, layer_patches
    from workloads import WORKLOADS

    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](root, out_dir, args.seed, tiny=args.tiny)
    if args.setup_only:
        workload.setup()
        print(time.perf_counter() - t0)
        return 0

    def fresh_setup_s():
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"] + ["--tiny"] * args.tiny
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=170)
        return float(proc.stdout.split()[-1])

    tracer = Tracer()

    def run():
        # Only the first successful output is kept, so that peak RSS does
        # not grow with the number of operations; the others must match it.
        inputs = workload.setup()
        walls, cpus, first, digests, failed = [], [], None, set(), 0
        start = time.perf_counter()
        while True:
            w0, c0 = time.perf_counter(), time.process_time()
            out = None
            try:
                with tracer.span(OP_SPAN):
                    out = workload.operation(inputs)
            except krflow.KrflowError as exc:
                print(f"operation failed: {type(exc).__name__}: {exc}")
                failed += 1
            cpus.append(time.process_time() - c0)
            walls.append(time.perf_counter() - w0)
            if out is not None:
                digests.add(workload.digest(out))
                if first is None:
                    first = out
            del out
            if time.perf_counter() - start + walls[-1] > args.seconds:
                break
        return inputs, walls, cpus, first, digests, failed

    if args.trace:
        with tracer.install(layer_patches()):
            inputs, walls, cpus, first, digests, failed = run()
    else:
        setup_s = statistics.median(fresh_setup_s() for _ in range(SETUP_PROCESSES))
        inputs, walls, cpus, first, digests, failed = run()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    if len(digests) > 1:
        problems.append(f"{len(digests)} different outputs from identical operations")
    if first is not None:
        problems += workload.check(inputs, first)
    for msg in problems:
        print(f"check failed: {msg}")

    if args.trace:
        metrics = layer_metrics(tracer.spans, tracer.record_alloc_peak,
                                statistics.median(walls))
        units = LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS

    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "fft_workers": discretization._FFT_KW.get("workers"),
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(walls)} operations, {failed} failed; "
          + " ".join(f"{k} {v}" for k, v in machine.items()))
    print("  operation wall times: " + " ".join(f"{w:.4f}" for w in walls) + " s")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if args.trace:
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "machine": machine, "fields": FIELDS,
                       "spans": tracer.spans}, fh)
        print(f"  spans written to {path}")

    print(json.dumps({
        "correct": not problems,
        "attempted": len(walls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
