"""Benchmark of rarebound's routes, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mono-d2 --seed 1 --seconds 22 --trace 0

Workloads: mono-d2, mono-hd, shift, fsd (see workloads.py).  The command
imports the package from ``src/`` of the checkout, runs replications of the
workload in this one process for ``--seconds`` seconds (at least one), and
checks every result.  Replication r uses ``RandomStream(seed, r)``.

``--trace 0`` reports the end-to-end metrics: set-up time (median of
several fresh processes), median replication time, replications per
second and peak memory.  ``--trace 1`` runs each replication twice, first
plain and then with every layer boundary wrapped by the span recorder of
tracing.py, and reports per-layer counts and self times, the tracing
overhead, and whether tracing changed any result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the workload's quality figures, the tail latency when the run holds
enough replications, and the output fingerprint.
"""

import os

# One BLAS thread: the benchmark runs one process with workers = 1 on a
# 2-core machine, and BLAS threads would contend with it.  This must be set
# before NumPy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import resource
import subprocess
import sys
import time
import traceback
from statistics import median

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, "perfbench_out")
SETUP_PROBES = 3

# A virtual machine that shares its cores with others changes speed by up
# to a third within a minute: on a 2-vCPU Xeon guest the same replication
# took 2.2 s and 3.9 s in one run.  Every time metric is therefore scaled
# to a reference speed: a fixed kernel that does not touch
# rarebound (broadcast comparisons, sorting, ufuncs, a Python loop, the mix
# the routes spend their time on) is timed before and after each
# replication, and the replication's wall time is multiplied by
# REFERENCE_KERNEL_S over the kernel's mean time around it.  A change to
# rarebound moves the scaled times exactly as it moves the wall times.
REFERENCE_KERNEL_S = 0.15
_rng = np.random.default_rng(12345)
_KX, _KF, _KV = _rng.random((2048, 4)), _rng.random((48, 4)), _rng.random(256)

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402


def import_rarebound():
    """Import the package from this checkout's ``src/``, and nothing else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "rarebound", "__init__.py")):
        raise SystemExit(f"perfbench: no rarebound sources under {src}")
    sys.path.insert(0, src)
    import rarebound
    import rarebound.cli
    if os.path.dirname(os.path.dirname(os.path.abspath(rarebound.__file__))) != src:
        raise SystemExit(f"perfbench: imported rarebound from {rarebound.__file__}")
    return rarebound


def speed_kernel():
    """Wall time of a fixed amount of work that does not involve rarebound."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(36):
        inside = np.all(_KX[:, None, :] <= _KF[None, :, :], axis=2).any(axis=1)
        acc += np.cumsum(np.sort(_KV))[-1] + inside.sum() + np.exp(-_KV).sum()
        for k in range(300):
            acc += k * 1e-9
    return time.perf_counter() - t0


def setup_probe(workload):
    """Child process body: import, build the workload's state, report."""
    rb = import_rarebound()
    WORKLOADS[workload].setup(rb, ROOT)
    print(time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)


def measure_setup(workload):
    """Median time from spawning a fresh interpreter to a ready workload,
    scaled to the reference speed.

    One extra probe runs first and is discarded, so that every measured
    one finds the file cache warm (and the bytecode cache written, where
    Python writes one), as a user's second run would.
    """
    times = []
    kernel = speed_kernel()
    for i in range(SETUP_PROBES + 1):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        wall = float(out.stdout.split()[-1]) - t0
        after = speed_kernel()
        if i:
            times.append(wall * REFERENCE_KERNEL_S / ((kernel + after) / 2))
        kernel = after
    return median(times)


def run_ops(rb, wl, state, seed, seconds, tracer=None):
    """Run operations until ``seconds`` have passed; at least one.

    Each operation's plain wall time is also stored scaled to the
    reference speed (``scaled``).  With a tracer each operation runs twice
    on the same stream, plain and then traced, and both results go through
    the check.
    """
    ops = []
    start = time.perf_counter()
    kernel = speed_kernel()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        op = {"r": r, "error": None, "records": [], "wall": math.inf,
              "scaled": math.inf}
        passes = [None] if tracer is None else [None, tracer]
        for recorder in passes:
            if recorder is not None:
                recorder.rep = r
                recorder.install(rb)
            try:
                t0 = time.perf_counter()
                records = wl.op(rb, state, seed, r)
                wall = time.perf_counter() - t0
            except Exception:  # noqa: BLE001 - a raising replication is a failure
                op["error"] = traceback.format_exc().strip().splitlines()[-1]
                traceback.print_exc(file=sys.stderr)
                break
            finally:
                if recorder is not None:
                    recorder.uninstall()
            if recorder is None:
                op["records"], op["wall"] = records, wall
            else:
                op["traced_wall"] = wall
                if [x.fingerprint_text() for x in records] != \
                        [x.fingerprint_text() for x in op["records"]]:
                    op["error"] = "tracing changed the results"
        after = speed_kernel()
        op["scaled"] = op["wall"] * REFERENCE_KERNEL_S / ((kernel + after) / 2)
        kernel = after
        if op["error"] is None:
            for rec in op["records"]:
                op["error"] = op["error"] or wl.check(rb, rec)
        ops.append(op)
        r += 1
    return ops, time.perf_counter() - start


def tail(values):
    """Highest order statistic with at least ten samples above it."""
    if len(values) < 11:
        return None
    s = sorted(values)
    return s[-11], 1.0 - 10.0 / len(s)


def quality_lines(name, ops):
    """Quality figures of the results; printed, not part of the metrics."""
    recs = [rec for op in ops if op["error"] is None for rec in op["records"]]
    lines = []
    cells = sorted({rec.cell for rec in recs})
    for cell in cells:
        mine = [rec for rec in recs if rec.cell == cell]
        if mine[0].p_hat is None:
            gap = [(x.p_upper - x.p_lower) / x.p_exact for x in mine]
            lines.append(f"quality {name} {cell}: rel_gap.mean = "
                         f"{sum(gap) / len(gap):.6g} (n={len(gap)})")
        else:
            err = [abs(x.p_hat - x.p_exact) / x.p_exact for x in mine]
            miss = [x.p_hat < x.p_exact for x in mine]
            lines.append(f"quality {name} {cell}: rel_err.mean = "
                         f"{sum(err) / len(err):.6g}, miss_rate = "
                         f"{sum(miss) / len(miss):.6g} (n={len(err)})")
    return lines


def fingerprint(ops):
    """SHA-256 of the reprs of p_lower, p_upper and p_hat of every
    replication, in order, with a short digest per replication."""
    whole = hashlib.sha256()
    per_op = []
    for op in ops:
        text = "\n".join(f"{op['r']} {rec.fingerprint_text()}"
                         for rec in op["records"]) + "\n"
        whole.update(text.encode())
        per_op.append(hashlib.sha256(text.encode()).hexdigest()[:12])
    return whole.hexdigest(), per_op


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    rb = import_rarebound()
    wl = WORKLOADS[args.workload]
    state = wl.setup(rb, ROOT)
    tracer = None
    if args.trace:
        from tracing import Recorder
        tracer = Recorder()
    ops, elapsed = run_ops(rb, wl, state, args.seed, args.seconds, tracer)

    good = [op for op in ops if op["error"] is None]
    failed = len(ops) - len(good)
    for op in ops:
        if op["error"] is not None:
            print(f"FAILED {args.workload} replication {op['r']}: {op['error']}")
    # a failed replication counts as missing every latency limit
    scaled = [op["scaled"] if op["error"] is None else math.inf for op in ops]
    walls = [op["wall"] if op["error"] is None else math.inf for op in ops]
    p50 = median(scaled)
    if not math.isfinite(p50):
        p50 = elapsed

    print(f"workload {args.workload} seed {args.seed}: {len(good)}/{len(ops)} "
          f"replications passed in {elapsed:.3f} s")
    for line in quality_lines(args.workload, ops):
        print(line)
    digest, per_op = fingerprint(ops)
    print(f"fingerprint {args.workload} seed {args.seed} reps {len(ops)}: {digest}")
    print(f"fingerprint per replication: {' '.join(per_op)}")

    if tracer is None:
        t = tail(scaled)
        tail_text = "n/a (needs at least 11 replications)" if t is None else \
            f"{min(t[0], elapsed):.6g} s at p{100 * t[1]:.0f}"
        print(f"rep_s.p50 = {p50:.6g} s (n={len(ops)}), rep_s.tail = {tail_text}; "
              f"unscaled wall p50 = {median(walls):.6g} s")
        busy = sum(op["scaled"] for op in good)
        metrics = {
            "setup_s": (measure_setup(args.workload), "s"),
            "rep_s.p50": (p50, "s"),
            "reps_per_s": (len(good) / busy if busy else 0.0, "1/s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        from tracing import layer_metrics
        done = [op for op in good if "traced_wall" in op]
        if not done:
            raise SystemExit("perfbench: no replication completed under tracing")
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv"))
        metrics = layer_metrics(tracer, {op["r"] for op in done},
                                [op["wall"] for op in done],
                                [op["traced_wall"] for op in done])
        for name, (value, unit) in metrics.items():
            print(f"layer {name} = {value:.6g} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
