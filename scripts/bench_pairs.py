#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, written as BENCH_<label>.json.

Runs ``perfbench/run.py`` of each checkout on the same workloads, seeds and
run length, one process at a time.  Pair k runs both sides back to back and
alternates which side goes first, so a drift in machine speed hits both
sides alike.  The summary gives, per workload, seed and end-to-end metric,
each side's median and quartiles over the pairs and the number of pairs in
which the change did better (ties count for neither side); the direction
of each metric comes from the change checkout's BENCHMARK.json.  Each run
keeps its per-replication output digests (the ``fingerprint per
replication:`` line), and the summary counts, per workload and seed, the
replications both sides reached and those whose digests are equal, and
lists the indices of those whose digests differ.  The file names the code
it measured: each checkout's ``git rev-parse HEAD`` and whether its tree
has uncommitted changes (``dirty``).

    python scripts/bench_pairs.py --parent ../parent --change . \\
        --label volume --runs mono-hd:202:10 --runs mono-d2:202:3 \\
        --traced mono-hd:202 --note "what the change does"

``--runs W:SEED:PAIRS`` may repeat; ``--traced W:SEED`` adds one
``--trace 1`` run per side, stored with its command under
``traced_<W>_seed_<SEED>``.  The file goes to ``--out`` (default: the
current directory).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

RUN = ["python3", "perfbench/run.py"]
DIGESTS = "fingerprint per replication:"


def run_side(checkout, workload, seed, seconds, trace):
    """One benchmark process; returns the JSON object of its last line,
    with the per-replication digests it printed under ``fingerprints``."""
    cmd = RUN + ["--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} failed "
                         f"({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["fingerprints"] = next(
        (line[len(DIGESTS):].split() for line in lines
         if line.startswith(DIGESTS)), [])
    return result


def checkout_state(path):
    """The HEAD commit of a checkout and whether its tree differs from it,
    untracked files included; both None unless the checkout is the top of
    a git work tree (an exported copy inside another repository is not)."""
    def git(*args):
        proc = subprocess.run(["git", *args], cwd=path, capture_output=True,
                              text=True, check=False)
        return proc.stdout.strip() if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or os.path.realpath(top) != os.path.realpath(path):
        return {"head": None, "dirty": None}
    return {"head": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain"))}


def digest_match(results):
    """Replications that both sides reached, how many of them have equal
    digests on every run of both sides, and the indices of those that do
    not.  ``results`` maps a side to its run results; replication r is the
    r-th digest of a run."""
    seen = {}
    for side, runs in results.items():
        for result in runs:
            for r, digest in enumerate(result["fingerprints"]):
                seen.setdefault(r, {}).setdefault(side, set()).add(digest)
    shared = {r: d for r, d in seen.items() if len(d) == len(results)}
    differing = sorted(r for r, d in shared.items()
                       if len(set.union(*d.values())) > 1)
    return {"shared_replications": len(shared),
            "matching": len(shared) - len(differing),
            "differing": differing}


def spread(values):
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(runs, better):
    """Per (workload, seed): each metric's quartiles and pairs won."""
    summary = {}
    for key in sorted({(r["workload"], r["seed"]) for r in runs}):
        rows = [r for r in runs if (r["workload"], r["seed"]) == key]
        pairs = sorted({r["pair"] for r in rows})
        side = {(r["pair"], r["side"]): r["result"]["metrics"] for r in rows}
        cell = {"fingerprints": digest_match(
            {s: [r["result"] for r in rows if r["side"] == s]
             for s in ("parent", "change")})}
        for name, direction in better.items():
            vals = {s: [side[(k, s)][name]["value"] for k in pairs]
                    for s in ("parent", "change")}
            sign = -1.0 if direction == "lower" else 1.0
            won = sum(sign * (c - p) > 0.0
                      for p, c in zip(vals["parent"], vals["change"]))
            cell[name] = {"parent": spread(vals["parent"]),
                          "change": spread(vals["change"]),
                          "change_better_in_pairs": f"{won}/{len(pairs)}"}
        summary[f"{key[0]} seed {key[1]}"] = cell
    return summary


def spec(text, parts):
    fields = text.split(":")
    if len(fields) != parts:
        raise argparse.ArgumentTypeError(f"expected {parts} fields in {text!r}")
    return (fields[0],) + tuple(int(f) for f in fields[1:])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--label", required=True)
    ap.add_argument("--runs", action="append", default=[],
                    type=lambda t: spec(t, 3), metavar="W:SEED:PAIRS")
    ap.add_argument("--traced", action="append", default=[],
                    type=lambda t: spec(t, 2), metavar="W:SEED")
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--note", default="", help="what the change does")
    ap.add_argument("--out", default=".")
    args = ap.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    seconds = f"{args.seconds:g}"
    runs = []
    for workload, seed, n_pairs in args.runs:
        for pair in range(1, n_pairs + 1):
            order = ["parent", "change"] if pair % 2 else ["change", "parent"]
            for i, name in enumerate(order):
                result = run_side(sides[name], workload, seed, seconds, 0)
                runs.append({"workload": workload, "seed": seed, "pair": pair,
                             "side": name, "ran_first": i == 0,
                             "result": result})
                print(f"{workload} seed {seed} pair {pair} {name}: "
                      f"{json.dumps(result['metrics'])}", flush=True)

    out = {
        "change": args.note,
        "command": f"{' '.join(RUN)} --workload W --seed S "
                   f"--seconds {seconds} --trace 0",
        "host": f"{platform.system()} {platform.machine()}, "
                f"{os.cpu_count()} CPUs, Python {platform.python_version()}, "
                f"NumPy {numpy.__version__}; one benchmark process at a time",
        "checkouts": {name: checkout_state(path)
                      for name, path in sides.items()},
        "seeds": {},
        "order": "parent and change alternate which runs first within each "
                 "pair (ran_first)",
    }
    for workload, seed, _ in args.runs:
        out["seeds"].setdefault(workload, []).append(seed)
    out["summary"] = summarize(runs, better)
    out["runs"] = runs
    for workload, seed in args.traced:
        key = f"traced_{workload.replace('-', '_')}_seed_{seed}"
        out[key] = {name: run_side(path, workload, seed, seconds, 1)
                    for name, path in sides.items()}
        out[key]["command"] = (f"{' '.join(RUN)} --workload {workload} "
                               f"--seed {seed} --seconds {seconds} --trace 1")
        out[key]["fingerprints"] = digest_match(
            {name: [out[key][name]] for name in sides})
    path = os.path.join(args.out, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
