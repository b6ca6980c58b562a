"""Span recorder for the traced benchmark run.

The recorder wraps the public call boundaries of each rarebound module at
the names their callers look them up by, so ``src/`` stays untouched:
``bench`` imports ``gamma_quantile`` by name, so the wrapper goes on
``rarebound.bench.gamma_quantile``; the sequential engine calls
``_delta_lower_volume`` through its module globals; methods are wrapped on
their classes.  Each span records name, start, end, parent span and
replication id, plus the size of the call where one exists.  Spans stay
in memory; :meth:`Recorder.write` dumps them once the run is over, and
:func:`layer_metrics` derives self times and counters from them.
"""

from __future__ import annotations

import time
from statistics import median

_clock = time.perf_counter


def _rows(args):
    """Number of rows of the batch argument of ``f(self, X)``."""
    return len(args[1])


def _rejection_counts(args):
    sampler = args[0]
    return (sampler.draws, sampler.attempts)


def _walk_counts(args):
    walker = args[0]
    return (walker._accepted, walker._proposed)


class Recorder:
    """Collects nested spans; one instance per traced run."""

    def __init__(self):
        # span: [name, start, end, parent, rep, points, counter delta]
        self.spans = []
        self.rep = -1
        self._open = []
        self._patches = []

    def _wrap(self, name, fn, points=None, counters=None):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.rep,
                    points(args) if points else 0, None]
            stack.append(len(spans))
            spans.append(span)
            before = counters(args) if counters else None
            span[1] = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = _clock()
                stack.pop()
                if counters:
                    span[6] = tuple(b - a for a, b in zip(before, counters(args)))

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, points=None, counters=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(name, original, points, counters))

    def install(self, rb):
        """Wrap every traced boundary of the imported ``rarebound`` package."""
        bench, cli, core, mcmc, monotone, surrogate = (
            rb.bench, rb.cli, rb.core, rb.mcmc, rb.monotone, rb.surrogate)
        self.patch(cli, "_replication_row", "cli.replication")
        self.patch(monotone, "sequential_bounder", "monotone.engine")
        self.patch(monotone, "_delta_lower_volume", "monotone.delta_volume")
        region = monotone.StaircaseRegion
        self.patch(region, "contains_batch", "monotone.region.contains_batch",
                   points=_rows)
        self.patch(region, "with_fail", "monotone.region.update")
        self.patch(region, "with_safe", "monotone.region.update")
        self.patch(monotone.RejectionSampler, "draw_batch", "monotone.rejection",
                   counters=_rejection_counts)
        walker = mcmc.RegionWalkSampler
        self.patch(walker, "__init__", "mcmc.walk.init")
        self.patch(walker, "update_region", "mcmc.walk")
        self.patch(walker, "draw", "mcmc.walk", counters=_walk_counts)
        oracle = core.BlackBoxFunction
        self.patch(oracle, "__call__", "bench.oracle.single")
        self.patch(oracle, "evaluate_batch", "bench.oracle.batch",
                   points=_rows)
        self.patch(bench, "gamma_quantile", "special.gamma_quantile")
        self.patch(mcmc, "normal_cdf", "special.normal_cdf")
        self.patch(mcmc, "normal_quantile", "special.normal_quantile")
        self.patch(surrogate.FeedforwardFamily, "value_and_grad",
                   "surrogate.ffn.value_and_grad")
        self.patch(surrogate.PolynomialFamily, "value_and_grad",
                   "surrogate.poly.value_and_grad")
        self.patch(cli, "fit", "surrogate.fit")
        self.patch(surrogate, "fit", "surrogate.fit")
        self.patch(cli, "fsd_fit", "surrogate.fsd_fit")
        self.patch(cli, "surrogate_mc_estimate", "core.surrogate_mc")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write every span as one CSV line, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,rep,name,start,end,points,counters\n")
            for i, (name, t0, t1, parent, rep, pts, cnt) in enumerate(self.spans):
                extra = "" if cnt is None else " ".join(map(str, cnt))
                fh.write(f"{i},{parent},{rep},{name},{t0!r},{t1!r},{pts},{extra}\n")


# Per-layer metrics reported by the traced run, by span name.  Every name
# is printed for every workload, with zeros where a layer is not used.
LAYERS = {
    "monotone.engine": ("self_s",),
    "monotone.delta_volume": ("calls", "self_s"),
    "monotone.region.contains_batch": ("calls", "points", "self_s"),
    "monotone.region.update": ("calls", "self_s"),
    "monotone.rejection": ("self_s",),
    "mcmc.walk": ("self_s",),
    "bench.oracle.single": ("calls", "self_s"),
    "bench.oracle.batch": ("calls", "points", "self_s"),
    "special.gamma_quantile": ("calls", "self_s"),
    "special.normal_cdf": ("self_s",),
    "special.normal_quantile": ("self_s",),
    "surrogate.ffn.value_and_grad": ("calls", "self_s"),
    "surrogate.poly.value_and_grad": ("calls", "self_s"),
    "surrogate.fit": ("self_s",),
    "surrogate.fsd_fit": ("self_s",),
    "core.surrogate_mc": ("self_s",),
    "cli.replication": ("self_s",),
}

UNITS = {"calls": "count", "points": "count", "self_s": "s"}


def layer_metrics(recorder, keep, untraced_s, traced_s):
    """Per-replication layer metrics from the recorded spans.

    ``keep`` holds the ids of the replications that passed under tracing;
    ``untraced_s`` and ``traced_s`` are their wall times without and with
    tracing.  Counts and self times are means per replication.
    """
    child = [0.0] * len(recorder.spans)
    for name, t0, t1, parent, rep, pts, cnt in recorder.spans:
        if parent >= 0:
            child[parent] += t1 - t0
    spans = []
    totals = {}
    for i, span in enumerate(recorder.spans):
        name, t0, t1, parent, rep, pts, cnt = span
        if rep not in keep:
            continue
        spans.append(span)
        if name == "mcmc.walk.init":
            name = "mcmc.walk"
        t = totals.setdefault(name, [0, 0, 0.0])
        t[0] += 1
        t[1] += pts
        t[2] += (t1 - t0) - child[i]

    reps = len(keep)
    out = {}
    for layer, fields in LAYERS.items():
        calls, points, self_s = totals.get(layer, (0, 0, 0.0))
        values = {"calls": calls / reps, "points": points / reps,
                  "self_s": self_s / reps}
        for f in fields:
            out[f"{layer}.{f}"] = (values[f], UNITS[f])

    single = totals.get("bench.oracle.single", (0, 0, 0.0))
    batch = totals.get("bench.oracle.batch", (0, 0, 0.0))
    out["bench.oracle.calls"] = ((single[0] + batch[0]) / reps, "count")
    out["bench.oracle.points"] = ((single[0] + batch[1]) / reps, "count")
    out["bench.oracle.self_s"] = ((single[2] + batch[2]) / reps, "s")

    def counter_sums(layer):
        sums = [0, 0]
        for name, t0, t1, parent, rep, pts, cnt in spans:
            if name == layer and cnt is not None:
                sums[0] += cnt[0]
                sums[1] += cnt[1]
        return sums

    draws, attempts = counter_sums("monotone.rejection")
    out["monotone.rejection.attempts"] = (attempts / reps, "count")
    out["monotone.rejection.draws"] = (draws / reps, "count")
    out["monotone.rejection.acceptance"] = (
        draws / attempts if attempts else 0.0, "ratio")
    accepted, proposed = counter_sums("mcmc.walk")
    out["mcmc.walk.steps"] = (proposed / reps, "count")
    out["mcmc.walk.acceptance"] = (
        accepted / proposed if proposed else 0.0, "ratio")
    out["mcmc.switch_query"] = (_switch_query(spans, keep), "query")

    traced_total = sum(traced_s)
    out["trace.rep_s.p50"] = (median(traced_s), "s")
    out["trace.overhead_s"] = (median(traced_s) - median(untraced_s), "s")
    out["trace.coverage"] = (
        sum(t[2] for t in totals.values()) / traced_total, "ratio")
    out["trace.spans"] = (len(spans) / reps, "count")
    return out


def _switch_query(spans, keep):
    """Median over replications of the oracle query at which the walk
    sampler was first built; -1 for a replication that never built it."""
    queries = dict.fromkeys(keep, 0)
    switch = dict.fromkeys(keep, -1)
    for name, t0, t1, parent, rep, pts, cnt in spans:
        if name == "bench.oracle.single":
            queries[rep] += 1
        elif name == "mcmc.walk.init" and switch[rep] < 0:
            switch[rep] = queries[rep]
    return float(median(switch.values()))
