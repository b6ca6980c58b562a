"""The four benchmark workloads, one per route and use of the code.

A workload builds its state once (``setup``), then runs operations.  One
operation is one replication of a route on random stream
``RandomStream(seed, r)``; ``mono-hd`` runs replication r of both of its
cells in one operation, so its times are not a mixture of two clusters.
Every operation returns one record per replication, and ``check`` turns a
record into an error message when the route's result is wrong.

Why these four (sizes come from the shipped configs and the acceptance
tests):

* ``mono-d2``: exact staircase scoring dominates, the walk sampler takes
  over from rejection, and the oracle is a small share.
* ``mono-hd``: single-point oracle calls and rejection sampling dominate,
  scoring uses the domination-count proxy and the walk never starts.
* ``shift``: network training dominates; the oracle is two batches.
* ``fsd``: the dominance machinery (exact-violation bisections and the
  smoothed CDF) dominates; the oracle is one batch.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Optional

MONO_BUDGET = 200
MONO_P = 5e-4

# The shipped fsd config fits 150 points from three starts, which takes
# 45-60 s per replication on a 2-core machine; a run would then hold one
# replication and its time would vary with the seed by a fifth.  The
# benchmark keeps the config's family, degree, schedule and epochs and
# fits FSD_TRAIN_SIZE points from one start, so several replications fit
# in a run.
FSD_TRAIN_SIZE = 60
FSD_RESTARTS = 0


@dataclass
class Record:
    """What one replication of one cell produced."""

    cell: str
    p_exact: float
    p_lower: Optional[float] = None
    p_upper: Optional[float] = None
    p_hat: Optional[float] = None
    kind: Optional[str] = None
    violation: Optional[float] = None

    def fingerprint_text(self):
        return f"{self.cell} {self.p_lower!r} {self.p_upper!r} {self.p_hat!r}"


def _probability(value):
    return value is not None and math.isfinite(value) and 0.0 <= value <= 1.0


class Monotone:
    """``sequential_bounder(..., sampler="auto")`` on example1 cells at p=5e-4,
    the criterion-01/02 protocol, called directly because ``rarebound run``
    cannot select the ``auto`` sampler."""

    def __init__(self, dims):
        self.cells = [f"example1:d={d}:p={MONO_P:g}" for d in dims]

    def setup(self, rb, root):
        return [rb.bench.get_benchmark(cell) for cell in self.cells]

    def op(self, rb, problems, seed, r):
        out = []
        for problem in problems:
            # looked up at call time so the traced run sees its wrapper
            run = rb.monotone.sequential_bounder(
                problem.function, MONO_BUDGET, rb.core.RandomStream(seed, r),
                sampler="auto")
            b = run.bounds
            out.append(Record(problem.name, problem.p_exact, p_lower=b.lower,
                              p_upper=b.upper, kind=b.kind))
        return out

    @staticmethod
    def check(rb, rec):
        if rec.kind != rb.core.DETERMINISTIC:
            return f"{rec.cell}: bounds are {rec.kind}, not deterministic"
        if not (_probability(rec.p_lower) and _probability(rec.p_upper)):
            return f"{rec.cell}: bounds {rec.p_lower!r}, {rec.p_upper!r} not in [0, 1]"
        if not rec.p_lower <= rec.p_exact <= rec.p_upper:
            return (f"{rec.cell}: [{rec.p_lower!r}, {rec.p_upper!r}] misses "
                    f"p = {rec.p_exact!r}")
        return None


class Surrogate:
    """One replication of a shipped config, through the per-replication
    body of ``cli.run_experiment`` (``_replication_row``) with one worker."""

    def __init__(self, config, **overrides):
        self.config = config
        self.overrides = overrides

    def setup(self, rb, root):
        cfg = rb.cli.load_config(os.path.join(root, "configs", self.config))
        cfg.workers = 1
        section = getattr(cfg, cfg.method)
        for key, value in self.overrides.items():
            setattr(section, key, value)
        # load_config builds the benchmark while validating; build it here
        # as well so set-up does not depend on what validation does
        rb.bench.get_benchmark(cfg.benchmark)
        state = {"cfg": cfg, "fits": []}
        if cfg.method == "fsd":
            # keep the fit result so the dominance check can read it
            fsd_fit = rb.cli.fsd_fit

            def capture(*args, **kwargs):
                result = fsd_fit(*args, **kwargs)
                state["fits"].append(result)
                return result

            rb.cli.fsd_fit = capture
        return state

    def op(self, rb, state, seed, r):
        cfg = state["cfg"]
        cfg.seed = seed
        state["fits"].clear()
        row = rb.cli._replication_row(cfg, r)
        violation = None
        if cfg.method == "fsd":
            violation = float(state["fits"][-1].violations.max())
        return [Record(row["benchmark"], row["p_exact"], p_hat=row["p_hat"],
                       violation=violation)]

    @staticmethod
    def check(rb, rec):
        if not _probability(rec.p_hat):
            return f"{rec.cell}: p_hat {rec.p_hat!r} not a probability"
        if rec.violation is not None and not rec.violation <= 0.0:
            return f"{rec.cell}: dominance violated by {rec.violation!r}"
        return None


WORKLOADS = {
    "mono-d2": Monotone([2]),
    "mono-hd": Monotone([3, 4]),
    "shift": Surrogate("shift_example1_d2.cfg"),
    "fsd": Surrogate("fsd_example1_d3.cfg", train_size=FSD_TRAIN_SIZE,
                     restarts=FSD_RESTARTS),
}
