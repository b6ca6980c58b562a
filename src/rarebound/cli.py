"""Experiment runner: config files in, CSV reports out.

Subcommands
-----------
run             execute a replicated experiment described by a config file
lambda-table    tabulate the certificate risk curve lambda(n, p) and its
                crossings lambda(n, p) = p
list-benchmarks print the benchmark registry

Config files are flat ``key = value`` text with ``[section]`` headers.
The keys of ``[experiment]`` (the default section) are the fields of
:class:`ExperimentConfig`; those of ``[dyadic]``, ``[shift]`` and
``[fsd]`` are the fields of the options class it holds under that name,
with the same defaults.  A monotone method names its region sampler
and has no section: the sequential bounder fixes its candidate rule by
dimension, and the transformed walk its tuning.  The surrogate routes'
sizes and training schedules are fixed by their runners, and
``[dyadic]`` sets only the Lipschitz constant.
Unknown sections or keys are rejected with a line diagnostic, and
out-of-range values with their key.  Exit codes: 0 success,
2 configuration error, 3 method error.

The output directory is taken from, in decreasing precedence, the
``--output-dir`` flag, the ``RAREBOUND_OUTPUT_DIR`` environment variable,
the config file, and the default ``results``.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bench import benchmark_descriptions, get_benchmark
from .core import RandomStream, check_finite, surrogate_mc_estimate
from .dyadic import refine
from .monotone import MAX_VOLUME_DIM, sequential_bounder
from .surrogate import (
    DEFAULT_BERNSTEIN_C,
    FeedforwardFamily,
    PolynomialFamily,
    conservative_shift,
    fit,
    fsd_fit,
    lambda_crossing,
    lambda_risk,
    q2,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "parse_config_text",
    "run_experiment",
    "run_lambda_table",
    "main",
]

OUTPUT_DIR_ENV = "RAREBOUND_OUTPUT_DIR"

# each monotone method is the sequential bounder with one region sampler
_SAMPLERS = {"monotone-mcmc": "mcmc", "monotone-auto": "auto"}

METHODS = ("dyadic", *_SAMPLERS, "shift", "fsd")

ROW_FIELDS = ("method", "benchmark", "d", "p_exact", "replication", "queries",
              "p_lower", "p_upper", "p_hat", "rel_precision", "miss_flag",
              "wall_time_s")

SUMMARY_FIELDS = ("method", "benchmark", "d", "p_exact", "rows",
                  "mean_queries", "mean_p_lower", "mean_p_upper",
                  "mean_p_hat", "mean_rel_precision", "q10_rel_precision",
                  "median_rel_precision", "q90_rel_precision", "miss_rate",
                  "mean_wall_time_s")


class ConfigError(ValueError):
    """Raised for unparsable config text, unknown keys, or bad values."""


# ---------------------------------------------------------------------------
# configuration

@dataclass
class DyadicOptions:
    """Knobs for the Lipschitz cube refinement, which refines to the depth
    :func:`refine` derives from the constant."""

    lipschitz: float = 0.0          # 0 uses the benchmark's known constant


@dataclass
class ShiftOptions:
    """Knobs for the shifted-surrogate conservative estimate.

    ``theta_source`` selects where the shift is computed: "train" learns
    the bias alongside the surrogate and carries no fresh-data
    certificate, while "test" takes the certified worst held-out
    overprediction (strictly conservative, markedly larger estimates).
    """

    alpha: float = 0.1
    theta_source: str = "train"     # train | test


@dataclass
class FsdOptions:
    """Knobs for the dominance-constrained conservative estimate."""

    train_size: int = 0             # 0 means 50 * d
    family: str = "polynomial"      # polynomial | network
    restarts: int = 2


@dataclass
class ExperimentConfig:
    """A fully resolved experiment description.

    Every field can be set from the config file; replication r always runs
    on random stream ``(seed, stream_id=r)`` so reruns and worker pools
    agree bit for bit on the statistical columns.
    """

    method: str = ""
    benchmark: str = ""
    budget: int = 200
    replications: int = 20
    seed: int = 20260823
    workers: int = 0                # 0 means one per available core
    output_dir: str = "results"
    dyadic: DyadicOptions = field(default_factory=DyadicOptions)
    shift: ShiftOptions = field(default_factory=ShiftOptions)
    fsd: FsdOptions = field(default_factory=FsdOptions)


# The keys whose value is one of a fixed set of words; every other key is
# parsed as the type of its field's default (int, float or str).
_CHOICES: Dict[str, Tuple[str, ...]] = {
    "method": METHODS,
    "theta_source": ("train", "test"),
    "family": ("polynomial", "network"),
}


def _parse_value(key: str, text: str, default: object) -> object:
    if key in _CHOICES:
        if text not in _CHOICES[key]:
            raise ValueError(f"expected one of {_CHOICES[key]}, got {text!r}")
        return text
    return type(default)(text)


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse flat ``key = value`` config text with ``[section]`` headers.

    Blank lines and ``#`` comments (full-line or trailing) are ignored.
    Raises :class:`ConfigError` naming the offending line for unknown
    sections, unknown keys, malformed lines, and unconvertible values.
    """
    cfg = ExperimentConfig()
    # [experiment] keys are fields of cfg itself; every other section is
    # the options object that cfg holds under the section's name
    sections = {"experiment": cfg, **{
        f.name: getattr(cfg, f.name) for f in fields(cfg)
        if is_dataclass(getattr(cfg, f.name))}}
    section = "experiment"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in sections:
                raise ConfigError(
                    f"{source}:{lineno}: unknown section [{section}]; "
                    f"known sections: {sorted(sections)}")
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        target = sections[section]
        keys = {f.name: f.default for f in fields(target)
                if not is_dataclass(getattr(target, f.name))}
        if key not in keys:
            raise ConfigError(
                f"{source}:{lineno}: unknown key {key!r} in section "
                f"[{section}]; known keys: {sorted(keys)}")
        try:
            parsed = _parse_value(key, value, keys[key])
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}")
        setattr(target, key, parsed)
    _validate(cfg, source)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a config file; see :func:`parse_config_text`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    return parse_config_text(text, source=os.path.basename(path))


def _validate(cfg: ExperimentConfig, source: str) -> None:
    if not cfg.method:
        raise ConfigError(f"{source}: missing required key 'method'")
    if not cfg.benchmark:
        raise ConfigError(f"{source}: missing required key 'benchmark'")
    try:
        problem = get_benchmark(cfg.benchmark)
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}")
    # 0 keeps its documented meaning for workers, lipschitz and train_size
    for key, value, lowest in (
            ("budget", cfg.budget, 1), ("replications", cfg.replications, 0),
            ("workers", cfg.workers, 0), ("lipschitz", cfg.dyadic.lipschitz, 0),
            ("train_size", cfg.fsd.train_size, 0),
            ("restarts", cfg.fsd.restarts, 0)):
        if not value >= lowest:     # also rejects nan
            raise ConfigError(
                f"{source}: {key} must be >= {lowest}, got {value}")
    if not 0.0 < cfg.shift.alpha < 1.0:
        raise ConfigError(
            f"{source}: alpha must be in (0, 1), got {cfg.shift.alpha}")
    if cfg.method in _SAMPLERS and problem.dimension > MAX_VOLUME_DIM:
        raise ConfigError(
            f"{source}: {cfg.method} computes exact volumes only up to "
            f"d = {MAX_VOLUME_DIM}; benchmark {cfg.benchmark!r} has "
            f"d = {problem.dimension}")
    if cfg.method == "dyadic" and cfg.dyadic.lipschitz <= 0.0 \
            and problem.lipschitz is None:
        raise ConfigError(
            f"{source}: benchmark {cfg.benchmark!r} has no known Lipschitz "
            "constant; set [dyadic] lipschitz explicitly")


# ---------------------------------------------------------------------------
# method runners

# The surrogate routes' fixed protocol; fsd trains with fsd_fit's defaults
_POINTS_PER_DIM = 50      # training points per dimension, and shift's test points
_MC_SAMPLES = 20_000      # Monte Carlo points on the fitted surrogate
_SHIFT_HIDDEN = (8, 8)
_SHIFT_EPOCHS = 16_000
_SHIFT_OVERPREDICT_WEIGHT = 3.0
_SHIFT_Q2_GATE = 0.9      # a fit below this q2 is retried ...
_SHIFT_MAX_REFITS = 3     # ... this many times, keeping the best
_FSD_DEGREE = 2
_FSD_HIDDEN = (4, 4)


def _run_dyadic(cfg: ExperimentConfig, problem, rng: RandomStream) -> dict:
    opts = cfg.dyadic
    lipschitz = opts.lipschitz if opts.lipschitz > 0.0 else problem.lipschitz
    bounds = refine(problem.function, lipschitz, cfg.budget)
    return {"queries": bounds.queries_used,
            "p_lower": bounds.lower, "p_upper": bounds.upper}


def _run_monotone(cfg: ExperimentConfig, problem, rng: RandomStream) -> dict:
    bounds = sequential_bounder(problem.function, cfg.budget, rng,
                                sampler=_SAMPLERS[cfg.method]).bounds
    return {"queries": bounds.queries_used,
            "p_lower": bounds.lower, "p_upper": bounds.upper}


def _run_shift(cfg: ExperimentConfig, problem, rng: RandomStream) -> dict:
    opts = cfg.shift
    d = problem.dimension
    f = problem.function
    n = _POINTS_PER_DIM * d
    X_train = rng.derive(0).generator().random((n, d))
    y_train = f.evaluate_batch(X_train)
    check_finite(y_train, X_train)
    X_test = rng.derive(1).generator().random((n, d))
    y_test = f.evaluate_batch(X_test)
    check_finite(y_test, X_test)
    family = FeedforwardFamily(dimension=d, hidden=_SHIFT_HIDDEN)
    best_score, best_model = -np.inf, None
    # surrogates are retained only above a predictivity floor, so a failed
    # fit is retried from a fresh deterministic initialization
    for attempt in range(_SHIFT_MAX_REFITS + 1):
        model = fit(family, X_train, y_train, rng=rng.derive(10 + attempt),
                    epochs=_SHIFT_EPOCHS,
                    overpredict_weight=_SHIFT_OVERPREDICT_WEIGHT)
        score = q2(model, X_test, y_test)
        if score > best_score:
            best_score, best_model = score, model
        if score >= _SHIFT_Q2_GATE:
            break
    if opts.theta_source == "train":
        X_cert, y_cert = X_train, y_train
    else:
        X_cert, y_cert = X_test, y_test
    shifted = conservative_shift(best_model, X_cert, y_cert, alpha=opts.alpha)
    est = surrogate_mc_estimate(shifted.predict, d, f.threshold,
                                _MC_SAMPLES, rng.derive(2))
    return {"queries": 2 * n, "p_hat": est.p_hat}


def _run_fsd(cfg: ExperimentConfig, problem, rng: RandomStream) -> dict:
    opts = cfg.fsd
    d = problem.dimension
    f = problem.function
    m = opts.train_size if opts.train_size > 0 else _POINTS_PER_DIM * d
    X = rng.derive(0).generator().random((m, d))
    y = f.evaluate_batch(X)
    check_finite(y, X)
    if opts.family == "polynomial":
        family = PolynomialFamily(dimension=d, degree=_FSD_DEGREE)
    else:
        family = FeedforwardFamily(dimension=d, hidden=_FSD_HIDDEN)
    result = fsd_fit(family, X, y, restarts=opts.restarts, rng=rng.derive(1))
    est = surrogate_mc_estimate(result.predict, d, f.threshold,
                                _MC_SAMPLES, rng.derive(2))
    return {"queries": m, "p_hat": est.p_hat}


_RUNNERS = {
    "dyadic": _run_dyadic,
    **dict.fromkeys(_SAMPLERS, _run_monotone),
    "shift": _run_shift,
    "fsd": _run_fsd,
}


def _replication_row(cfg: ExperimentConfig, replication: int) -> dict:
    """Run one replication and assemble its report row.

    Top-level so worker pools can pickle it; the benchmark is rebuilt
    inside the worker because black-box closures do not cross processes.
    """
    problem = get_benchmark(cfg.benchmark)
    rng = RandomStream(cfg.seed, replication)
    start = time.perf_counter()
    out = _RUNNERS[cfg.method](cfg, problem, rng)
    wall = time.perf_counter() - start

    p_exact = problem.p_exact
    p_lower = out.get("p_lower")
    p_upper = out.get("p_upper")
    p_hat = out.get("p_hat")
    rel = None
    if p_lower is not None and p_upper is not None and p_exact > 0.0:
        rel = (p_upper - p_lower) / p_exact
    # a bounds route reports both bounds, an estimate route p_hat alone
    miss = int(p_hat is not None and p_hat < p_exact or p_lower is not None
               and not p_lower <= p_exact <= p_upper)
    return {"method": cfg.method, "benchmark": cfg.benchmark,
            "d": problem.dimension, "p_exact": p_exact,
            "replication": replication, "queries": out["queries"],
            "p_lower": p_lower, "p_upper": p_upper, "p_hat": p_hat,
            "rel_precision": rel, "miss_flag": miss, "wall_time_s": wall}


# ---------------------------------------------------------------------------
# report writing

def _cell(value, fmt: Optional[str] = None) -> str:
    if value is None:
        return ""
    if fmt is not None:
        return format(value, fmt)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, header: Sequence[str],
               rows: Sequence[Sequence[object]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


def _mean(values: List[float]) -> Optional[float]:
    return float(np.mean(values)) if values else None


def _quantile(values: List[float], q: float) -> Optional[float]:
    return float(np.quantile(values, q)) if values else None


def _summary_rows(rows: Sequence[dict]) -> List[list]:
    """One row per (method, benchmark): means and quantiles of its rows."""
    groups: Dict[Tuple[str, str], List[dict]] = {}
    for row in rows:
        groups.setdefault((row["method"], row["benchmark"]), []).append(row)
    out = []
    for (method, benchmark), members in sorted(groups.items()):
        def column(name: str) -> List[float]:
            return [r[name] for r in members if r[name] is not None]
        rel = column("rel_precision")
        out.append([
            method, benchmark, members[0]["d"],
            _cell(members[0]["p_exact"]), len(members),
            _cell(_mean(column("queries"))),
            _cell(_mean(column("p_lower"))),
            _cell(_mean(column("p_upper"))),
            _cell(_mean(column("p_hat"))),
            _cell(_mean(rel)), _cell(_quantile(rel, 0.1)),
            _cell(_quantile(rel, 0.5)), _cell(_quantile(rel, 0.9)),
            _cell(_mean(column("miss_flag"))),
            _cell(_mean(column("wall_time_s")), ".4f"),
        ])
    return out


def _resolve_output_dir(flag: Optional[str], config_value: str = "results") -> str:
    return flag or os.environ.get(OUTPUT_DIR_ENV) or config_value


# ---------------------------------------------------------------------------
# subcommand drivers

def run_experiment(cfg: ExperimentConfig,
                   output_dir: Optional[str] = None) -> str:
    """Execute all replications and write rows.csv + summary.csv.

    Returns the output directory.  Replications are dispatched to a
    process pool when more than one worker is configured; rows are always
    written in replication order and each replication r uses random
    stream (seed, r), so the statistical columns do not depend on the
    pool size (wall times naturally vary run to run).
    """
    outdir = _resolve_output_dir(output_dir, cfg.output_dir)
    os.makedirs(outdir, exist_ok=True)
    n_workers = cfg.workers if cfg.workers > 0 else (os.cpu_count() or 1)
    n_workers = min(n_workers, max(1, cfg.replications))
    indices = range(cfg.replications)
    if n_workers <= 1:
        rows = [_replication_row(cfg, r) for r in indices]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=n_workers) as pool:
            rows = list(pool.map(_replication_row, [cfg] * cfg.replications,
                                 indices))
    rows.sort(key=lambda row: row["replication"])
    _write_csv(os.path.join(outdir, "rows.csv"), ROW_FIELDS,
               [[_cell(row[name], ".4f" if name == "wall_time_s" else None)
                 for name in ROW_FIELDS] for row in rows])
    _write_csv(os.path.join(outdir, "summary.csv"), SUMMARY_FIELDS,
               _summary_rows(rows))
    return outdir


def run_lambda_table(p_values: Sequence[float], n_min: int = 1,
                     n_max: int = 1_000_000, points: int = 200,
                     C: float = DEFAULT_BERNSTEIN_C,
                     output_dir: Optional[str] = None) -> str:
    """Tabulate lambda(n, p) on a log grid of n, plus crossings with p."""
    if not p_values:
        raise ConfigError("need at least one p value")
    if not (1 <= n_min < n_max):
        raise ConfigError(f"need 1 <= n_min < n_max, got {n_min}, {n_max}")
    if points < 1 or not 0.0 < C < math.inf:
        raise ConfigError(
            f"need points >= 1 and C finite and > 0, got {points}, {C}")
    for p in p_values:
        if not 0.0 < p < 1.0:
            raise ConfigError(f"p must be in (0, 1), got {p}")
    outdir = _resolve_output_dir(output_dir)
    os.makedirs(outdir, exist_ok=True)
    grid = np.unique(np.round(np.logspace(
        np.log10(n_min), np.log10(n_max), points)).astype(int))
    curves = {p: [(int(n), lambda_risk(int(n), p, C)) for n in grid]
              for p in p_values}
    crossings = {p: lambda_crossing(p, C) for p in p_values}
    _write_csv(os.path.join(outdir, "lambda_table.csv"), ["p", "n", "lambda"],
               [[repr(float(p)), n, repr(value)]
                for p in p_values for n, value in curves[p]])
    _write_csv(os.path.join(outdir, "lambda_crossings.csv"), ["p", "n_crossing"],
               [[repr(float(p)), repr(crossings[p])] for p in p_values])
    return outdir


def _list_benchmarks() -> None:
    descriptions = benchmark_descriptions()
    width = max(len(name) for name in descriptions)
    for name, text in descriptions.items():
        print(f"{name:<{width}}  {text}")
    print()
    print("Concrete instances substitute values, e.g. example1:d=3:p=5e-3")


# ---------------------------------------------------------------------------
# argument parsing

def _float_list(text: str) -> List[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rarebound",
        description="Conservative rare-event probability bounding experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a replicated experiment from a config file")
    p_run.add_argument("config", help="path to a key=value config file")
    p_run.add_argument("--output-dir", default=None,
                       help=f"report directory (overrides ${OUTPUT_DIR_ENV} and config)")
    p_run.add_argument("--workers", type=int, default=None,
                       help="override the configured worker count")

    p_lam = sub.add_parser("lambda-table",
                           help="tabulate the certificate risk curve lambda(n, p)")
    p_lam.add_argument("--p", type=_float_list, default=[1e-1, 1e-2, 1e-3],
                       help="comma-separated probability levels")
    p_lam.add_argument("--n-min", type=int, default=1)
    p_lam.add_argument("--n-max", type=int, default=1_000_000)
    p_lam.add_argument("--points", type=int, default=200,
                       help="grid points on the log(n) axis")
    p_lam.add_argument("--c", type=float, default=DEFAULT_BERNSTEIN_C,
                       help="certificate constant C")
    p_lam.add_argument("--output-dir", default=None)

    sub.add_parser("list-benchmarks", help="print the benchmark registry")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config)
            if args.workers is not None:
                cfg.workers = args.workers
                _validate(cfg, "--workers")
            outdir = run_experiment(cfg, output_dir=args.output_dir)
            print(f"wrote {os.path.join(outdir, 'rows.csv')} and summary.csv")
        elif args.command == "lambda-table":
            outdir = run_lambda_table(args.p, n_min=args.n_min,
                                      n_max=args.n_max, points=args.points,
                                      C=args.c, output_dir=args.output_dir)
            print(f"wrote lambda_table.csv and lambda_crossings.csv in {outdir}")
        elif args.command == "list-benchmarks":
            _list_benchmarks()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - reported as a method failure
        print(f"method error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
