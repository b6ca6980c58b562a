"""End-to-end acceptance gate.

Each test pins one acceptance criterion at its stated tolerance: bounds
containment and runtime of the 200-query monotone study, per-cell mean
relative precision against the frozen reference table, dyadic exactness
and gap decay rates, risk-level crossing points, shift-study coverage,
fresh-point overprediction control, dominance-constrained fit
feasibility and optimality, orthant-union volume exactness, walk-sampler
distributional accuracy, and benchmark self-consistency.

Run ``pytest tests/test_acceptance.py -v`` for the per-criterion
pass/fail lines; add ``-s`` to see measured values on passing runs.
On one core of a shared 2-vCPU host the full gate took about two and a
half minutes: criterion 05, the 100-run shift study, about 110 s of it,
criterion 10 about 16 s, and the monotone study that criteria 01 and 02
share about 11 s.
"""

import csv
import os
import time

import numpy as np
import pytest

from rarebound.bench import (
    get_benchmark,
    make_example1,
    make_lipschitz_toy_1d,
    make_linear_toy,
)
from rarebound.cli import parse_config_text, run_experiment
from rarebound.core import BlackBoxFunction, RandomStream, mc_estimate
from rarebound.dyadic import refine
from rarebound.mcmc import RegionWalkSampler, psi, psi_inv
from rarebound.monotone import (
    LabeledDesign,
    RejectionSampler,
    StaircaseRegion,
    lower_orthant_volume,
    sequential_bounder,
    upper_orthant_volume,
)
from rarebound.surrogate import (
    PolynomialFamily,
    conservative_shift,
    fit,
    fsd_fit,
    lambda_crossing,
)

CELLS = [(d, p) for d in (2, 3, 4) for p in (5e-2, 5e-3, 5e-4)]

# reference mean relative precision (p_upper - p_lower) / p per cell,
# the comparison target for the 200-query semi-adaptive protocol
REFERENCE_REL_PRECISION = {
    (2, 5e-2): 0.208, (2, 5e-3): 0.276, (2, 5e-4): 0.04,
    (3, 5e-2): 1.09, (3, 5e-3): 1.66, (3, 5e-4): 2.65,
    (4, 5e-2): 2.38, (4, 5e-3): 5.40, (4, 5e-4): 8.59,
}
N_REPS = 20
BUDGET = 200
SEED = 20260823


def slab(d: int, y: float = 0.25) -> BlackBoxFunction:
    return BlackBoxFunction(lambda X: np.asarray(X, float)[:, 0],
                            dimension=d, threshold=y, vectorized=True)


@pytest.fixture(scope="module")
def monotone_study():
    """20 replications of the 200-query bounder on all nine cells."""
    t0 = time.perf_counter()
    cells = {}
    for d, p in CELLS:
        rels, contained = [], 0
        for rep in range(N_REPS):
            prob = make_example1(d, p)
            run = sequential_bounder(prob.function, BUDGET,
                                     RandomStream(SEED, rep), sampler="auto")
            lo, hi = run.bounds.lower, run.bounds.upper
            contained += int(lo <= p <= hi)
            rels.append((hi - lo) / p)
        cells[(d, p)] = (float(np.mean(rels)), contained)
    return cells, time.perf_counter() - t0


def test_criterion_01_containment_and_runtime(monotone_study):
    cells, elapsed = monotone_study
    total = sum(c for _, c in cells.values())
    n_runs = N_REPS * len(CELLS)
    assert total == n_runs, f"bounds missed p in {n_runs - total} runs"
    assert elapsed < 600.0, f"study took {elapsed:.0f}s, limit 600s"
    print(f"\n[criterion 01] PASS: containment {total}/{n_runs}, "
          f"wall {elapsed:.0f}s < 600s")


@pytest.mark.parametrize("d,p", CELLS, ids=[f"d{d}-p{p:g}" for d, p in CELLS])
def test_criterion_02_relative_precision(monotone_study, d, p):
    cells, _ = monotone_study
    mean_rel = cells[(d, p)][0]
    ref = REFERENCE_REL_PRECISION[(d, p)]
    ratio = mean_rel / ref
    assert 1.0 / 3.0 <= ratio <= 3.0, (
        f"mean relative gap {mean_rel:.3f} vs reference {ref} "
        f"(x{ratio:.2f}) outside the factor-3 band")
    print(f"\n[criterion 02] PASS d={d} p={p:g}: mean rel {mean_rel:.3f} "
          f"vs {ref} (x{ratio:.2f})")


def test_criterion_03_dyadic_exactness_and_gap_rate():
    # exhaustive depth-3 labeling of the 2-D axis slab is exact
    b = refine(slab(2), lipschitz=1.0, budget=64, max_depth=3)
    assert b.lower == 0.125, f"p_lower {b.lower} != 0.125"
    assert b.upper == 0.375, f"p_upper {b.upper} != 0.375"

    # 32 queries bracket a small 1-D probability within a factor of two
    prob = make_lipschitz_toy_1d(2.1e-3)
    b1 = refine(prob.function, prob.lipschitz, budget=32)
    assert prob.p_exact <= b1.upper <= 2.0 * prob.p_exact, (
        f"p_upper {b1.upper:.5f} outside [p, 2p] for p=2.1e-3")

    # gap decays like n^(-1/(d-1)): log-log slope within +0.15 of the rate
    slopes = {}
    for d in (2, 3):
        gaps, ns = [], []
        for budget in (64, 128, 256, 512, 1024, 2048, 4096):
            f = slab(d)
            r = refine(f, lipschitz=1.0, budget=budget, max_depth=14)
            gaps.append(r.width)
            ns.append(f.query_count)
        slope = float(np.polyfit(np.log(ns), np.log(gaps), 1)[0])
        limit = -1.0 / (d - 1) + 0.15
        assert slope <= limit, f"d={d}: slope {slope:.3f} > {limit:.3f}"
        slopes[d] = slope
    print(f"\n[criterion 03] PASS: depth-3 bounds exact, 1-D p_upper "
          f"{b1.upper:.5f} in [p, 2p], slopes d2 {slopes[2]:.3f} "
          f"d3 {slopes[3]:.3f}")


def test_criterion_04_risk_level_crossings():
    t0 = time.perf_counter()
    n1 = lambda_crossing(1e-1)
    n2 = lambda_crossing(1e-2)
    elapsed = time.perf_counter() - t0
    assert abs(n1 - 512.0) <= 0.05 * 512.0, f"crossing {n1:.1f} not 512 +- 5%"
    assert 7800.0 <= n2 <= 8700.0, f"crossing {n2:.1f} outside [7800, 8700]"
    assert elapsed < 1.0, f"crossings took {elapsed:.2f}s, limit 1s"
    print(f"\n[criterion 04] PASS: crossings {n1:.1f}, {n2:.1f} "
          f"in {elapsed:.3f}s")


SHIFT_CONFIG = """\
method = shift
benchmark = example1:d=2:p=0.1
replications = 100
seed = 20260823
workers = 1
"""


def test_criterion_05_shift_study_coverage(tmp_path):
    t0 = time.perf_counter()
    out = run_experiment(parse_config_text(SHIFT_CONFIG),
                         output_dir=str(tmp_path))
    elapsed = time.perf_counter() - t0
    with open(os.path.join(out, "summary.csv"), newline="") as fh:
        row = next(csv.DictReader(fh))
    mean_p_hat = float(row["mean_p_hat"])
    miss_rate = float(row["miss_rate"])
    assert 0.10 <= mean_p_hat <= 0.14, (
        f"mean estimate {mean_p_hat:.4f} outside [0.10, 0.14]")
    assert miss_rate <= 0.15, f"underprediction rate {miss_rate:.2f} > 0.15"
    assert elapsed < 900.0, f"study took {elapsed:.0f}s, limit 900s"
    print(f"\n[criterion 05] PASS: mean p_hat {mean_p_hat:.4f}, miss rate "
          f"{miss_rate:.2f}, wall {elapsed:.0f}s")


def test_criterion_06_fresh_point_overprediction():
    prob = make_example1(2, 1e-1)
    raw = prob.function.evaluator
    n_test, n_reps = 100, 200
    ok, freqs = 0, []
    for rep in range(n_reps):
        rng = RandomStream(4040, rep)
        gen = rng.generator()
        Xtr = gen.random((60, 2))
        Xte = gen.random((n_test, 2))
        Xfr = gen.random((400, 2))
        model = fit(PolynomialFamily(2, 2), Xtr,
                    np.asarray(raw(Xtr), float), rng=rng.derive(1))
        shifted = conservative_shift(model, Xte, np.asarray(raw(Xte), float))
        freq = float(np.mean(shifted.predict(Xfr)
                             > np.asarray(raw(Xfr), float)))
        freqs.append(freq)
        ok += int(freq <= shifted.certificate.bernstein_bound)
    bound = (6.0 / n_test) * np.log(n_test / 0.1)
    assert shifted.certificate.bernstein_bound == pytest.approx(bound)
    assert ok >= 0.9 * n_reps, (
        f"overprediction frequency exceeded B(n, 0.1) = {bound:.3f} in "
        f"{n_reps - ok}/{n_reps} replications, more than the allowed 10%")
    print(f"\n[criterion 06] PASS: {ok}/{n_reps} replications under "
          f"B(100, 0.1) = {bound:.3f}, max freq {max(freqs):.3f}")


def test_criterion_07_dominance_constrained_fit():
    # feasibility on the 3-D benchmark: zero exact-indicator violations
    prob = make_example1(3, 5e-2)
    rng = RandomStream(314, 0)
    X = rng.generator().random((150, 3))
    y = np.asarray(prob.function.evaluator(X), float)
    res = fsd_fit(PolynomialFamily(3, 2), X, y, rng=rng.derive(1))
    worst = float(res.violations.max())
    assert worst <= 0.0, f"dominance violated by {worst:.2e} at some anchor"

    # optimality on the 1-D linear case: constant family, so a feasible
    # constant c must satisfy c <= min(y) and the oracle is a fine grid
    lin = make_linear_toy(1, 0.5)
    rng2 = RandomStream(314, 1)
    X1 = rng2.generator().random((40, 1))
    y1 = np.asarray(lin.function.evaluator(X1), float)
    res1 = fsd_fit(PolynomialFamily(1, 0), X1, y1, rng=rng2.derive(1))
    mine = float(np.mean((y1 - res1.predict(X1)) ** 2))
    grid = np.linspace(y1.min() - 0.2, y1.max(), 20001)
    feasible = grid[grid <= y1.min()]
    oracle = float(min(np.mean((y1 - c) ** 2) for c in feasible))
    assert abs(mine / oracle - 1.0) <= 0.01, (
        f"objective {mine:.6f} not within 1% of grid oracle {oracle:.6f}")
    print(f"\n[criterion 07] PASS: worst violation {worst:.1e}, 1-D "
          f"objective {mine:.6f} vs oracle {oracle:.6f}")


def grid_lower_volume(P: np.ndarray, k: int = 16384) -> float:
    """Fraction of k^d midpoint grid cells dominated by some point of P.

    Counted per point subset by inclusion-exclusion; identical to
    materializing the grid, which test_criterion_08 verifies directly
    on small instances.
    """
    P = np.atleast_2d(P)
    m, d = P.shape
    # center (i + 0.5)/k <= t iff i <= t*k - 0.5
    counts = np.clip(np.floor(P * k + 0.5), 0, k).astype(np.int64)
    total = 0
    for mask in range(1, 2 ** m):
        idx = [i for i in range(m) if (mask >> i) & 1]
        c = counts[idx].min(axis=0)
        total += (-1) ** (len(idx) + 1) * int(np.prod(c))
    return total / float(k) ** d


def test_criterion_08_orthant_volume_vs_grid():
    # the subset-count shortcut must agree with a materialized grid
    gen = np.random.default_rng(5)
    for _ in range(3):
        d = int(gen.integers(1, 4))
        P = gen.random((int(gen.integers(1, 5)), d))
        k = 32
        axes = [(np.arange(k) + 0.5) / k] * d
        G = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        inside = np.zeros(len(G), dtype=bool)
        for q in P:
            inside |= (G <= q).all(axis=1)
        assert abs(float(inside.mean()) - grid_lower_volume(P, k)) < 1e-12

    gen = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        d = int(gen.integers(1, 4))
        m = int(gen.integers(1, 11))
        P = gen.random((m, d))
        worst = max(worst,
                    abs(lower_orthant_volume(P) - grid_lower_volume(P)),
                    abs(upper_orthant_volume(P) - grid_lower_volume(1.0 - P)))
    assert worst <= 2e-3, f"worst grid deviation {worst:.2e} > 2e-3"
    print(f"\n[criterion 08] PASS: worst deviation {worst:.1e} over "
          f"50 instances")


def test_criterion_09_walk_sampler_distribution():
    assert np.isfinite(psi(np.array([0.5]))).all()
    X = RandomStream(1, 0).generator().random((500, 3))
    X = 1e-3 + (1.0 - 2e-3) * X
    assert float(np.max(np.abs(psi_inv(psi(X)) - X))) < 1e-10

    region = StaircaseRegion.from_design(LabeledDesign(
        np.array([[0.35, 0.15], [0.15, 0.40], [0.85, 0.60], [0.60, 0.90]]),
        np.array([True, True, False, False])))
    ref = RejectionSampler(chunk=65536).draw_batch(
        region, RandomStream(99, 0).generator(), 200_000)[:200_000]
    sampler = RegionWalkSampler(region, RandomStream(99, 1).generator())
    walk = sampler.draw(100_000)

    def hist(pts):
        h, _, _ = np.histogram2d(pts[:, 0], pts[:, 1], bins=20,
                                 range=[[0, 1], [0, 1]])
        return h / h.sum()

    tv = 0.5 * float(np.abs(hist(ref) - hist(walk)).sum())
    assert tv < 0.05, f"total variation {tv:.3f} >= 0.05"
    print(f"\n[criterion 09] PASS: TV {tv:.4f}, transform roundtrip exact")


def test_criterion_10_benchmark_self_consistency():
    from rarebound.special import beta_cdf, gamma_cdf
    assert beta_cdf(0.5, 2.0, 3.0) == pytest.approx(0.6875, abs=1e-12)
    assert gamma_cdf(2.0, 2.0) == pytest.approx(1.0 - 3.0 * np.exp(-2.0),
                                                abs=1e-12)

    names = ([f"example1:d={d}:p={p:g}" for d, p in CELLS]
             + ["linear:d=1:y=0.5", "linear:d=2:y=1", "linear:d=3:y=1.5",
                "lipschitz1d:p=2.1e-3", "lipschitz1d:p=0.3"])
    worst_z = 0.0
    for i, name in enumerate(names):
        prob = get_benchmark(name)
        est = mc_estimate(prob.function, 1_000_000, RandomStream(777, i))
        se = max(np.sqrt(prob.p_exact * (1.0 - prob.p_exact) / 1e6), 1e-12)
        z = abs(est.p_hat - prob.p_exact) / se
        assert z <= 4.0, f"{name}: p_hat {est.p_hat:.6g} is {z:.1f} standard "\
                         f"errors from p_exact {prob.p_exact:.6g}"
        worst_z = max(worst_z, z)
    print(f"\n[criterion 10] PASS: {len(names)} benchmarks validated, "
          f"worst z {worst_z:.2f}")
