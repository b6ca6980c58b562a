"""Surrogate families, conservative shifts, and dominance-constrained fits."""

import signal
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rarebound import surrogate
from rarebound.bench import make_example1
from rarebound.core import RandomStream
from rarebound.special import NonConvergence
from rarebound.surrogate import (
    FeedforwardFamily,
    PolynomialFamily,
    RegressionSurrogate,
    ShiftCertificate,
    ShiftedSurrogate,
    SingularDesign,
    ZeroVariance,
    bernstein_bound,
    check_fsd,
    conservative_shift,
    fit,
    fsd_fit,
    lambda_crossing,
    lambda_risk,
    q2,
)
from rarebound.surrogate import (
    _exact_violations,
    _lsi,
    _pattern_polish,
    _Profile,
    _shift_limit,
)


# fsd_fit fits from below; a fit from above is the fit of -y, negated
LOW, HIGH = "conservative-low", "conservative-high"


def quad_data(n=40, seed=0):
    gen = np.random.default_rng(seed)
    X = gen.random((n, 2))
    y = 1.0 + 2.0 * X[:, 0] - 3.0 * X[:, 1] + 0.5 * X[:, 0] * X[:, 1]
    return X, y


class TestPolynomialFamily:
    def test_parameter_count(self):
        assert PolynomialFamily(2, 2).n_parameters == 6
        assert PolynomialFamily(3, 1).n_parameters == 4
        assert PolynomialFamily(1, 0).n_parameters == 1

    def test_exact_recovery(self):
        X, y = quad_data()
        model = fit(PolynomialFamily(2, 2), X, y)
        assert np.max(np.abs(model.predict(X) - y)) < 1e-10

    def test_jacobian_is_feature_matrix(self):
        fam = PolynomialFamily(2, 2)
        gen = np.random.default_rng(1)
        X = gen.random((5, 2))
        eta = np.arange(6, dtype=float)
        pred, pullback = fam.value_and_grad(eta, X)
        Phi = fam.features(X)
        for v in [*np.eye(5), gen.normal(size=5)]:
            assert np.array_equal(pullback(v), v @ Phi)
        assert np.allclose(pred, Phi @ eta)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_features_match_the_product_of_powers(self, d):
        # the reference is the n x P x d power array reduced by np.prod,
        # taken in row blocks to bound its memory; the per-coordinate
        # table must give its bits, underflow at the 1e-200 scale included
        gen = np.random.default_rng(40 + d)
        for degree in range(6):
            fam = PolynomialFamily(d, degree)
            E = fam.exponents
            for n in (1, 2, 17, 60, 150, 20_000):
                for scale in (1.0, 1e-200):
                    X = scale * gen.random((n, d))
                    ref = np.concatenate([
                        np.prod(B[:, None, :] ** E[None], axis=2)
                        for B in np.array_split(X, -(-n // 2_000))])
                    got = fam.features(X)
                    assert got.shape == (n, fam.n_parameters)
                    assert np.array_equal(got.view(np.int64),
                                          ref.view(np.int64)), (degree, n, scale)

    def test_singular_design(self):
        # ten copies of two distinct points: rank 2 < 6 parameters
        X = np.tile(np.array([[0.2, 0.2], [0.8, 0.8]]), (5, 1))
        y = np.zeros(10)
        with pytest.raises(SingularDesign):
            fit(PolynomialFamily(2, 2), X, y)

    def test_underdetermined(self):
        X, y = quad_data(n=4)
        with pytest.raises(ValueError):
            fit(PolynomialFamily(2, 2), X, y)

    def test_validation(self):
        with pytest.raises(ValueError):
            PolynomialFamily(0, 2)
        with pytest.raises(ValueError):
            PolynomialFamily(2, -1)


class TestFeedforwardFamily:
    def test_parameter_count(self):
        assert FeedforwardFamily(2, (3,)).n_parameters == 2 * 3 + 3 + 3 + 1
        assert FeedforwardFamily(1, (4, 4)).n_parameters == \
            (1 * 4 + 4) + (4 * 4 + 4) + (4 * 1 + 1)

    def test_jacobian_matches_finite_differences(self):
        # one hidden layer, and two, so the chain through two sigmoids is
        # covered; pulling back unit vector i rebuilds row i of J
        gen = np.random.default_rng(3)
        for hidden in [(3,), (8, 8)]:
            fam = FeedforwardFamily(2, hidden)
            eta = gen.normal(0.0, 0.5, fam.n_parameters)
            X = gen.random((5, 2))
            _, pullback = fam.value_and_grad(eta, X)
            J = np.array([pullback(e) for e in np.eye(5)])
            assert J.shape == (5, fam.n_parameters)
            eps = 1e-6
            for k in range(fam.n_parameters):
                e = np.zeros_like(eta)
                e[k] = eps
                hi, _ = fam.value_and_grad(eta + e, X)
                lo, _ = fam.value_and_grad(eta - e, X)
                fd = (hi - lo) / (2 * eps)
                assert np.allclose(J[:, k], fd, rtol=1e-5, atol=1e-7)

    def test_prediction_builds_no_jacobian(self):
        # the shift route predicts on 20,000 Monte Carlo points; an n x P
        # Jacobian there would take 17 MB of the peak
        fam = FeedforwardFamily(2, (8, 8))
        gen = np.random.default_rng(8)
        model = RegressionSurrogate(fam, fam.init_parameters(gen))
        X = gen.random((20_000, 2))
        tracemalloc.start()
        try:
            model.predict(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20, f"predict peaked at {peak / 2 ** 20:.1f} MB"

    def test_fit_is_bitwise_deterministic(self):
        X, y = quad_data()
        fam = FeedforwardFamily(2, (4,))
        a = fit(fam, X, y, rng=RandomStream(5, 0), epochs=300)
        b = fit(fam, X, y, rng=RandomStream(5, 0), epochs=300)
        assert np.array_equal(a.eta, b.eta)

    def test_learns_smooth_target(self):
        gen = np.random.default_rng(4)
        X = gen.random((120, 1))
        y = np.sin(3.0 * X[:, 0])
        model = fit(FeedforwardFamily(1, (8,)), X, y,
                    rng=RandomStream(6, 0), epochs=2500)
        assert np.sqrt(np.mean((model.predict(X) - y) ** 2)) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            FeedforwardFamily(2, ())
        with pytest.raises(ValueError):
            FeedforwardFamily(2, (0,))


class TestFit:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit(PolynomialFamily(2, 1), np.zeros((3, 2)), np.zeros(4))

    def test_overpredict_weight_validation(self):
        X, y = quad_data(10)
        with pytest.raises(ValueError):
            fit(FeedforwardFamily(2, (3,)), X, y, rng=RandomStream(1, 0),
                overpredict_weight=-1.0)
        with pytest.raises(ValueError):
            fit(PolynomialFamily(2, 1), X, y, overpredict_weight=2.0)

    @staticmethod
    def reference_fit(family, X, y, rng, epochs, tol, overpredict_weight,
                      lr=0.02):
        """Adam driven by value_and_grad's pullback, fresh arrays every
        epoch; returns (parameters of the lowest loss, epochs run)."""
        x = family.init_parameters(rng.generator())
        m, v = np.zeros_like(x), np.zeros_like(x)
        b1, b2, eps = 0.9, 0.999, 1e-8
        wn = 1.0 / y.size
        best_x, best_loss, t = x.copy(), np.inf, 0
        for t in range(1, epochs + 1):
            pred, pullback = family.value_and_grad(x, X)
            r = pred - y
            scale = wn * (1.0 + overpredict_weight * (r > 0))
            loss = float(np.sum(scale * r * r))
            if loss < best_loss:
                best_loss, best_x = loss, x.copy()
            if loss <= tol:
                break
            g = pullback(2.0 * scale * r)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x = x - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        return best_x, t

    @pytest.mark.parametrize("hidden", [(3,), (8, 8), (4, 4, 4)])
    @pytest.mark.parametrize("weight", [0.0, 3.0])
    @pytest.mark.parametrize("epochs, tol", [
        pytest.param(300, 1e-10, id="all-epochs"),
        pytest.param(300, 0.02, id="tol-stop"),
        pytest.param(0, 1e-10, id="no-epochs"),
        pytest.param(1, 1e-10, id="one-epoch")])
    def test_network_fit_matches_reference_bits(self, hidden, weight,
                                                epochs, tol):
        # the in-place training loop keeps the reference's order of every
        # product and sum, so any reordering shows up in the last bits
        X, y = quad_data()
        fam = FeedforwardFamily(2, hidden)
        ref, ran = self.reference_fit(fam, X, y, RandomStream(9, 0), epochs,
                                      tol, weight)
        if tol > 1e-10:
            assert ran < epochs     # the stop is exercised
        got = fit(fam, X, y, rng=RandomStream(9, 0), epochs=epochs, tol=tol,
                  overpredict_weight=weight)
        assert np.array_equal(got.eta.view(np.int64), ref.view(np.int64))

    def test_asymmetric_loss_hugs_from_below(self):
        gen = np.random.default_rng(7)
        X = gen.random((150, 1))
        y = X[:, 0] + 0.1 * gen.standard_normal(150)
        fam = FeedforwardFamily(1, (6,))
        sym = fit(fam, X, y, rng=RandomStream(8, 0), epochs=1500)
        asym = fit(fam, X, y, rng=RandomStream(8, 0), epochs=1500,
                   overpredict_weight=8.0)
        over_sym = np.mean(sym.predict(X) > y)
        over_asym = np.mean(asym.predict(X) > y)
        assert over_asym < over_sym
        assert np.mean(asym.predict(X) - y) < np.mean(sym.predict(X) - y)


class TestQ2:
    def test_perfect(self):
        X, y = quad_data()
        model = fit(PolynomialFamily(2, 2), X, y)
        assert q2(model, X, y) == pytest.approx(1.0, abs=1e-12)

    def test_zero_variance(self):
        X, y = quad_data()
        model = fit(PolynomialFamily(2, 2), X, y)
        with pytest.raises(ZeroVariance):
            q2(model, X, np.full(40, 2.5))


class TestCertificateLevels:
    def test_bernstein_frozen_value(self):
        # (6/1000) * log(1000/0.05)
        assert bernstein_bound(1000, 0.05) == pytest.approx(
            0.006 * np.log(20000.0), abs=1e-15)
        assert bernstein_bound(1000, 0.05) == pytest.approx(
            0.0594209253, abs=1e-9)
        assert bernstein_bound(100, 0.1, C=6.0) == pytest.approx(
            0.06 * np.log(1000.0), abs=1e-12)

    def test_bernstein_validation(self):
        with pytest.raises(ValueError):
            bernstein_bound(1, 0.1)
        with pytest.raises(ValueError):
            bernstein_bound(100, 0.0)

    def test_lambda_risk(self):
        p = 0.2
        assert lambda_risk(1, p) == pytest.approx(np.exp(-p / 6.0))
        assert lambda_risk(1, p) < 1.0
        assert lambda_risk(10, 0.01) == 1.0      # clipped at 1
        with pytest.raises(ValueError):
            lambda_risk(0, 0.1)
        with pytest.raises(ValueError):
            lambda_risk(10, 0.0)

    def test_lambda_crossing_solves_equation(self):
        for p in (0.1, 0.01):
            n = lambda_crossing(p)
            assert n > 6.0 / p            # beyond the mode
            assert n * np.exp(-n * p / 6.0) == pytest.approx(p, rel=1e-6)

    @pytest.mark.parametrize("call, key, bad", [
        *[(call, "C", bad)
          for call in (lambda C: bernstein_bound(100, 0.1, C),
                       lambda C: lambda_risk(100, 0.1, C),
                       lambda C: lambda_crossing(0.1, C))
          for bad in (-1.0, 0.0, np.inf, np.nan)],
        *[(lambda a: bernstein_bound(100, a), "alpha", bad)
          for bad in (-1.0, 0.0, 1.0, 2.0, np.inf, np.nan)]],
        ids=[f"{name}-C={bad}" for name in ("bernstein", "risk", "crossing")
             for bad in (-1.0, 0.0, np.inf, np.nan)]
        + [f"bernstein-alpha={bad}" for bad in (-1.0, 0.0, 1.0, 2.0, np.inf,
                                                np.nan)])
    def test_bad_constants_are_rejected(self, call, key, bad):
        # a negative C gave a negative certificate level and a risk of 1,
        # nan passed through, and C = 0 divided by zero
        with pytest.raises(ValueError, match=rf"^{key} must be"):
            call(bad)


class TestConservativeShift:
    def test_exact_model_needs_no_shift(self):
        X, y = quad_data()
        model = fit(PolynomialFamily(2, 2), X, y)
        shifted = conservative_shift(model, X, y)
        assert shifted.theta == pytest.approx(0.0, abs=1e-12)
        assert np.all(shifted.predict(X) <= y + 1e-9)

    def test_overprediction_sets_theta(self):
        X, y = quad_data()
        model = fit(PolynomialFamily(2, 2), X, y)
        y_low = y.copy()
        y_low[7] -= 0.3                      # model now overpredicts by 0.3
        shifted = conservative_shift(model, X, y_low, alpha=0.1)
        assert shifted.theta == pytest.approx(-0.3, abs=1e-9)
        assert np.all(shifted.predict(X) <= y_low + 1e-9)

    def test_certificate_fields(self):
        X, y = quad_data()
        model = fit(PolynomialFamily(2, 2), X, y)
        cert = conservative_shift(model, X, y, alpha=0.05).certificate
        assert cert.n_test == 40
        assert cert.alpha == 0.05
        assert cert.c_constant == 6.0
        assert cert.bernstein_bound == pytest.approx(bernstein_bound(40, 0.05))

    def test_needs_two_points(self):
        X, y = quad_data()
        model = fit(PolynomialFamily(2, 2), X, y)
        with pytest.raises(ValueError):
            conservative_shift(model, X[:1], y[:1])

    def test_positive_theta_rejected(self):
        X, y = quad_data()
        model = fit(PolynomialFamily(2, 2), X, y)
        cert = ShiftCertificate(n_test=10, alpha=0.1, bernstein_bound=0.2)
        with pytest.raises(ValueError):
            ShiftedSurrogate(base=model, theta=0.5, certificate=cert)


class TestCheckFSD:
    def test_identical_samples(self):
        a = np.array([0.1, 0.5, 0.9])
        assert check_fsd(a, a) <= 0.0

    def test_shifted_down_dominates(self):
        b = np.random.default_rng(9).random(50)
        a = b - 1.0
        assert check_fsd(a, b) <= 0.0
        assert check_fsd(b, a) > 0.0

    def test_violation_magnitude(self):
        # half the a-sample sits above all of b: worst CDF gap is 0.5
        a = np.array([0.0, 0.0, 2.0, 2.0])
        b = np.array([1.0, 1.0, 1.0, 1.0])
        assert check_fsd(a, b) == pytest.approx(0.5)

    def test_all_below_holds_for_any_weights(self):
        # integer weights, as repeated points: every CDF is a count, so
        # the two totals agree exactly and no gap reads as a violation
        gen = np.random.default_rng(17)
        for _ in range(50):
            k = gen.integers(1, 6, 30)
            b = np.repeat(gen.random(30), k)
            assert check_fsd(-1.0 - b, b) <= 0.0
            assert check_fsd(b, -1.0 - b) > 0.0

    @given(st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0)),
                    min_size=1, max_size=40),
           st.sampled_from([None, 0, 1]))
    @settings(max_examples=300, deadline=None)
    def test_dominance_is_sorted_order(self, pairs, decimals):
        # equal weights: a is below b in the first-order sense exactly when
        # its order statistics are, rank by rank (ties made by rounding)
        a, b = np.array(pairs).T
        if decimals is not None:
            a, b = np.round(a, decimals), np.round(b, decimals)
        below = bool(np.all(np.sort(a) <= np.sort(b)))
        assert (check_fsd(a, b) <= 0.0) == below
        above = bool(np.all(np.sort(a) >= np.sort(b)))
        assert (check_fsd(b, a) <= 0.0) == above
        # b above a is -b below -a
        assert (check_fsd(-a, -b) <= 0.0) == above

    def test_errors(self):
        with pytest.raises(ValueError):
            check_fsd([0.1], [0.1, 0.2])


class TestFSDFit:
    def test_exact_fit_is_feasible_unshifted(self):
        # note the indicator CDFs count a full 1/m quantum for any
        # overprediction, even a 1e-15 one, so an exact fit still goes
        # through the repair shift; the shift itself must stay negligible
        X, y = quad_data()
        res = fsd_fit(PolynomialFamily(2, 2), X, y, restarts=1,
                      rng=RandomStream(10, 0))
        assert res.violations.max() <= 1e-9
        # theta and the constant monomial are interchangeable, so only the
        # net prediction is pinned down
        assert np.max(np.abs(res.predict(X) - y)) < 1e-5

    def test_result_always_feasible(self):
        # degree-0 family cannot match the data shape, so the constraint
        # is active; the returned surrogate must still dominate exactly
        gen = np.random.default_rng(11)
        X = gen.random((30, 1))
        y = X[:, 0] ** 2
        res = fsd_fit(PolynomialFamily(1, 0), X, y, restarts=1,
                      rng=RandomStream(12, 0))
        assert res.violations.max() <= 1e-9
        pred = res.predict(X)
        assert check_fsd(pred, y) <= 1e-9

    def test_conservative_high_direction(self):
        # the fit from above: fit -y from below and negate the predictions
        gen = np.random.default_rng(13)
        X = gen.random((30, 1))
        y = X[:, 0] ** 2
        res = fsd_fit(PolynomialFamily(1, 0), X, -y, restarts=1,
                      rng=RandomStream(14, 0))
        assert res.violations.max() <= 1e-9
        assert check_fsd(y, -res.predict(X)) <= 1e-9
        # a constant must sit at or above the largest datum
        assert np.all(-res.predict(X) >= y.max())

    def test_constrained_objective_not_better_than_free(self):
        gen = np.random.default_rng(15)
        X = gen.random((40, 1))
        y = np.sin(4.0 * X[:, 0]) + 0.05 * gen.standard_normal(40)
        free = fit(PolynomialFamily(1, 2), X, y)
        res = fsd_fit(PolynomialFamily(1, 2), X, y, restarts=1,
                      rng=RandomStream(16, 0))
        sse_free = float(np.sum((free.predict(X) - y) ** 2))
        sse_con = float(np.sum((res.predict(X) - y) ** 2))
        assert sse_con >= sse_free - 1e-9

    @pytest.mark.parametrize("direction", [LOW, HIGH])
    def test_network_fit_is_feasible(self, direction):
        # the rank-matched solve refits the readout of a network on its
        # last hidden activations
        X, y = quad_data(30)
        sign = 1.0 if direction == LOW else -1.0
        res = fsd_fit(FeedforwardFamily(2, (3,)), X, sign * y,
                      restarts=0, epochs=100, rng=RandomStream(17, 0))
        assert res.violations.max() <= 0.0
        pred = sign * res.predict(X)
        if direction == LOW:
            assert check_fsd(pred, y) <= 0.0
        else:
            assert check_fsd(y, pred) <= 0.0

    @pytest.mark.parametrize("seed", range(900, 905))
    def test_no_worse_than_polishing_the_start(self, seed):
        # example1 d=3 at m=60 with one start: the rank-matched steps must
        # not leave the fit above what the pattern search reaches from the
        # least-squares start alone
        prob = make_example1(3, 5e-2)
        rng = RandomStream(seed, 0)
        X = rng.generator().random((60, 3))
        y = np.asarray(prob.function.evaluator(X), float)
        fam = PolynomialFamily(3, 2)
        res = fsd_fit(fam, X, y, restarts=0, rng=rng.derive(1))
        w = np.full(y.size, 1.0 / y.size)
        _, _, polished = _pattern_polish(
            _Profile(fam, X, y), fit(fam, X, y).eta)
        assert res.violations.max() <= 0.0
        assert np.sum(w * (y - res.predict(X)) ** 2) <= polished

    @staticmethod
    def reference_fsd_fit(family, X, y, restarts, epochs, rng):
        """The fit with every trial computed from scratch: predictions from
        value_and_grad, np.sum, and fresh sorts of y for the closed-form
        shift and the exact count.  Returns (eta, theta, violations)."""

        def violations(pred_shifted):
            anchors = np.concatenate([pred_shifted, y])
            Fs = np.searchsorted(np.sort(pred_shifted), anchors, "right")
            Fy = np.searchsorted(np.sort(y), anchors, "right")
            return (Fy - Fs) / y.size

        def profiled(eta):
            pred, _ = family.value_and_grad(eta, X)
            limit = np.min(np.sort(y, kind="stable")
                           - np.sort(pred, kind="stable"))
            for _ in range(2):
                if violations(pred + limit).max() <= 0.0:
                    break
                limit = np.nextafter(limit, -np.inf)
            else:
                raise AssertionError("no feasible shift")
            w = 1.0 / y.size
            t_ls = float(np.sum(w * (y - pred)))
            t = min(t_ls, float(limit))
            r = y - pred - t
            return float(np.sum(w * r * r)), t

        def polish(eta):
            best, theta = profiled(eta)
            offset = 0 if isinstance(family, PolynomialFamily) else eta.size - 1
            steps = 0.1 * np.maximum(np.abs(eta), 1.0)
            steps[offset] = 0.0
            for _ in range(80):
                improved = False
                for j in np.flatnonzero(steps):
                    for s in (steps[j], -steps[j]):
                        trial = eta.copy()
                        trial[j] += s
                        val, t = profiled(trial)
                        if val < best:
                            eta, best, theta = trial, val, t
                            improved = True
                            break
                if not improved:
                    steps *= 0.5
                    if steps.max() < 1e-10:
                        break
            return eta, theta, best

        def linear_head(eta):
            if isinstance(family, PolynomialFamily):
                return family.features(X)
            h = X
            for W, b in family._unpack(eta)[:-1]:
                h = 1.0 / (1.0 + np.exp(-(h @ W + b)))
            return np.column_stack([h, np.ones(h.shape[0])])

        def one_start(eta):
            best, _ = profiled(eta)
            for _ in range(100):
                H = linear_head(eta)
                n = H.shape[1]
                po = np.argsort(H @ eta[-n:], kind="stable")
                z = _lsi(H * sw, y * sw, H[po], np.sort(y, kind="stable"))
                if z is None:
                    break
                trial = eta.copy()
                trial[-n:] = z
                val, _ = profiled(trial)
                if not val < best:
                    break
                eta, best = trial, val
            return polish(eta)

        gen = rng.generator()
        start = fit(family, X, y, rng=rng, epochs=epochs).eta
        sw = np.sqrt(1.0 / y.size)
        scale = float(np.std(start)) or 1.0
        starts = [start] + [start + gen.normal(0.0, 0.2 * scale, start.size)
                            for _ in range(restarts)]
        eta, theta, _ = min((one_start(s0) for s0 in starts),
                            key=lambda c: c[2])
        pred, _ = family.value_and_grad(eta, X)
        return eta, theta, violations(pred + theta)

    @pytest.mark.parametrize("direction", [LOW, HIGH])
    @pytest.mark.parametrize("case", ["polynomial", "network"])
    def test_matches_reference_bits(self, case, direction):
        # the fixed-data work is built once per fit, and every trial keeps
        # the reference's products, sums and sort kinds, so predictions
        # formed any other way (say, updated one coordinate at a time)
        # show up in the last bits.  With Cauchy noise the pattern search
        # moves the winning polynomial start; on smooth data it rarely does.
        # The fit from above is the fit of -y, negated
        if case == "polynomial":
            gen = np.random.default_rng(10)
            X = gen.random((60, 3))
            y = X[:, 0] + 0.3 * gen.standard_cauchy(60)
            fam, restarts = PolynomialFamily(3, 2), 1
        else:
            X, y = quad_data(30)
            fam, restarts = FeedforwardFamily(2, (3,)), 0
        sign = 1.0 if direction == LOW else -1.0
        ref = self.reference_fsd_fit(fam, X, sign * y, restarts, 100,
                                     RandomStream(10, 1))
        res = fsd_fit(fam, X, sign * y, restarts=restarts,
                      epochs=100, rng=RandomStream(10, 1))
        assert np.array_equal(res.surrogate.eta.view(np.int64),
                              ref[0].view(np.int64))
        assert np.float64(res.theta_star).view(np.int64) == \
            np.float64(ref[1]).view(np.int64)
        assert np.array_equal(res.violations, ref[2])
        pred = sign * res.predict(X)
        assert check_fsd(*((pred, y) if direction == LOW else (y, pred))) <= 0.0

    def test_features_built_once(self, monkeypatch):
        # the training feature matrix is built once per fit, however many
        # trial rows the pattern search scores
        built, scored = [], []
        features, rows = PolynomialFamily.features, _Profile.rows
        monkeypatch.setattr(PolynomialFamily, "features",
                            lambda fam, X: built.append(1) or features(fam, X))
        monkeypatch.setattr(_Profile, "rows",
                            lambda self, T: scored.append(len(T))
                            or rows(self, T))
        X = RandomStream(33, 0).generator().random((60, 3))
        y = np.asarray(make_example1(3, 5e-2).function.evaluator(X), float)
        fsd_fit(PolynomialFamily(3, 2), X, y, restarts=2,
                rng=RandomStream(34, 0))
        assert len(built) == 1
        assert sum(scored) > 300


class TestLSI:
    def test_matches_a_reference_qp_solver(self):
        optimize = pytest.importorskip("scipy.optimize")
        gen = np.random.default_rng(21)
        for _ in range(20):
            m, n, k = int(gen.integers(8, 30)), int(gen.integers(1, 6)), \
                int(gen.integers(1, 25))
            A, b = gen.normal(size=(m, n)), gen.normal(size=m)
            G = gen.normal(size=(k, n))
            # a known feasible point, with a third of the constraints
            # tight there
            h = G @ gen.normal(size=n) + gen.exponential(size=k) \
                * (gen.random(k) > 1.0 / 3.0)
            z = _lsi(A, b, G, h)
            ref = optimize.minimize(
                lambda v: np.sum((A @ v - b) ** 2), np.zeros(n),
                jac=lambda v: 2.0 * A.T @ (A @ v - b), method="SLSQP",
                constraints=[{"type": "ineq", "fun": lambda v: h - G @ v,
                              "jac": lambda v: -G}],
                options={"ftol": 1e-10, "maxiter": 500})
            assert ref.success
            assert np.max(G @ z - h) <= 1e-10 * (1.0 + np.abs(h).max())
            assert np.sum((A @ z - b) ** 2) <= ref.fun * (1.0 + 1e-9) + 1e-12
            assert np.allclose(z, ref.x, rtol=1e-6, atol=1e-6)

    def test_infeasible_or_rank_deficient(self):
        A, b = np.eye(2), np.zeros(2)
        # z0 <= -1 and z0 >= 1
        assert _lsi(A, b, np.array([[1.0, 0.0], [-1.0, 0.0]]),
                    np.array([-1.0, -1.0])) is None
        assert _lsi(np.ones((3, 2)), np.zeros(3), np.eye(2), np.ones(2)) is None


def _feasible(pred, y, theta):
    return _exact_violations(pred + theta, y, np.sort(y)).max() <= 0.0


def _bisected_shift(pred, y):
    """Reference for the closed form: bisection on the exact check."""
    span = 1.0 + np.ptp(np.concatenate([pred, y]))
    ok, bad = y.min() - pred.max() - span, y.max() - pred.min() + span
    assert _feasible(pred, y, ok)
    assert not _feasible(pred, y, bad)
    for _ in range(200):
        mid = 0.5 * (ok + bad)
        if mid in (ok, bad):
            break
        if _feasible(pred, y, mid):
            ok = mid
        else:
            bad = mid
    return ok


class TestShiftLimit:
    @pytest.mark.parametrize("direction", [LOW, HIGH])
    @pytest.mark.parametrize("ties", [False, True])
    @pytest.mark.parametrize("weighting", ["uniform", "random", "decimal"])
    def test_extreme_feasible_shift(self, weighting, ties, direction):
        gen = np.random.default_rng(18)
        for _ in range(25):
            m = int(gen.integers(2, 81))
            y = gen.normal(size=m) * gen.choice([1e-3, 1.0, 10.0])
            pred = y + gen.normal(size=m) * gen.choice([0.01, 0.3, 3.0])
            if ties:
                y, pred = np.round(y, 1), np.round(pred, 1)
            # integer weights act as repeated points: random ones from 1
            # to 9, or decimal weights 0.0-0.3 as counts of tenths, where a
            # zero drops its point
            if weighting != "uniform":
                k = gen.integers(1, 10, m) if weighting == "random" \
                    else gen.integers(0, 4, m)
                k[0] = max(k[0], 1)
                y, pred = np.repeat(y, k), np.repeat(pred, k)
            # the shift from above is the shift of the negated values
            if direction == HIGH:
                y, pred = -y, -pred
            theta = _shift_limit(pred, np.sort(y, kind="stable"))
            assert _feasible(pred, y, theta)
            assert not _feasible(pred, y, theta + 1e-12 * max(1.0, abs(theta)))
            ref = _bisected_shift(pred, y)
            assert abs(theta - ref) <= 1e-12 * max(1.0, abs(ref))

    @given(st.lists(st.one_of(
               st.sampled_from([0.0, -0.0]),
               st.builds(lambda sign, m: sign * m, st.sampled_from([-1.0, 1.0]),
                         st.floats(1e-8, 1e8))), min_size=1, max_size=8),
           st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    min_size=1, max_size=40))
    @settings(max_examples=1000, deadline=None)
    def test_rank_by_rank_test_is_the_exact_count(self, values, picks):
        # pred and y drawn from a few shared values, so ties are common.
        # At the limit shift and one ulp either side, the rank-by-rank test
        # _shift_limit uses decides what the exact count decides, and
        # sorting commutes with the shift to the bit
        pred = np.array([values[i % len(values)] for i, _ in picks])
        y = np.array([values[j % len(values)] for _, j in picks])
        ys = np.sort(y, kind="stable")
        limit = np.min(ys - np.sort(pred, kind="stable"))
        for theta in (np.nextafter(limit, -np.inf), limit,
                      np.nextafter(limit, np.inf)):
            counted = _exact_violations(pred + theta, ys, ys).max() <= 0.0
            for kind in ("stable", "quicksort"):
                sp = np.sort(pred, kind=kind)
                assert bool((sp + theta <= ys).all()) == counted
                assert np.array_equal(np.sort(pred + theta, kind=kind)
                                      .view(np.int64),
                                      (sp + theta).view(np.int64))

    def test_weighted_fit_returns_feasible(self):
        # integer weights as repeated points: every rank-matched inequality
        # then comes in identical copies, and the fit must still return
        # a feasible result
        gen = np.random.default_rng(2)
        X = gen.random((30, 1))
        y = X[:, 0] ** 2 + 0.3 * gen.standard_normal(30)
        k = gen.integers(1, 5, 30)
        X, y = np.repeat(X, k, axis=0), np.repeat(y, k)
        def hang(signum, frame):
            raise TimeoutError("weighted fsd_fit did not return")

        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(60)
        try:
            res = fsd_fit(PolynomialFamily(1, 1), X, y, restarts=0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert res.violations.max() <= 0.0
        assert check_fsd(res.predict(X), y) <= 0.0


class TestPatternPolish:
    @pytest.mark.parametrize("family, offset", [
        (PolynomialFamily(2, 2), 0),
        (FeedforwardFamily(2, (3,)), -1),
    ], ids=["constant-monomial", "readout-bias"])
    def test_offset_parameter_is_not_moved(self, family, offset):
        # a move of the offset adds a constant to every prediction, which
        # the profiled shift cancels exactly; such a trial could only win
        # by rounding
        X, y = quad_data()
        y = y + 0.2 * np.sin(6.0 * X[:, 0])
        w = np.full(y.size, 1.0 / y.size)
        eta0 = np.random.default_rng(19).normal(0.0, 0.5, family.n_parameters)
        eta, theta, best = _pattern_polish(
            _Profile(family, X, y), eta0)
        assert eta[offset] == eta0[offset]
        assert not np.array_equal(eta, eta0)
        pred, _ = family.value_and_grad(eta, X)
        assert _feasible(pred, y, theta)
        assert best == pytest.approx(np.sum(w * (y - pred - theta) ** 2))

    @pytest.mark.parametrize("start, failing, raises", [
        (0.9, 1, False), (0.9, 3, False), (0.9, 0, True),
        (1.1, 0, True), (1.1, 1, True), (1.1, 2, False),
    ])
    def test_only_reached_rows_can_fail(self, monkeypatch, start, failing,
                                        raises):
        # against y = x0 + x1 the first sweep from (0, start, 1) tries the
        # x0 coefficient +-0.11 or +-0.1, then x1's +-0.1, as one batch of
        # four rows; the first improving row is row 0 (start 0.9) or row 1
        # (start 1.1).  A row without a feasible shift stops the search
        # only if a one-trial-at-a-time search would have scored it: at or
        # before that row
        gen = np.random.default_rng(5)
        X = gen.random((40, 2))
        y = X[:, 0] + X[:, 1]
        eta0 = np.array([0.0, start, 1.0])
        profile = _Profile(PolynomialFamily(2, 1), X, y)
        best, _ = profile(eta0)
        step = 0.1 * max(start, 1.0)
        T = np.repeat(eta0[None], 4, axis=0)
        T[[0, 1, 2, 3], [1, 1, 2, 2]] += [step, -step, 0.1, -0.1]
        vals, _, _ = profile.rows(T)
        assert np.flatnonzero(vals < best)[0] == (0 if start < 1.0 else 1)
        expected = _pattern_polish(profile, eta0)

        shift_limit, batches = _shift_limit, []

        def fail_once(pred, ys):
            theta = shift_limit(pred, ys)
            if len(pred) == 4 and not batches:
                batches.append(1)
                theta[failing] = np.nan
            return theta

        monkeypatch.setattr(surrogate, "_shift_limit", fail_once)
        if raises:
            with pytest.raises(NonConvergence):
                _pattern_polish(profile, eta0)
        else:
            eta, theta, best = _pattern_polish(profile, eta0)
            assert np.array_equal(eta.view(np.int64),
                                  expected[0].view(np.int64))
            assert (theta, best) == expected[1:]
        assert batches


def _single_trial(family, X, y, eta):
    """One trial scored alone, the way the search scored trials before it
    batched them: the family's own predictions, sorts and sums over one
    sample, and Python's min.  None when no shift passes the exact test."""
    if isinstance(family, PolynomialFamily):
        pred = family.features(X) @ eta
    else:
        pred, _ = family.value_and_grad(eta, X)
    ys, sp = np.sort(y, kind="stable"), np.sort(pred, kind="stable")
    limit = np.min(ys - sp)
    for _ in range(2):
        if (sp + limit <= ys).all():
            break
        limit = np.nextafter(limit, -np.inf)
    else:
        return None
    w = 1.0 / y.size
    gap = y - pred
    t = min(float(np.add.reduce(w * gap)), float(limit))
    r = gap - t
    return float(np.add.reduce(w * r * r)), t


class TestProfileRows:
    @given(st.sampled_from([PolynomialFamily(2, 2), FeedforwardFamily(2, (3,)),
                            FeedforwardFamily(3, (4, 3))]),
           st.lists(st.one_of(
               st.sampled_from([0.0, -0.0]),
               st.builds(lambda sign, m: sign * m, st.sampled_from([-1.0, 1.0]),
                         st.floats(1e-8, 1e8))), min_size=1, max_size=8),
           st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                    min_size=1, max_size=40),
           st.lists(st.integers(0, 7), min_size=1, max_size=40),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_batch_rows_are_single_trials(self, family, values, picks,
                                          trials, seed):
        # data drawn from a few shared values and inputs from a few shared
        # rows, so data and predictions tie often; the batch repeats rows
        # too.  Every row must be the lone trial of its parameters, bit for
        # bit, in objective and shift, whatever the batch around it
        gen = np.random.default_rng(seed)
        X = gen.random((8, family.dimension))[[i for i, _ in picks]]
        y = np.array([values[j % len(values)] for _, j in picks])
        T = gen.normal(0.0, 1.0, (8, family.n_parameters))[trials]
        profile = _Profile(family, X, y)
        vals, thetas, failed = profile.rows(T)
        for eta, val, theta, bad in zip(T, vals, thetas, failed):
            single = _single_trial(family, X, y, eta)
            assert bad == (single is None)
            if single is None:
                continue
            assert np.float64(val).view(np.int64) == \
                np.float64(single[0]).view(np.int64)
            assert np.float64(theta).view(np.int64) == \
                np.float64(single[1]).view(np.int64)
            one = profile(eta)
            assert np.array_equal(np.array(one).view(np.int64),
                                  np.array(single).view(np.int64))
