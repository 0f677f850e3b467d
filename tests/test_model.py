"""Regression data handling and the joint (beta, nu) log-posterior."""

import numpy as np
import pytest

from robustpriors.model import (DataError, PosteriorTarget, RegressionData,
                                SigmaPrior, load_csv, ols_fit, reduced_target,
                                standardize)
from robustpriors.priors import (CTN, LPTN, CoefficientPrior, Normal,
                                 Student)

N = 100


def random_data(n=20, p=3, seed=1):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n)] + [rng.normal(size=n) for _ in range(p - 1)])
    y = X @ rng.normal(size=p) + 0.5 * rng.normal(size=n)
    return RegressionData(y=y, X=X)


class TestRegressionData:
    def test_shape_validation(self):
        with pytest.raises(DataError):
            RegressionData(y=np.ones(3), X=np.ones((4, 2)))
        with pytest.raises(DataError):
            RegressionData(y=np.ones(2), X=np.ones((2, 3)))  # n < p

    def test_intercept_required(self):
        X = np.column_stack([np.full(5, 2.0), np.arange(5.0)])
        with pytest.raises(DataError, match="intercept"):
            RegressionData(y=np.zeros(5), X=X)

    def test_standardized_flag_checked(self):
        X = np.column_stack([np.ones(4), np.array([1.0, 2.0, 3.0, 4.0])])
        with pytest.raises(DataError, match="moments"):
            RegressionData(y=np.zeros(4), X=X, standardized=True)


class TestStandardize:
    def test_column_moments(self):
        X = np.column_stack([np.ones(3), np.array([1.0, 2.0, 3.0])])
        data = RegressionData(y=np.array([1.0, 4.0, 10.0]), X=X)
        out, rec = standardize(data)
        assert abs(out.X[:, 1].mean()) < 1e-12
        assert (out.X[:, 1] ** 2).mean() == pytest.approx(1.0, abs=1e-12)
        assert abs(out.y.mean()) < 1e-12
        assert (out.y ** 2).mean() == pytest.approx(1.0, abs=1e-12)
        # back-mapping record reproduces the original column
        restored = out.X[:, 1] * rec.col_scales[1] + rec.col_means[1]
        np.testing.assert_allclose(restored, X[:, 1], atol=1e-12)

    def test_idempotent(self):
        data = random_data()
        once, _ = standardize(data)
        twice, _ = standardize(once)
        np.testing.assert_allclose(twice.X, once.X, atol=1e-12)
        np.testing.assert_allclose(twice.y, once.y, atol=1e-12)

    def test_constant_column_rejected(self):
        X = np.column_stack([np.ones(4), np.full(4, 7.0)])
        data = RegressionData(y=np.arange(4.0), X=X)
        with pytest.raises(DataError, match="constant"):
            standardize(data)


class TestOls:
    def test_exact_fit(self):
        data = random_data()
        y = data.X @ np.array([1.0, 0.0, 0.0])
        fit = ols_fit(RegressionData(y=y, X=data.X))
        np.testing.assert_allclose(fit, [1.0, 0.0, 0.0], atol=1e-12)

    def test_orthogonal_standardized_shortcut(self):
        # With X^T X = n I the solution is (1/n) X^T y componentwise.
        n = 8
        c1 = np.tile([1.0, -1.0], n // 2)
        c2 = np.tile([1.0, 1.0, -1.0, -1.0], n // 4)
        X = np.column_stack([np.ones(n), c1, c2])
        rng = np.random.default_rng(7)
        y = rng.normal(size=n)
        fit = ols_fit(RegressionData(y=y, X=X))
        np.testing.assert_allclose(fit, X.T @ y / n, atol=1e-12)

    def test_matches_independent_solver(self):
        data = random_data(seed=5)
        fit = ols_fit(data)
        lstsq = np.linalg.lstsq(data.X, data.y, rcond=None)[0]
        np.testing.assert_allclose(fit, lstsq, atol=1e-10)

    def test_rank_deficient(self):
        X = np.column_stack([np.ones(5), np.arange(5.0), 2 * np.arange(5.0)])
        data = RegressionData(y=np.zeros(5), X=X)
        with pytest.raises(DataError, match="rank"):
            ols_fit(data)


class TestLoadCsv(object):
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x1,y,x2\n1.0,2.0,3.0\n4.0,5.0,6.0\n7.0,8.0,9.5\n")
        data, names = load_csv(path)
        assert names == ["x1", "x2"]
        np.testing.assert_allclose(data.y, [2.0, 5.0, 8.0])
        np.testing.assert_allclose(data.X[:, 0], 1.0)
        np.testing.assert_allclose(data.X[:, 2], [3.0, 6.0, 9.5])

    def test_missing_y(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataError, match="'y'"):
            load_csv(path)

    def test_malformed_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("y,x\n1.0,2.0\n3.0\n")
        with pytest.raises(DataError, match="expected 2 fields"):
            load_csv(path)
        path.write_text("y,x\n1.0,abc\n")
        with pytest.raises(DataError):
            load_csv(path)

    @pytest.mark.parametrize("header, message", [
        ("y,x1,y", "header names column 'y' twice"),
        ("y,x1,x1", "header names column 'x1' twice"),
        ("y,x1,", "header column 3 has no name"),
        ("y, ,x1", "header column 2 has no name")],
        ids=["y-twice", "x1-twice", "empty-last", "blank-middle"])
    def test_header_names_distinct_and_nonempty(self, tmp_path, header,
                                                message):
        path = tmp_path / "d.csv"
        path.write_text(header + "\n1.0,2.0,3.0\n4.0,5.0,6.5\n")
        with pytest.raises(DataError, match=message):
            load_csv(path)


    def test_non_utf8_file_is_data_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xff\xfey\x00,\x00x\x00\n\x001\x00,\x002\x00\n")
        with pytest.raises(DataError, match="d.csv: not UTF-8 text"):
            load_csv(path)


# The three kernels the library once had, as reference formulas: Jeffreys'
# 1/sigma, sigma^2 ~ inverse-gamma(a, b), and Jeffreys times sigma^k.
def _jeffreys_ref():
    return (lambda nu: -np.asarray(nu, dtype=float)), (lambda nu: -1.0)


def _inverse_gamma_ref(a, b):
    return ((lambda nu: -(2 * a + 1) * nu - b * np.exp(-2 * nu)),
            (lambda nu: -(2 * a + 1) + 2 * b * np.exp(-2 * nu)))


def _jeffreys_times_ref(k):
    log_density, score = _jeffreys_ref()
    return ((lambda nu: log_density(nu) + k * np.asarray(nu, dtype=float)),
            (lambda nu: score(nu) + k))


class TestSigmaPriors:
    def test_jeffreys(self):
        sp = SigmaPrior()
        assert (sp.power, sp.scale) == (-1.0, 0.0)
        assert sp.log_density_nu(0.7) == pytest.approx(-0.7)
        assert sp.dlog_dnu(0.7) == -1.0
        assert repr(sp) == "SigmaPrior(power=-1.0, scale=0.0)"

    def test_inverse_gamma(self):
        # sigma^2 ~ inverse-gamma(3, 2).
        sp = SigmaPrior(-7.0, 2.0)
        nu = 0.4
        h = 1e-6
        fd = (sp.log_density_nu(nu + h) - sp.log_density_nu(nu - h)) / (2 * h)
        assert sp.dlog_dnu(nu) == pytest.approx(fd, rel=1e-6)
        for scale in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="finite and >= 0"):
                SigmaPrior(-7.0, scale)

    def test_power_adjustment(self):
        sp = SigmaPrior(-1.0 + 2)
        assert sp.log_density_nu(0.3) == pytest.approx(-0.3 + 2 * 0.3)
        assert sp.dlog_dnu(0.3) == pytest.approx(1.0)

    def test_power_must_be_finite(self):
        assert SigmaPrior(np.int64(-2)).power == -2.0
        # A fractional one runs as given, not truncated: sigma^0.5 adds
        # 0.5 nu.
        half = reduced_target(N, 0.5, 1.0, None, sigma_power=0.5)
        flat = reduced_target(N, 0.5, 1.0, None)
        q = np.array([[0.3, 0.1], [0.0, -0.2]])
        np.testing.assert_allclose(half.logpdf(q) - flat.logpdf(q),
                                   0.5 * q[:, 1], atol=1e-12)
        for power in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="sigma power must be finite"):
                SigmaPrior(power)

    def test_two_numbers(self):
        sp = SigmaPrior(0.5, 3.0)
        sp.power, sp.scale = -2.0, 1.0
        with pytest.raises(AttributeError):
            sp.shape = 2.0

    @pytest.mark.parametrize("sp, ref", [
        (SigmaPrior(), _jeffreys_ref()),
        (reduced_target(N, family=None).sigma_prior, _jeffreys_ref()),
        (SigmaPrior(-(2 * 3.0 + 1), 2.0), _inverse_gamma_ref(3.0, 2.0)),
        *[(SigmaPrior(-1.0 + k), _jeffreys_times_ref(k)) for k in (1, -1, 4)],
        *[(reduced_target(N, family=None, sigma_power=k).sigma_prior,
           _jeffreys_times_ref(k)) for k in (1, -1, 4)],
    ], ids=["jeffreys", "jeffreys-reduced", "invgamma(3,2)", "sigma^+1",
            "sigma^-1", "sigma^4", "sigma^+1-reduced", "sigma^-1-reduced",
            "sigma^4-reduced"])
    def test_matches_the_separate_kernels(self, sp, ref):
        # Equal as floats (0.0 and -0.0 compare equal: at sigma^+1 the one
        # kernel gives 0.0 * nu), with NaN nowhere, even where e^(-2 nu)
        # overflows.
        nu = np.concatenate([np.linspace(-700.0, 700.0, 2801),
                             np.random.default_rng(2).normal(0.0, 3.0, 200)])
        with np.errstate(over="ignore"):
            got = sp.log_density_nu(nu), sp.dlog_dnu(nu)
            want = ref[0](nu), ref[1](nu)
        for g, w in zip(got, want):
            g, w = np.broadcast_to(g, nu.shape), np.broadcast_to(w, nu.shape)
            assert not np.isnan(w).any()
            np.testing.assert_array_equal(g, w)


class TestReducedTarget:
    def test_appendix_difference_identity(self):
        # log pi(0, 0) - log pi(0.1, 0) = (n/2)(1 + lambda2^2)(0.1)^2 = 1
        t = reduced_target(N, 0.0, 1.0, Normal())
        d = t.logpdf([0.0, 0.0])[0] - t.logpdf([0.1, 0.0])[0]
        assert d == pytest.approx(1.0, abs=1e-10)

    def test_matches_reduced_formula(self):
        # Same log density (up to one constant) as the two-parameter form
        # -(n+1) nu - n(1+b^2)/(2 e^{2 nu}) + log(lam sqrt(n)) + log g(z).
        fam = Student(4)
        lam2, mu2 = 1.3, 0.7
        t = reduced_target(N, mu2, lam2, fam)
        lam_eff = lam2 * np.sqrt(N)

        def manual(b, nu):
            z = lam_eff * np.exp(-nu) * (b - mu2)
            return (-(N + 1) * nu - N * (1 + b * b) / (2 * np.exp(2 * nu))
                    + np.log(lam_eff) + fam.log_density(z))

        pts = [(0.0, 0.0), (0.4, -0.2), (-1.0, 0.5)]
        vals = [t.logpdf([b, nu])[0] - manual(b, nu) for b, nu in pts]
        assert max(vals) - min(vals) < 1e-10  # constant offset only

    def test_flat_prior_nu_gradient(self):
        t = reduced_target(N, family=None)
        b, nu = 0.3, 0.2
        g = t.grad_logpdf([b, nu])[0]
        assert g[1] == pytest.approx(-N + N * (1 + b * b) * np.exp(-2 * nu),
                                     rel=1e-12)

    def test_student_gradient_verbatim(self):
        gam, mu2, lam2 = 4.0, 1.2, 1.0
        t = reduced_target(N, mu2, lam2, Student(gam))
        b, nu = 0.15, -0.1
        e2v = np.exp(2 * nu)
        quad = lam2 ** 2 * N * (b - mu2)
        denom = gam * e2v + lam2 ** 2 * N * (b - mu2) ** 2
        g = t.grad_logpdf([b, nu])[0]
        assert g[0] == pytest.approx(-(N / e2v) * b - (gam + 1) * quad / denom,
                                     rel=1e-12)
        assert g[1] == pytest.approx(
            -(N + 1) + (N / e2v) * (1 + b * b)
            + (gam + 1) * quad * (b - mu2) / denom, rel=1e-12)

    def test_ctn_outside_threshold_prior_is_flat(self):
        fam = CTN(0.98)
        t = reduced_target(N, 5.0, 1.0, fam)
        tf = reduced_target(N, family=None)
        q = [0.0, 0.0]
        # (lam sqrt(n)/sigma)|b - mu| = 50 > kappa: both partials reduce to
        # the flat-prior values plus constants / the -1 scale term.
        g = t.grad_logpdf(q)[0]
        gf = tf.grad_logpdf(q)[0]
        assert g[0] == pytest.approx(gf[0], abs=1e-12)
        assert g[1] == pytest.approx(gf[1] - 1.0, abs=1e-12)

    def test_normal_symmetry_zero_gradient(self):
        t = reduced_target(N, 0.0, 1.0, Normal())
        g = t.grad_logpdf([0.0, 0.3])[0]
        assert g[0] == 0.0

    def test_location_enters_through_prior_only(self):
        # For the normal family the posterior depends on beta - mu2 through
        # the prior term alone; subtracting the flat-prior log density must
        # give a function of (beta - mu2, nu) only.
        flat = reduced_target(N, family=None)
        t1 = reduced_target(N, 0.7, 1.0, Normal())
        t2 = reduced_target(N, 1.9, 1.0, Normal())
        nu = 0.1
        for delta in (-0.2, 0.0, 0.4):
            q1, q2 = [0.7 + delta, nu], [1.9 + delta, nu]
            p1 = t1.logpdf(q1)[0] - flat.logpdf(q1)[0]
            p2 = t2.logpdf(q2)[0] - flat.logpdf(q2)[0]
            assert p1 == pytest.approx(p2, abs=1e-10)

    def test_needs_minimum_n(self):
        with pytest.raises(ValueError):
            reduced_target(3, family=None)

    def test_odd_n_standardization(self):
        t = reduced_target(101, family=None)
        assert abs(t.data.y.mean()) < 1e-12
        assert (t.data.y ** 2).mean() == pytest.approx(1.0, abs=1e-12)


class TestPosteriorTarget:
    @pytest.mark.parametrize("family", [Normal(), Student(4), LPTN(0.95),
                                        CTN(0.98)])
    def test_gradient_vs_finite_differences(self, family):
        t = reduced_target(N, 0.7, 1.3, family)
        rng = np.random.default_rng(0)
        thr = getattr(family, "tau", None) or getattr(family, "kappa", None)
        checked = 0
        h = 1e-6
        while checked < 40:
            b, nu = rng.normal(0, 0.6), rng.normal(0, 0.3)
            z = 13.0 * np.exp(-nu) * (b - 0.7)
            if thr is not None and abs(abs(z) - thr) < 1e-4:
                continue
            g = t.grad_logpdf([b, nu])[0]
            fdb = (t.logpdf([b + h, nu])[0]
                   - t.logpdf([b - h, nu])[0]) / (2 * h)
            fdv = (t.logpdf([b, nu + h])[0]
                   - t.logpdf([b, nu - h])[0]) / (2 * h)
            assert g[0] == pytest.approx(fdb, rel=1e-5, abs=1e-5)
            assert g[1] == pytest.approx(fdv, rel=1e-5, abs=1e-5)
            checked += 1

    def test_general_p_gradient_and_error_families(self):
        data = random_data(seed=11)
        priors = [None,
                  CoefficientPrior(0.0, 1.0, LPTN(0.95)),
                  CoefficientPrior(1.0, 2.0, Student(4))]
        t = PosteriorTarget(data, priors)
        q = np.array([0.4, 0.9, -0.2, 0.1])
        g = t.grad_logpdf(q)[0]
        for k in range(4):
            qp, qm = q.copy(), q.copy()
            qp[k] += 1e-6
            qm[k] -= 1e-6
            fd = (t.logpdf(qp)[0] - t.logpdf(qm)[0]) / 2e-6
            assert g[k] == pytest.approx(fd, rel=1e-5, abs=1e-5)

    def test_gram_equals_residual_path(self):
        # Reference: the likelihood as a sum over the scaled residuals R,
        # plus the located prior on beta_2.  The Jeffreys prior's -nu and
        # the Jacobian's +nu cancel.
        data = random_data(seed=2)
        prior = CoefficientPrior(0.0, 1.0, Normal())
        t = PosteriorTarget(data, [None, prior, None])
        q = np.random.default_rng(3).normal(size=(6, 4))
        B, v = q[:, :3], q[:, 3]
        inv_sigma = np.exp(-v)
        R = (data.y - B @ data.X.T) * inv_sigma[:, None]
        z = prior.lam * inv_sigma * (B[:, 1] - prior.mu)
        value = (-data.n * v + Normal().log_density(R).sum(axis=1)
                 + np.log(prior.lam) - v + prior.family.log_density(z))
        grad = np.column_stack([(R @ data.X) * inv_sigma[:, None],
                                -data.n + (R * R).sum(axis=1)])
        g = prior.family.grad_log_density(z)
        grad[:, 1] += g * prior.lam * inv_sigma
        grad[:, 3] += -1.0 - z * g
        np.testing.assert_allclose(t.logpdf(q), value, atol=1e-10)
        np.testing.assert_allclose(t.grad_logpdf(q), grad, atol=1e-9)

    def test_permutation_invariance(self):
        data = random_data(seed=4)
        priors = [None,
                  CoefficientPrior(0.3, 1.0, Student(4)),
                  CoefficientPrior(-0.2, 2.0, LPTN(0.95))]
        t = PosteriorTarget(data, priors)
        perm = [0, 2, 1]
        data_p = RegressionData(y=data.y, X=data.X[:, perm])
        t_p = PosteriorTarget(data_p, [priors[j] for j in perm])
        q = np.array([[0.4, 0.9, -0.2, 0.1]])
        q_p = q[:, [0, 2, 1, 3]]
        assert t.logpdf(q)[0] == pytest.approx(t_p.logpdf(q_p)[0], abs=1e-12)

    def test_nonfinite_rows_become_neg_inf(self):
        t = reduced_target(N, 0.5, 1.0, LPTN(0.95))
        q = np.array([[np.inf, 0.0], [0.0, np.nan], [0.0, -800.0], [0.1, 0.0]])
        out = t.logpdf(q)
        assert out[0] == -np.inf and out[1] == -np.inf and out[2] == -np.inf
        assert np.isfinite(out[3])
        grads = t.grad_logpdf(q)
        assert np.all(grads[:3] == 0.0)
        assert np.all(np.isfinite(grads[3]))

    @pytest.mark.parametrize("family", [LPTN(0.95), CTN(0.98)])
    def test_rows_evaluate_alone_as_in_a_mixed_batch(self, family):
        # Located columns 1, 3 and 4, two of them sharing `family`.  At
        # beta_2 = +-thr and nu = 0 the prior argument sits exactly on the
        # kink.
        data = random_data(n=30, p=5, seed=7)
        priors = [None, CoefficientPrior(0.0, 1.0, family), None,
                  CoefficientPrior(-0.1, 1.0, Student(4)),
                  CoefficientPrior(0.2, 2.0, family)]
        t = PosteriorTarget(data, priors)
        thr = getattr(family, "tau", None) or getattr(family, "kappa")
        q = np.array([
            [0.1, 0.5, 0.2, -0.3, 0.4, 0.1],
            [0.1, thr, 0.2, -0.3, 0.4, 0.0],
            [0.1, -thr, 0.2, -0.3, 0.4, 0.0],
            [np.nan, 0.5, 0.2, -0.3, 0.4, 0.1],
            [0.1, np.inf, 0.2, -0.3, 0.4, 0.1],
            [0.1, 0.5, -np.inf, -0.3, 0.4, 0.1],
            [0.1, 0.5, 0.2, -0.3, 0.4, -800.0],
            [0.1, 0.5, 0.2, -0.3, 0.4, np.nan],
            [-0.3, -1.5, 0.7, 2.0, -0.1, -0.2],
        ])
        bad = [3, 4, 5, 6, 7]
        good = [0, 1, 2, 8]
        values, grads = t.logpdf(q), t.grad_logpdf(q)
        assert np.all(values[bad] == -np.inf)
        assert np.all(grads[bad] == 0.0)
        assert np.all(np.isfinite(values[good]))
        assert np.all(np.isfinite(grads[good]))
        # Bad rows leave the others untouched, bit for bit ...
        clean = q.copy()
        clean[bad] = q[0]
        assert np.array_equal(t.logpdf(clean)[good], values[good])
        assert np.array_equal(t.grad_logpdf(clean)[good], grads[good])
        # ... and every row matches its evaluation alone, up to rounding
        # because BLAS takes another kernel for a single row.
        for i, row in enumerate(q):
            np.testing.assert_allclose(t.logpdf(row), values[i:i + 1],
                                       rtol=1e-13, atol=0)
            np.testing.assert_allclose(t.grad_logpdf(row), grads[i:i + 1],
                                       rtol=1e-12, atol=1e-10)

    def test_fused_kernel_matches_per_prior_loop(self):
        # Reference: the flat-prior posterior plus one prior at a time
        # through the public family methods, in column order.  The fused
        # evaluation keeps every operation and its order, so they agree
        # bit for bit.
        data = random_data(n=40, p=5, seed=8)
        priors = [None, CoefficientPrior(0.3, 1.5, LPTN(0.95)),
                  CoefficientPrior(-0.2, 1.0, Student(4)), None,
                  CoefficientPrior(0.0, 2.0, CTN(0.98))]
        t = PosteriorTarget(data, priors)
        flat = PosteriorTarget(data, [None] * data.p)
        q = np.random.default_rng(9).normal(0.0, 0.7, size=(6, 6))
        B, v = q[:, :5], q[:, 5]
        inv_sigma = np.exp(-v)
        value, grad = flat.logpdf(q), flat.grad_logpdf(q)
        for j, pr in enumerate(priors):
            if pr is None:
                continue
            z = pr.lam * inv_sigma * (B[:, j] - pr.mu)
            value = value + (np.log(pr.lam) - v + pr.family.log_density(z))
            g = pr.family.grad_log_density(z)
            grad[:, j] += g * pr.lam * inv_sigma
            grad[:, 5] += -1.0 - z * g
        assert np.array_equal(t.logpdf(q), value)
        assert np.array_equal(t.grad_logpdf(q), grad)

    @pytest.mark.parametrize("priors", [
        [None, CoefficientPrior(0.3, 2.5, LPTN(0.95)),
         CoefficientPrior(-0.2, 1.0, Student(4)),
         CoefficientPrior(0.0, 2.0, CTN(0.98)), None],
        [CoefficientPrior(0.1, 0.5, Normal()),
         CoefficientPrior(0.3, 2.5, LPTN(0.95)),
         CoefficientPrior(-0.2, 1.0, Student(4)),
         CoefficientPrior(0.0, 2.0, CTN(0.98)),
         CoefficientPrior(0.4, 1.2, Normal())]],
        ids=["consecutive", "every-column"])
    def test_fused_kernel_on_consecutive_columns(self, priors):
        # Located priors on consecutive columns are selected as one block
        # instead of by index; the bits are those of the per-prior sum.
        data = random_data(n=40, p=5, seed=8)
        t = PosteriorTarget(data, priors)
        flat = PosteriorTarget(data, [None] * data.p)
        q = np.random.default_rng(9).normal(0.0, 0.7, size=(6, 6))
        B, v = q[:, :5], q[:, 5]
        inv_sigma = np.exp(-v)
        value, grad = flat.logpdf(q), flat.grad_logpdf(q)
        for j, pr in enumerate(priors):
            if pr is None:
                continue
            z = pr.lam * inv_sigma * (B[:, j] - pr.mu)
            value = value + (np.log(pr.lam) - v + pr.family.log_density(z))
            g = pr.family.grad_log_density(z)
            grad[:, j] += g * pr.lam * inv_sigma
            grad[:, 5] += -1.0 - z * g
        assert np.array_equal(t.logpdf(q), value)
        assert np.array_equal(t.grad_logpdf(q), grad)
        fused = t.logpdf_and_grad(q)
        assert np.array_equal(fused[0], value)
        assert np.array_equal(fused[1], grad)

    @pytest.mark.parametrize("case", ["gram", "reduced"])
    def test_zero_row_batch(self, case):
        if case == "reduced":
            t = reduced_target(N, 0.5, 1.0, LPTN(0.95))
        else:
            t = PosteriorTarget(random_data(n=30, p=4, seed=3),
                                [None, CoefficientPrior(0.2, 1.0, LPTN(0.95)),
                                 None, CoefficientPrior(0.0, 2.0, CTN(0.98))])
        q = np.empty((0, t.dim))
        assert t.logpdf(q).shape == (0,)
        assert t.grad_logpdf(q).shape == (0, t.dim)
        value, grad = t.logpdf_and_grad(q)
        assert value.shape == (0,) and grad.shape == (0, t.dim)

    @pytest.mark.parametrize("family", [None, LPTN(0.95), CTN(0.98)])
    def test_wide_batch_matches_narrow_batches(self, family):
        # A wide batch and a narrow one sum their terms by different
        # numpy calls, in the same order and so to the same bits.  With
        # one column the likelihood takes no BLAS product.
        t = reduced_target(N, 0.5, 1.0, family)
        q = np.random.default_rng(5).normal(0.0, 0.5, size=(200, 2))
        wide = t.logpdf_and_grad(q)
        narrow = [t.logpdf_and_grad(q[i:i + 4]) for i in range(0, 200, 4)]
        assert wide[0].tobytes() == np.concatenate(
            [value for value, _ in narrow]).tobytes()
        assert wide[1].tobytes() == np.concatenate(
            [grad for _, grad in narrow]).tobytes()

    @pytest.mark.parametrize("family", [Student(4), LPTN(0.95), CTN(0.98), None])
    def test_row_value_independent_of_batch(self, family):
        # For a 2-D target a row's value is the same bits alone as inside
        # any batch.  (The Gram path with p > 1 does not have this
        # property: there B @ XtX takes another BLAS kernel for one row
        # than for several.)
        t = reduced_target(N, 0.5, 1.0, family)
        rng = np.random.default_rng(1)
        q = np.column_stack([rng.uniform(-2.0, 3.0, 1000),
                             rng.uniform(-1.0, 1.0, 1000)])
        # Rows far beyond the posterior's bulk, in beta and in nu.
        far = np.geomspace(0.1, 2e6, 24)
        q[:48:2, 0] += far
        q[1:48:2, 1] -= far
        full = t.logpdf(q)
        for m in (3, 225):
            np.testing.assert_array_equal(t.logpdf(q[:m]), full[:m])
        for i in range(225):
            assert t.logpdf(q[i])[0] == full[i]

    @pytest.mark.parametrize("case", ["gram", "reduced", "flat"])
    def test_logpdf_and_grad_matches_separate_calls(self, case):
        # Finite rows, non-finite rows and rows whose intermediates
        # overflow (exp(-nu), the Gram quadratic form).
        if case == "reduced":
            t = reduced_target(N, 0.5, 1.0, LPTN(0.95))
        else:
            data = random_data(n=30, p=4, seed=3)
            priors = ([None] * 4 if case == "flat" else
                      [None, CoefficientPrior(0.2, 1.0, LPTN(0.95)),
                       CoefficientPrior(-0.1, 1.5, Student(4)),
                       CoefficientPrior(0.0, 2.0, CTN(0.98))])
            t = PosteriorTarget(data, priors)
        q = np.random.default_rng(4).normal(0.0, 0.5, size=(10, t.dim))
        q[1, 0] = np.nan
        q[2, -1] = -800.0
        q[3, 0] = np.inf
        q[4, -1] = 300.0
        q[6, 0] = 1e160
        q[7, -1] = np.nan
        q[8, 0] = -1e200
        for batch in [q[i:i + 1] for i in range(len(q))] + [q[:5], q[5:], q]:
            value, grad = t.logpdf_and_grad(batch)
            assert value.tobytes() == t.logpdf(batch).tobytes()
            assert grad.tobytes() == t.grad_logpdf(batch).tobytes()
        assert t.logpdf_and_grad(q[0])[0].tobytes() == t.logpdf(q[0]).tobytes()

    def test_prior_count_checked(self):
        data = random_data()
        with pytest.raises(ValueError, match="coefficient priors"):
            PosteriorTarget(data, [None])

    def test_prior_types_checked(self):
        data = random_data()
        with pytest.raises(TypeError, match="bad prior entry"):
            PosteriorTarget(data, [None, None, Normal()])
        with pytest.raises(TypeError, match="bad sigma prior"):
            PosteriorTarget(data, [None] * data.p, sigma_prior=object())

    def test_properness_warning_for_ctn(self):
        # p = 2 and n = 4 violates n > p + 2 under the Jeffreys scale prior.
        X = np.column_stack([np.ones(4), np.array([1.0, -1.0, 1.0, -1.0])])
        data = RegressionData(y=np.array([0.5, -0.5, 1.0, -1.0]), X=X)
        priors = [None, CoefficientPrior(0.0, 1.0, CTN(0.98))]
        with pytest.warns(UserWarning, match="proper"):
            PosteriorTarget(data, priors)

    def test_no_warning_with_inverse_gamma(self, recwarn):
        # sigma^2 ~ IG(2, 2) is sigma^-5 e^(-2/sigma^2); times sigma it is
        # still integrable against sigma^-p at p = 2, times sigma^10 not.
        X = np.column_stack([np.ones(4), np.array([1.0, -1.0, 1.0, -1.0])])
        data = RegressionData(y=np.array([0.5, -0.5, 1.0, -1.0]), X=X)
        priors = [None, CoefficientPrior(0.0, 1.0, CTN(0.98))]
        for power in (-5.0, -5.0 + 1):
            PosteriorTarget(data, priors, sigma_prior=SigmaPrior(power, 2.0))
        assert not [w for w in recwarn.list if "proper" in str(w.message)]
        with pytest.warns(UserWarning, match="proper"):
            PosteriorTarget(data, priors, sigma_prior=SigmaPrior(-5.0 + 10, 2.0))

    def test_start_point(self):
        data = random_data(seed=6)
        t = PosteriorTarget(data, [None] * data.p)
        sp = t.start_point
        np.testing.assert_allclose(sp[:-1], ols_fit(data), atol=1e-10)

    def test_duplicated_column(self):
        # Proper priors on both copies keep the posterior proper, and the
        # warm start is the minimum-norm least-squares point; flat priors
        # on both leave it improper.
        data = random_data(seed=6)
        dup = RegressionData(y=data.y, X=np.column_stack([data.X, data.X[:, 2]]))
        prior = CoefficientPrior(0.0, 1.0, Normal())
        sp = PosteriorTarget(dup, [None, None, prior, prior]).start_point
        assert np.all(np.isfinite(sp)) and sp[2] == pytest.approx(sp[3])
        np.testing.assert_allclose(sp[1:3], ols_fit(data)[1:] * [1, 0.5],
                                   atol=1e-10)
        with pytest.raises(DataError, match="beta_3, beta_4.*improper"):
            PosteriorTarget(dup, [None] * 4)


class TestWhitened:
    # PosteriorTarget.whitened: the target over w, with q = q_hat + A w.
    def test_map_whitens_the_likelihood(self):
        data = random_data(n=40, p=4, seed=3)
        prior = CoefficientPrior(2.0, 50.0, Student(4))
        t = PosteriorTarget(data, [None, prior, None, prior])
        view = t.whitened()
        A, p, n = view.A, data.p, data.n
        sigma_hat = np.exp(t.start_point[p])
        # The prior plays no part: at sigma_hat the likelihood has unit
        # curvature in every coefficient direction of w.
        np.testing.assert_allclose(A[:p, :p].T @ data.X.T @ data.X @ A[:p, :p],
                                   sigma_hat ** 2 * np.eye(p), atol=1e-12)
        assert np.array_equal(A[:p, :p], np.triu(A[:p, :p]))
        assert not A[p, :p].any() and not A[:p, p].any()
        assert A[p, p] == np.exp(-3 / np.sqrt(2 * n)) / np.sqrt(2 * n)
        assert view.s_min == pytest.approx(np.linalg.svd(A)[1].min(), rel=1e-14)
        assert view.dim == t.dim and np.array_equal(view.start_point,
                                                    np.zeros(p + 1))
        assert np.array_equal(view.to_posterior(view.start_point), t.start_point)

    def test_values_and_gradients(self):
        data = random_data(n=30, p=3, seed=8)
        t = PosteriorTarget(data, [None, CoefficientPrior(1.0, 3.0, LPTN(0.95)),
                                   None])
        view = t.whitened()
        w = np.random.default_rng(2).normal(size=(5, 4))
        q = view.to_posterior(w)
        np.testing.assert_array_equal(q, t.start_point + w @ view.A.T)
        np.testing.assert_array_equal(view.logpdf(w), t.logpdf(q))
        grad = view.grad_logpdf(w)
        np.testing.assert_array_equal(grad, t.grad_logpdf(q) @ view.A)
        value, fused = view.logpdf_and_grad(w)
        np.testing.assert_array_equal(value, view.logpdf(w))
        np.testing.assert_array_equal(fused, grad)
        h = 1e-6
        for k in range(4):
            e = h * np.eye(4)[k]
            fd = (view.logpdf(w + e) - view.logpdf(w - e)) / (2 * h)
            np.testing.assert_allclose(grad[:, k], fd, rtol=1e-5, atol=1e-5)

    def test_rank_deficient_design_adds_prior_scales(self):
        # A duplicated column has X^T X singular; only there the located
        # columns' lam^2 joins the diagonal before factoring.
        data = random_data(seed=6)
        dup = RegressionData(y=data.y, X=np.column_stack([data.X, data.X[:, 2]]))
        prior = CoefficientPrior(0.0, 2.0, Normal())
        t = PosteriorTarget(dup, [None, None, prior, prior])
        A = t.whitened().A[:4, :4]
        gram = dup.X.T @ dup.X + np.diag([0.0, 0.0, 4.0, 4.0])
        sigma_hat = np.exp(t.start_point[4])
        np.testing.assert_allclose(A.T @ gram @ A, sigma_hat ** 2 * np.eye(4),
                                   atol=1e-12)
