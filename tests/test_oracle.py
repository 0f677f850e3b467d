"""Closed forms and the adaptive quadrature engine."""

import numpy as np
import pytest

from robustpriors.model import PowerAdjustedSigma, reduced_target
from robustpriors.oracle import (NumericalError, conjugate_posterior,
                                 inverse_gamma_mean, inverse_gamma_sd,
                                 jeffreys_benchmark, limiting_reduced_target,
                                 limiting_sigma_posterior,
                                 limiting_target_ctn, limiting_target_resolved,
                                 quadrature_moments)
from robustpriors.priors import CTN, LPTN, Normal, Student

N = 100


class TestConjugate:
    def test_centered(self):
        res = conjugate_posterior(N, 0.0, 1.0)
        assert res.beta_mean == 0.0
        assert res.beta_variance == pytest.approx(0.5 / 98, rel=1e-12)

    def test_conflicting_location(self):
        res = conjugate_posterior(N, 2.0, 1.0)
        assert res.beta_mean == pytest.approx(1.0, rel=1e-12)
        assert res.beta_variance == pytest.approx(0.5 * 3 / 98, rel=1e-12)
        assert res.sigma_sq_shape == 50.0
        assert res.sigma_sq_scale == pytest.approx(150.0, rel=1e-12)

    def test_vanishing_scale_pull(self):
        res = conjugate_posterior(N, 7.0, 1e-8)
        assert abs(res.beta_mean) < 1e-12

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            conjugate_posterior(2, 0.0, 1.0)


class TestJeffreysBenchmark:
    def test_values(self):
        assert jeffreys_benchmark(N) == (0.0, pytest.approx(1 / 97))
        assert jeffreys_benchmark(4) == (0.0, pytest.approx(1.0))

    def test_improper(self):
        with pytest.raises(ValueError):
            jeffreys_benchmark(3)


class TestLimitingSigma:
    def test_paper_values(self):
        assert limiting_sigma_posterior(N, Student(4)) == (47.0, 50.0)
        assert limiting_sigma_posterior(N, LPTN(0.95)) == (49.0, 50.0)
        assert limiting_sigma_posterior(N, CTN(0.98)) == (49.5, 50.0)

    def test_no_limit_for_normal(self):
        with pytest.raises(ValueError):
            limiting_sigma_posterior(N, Normal())

    def test_nonpositive_shape(self):
        with pytest.raises(ValueError):
            limiting_sigma_posterior(5, Student(4))

    def test_ig_moment_helpers(self):
        assert inverse_gamma_mean(49.0, 50.0) == pytest.approx(50 / 48)
        assert inverse_gamma_sd(49.0, 50.0) == pytest.approx(
            50 / (48 * np.sqrt(47)))
        with pytest.raises(ValueError):
            inverse_gamma_mean(1.0, 1.0)

    def test_quadrature_cross_check(self):
        # The flat-prior reduced posterior is the whole-robustness limit of
        # the location-conflicted LPTN target.  Its exact sigma^2 law is
        # inverse-gamma with shape (n-1)/2: one half above the quoted
        # (n-2)/2, which reads the sigma-marginal kernel directly in
        # sigma^2.  The first moments of the two conventions differ by ~1%.
        res = quadrature_moments(reduced_target(N, family=None))
        shape, scale = limiting_sigma_posterior(N, LPTN(0.95))
        exact = inverse_gamma_mean(shape + 0.5, scale)
        assert res.sigma_sq_mean == pytest.approx(exact, rel=1e-8)
        assert res.sigma_sq_mean == pytest.approx(
            inverse_gamma_mean(shape, scale), rel=0.015)
        assert res.sigma_sq_sd == pytest.approx(
            inverse_gamma_sd(shape + 0.5, scale), rel=1e-6)


class TestQuadrature:
    def test_jeffreys_benchmark(self):
        res = quadrature_moments(reduced_target(N, family=None))
        mean, var = jeffreys_benchmark(N)
        assert abs(res.mean - mean) < 1e-6
        assert res.variance == pytest.approx(var, rel=1e-3)
        assert res.sigma_sq_mean == pytest.approx(N / (N - 3), rel=1e-8)

    @pytest.mark.parametrize("mu2", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("lam2", [0.5, 1.0, 2.0])
    def test_matches_conjugate_closed_form(self, mu2, lam2):
        res = quadrature_moments(reduced_target(N, mu2, lam2, Normal()))
        ref = conjugate_posterior(N, mu2, lam2)
        assert abs(res.mean - ref.beta_mean) < 1e-4
        assert res.variance == pytest.approx(ref.beta_variance, rel=1e-3)
        # sigma^2 moments against the exact inverse-gamma law
        assert res.sigma_sq_mean == pytest.approx(
            inverse_gamma_mean(ref.sigma_sq_shape, ref.sigma_sq_scale),
            rel=1e-6)
        assert res.sigma_sq_sd == pytest.approx(
            inverse_gamma_sd(ref.sigma_sq_shape, ref.sigma_sq_scale),
            rel=1e-5)

    def test_grid_convergence(self):
        t = reduced_target(N, 2.0, 1.0, LPTN(0.95))
        a = quadrature_moments(t, tol=1e-8)
        b = quadrature_moments(t, tol=1e-10)
        assert abs(a.mean - b.mean) < 1e-5

    def test_lptn_regression_value(self):
        # Regression value recorded from this oracle (cross-checked against
        # an independent scipy.dblquad evaluation: 0.012575).
        res = quadrature_moments(reduced_target(N, 2.0, 1.0, LPTN(0.95)))
        assert res.mean == pytest.approx(0.012575, abs=2e-4)
        assert abs(res.mean) < 0.05

    def test_ctn_spike_target(self):
        # lambda2 = 101 concentrates the prior spike to width ~2e-3 around
        # mu2; the posterior must still integrate cleanly.
        res = quadrature_moments(reduced_target(N, 0.5, 101.0, CTN(0.98)))
        assert abs(res.mean) < 0.01

    @pytest.mark.parametrize("lam2", [10.0, 100.0])
    def test_concentrated_prior(self, lam2):
        # The posterior collapses to a sliver around the conjugate mean;
        # mode-centered panel edges keep the refinement honest.
        res = quadrature_moments(reduced_target(N, 0.5, lam2, Normal()))
        ref = conjugate_posterior(N, 0.5, lam2)
        assert abs(res.mean - ref.beta_mean) < 1e-6
        assert res.variance == pytest.approx(ref.beta_variance, rel=1e-6)

    def test_deterministic(self):
        t = reduced_target(N, 1.0, 1.0, Student(4))
        a = quadrature_moments(t)
        b = quadrature_moments(t)
        assert a.mean == b.mean and a.log_norm == b.log_norm

    def test_rejects_higher_dimensional_targets(self):
        from robustpriors.model import RegressionData, PosteriorTarget
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(10), rng.normal(size=10)])
        data = RegressionData(y=rng.normal(size=10), X=X)
        t = PosteriorTarget(data, [None, None])
        with pytest.raises(ValueError, match="2-D"):
            quadrature_moments(t)

    def test_integrability_guard(self):
        # sigma^(n+2) against the Jeffreys base leaves sigma^(+1) overall:
        # the density grows without bound as nu -> +inf and box expansion
        # must give up.
        t = reduced_target(N, family=None, sigma_power=N + 2)
        with pytest.raises(NumericalError, match="integrable"):
            quadrature_moments(t)

    def test_panel_budget(self):
        # The budget check runs every round, whatever the running error
        # total says, and reports the summed error of the live panels.
        t = reduced_target(N, 0.5, 3.0, LPTN(0.95))
        with pytest.raises(NumericalError, match="more than 40 panels") as exc:
            quadrature_moments(t, max_panels=40)
        err = float(str(exc.value).rsplit("error ", 1)[1].rstrip(")"))
        assert err > 1e-10

    @pytest.mark.parametrize("family, mu2, lam2", [
        (Student(4), 1.0, 1.0), (LPTN(0.95), 0.5, 1.5)])
    def test_reports_error_and_evaluations(self, family, mu2, lam2):
        tol = 1e-10
        res = quadrature_moments(reduced_target(N, mu2, lam2, family), tol=tol)
        assert 0 < res.error <= tol
        assert res.panels_evaluated >= res.n_panels


class TestPriorKinks:
    # The LPTN and CTN densities kink at |z| = tau (kappa), which in
    # (beta, nu) is the curve beta = mu +/- tau e^nu / lambda: no panel edge
    # follows it, so panels must be split along the axis their error is in.

    def test_lptn_concentrated_scaling_point(self):
        # Splitting along the relatively wider side ran out of its 60,000
        # panels here at the default tol.
        t = reduced_target(N, 0.5, 10.0, LPTN(0.95))
        res = quadrature_moments(t)
        ref = quadrature_moments(t, tol=1e-8)
        assert abs(res.mean - ref.mean) < 1e-6

    def test_lptn_panel_count(self):
        # 12,597 panels when splitting along the relatively wider side.
        res = quadrature_moments(reduced_target(N, 0.5, 1.5, LPTN(0.95)))
        assert res.n_panels < 3000

    @pytest.mark.parametrize("family, lam2", [(LPTN(0.95), 1.5),
                                              (CTN(0.98), 1.0)])
    def test_tolerance_convergence(self, family, lam2):
        t = reduced_target(N, 0.5, lam2, family)
        a = quadrature_moments(t, tol=1e-10)
        b = quadrature_moments(t, tol=1e-12)
        assert abs(a.mean - b.mean) < 1e-9
        assert abs(a.sd - b.sd) < 1e-9


class TestLimitingTargets:
    def test_reduced_limit_is_flat_prior(self):
        bar = limiting_reduced_target(N)
        flat = reduced_target(N, family=None)
        q = np.array([[0.3, 0.1], [0.0, -0.2]])
        np.testing.assert_allclose(bar.logpdf(q), flat.logpdf(q), atol=1e-12)

    def test_ctn_limit_carries_sigma_power(self):
        bar = limiting_reduced_target(N, n_ctn_conflicts=1)
        flat = reduced_target(N, family=None)
        q = np.array([[0.3, 0.1], [0.3, 0.5]])
        diff = bar.logpdf(q) - flat.logpdf(q)
        # extra -nu per conflict
        np.testing.assert_allclose(diff, -q[:, 1], atol=1e-12)

    def test_general_constructors(self):
        from robustpriors.priors import CoefficientPrior
        t = reduced_target(N, 2.0, 1.0, CTN(0.98))
        resolved = limiting_target_resolved(t, [0])
        assert resolved.priors == [None]
        ctn_limit = limiting_target_ctn(t, [0])
        assert isinstance(ctn_limit.sigma_prior, PowerAdjustedSigma)
        assert ctn_limit.sigma_prior.power == -1
