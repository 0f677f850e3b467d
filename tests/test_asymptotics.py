"""Limit-claim diagnostics: prior ratios, traces, marginal convergence."""

import numpy as np
import pytest

from robustpriors.asymptotics import (ConflictPath, RatioSeries,
                                      _conflict_limit, _limit_target,
                                      _limiting_sigma_posterior,
                                      lptn_scaling_trace,
                                      marginal_ratio_convergence,
                                      posterior_limit_convergence,
                                      prior_ratio)
from robustpriors import cli
from robustpriors.model import SigmaPrior, reduced_target
from robustpriors.oracle import quadrature_moments
from robustpriors.priors import CTN, LPTN, Normal, Student
from robustpriors.specfun import normal_pdf

N = 100
LOCATION = ConflictPath(b=1.0)
SCALING = ConflictPath(a=0.5, c=1.0, d=1.0)


def scaled_over_unscaled(family, lam, sigma, beta, mu):
    # The prior's scaled density along a location drift over its unscaled
    # density at the drifted location, s g(s (beta - mu)) / g(mu), formed in
    # log space: the ratio without its sigma^k trace.
    s = lam / sigma
    return np.exp(np.log(s) + family.log_density(s * (beta - mu))
                  - family.log_density(mu))


class TestConflictPath:
    def test_derived_sets(self):
        p = ConflictPath(a=1.0, b=2.0, c=1.0, d=0.0)
        assert p.conflicts_location and not p.conflicts_scaling
        assert p.mu(3.0) == 7.0 and p.lam(3.0) == 1.0

    def test_mutual_exclusion(self):
        with pytest.raises(ValueError, match="exclusive"):
            ConflictPath(b=1.0, d=1.0)

    def test_positivity(self):
        with pytest.raises(ValueError):
            ConflictPath(c=0.0)
        with pytest.raises(ValueError):
            ConflictPath(d=-0.5)

    @pytest.mark.parametrize("field", ["a", "b", "c", "d"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_finite(self, field, value):
        # A NaN d would otherwise read as a path with no conflict.
        with pytest.raises(ValueError, match="must be finite"):
            ConflictPath(**{field: value})


class TestRatioSeries:
    def test_validation(self):
        with pytest.raises(ValueError, match="increasing"):
            RatioSeries(np.array([1.0, 1.0]), np.array([1.0, 1.0]), "x")
        with pytest.raises(ValueError, match="positive"):
            RatioSeries(np.array([1.0, 2.0]), np.array([1.0, -1.0]), "x")

    def test_tail_monotonicity_helper(self):
        s = RatioSeries(np.array([1.0, 2.0, 3.0, 4.0]),
                        np.array([2.0, 1.5, 1.2, 1.1]), "x")
        assert s.tail_nonincreasing()
        # Every series tends to 1: its error is the distance from 1.
        np.testing.assert_array_equal(
            RatioSeries([1.0, 2.0], [0.75, 1.5], "x").abs_err, [0.25, 0.5])


class TestPriorRatio:
    @pytest.mark.parametrize("beta", [np.nan, np.inf])
    def test_rejects_non_finite_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be finite"):
            prior_ratio(LOCATION, Student(4.0), beta)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive"):
            prior_ratio(LOCATION, Student(4.0), 1.0, sigma=sigma)

    def test_unsupported_pairs_raise(self):
        for path, family in ((LOCATION, Normal()), (SCALING, LPTN(0.95)),
                             (SCALING, Student(4.0)),
                             (ConflictPath(a=0.5), CTN(0.98))):
            with pytest.raises(ValueError):
                prior_ratio(path, family, 1.0)


class TestStudentRatio:
    # The ratio over (sigma/lam)^gamma, so its limit is 1.
    def test_limit_value(self):
        s = prior_ratio(ConflictPath(b=1.0, c=2.0), Student(4.0), 0.0)
        assert s.abs_err[-1] == abs(s.ratio[-1] - 1.0) < 0.01
        plain = scaled_over_unscaled(Student(4.0), 2.0, 1.0, 0.0, s.omega)
        np.testing.assert_allclose(s.ratio, plain / 0.0625, rtol=1e-13)

    def test_equal_scales_limit_one(self):
        for gamma in (1.0, 4.0, 10.0):
            s = prior_ratio(ConflictPath(b=1.0, c=1.3), Student(gamma), 0.5,
                            sigma=1.3)
            assert s.ratio[-1] == pytest.approx(1.0, rel=1e-6)

    def test_cauchy_case(self):
        # The unscaled ratio tends to sigma/lam = 2.
        s = prior_ratio(LOCATION, Student(1.0), 0.0, sigma=2.0)
        assert s.ratio[-1] == pytest.approx(1.0, rel=1e-6)
        plain = scaled_over_unscaled(Student(1.0), 1.0, 2.0, 0.0, s.omega)
        np.testing.assert_allclose(s.ratio, plain / 2.0, rtol=1e-13)

    def test_grid_family_within_one_percent(self):
        for lam in (0.5, 1.0, 2.0):
            for sig in (0.5, 1.0, 2.0):
                for gamma in (1.0, 4.0, 10.0):
                    family = Student(gamma)
                    s = prior_ratio(ConflictPath(b=1.0, c=lam), family, 1.0,
                                    sigma=sig)
                    assert s.abs_err[-1] < 0.01
                    assert s.tail_nonincreasing()
                    plain = scaled_over_unscaled(family, lam, sig, 1.0,
                                                  s.omega)
                    np.testing.assert_allclose(
                        s.ratio, plain / (sig / lam) ** gamma, rtol=1e-13)


class TestLptnRatio:
    def test_reference_case(self):
        s = prior_ratio(LOCATION, LPTN(0.95), 1.0,
                        omega_grid=[1e4, 1e6, 1e8])
        err = s.abs_err
        assert err[0] > err[1] > err[2]
        assert err[2] < 0.05

    def test_beta_zero_closed_form(self):
        # With beta = 0 the leading |mu|/|beta-mu| factor is exactly 1 and
        # the ratio reduces to (log mu / log((lam/sigma) mu))^theta.
        fam = LPTN(0.95)
        lam, sig = 2.0, 1.0
        mu = np.array([1e3, 1e6])
        s = prior_ratio(ConflictPath(b=1.0, c=lam), fam, 0.0, sigma=sig,
                        omega_grid=mu)
        manual = (np.log(mu) / np.log(lam / sig * mu)) ** fam.theta
        np.testing.assert_allclose(s.ratio, manual, rtol=1e-12)

    def test_identical_arguments_exactly_one(self):
        s = prior_ratio(LOCATION, LPTN(0.95), 0.0, omega_grid=[10.0, 100.0])
        np.testing.assert_array_equal(s.ratio, 1.0)

    def test_scaled_over_unscaled_bit_for_bit(self):
        # k = 0: the ratio is the scaled density over the unscaled one.
        for lam, sig, beta in ((1.0, 1.0, 1.0), (2.0, 0.7, -3.0),
                               (0.5, 2.0, 0.25)):
            s = prior_ratio(ConflictPath(b=1.0, c=lam), LPTN(0.95), beta,
                            sigma=sig)
            assert np.array_equal(s.ratio, scaled_over_unscaled(
                LPTN(0.95), lam, sig, beta, s.omega))


class TestScalingTrace:
    def test_frozen_companion_values(self):
        # Recorded from this oracle at rho = 0.95, delta = 0.5 (the claimed
        # convergence is slow: still ~23% high at lam = 1e6, ~11% at 1e12).
        tr = lptn_scaling_trace(0.5, 0.0, 1.0, 0.95,
                                lam_grid=np.logspace(1, 12, 12))
        assert tr.companion.ratio[5] == pytest.approx(1.2339083, abs=1e-6)
        assert tr.companion.ratio[11] == pytest.approx(1.1093132, abs=1e-6)
        assert np.all(np.diff(tr.companion.abs_err) < 0)

    def test_inverse_distance_shape(self):
        # density ~ 1/|beta - mu| at fixed large lam: doubling the offset
        # halves the density.  The residual log(delta)/log(lam) factor decays
        # so slowly that lam = 1e30 is needed before the 5% band is reached
        # (at 1e8 the ratio is still 2.34).
        t1 = lptn_scaling_trace(0.5, 0.0, 1.0, 0.95, lam_grid=[1e30])
        t2 = lptn_scaling_trace(1.0, 0.0, 1.0, 0.95, lam_grid=[1e30])
        assert t1.density[0] / t2.density[0] == pytest.approx(2.0, rel=0.05)
        t1_8 = lptn_scaling_trace(0.5, 0.0, 1.0, 0.95, lam_grid=[1e8])
        t2_8 = lptn_scaling_trace(1.0, 0.0, 1.0, 0.95, lam_grid=[1e8])
        assert t1_8.density[0] / t2_8.density[0] == pytest.approx(2.339, abs=0.01)

    def test_asymptote_scales_exactly(self):
        t1 = lptn_scaling_trace(0.5, 0.0, 1.0, 0.95, lam_grid=[1e6])
        t2 = lptn_scaling_trace(1.0, 0.0, 1.0, 0.95, lam_grid=[1e6])
        assert t1.asymptote[0] == pytest.approx(2.0 * t2.asymptote[0], rel=1e-12)

    def test_degenerate_input(self):
        with pytest.raises(ValueError, match="degenerate"):
            lptn_scaling_trace(0.5, 0.5, 1.0, 0.95)


class TestCtnLimit:
    def test_location_exact_beyond_threshold(self):
        # All grid points exceed kappa ~ 2.33, so equality is exact.
        for lam, sig in ((1.0, 1.0), (2.0, 0.7)):
            s = prior_ratio(ConflictPath(b=1.0, c=lam), CTN(0.98), 0.0,
                            sigma=sig)
            assert np.all(s.ratio == 1.0)

    def test_scaling_exact_beyond_threshold(self):
        # lam(omega) = 1 + omega; |beta - mu| = 0.5 passes kappa once
        # lam > 2 kappa sigma.
        fam = CTN(0.98)
        for sig in (1.0, 0.7):
            first = 2.0 * fam.kappa * sig - 1.0 + 0.01
            s = prior_ratio(SCALING, fam, 0.0, sigma=sig,
                            omega_grid=[first, 100.0, 1e6])
            assert np.all(s.ratio == 1.0)

    def test_interior_point(self):
        fam = CTN(0.98)
        s = prior_ratio(SCALING, fam, 0.0, omega_grid=[0.0, 1.0])
        z = np.array([0.5, 1.0])
        expected = normal_pdf(z) / normal_pdf(fam.kappa)
        np.testing.assert_allclose(s.ratio, expected, rtol=1e-12)
        assert np.all(s.ratio > 1.0)

    def test_degenerate_scaling(self):
        # The prior stays centred on beta, so its argument never moves.
        with pytest.raises(ValueError, match="degenerate"):
            prior_ratio(SCALING, CTN(0.98), 0.5)


class TestMarginalRatio:
    def test_ctn_path_converges(self):
        mr = marginal_ratio_convergence(
            ConflictPath(a=0.5, c=1.0, d=1.0), CTN(0.98),
            omega_grid=[1.0, 10.0, 100.0], quad_tol=1e-9)
        assert abs(mr.ratio[-1] - 1.0) < 1e-3
        assert mr.tail_nonincreasing()

    def test_lptn_path_monotone(self):
        mr = marginal_ratio_convergence(
            ConflictPath(a=0.0, b=1.0, c=1.0), LPTN(0.95),
            omega_grid=[10.0, 100.0, 1000.0], quad_tol=1e-9)
        assert np.all(np.diff(np.abs(mr.ratio - 1.0)) < 0)

    def test_no_conflict_raises(self):
        # A path with no conflict has no limit, as in every other walk.
        with pytest.raises(ValueError, match="no conflict"):
            marginal_ratio_convergence(
                ConflictPath(a=0.5, c=1.0), LPTN(0.95),
                omega_grid=[1.0, 10.0, 100.0])

    def test_doubled_precision_agreement(self):
        path = ConflictPath(a=0.5, c=1.0, d=1.0)
        coarse = marginal_ratio_convergence(path, CTN(0.98),
                                            omega_grid=[1.0, 10.0],
                                            quad_tol=1e-8)
        fine = marginal_ratio_convergence(path, CTN(0.98),
                                          omega_grid=[1.0, 10.0],
                                          quad_tol=1e-10)
        assert np.max(np.abs(coarse.ratio - fine.ratio)) < 1e-4

    def test_family_path_mismatch(self):
        with pytest.raises(ValueError):
            marginal_ratio_convergence(ConflictPath(a=0.5, c=1.0, d=1.0),
                                       LPTN(0.95))
        with pytest.raises(ValueError):
            marginal_ratio_convergence(ConflictPath(b=1.0), Normal())

    def test_condition_warning(self):
        # The reduced p = 1 targets always satisfy the sufficient condition
        # (n >= 4 implies n + 0 >= 2p + 1 + 1), so exercise the guard
        # directly at an infeasible size.
        from robustpriors.asymptotics import _check_limit_condition
        with pytest.warns(UserWarning, match="sample-size"):
            _check_limit_condition(3, 1, 1)


class TestPosteriorLimit:
    def test_limit_targets(self):
        # Each regime's limit is the flat-prior target times its sigma trace.
        location = ConflictPath(b=1.0, c=1.0)
        assert _limit_target(location, LPTN(0.95), N).priors == [None]
        ctn_limit = _limit_target(ConflictPath(a=0.5, c=1.0, d=1.0),
                                  CTN(0.98), N)
        assert ctn_limit.priors == [None]
        # Jeffreys' sigma^-1 times the trace sigma^k: k = -1 for CTN, gamma
        # for Student.
        assert isinstance(ctn_limit.sigma_prior, SigmaPrior)
        assert ctn_limit.sigma_prior.power + 1 == -1
        student = _limit_target(location, Student(4.0), N)
        assert student.sigma_prior.power + 1 == 4
        # The prior's density is read at the drifted location, or at kappa
        # in a scaling conflict.
        assert _conflict_limit(location, CTN(0.98)) == (-1, location.mu)
        k, ref = _conflict_limit(SCALING, CTN(0.98))
        assert (k, ref(1e4)) == (-1, CTN(0.98).kappa)

    def test_family_path_mismatch(self):
        for path, family in ((ConflictPath(a=0.5, c=1.0, d=1.0), LPTN(0.95)),
                             (ConflictPath(b=1.0, c=1.0), Normal()),
                             (ConflictPath(a=0.5, c=1.0), LPTN(0.95))):
            with pytest.raises(ValueError):
                posterior_limit_convergence(path, family, omega_grid=[1.0])

    def test_series_tend_to_one(self):
        path = ConflictPath(b=1.0, c=1.0)
        grid = [10.0, 100.0, 1000.0]
        lptn = posterior_limit_convergence(path, LPTN(0.95), omega_grid=grid)
        student = posterior_limit_convergence(path, Student(4.0),
                                              omega_grid=grid)
        for s in (lptn, student):
            assert s.tail_nonincreasing()
        # Student tails shed their conflict polynomially, log-Pareto tails
        # log-slowly; each against its own limit.
        assert student.abs_err[-1] < 1e-8 < lptn.abs_err[-1] < 0.01
        # Constant tails past kappa: the prior's factor is exactly its law,
        # so both series equal 1 up to rounding.
        for walk in (posterior_limit_convergence, marginal_ratio_convergence):
            ctn = walk(path, CTN(0.98), omega_grid=grid)
            assert np.all(ctn.abs_err < 1e-12)

    def test_non_integral_student_trace(self):
        # The sigma^2.5 trace of Student(2.5): errors about 8e-6, 8e-8 and
        # 8e-10 over the grid.
        path = ConflictPath(b=1.0, c=1.0)
        assert _limit_target(path, Student(2.5), N).sigma_prior.power + 1 == 2.5
        s = posterior_limit_convergence(path, Student(2.5),
                                        omega_grid=[10.0, 100.0, 1000.0])
        assert s.tail_nonincreasing() and s.abs_err[-1] < 1e-8

    def test_one_rule_for_every_limit(self):
        location = ConflictPath(b=1.0, c=1.0)
        scaling = ConflictPath(a=0.5, c=1.0, d=1.0)
        for path, family in ((location, LPTN(0.95)), (location, Student(4.0)),
                             (location, Student(2.5)), (location, CTN(0.98)),
                             (scaling, CTN(0.98))):
            # The limit keeps Jeffreys' sigma^-1 times its sigma^k trace.
            k = _limit_target(path, family, N).sigma_prior.power + 1
            assert _limiting_sigma_posterior(path, family, N) == (
                (N - k - 2) / 2, N / 2)
        # Student's marginal over g(mu) (lam sqrt(n))^-gamma tends to 1,
        # about 1.1, 1.001, 1.00001 and 1.0000001 here.
        student = marginal_ratio_convergence(
            location, Student(4.0), omega_grid=[10.0, 100.0, 1000.0, 1e4])
        assert np.all(np.diff(student.abs_err) < 0)
        assert student.abs_err[-1] < 1e-6
        for path, family in ((location, Normal()), (scaling, Normal()),
                             (scaling, LPTN(0.95)),
                             (ConflictPath(a=0.5, c=1.0), LPTN(0.95)),
                             (ConflictPath(a=0.5, c=1.0), CTN(0.98))):
            for call in (_limit_target, _limiting_sigma_posterior):
                with pytest.raises(ValueError):
                    call(path, family, N)
            for walk in (marginal_ratio_convergence,
                         posterior_limit_convergence):
                with pytest.raises(ValueError):
                    walk(path, family, omega_grid=[1.0])


class TestSummaryComparison:
    # Posterior means along conflict paths, next to their limits.
    def test_location_resolution_speed(self):
        # At omega = 10 the log-Pareto prior has mostly let go of the
        # conflicting location while the Student prior still pulls.
        lptn, student = (quadrature_moments(
            reduced_target(N, mu2=10.0, lambda2=1.0, family=family),
            tol=1e-9) for family in (LPTN(0.95), Student(4.0)))
        assert abs(lptn.mean) < abs(student.mean)
        limit = quadrature_moments(reduced_target(N, family=None), tol=1e-9)
        assert limit.mean == pytest.approx(0.0, abs=1e-6)

    def test_ctn_scaling_resolution(self):
        # ConflictPath(a=0.5, c=1.0, d=1.0) at omega = 10.
        res = quadrature_moments(
            reduced_target(N, mu2=0.5, lambda2=11.0, family=CTN(0.98)),
            tol=1e-9)
        limit = quadrature_moments(
            reduced_target(N, family=None, sigma_power=-1), tol=1e-9)
        assert abs(res.mean - limit.mean) < 0.05

    def test_normal_prior_never_resolves(self):
        # Conjugate posterior mean mu2 * lam^2/(1+lam^2) = omega/2: the
        # compromise drifts linearly with the conflict, no rejection.
        means = [quadrature_moments(
            reduced_target(N, mu2=omega, lambda2=1.0, family=Normal()),
            tol=1e-9).mean for omega in (2.0, 4.0)]
        np.testing.assert_allclose(means, [1.0, 2.0], atol=1e-6)


class TestSeriesCsv:
    def test_format(self, tmp_path, monkeypatch):
        # `check` writes its series as one claim,omega,ratio,abs_err table
        # in claim order, with one "# <claim>: <label>" line per claim.
        s = prior_ratio(ConflictPath(b=1.0, c=2.0), Student(4.0), 0.0,
                        omega_grid=[10.0, 100.0])
        t = RatioSeries([1.0, 10.0, 100.0], [1.5, 1.25, 1.0], family="ctn")
        monkeypatch.setattr(cli, "_check_claims", lambda args: iter(
            [("b_claim", 0.0, 1.0, True, s), ("a_claim", 0.0, 1.0, True, t)]))
        out = tmp_path / "check.csv"
        assert cli.main(["check", "--out", str(out)]) == cli.EXIT_OK
        lines = (tmp_path / "check_series.csv").read_text().splitlines()
        assert lines[-8:-6] == [
            "# b_claim: prior ratio at beta=0.0 sigma=1.0: Student(gamma=4.0) "
            "along ConflictPath(a=0.0, b=1.0, c=2.0, d=0.0)",
            "# a_claim: ctn"]
        assert lines[-6] == "claim,omega,ratio,abs_err"
        assert [line.split(",")[:2] for line in lines[-5:]] == [
            ["b_claim", "10.0"], ["b_claim", "100.0"], ["a_claim", "1.0"],
            ["a_claim", "10.0"], ["a_claim", "100.0"]]
        assert lines[-3:] == ["a_claim,1.0,1.5,0.5", "a_claim,10.0,1.25,0.25",
                              "a_claim,100.0,1.0,0.0"]
