"""Closed forms, the quoted limit laws, and the nested adaptive quadrature."""

import dataclasses
import itertools
import re
import time

import numpy as np
import pytest
from scipy.stats import invgamma

from robustpriors import model, oracle
from robustpriors.asymptotics import (ConflictPath, _limit_target,
                                      _limiting_sigma_posterior)
from robustpriors.cli import default_lambda2_grid, default_mu2_grid
from robustpriors.model import PosteriorTarget, SigmaPrior, reduced_target
from robustpriors.oracle import (NumericalError, conjugate_posterior,
                                 jeffreys_benchmark, quadrature_moments)
from robustpriors.priors import CTN, LPTN, Normal, Student

N = 100
# The location- and scaling-conflict paths of the limit laws.
LOCATION = ConflictPath(b=1.0)
SCALING = ConflictPath(a=0.5, c=1.0, d=1.0)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(ValueError, match="mu2 must be finite"):
            conjugate_posterior(N, bad, 1.0)
        with pytest.raises(ValueError, match="lambda2 must be positive and finite"):
            conjugate_posterior(N, 0.5, bad)


class TestJeffreysBenchmark:
    def test_values(self):
        assert jeffreys_benchmark(N) == (0.0, pytest.approx(1 / 97))
        assert jeffreys_benchmark(4) == (0.0, pytest.approx(1.0))

    def test_improper(self):
        with pytest.raises(ValueError):
            jeffreys_benchmark(3)


class TestLimitingSigma:
    # The quoted far-conflict sigma^2 laws, against the oracle.
    def test_paper_values(self):
        for path, family, shape in ((LOCATION, Student(4), 47.0),
                                    (LOCATION, LPTN(0.95), 49.0),
                                    (SCALING, CTN(0.98), 49.5)):
            assert _limiting_sigma_posterior(path, family, N) == (shape, 50.0)

    def test_no_limit_for_normal(self):
        for path in (LOCATION, SCALING):
            with pytest.raises(ValueError):
                _limiting_sigma_posterior(path, Normal(), N)

    def test_nonpositive_shape(self):
        with pytest.raises(ValueError):
            _limiting_sigma_posterior(LOCATION, Student(4), 5)

    def test_quadrature_cross_check(self):
        # The flat-prior reduced posterior is the whole-robustness limit of
        # the location-conflicted LPTN target.  Its exact sigma^2 law is
        # inverse-gamma with shape (n-1)/2: one half above the quoted
        # (n-2)/2, which reads the sigma-marginal kernel directly in
        # sigma^2.  The first moments of the two conventions differ by ~1%.
        res = quadrature_moments(reduced_target(N, family=None))
        shape, scale = _limiting_sigma_posterior(LOCATION, LPTN(0.95), N)
        exact = invgamma(shape + 0.5, scale=scale).mean()
        assert res.sigma_sq_mean == pytest.approx(exact, rel=1e-8)
        assert res.sigma_sq_mean == pytest.approx(
            invgamma(shape, scale=scale).mean(), rel=0.015)
        assert res.sigma_sq_sd == pytest.approx(
            invgamma(shape + 0.5, scale=scale).std(), rel=1e-6)


def _assert_closed_form(res, mean, sd, law, where):
    # A quadrature result against a closed form: beta's mean and sd, and the
    # sigma^2 law.  The bounds sit two to four times above the largest
    # deviations measured over the default sweep grids and the flat prior's
    # powers of sigma: 1.3e-14, 1.0e-12, 6.0e-15 and 3.8e-13.
    assert abs(res.mean - mean) <= 5e-14, where
    assert res.sd == pytest.approx(sd, rel=2e-12, abs=0), where
    assert res.sigma_sq_mean == pytest.approx(law.mean(), rel=2e-14,
                                              abs=0), where
    assert res.sigma_sq_sd == pytest.approx(law.std(), rel=1e-12,
                                            abs=0), where


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
        law = invgamma(ref.sigma_sq_shape, scale=ref.sigma_sq_scale)
        assert res.sigma_sq_mean == pytest.approx(law.mean(), rel=1e-6)
        assert res.sigma_sq_sd == pytest.approx(law.std(), rel=1e-5)

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
        # the inner integral over beta is the normal product's closed form.
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

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
    def test_rejects_bad_tolerance(self, tol):
        # Such a tol would spend the whole panel budget before failing.
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            quadrature_moments(reduced_target(N, 0.5, 1.0, Student(4)), tol=tol)

    def test_integrability_guard(self):
        # sigma^(n+2) against the Jeffreys base leaves sigma^(+1) overall:
        # the density grows without bound as nu -> +inf, and the range's
        # closed form says so.
        t = reduced_target(N, family=None, sigma_power=N + 2)
        with pytest.raises(NumericalError, match="integrable"):
            quadrature_moments(t)

    @pytest.mark.parametrize("mu2, lam2, sigma_power, integral", [
        (0.5, 1.0, 100, "f"), (0.5, 1.0, 97, "e^{4nu} f (sigma^4)"),
        (1.0, 1.0, 0, "f")])
    def test_panel_budget_names_integral(self, mu2, lam2, sigma_power,
                                         integral):
        # sigma^100 against the Jeffreys base leaves the nu marginal flat,
        # so the posterior is improper; sigma^97 leaves sigma^2's variance
        # infinite.  The range's closed form names the integral that
        # diverges, at once, whatever the family.  A finite target stopped
        # early by the budget names the one with most error left: this one
        # starts from 6 nu panels, where f carries 4.3e-13, sigma^4 1.7e-13.
        t = reduced_target(N, mu2, lam2, CTN(0.98), sigma_power=sigma_power)
        with pytest.raises(NumericalError) as exc:
            quadrature_moments(t, tol=1e-13, max_panels=5)
        assert f"the integral of {integral} carries" in str(exc.value)

    def test_divergent_moment_fails_fast(self):
        # sigma^2 ~ IG(1.5, 2) has a mean but no variance.
        with pytest.raises(NumericalError,
                           match=r"integral of e\^\{4nu\} f \(sigma\^4\)"):
            quadrature_moments(reduced_target(4, family=None))

    @pytest.mark.parametrize("k, integral", [
        (95, "e^{4nu} f (sigma^4)"), (96.5, "e^{4nu} f (sigma^4)"),
        (97, "beta^2 f"), (98.5, "beta f"), (99, "f")])
    def test_divergence_is_an_exact_rule(self, k, integral, monkeypatch):
        # Under the flat prior sigma^k leaves integral j's nu integrand
        # proportional to sigma^(k - n + 1 + P_j) e^{-RSS / (2 sigma^2)},
        # P = (0, 1, 2, 2, 4): it exists iff k < n - 1 - P_j.  The first
        # that does not is named before any inner integral is taken.
        def no_inner(*args):
            raise AssertionError("an inner pass ran")

        monkeypatch.setattr(oracle._Factors, "inner", no_inner)
        with pytest.raises(NumericalError, match=re.escape(
                f"the integral of {integral} carries infinite mass as "
                f"sigma -> inf")):
            quadrature_moments(reduced_target(N, family=None, sigma_power=k))

    def test_barely_convergent_moment_fails_fast(self):
        # sigma^(95 - 1e-5) leaves sigma^4's nu integrand falling off as
        # e^{-1e-5 nu}: it converges, but its range would reach ~3e6 in nu.
        with pytest.raises(NumericalError, match=re.escape(
                "the integral of e^{4nu} f (sigma^4) carries mass more than "
                "1e6")):
            quadrature_moments(
                reduced_target(N, family=None, sigma_power=95 - 1e-5))

    @pytest.mark.parametrize("k", [-1, 0, 0.5, 1, 2.5, 4, 20, 60, 94.5])
    def test_flat_prior_sigma_power_law(self, k):
        # Next to the rule's edge, too: at k = 94.5 sigma^4's nu integrand
        # falls off only as e^{-nu/2}.  sigma^2 is exactly inverse-gamma
        # ((n - k - 1) / 2, RSS / 2), and beta given sigma^2 is normal about
        # beta_hat with variance sigma^2 / a.
        t = reduced_target(N, family=None, sigma_power=k)
        fac = oracle._Factors(t)
        law = invgamma((N - k - 1) / 2, scale=fac.rss / 2)
        _assert_closed_form(quadrature_moments(t), fac.beta_hat,
                            np.sqrt(law.mean() / fac.a), law, k)

    @pytest.mark.parametrize("family", [
        Normal(), Student(4), LPTN(0.95), CTN(0.98), None],
        ids=["normal", "student", "lptn", "ctn", "flat"])
    def test_range_ends_are_negligible(self, family):
        # At both first edges each nu integrand is at most 1e-12 of the
        # largest value, on a fine grid between them, of the same integrand
        # with f's inner integral in place of its own: for f, sigma^2 and
        # sigma^4 that is the integrand itself; tol counts beta's moments
        # in those units too.  Every target whose moments all exist
        # (k < n - 4; n - 5 under the flat prior), in location and scaling
        # conflict.
        for n, k, (mu2, lam2) in itertools.product(
                (5, 20, 100, 1000), (0, -1, 0.5, 4),
                ((5.0, 1.0), (0.5, 10.0), (2.0, 0.3))):
            if k >= n - 4 - (family is None):
                continue
            fac = oracle._Factors(
                reduced_target(n, mu2, lam2, family, sigma_power=k))
            edges = fac.nu_panels()[0]
            nu = np.linspace(edges[0], edges[-1], 2001)
            log_cols, ints, _ = fac.nu_values(nu, 0.0)
            with np.errstate(divide="ignore"):
                log_vals = log_cols + np.log(np.abs(ints))
            top = np.max(log_cols + np.log(ints[:, :1]), axis=0)
            assert np.all(log_vals[[0, -1]] <= top - np.log(1e12)), (n, k, mu2)

    def test_panel_budget(self):
        # The budget check runs after every round and reports the summed
        # error of the live panels.  At tol 1e-12 this target starts from
        # 27 nu panels, then holds 32, and needs 39, so one refinement round
        # runs first.
        tol = 1e-12
        t = reduced_target(5, 3.0, 5.0, Student(1.0))
        assert len(oracle._Factors(t).nu_panels()[0]) - 1 <= 30
        with pytest.raises(NumericalError, match="more than 30 panels") as exc:
            quadrature_moments(t, tol=tol, max_panels=30)
        err = float(str(exc.value).rsplit("error ", 1)[1].rstrip(")"))
        assert err > tol

    def test_inner_limit_names_integral(self, monkeypatch):
        # Inner integrals refined as far as they go end in the budget's
        # error, naming the integral with most error left.  At tol 1e-13
        # this diffuse target needs them below the noise of rounding (f
        # carries 1.0e-8, beta^2 f 6.2e-9, over its 26 first panels); with at
        # most 8 intervals at a nu node, the default tol is out of reach here
        # (sigma^4 carries 5.0e-10, sigma^2 4.4e-10).
        with pytest.raises(NumericalError, match=(
                r"cannot refine its inner integrals over beta enough to reach"
                r" tol=1e-13; the integral of f carries")):
            quadrature_moments(reduced_target(5, 3.0, 1.0, Student(1.0)),
                               tol=1e-13)
        monkeypatch.setattr(oracle, "_INNER_INTERVALS", 8)
        with pytest.raises(NumericalError, match=(
                r"inner integrals over beta enough to reach tol=1e-10; the "
                r"integral of e\^\{4nu\} f \(sigma\^4\) carries")):
            quadrature_moments(reduced_target(N, 1.0, 1.0, Student(4)))

    @pytest.mark.parametrize("n, mu2, lam2", [
        (1000, 10.0, 1.0), (1000, 10.0, 3.0), (1000, 10.0, 10.0),
        (1000, 30.0, 0.3), (100, 30.0, 0.3)])
    def test_large_sigma_conflict(self, n, mu2, lam2):
        # The normal prior does not resolve the conflict: sigma^2 is 51 to
        # 101, and the sigma^4 integral is thousands of times f's.  Against
        # the peak of f's nu integrand rather than of f, tol would ask it
        # for an accuracy near rounding, out of reach in 30 s.
        start = time.perf_counter()
        res = quadrature_moments(reduced_target(n, mu2, lam2, Normal()))
        assert time.perf_counter() - start < 2.0
        ref = conjugate_posterior(n, mu2, lam2)
        shape, scale = ref.sigma_sq_shape, ref.sigma_sq_scale
        assert abs(res.mean - ref.beta_mean) < 1e-9
        assert res.sd == pytest.approx(np.sqrt(ref.beta_variance), rel=1e-7)
        assert res.sigma_sq_mean == pytest.approx(
            invgamma(shape, scale=scale).mean(), rel=1e-7)
        assert res.sigma_sq_sd == pytest.approx(
            invgamma(shape, scale=scale).std(), rel=1e-7)

    def test_heavy_tailed_independent_value(self):
        # Nested scipy.integrate.quad: nu over [-6, 40] in pieces, beta
        # inside, epsrel 1e-12 outer and 1e-13 inner.  The mass sits far
        # out in sigma; a beta box probed at the mode's nu once cut it off
        # (mean 0.662298, sd 1.085655) with a reported error of 4.7e-11.
        res = quadrature_moments(reduced_target(5, 3.0, 2.0, Student(1.0)))
        assert abs(res.mean - 0.663074228326) < 1e-9
        assert abs(res.sd - 1.091106300719) < 1e-9
        assert abs(res.log_norm - -11.243077323539) < 1e-9

    @pytest.mark.parametrize("family, mu2, sigma_power, mean, sd, log_norm", [
        (CTN(0.98), 0.25, 0, 0.091549717029, 0.105088545001, -145.335886393878),
        (CTN(0.98), 0.25, 1, 0.092098462028, 0.105150483094, -145.317054947619),
        (LPTN(0.95), 1.0, 0, 0.031356598780, 0.105123348866, -152.095807912617)])
    def test_sweep_point_independent_value(self, family, mu2, sigma_power,
                                           mean, sd, log_norm):
        # Points of the default mu2 sweep (lambda2 = 1), CTN also with its
        # sigma^1 correction, whose inner integrals are closed forms (CTN)
        # or closed between the kinks (LPTN).  Nested
        # scipy.integrate.quad_vec over target.logpdf: nu over [-1.5, 2.5]
        # broken at 0, +/-0.1, +/-0.2, +/-0.5 and 1, beta inside over 40
        # likelihood widths beyond 0 and mu2, broken at 0, mu2 and the
        # kinks; epsrel 1e-12 outer and 1e-13 inner.
        t = reduced_target(N, mu2, 1.0, family, sigma_power=sigma_power)
        res = quadrature_moments(t)
        assert abs(res.mean - mean) < 1e-9
        assert abs(res.sd - sd) < 1e-9
        assert abs(res.log_norm - log_norm) < 1e-9

    def test_variance_that_cancels_raises(self):
        # Under this scaling conflict the posterior collapses onto mu2 with
        # sd about 1.6e-8, far below rounding in the moments about
        # beta_hat = 0: m2 / mass - mean^2 comes out at or below 0.  It
        # used to be clipped to sd 0.0.
        with pytest.raises(NumericalError, match=re.escape(
                "quadrature leaves the variance of beta at")):
            quadrature_moments(reduced_target(N, 0.5, 1e7, Student(4.0)))

    @pytest.mark.parametrize("family, mu2, lam2", [
        (Student(4), 1.0, 1.0), (LPTN(0.95), 0.5, 1.5)])
    def test_reports_error_and_evaluations(self, family, mu2, lam2):
        tol = 1e-10
        res = quadrature_moments(reduced_target(N, mu2, lam2, family), tol=tol)
        assert 0 < res.error <= tol
        assert res.panels_evaluated >= res.n_panels


def _rule():
    # The nodes, and the K21 and G10 weights: the first column of the rules,
    # and that less the second, zero off the Gauss nodes.
    rules = oracle._RULES
    return oracle._NODES, rules[:, 0], rules[:, 0] - rules[:, 1]


class TestRule:
    # QUADPACK's G10/K21 pair, the rule of both levels.

    def test_exact_degrees(self):
        # Exact for x^k on [-1, 1] up to degree 3 * 10 + 1 = 31 (K21) and
        # 2 * 10 - 1 = 19 (G10), and no further.
        nodes, kronrod, gauss = _rule()
        for k in range(33):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            for weights, degree in ((kronrod, 31), (gauss, 19)):
                error = abs(weights @ nodes ** k - exact)
                if k <= degree:
                    assert error <= 1e-15, (k, degree)
                elif k == degree + 1:
                    assert error > 1e-13, (k, degree)

    def test_symmetric_weights_summing_to_two(self):
        nodes, kronrod, gauss = _rule()
        assert len(nodes) == 21
        assert np.all(np.diff(nodes) > 0)
        np.testing.assert_array_equal(nodes, -nodes[::-1])
        for weights in (kronrod, gauss):
            np.testing.assert_array_equal(weights, weights[::-1])
            assert abs(weights.sum() - 2.0) <= 1e-15

    def test_gauss_nodes_at_odd_positions(self):
        nodes, _, gauss = _rule()
        np.testing.assert_array_equal(np.flatnonzero(gauss),
                                      np.arange(1, 21, 2))
        legendre = np.polynomial.legendre.leggauss(10)
        np.testing.assert_allclose(nodes[1::2], legendre[0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(gauss[1::2], legendre[1], rtol=0, atol=1e-15)


def _default_grid(mu2_axis):
    # (mu2, lambda2) of every point of one default sweep.
    if mu2_axis:
        return [(mu2, 1.0) for mu2 in default_mu2_grid()]
    return [(0.5, lam2) for lam2 in default_lambda2_grid()]


class TestDefaultGrid:
    # Every point of both default sweeps.

    @pytest.mark.parametrize("mu2_axis", [True, False], ids=["mu2", "lambda2"])
    def test_normal_matches_conjugate(self, mu2_axis):
        for mu2, lam2 in _default_grid(mu2_axis):
            res = quadrature_moments(reduced_target(N, mu2, lam2, Normal()))
            ref = conjugate_posterior(N, mu2, lam2)
            law = invgamma(ref.sigma_sq_shape, scale=ref.sigma_sq_scale)
            _assert_closed_form(res, ref.beta_mean,
                                np.sqrt(ref.beta_variance), law, (mu2, lam2))

    @pytest.mark.parametrize("family, sigma_power", [
        (Student(4.0), 0), (LPTN(0.95), 0), (CTN(0.98), 0), (CTN(0.98), 1)],
        ids=["student", "lptn", "ctn", "ctn_corrected"])
    def test_first_panels_need_no_split(self, family, sigma_power):
        # The first nu panels, 4 likelihood widths wide, meet the default
        # tol at every default sweep point: none is split.
        for mu2_axis in (True, False):
            for mu2, lam2 in _default_grid(mu2_axis):
                res = quadrature_moments(reduced_target(
                    N, mu2, lam2, family, sigma_power=sigma_power))
                assert res.panels_evaluated == res.n_panels, (mu2, lam2)


# (lo, hi, mean, a): whole-line and semi-infinite windows, narrow ones 0.01
# wide off the bump's centre, and far ones whose z = sqrt(a) (x - mean)
# lies wholly above +38 or below -38, where ndtr underflows.
_PIECES = [(-np.inf, np.inf, 0.3, 2.0), (-np.inf, 0.5, 0.3, 2.0),
           (0.5, np.inf, -1.0, 0.5), (-np.inf, -2.0, 1.0, 1.0),
           (-2.0, 3.0, 0.5, 1.0), (1.0, 1.01, 0.2, 3.0),
           (-2.0, -1.99, 0.0, 1.0), (22.0, 23.0, 2.0, 4.0),
           (-23.0, -22.0, 2.0, 4.0), (45.0, np.inf, 0.0, 1.0),
           (-np.inf, -45.0, 0.0, 1.0), (-np.inf, -40.0, 1.0, 1.0)]


class TestGaussianPiece:
    def test_matches_quad(self):
        # Every window in one call; each integral of e^{-a (x - mean)^2 / 2}
        # x^j over the returned scale against scipy.integrate.quad.
        from scipy.integrate import quad
        lo, hi, mean, a = (np.array(col) for col in zip(*_PIECES))
        log_scale, ints = oracle._gaussian_piece(lo, hi, mean, a)
        assert ints.shape == (len(_PIECES), 3)
        assert np.all(np.isfinite(log_scale)) and np.all(np.isfinite(ints))
        for i, (lo, hi, mean, a) in enumerate(_PIECES):
            near = np.sqrt(-2.0 * log_scale[i])

            def scaled(x, j):
                z = abs(np.sqrt(a) * (x - mean))
                return np.exp(-0.5 * (z - near) * (z + near)) * x ** j

            for j in range(3):
                ref = quad(scaled, lo, hi, args=(j,), epsabs=0.0,
                           epsrel=5e-14, limit=200)[0]
                assert ints[i, j] == pytest.approx(ref, rel=1e-13, abs=0)


    @pytest.mark.parametrize("scalar", [True, False],
                             ids=["scalar", "per-row"])
    def test_rows_alone_match_the_batch(self, scalar):
        # Each row alone, with its mean and precision as scalars, gives the
        # bits it gets in one batch, with them scalar or one per row.  The
        # windows add bounds so far out that |z| is clipped at _Z_MAX, on
        # both sides of the mean and in both orders of the window.
        big = 1e200
        rows = _PIECES + [(-np.inf, -big, 0.0, 1.0), (big, np.inf, 0.5, 2.0),
                          (-big, big, 0.0, 1.0), (-big, 0.1, 0.0, 3.0),
                          (-0.2, big, 0.4, 0.5), (-np.inf, 0.3, 0.3, 2.0)]
        if scalar:
            rows = [(lo, hi, 0.3, 2.0) for lo, hi, _, _ in rows]
        lo, hi, mean, a = (np.array(col) for col in zip(*rows))
        batch = (oracle._gaussian_piece(lo, hi, 0.3, 2.0) if scalar else
                 oracle._gaussian_piece(lo, hi, mean, a))
        assert np.all(np.isfinite(batch[1]))
        for i in range(len(rows)):
            alone = oracle._gaussian_piece(lo[i:i + 1], hi[i:i + 1],
                                           float(mean[i]), float(a[i]))
            for got, want in zip(alone, batch):
                assert got.tobytes() == want[i:i + 1].tobytes(), rows[i]


def _factor_targets():
    base = reduced_target(N, 0.5, 1.0, Student(4))
    cases = [reduced_target(N, 0.5, 1.0, family)
             for family in (Normal(), Student(4), LPTN(0.95), CTN(0.98), None)]
    cases += [reduced_target(N, 0.5, 1.0, LPTN(0.95), sigma_power=p)
              for p in (1, -1)]
    # sigma^2 ~ inverse-gamma(2, 3).
    cases.append(PosteriorTarget(base.data, base.priors,
                                 SigmaPrior(-(2 * 2.0 + 1), 3.0)))
    return cases


class TestFactorization:
    @pytest.mark.parametrize("target", _factor_targets(), ids=[
        "normal", "student", "lptn", "ctn", "flat", "sigma^+1", "sigma^-1",
        "invgamma"])
    def test_matches_target_logpdf(self, target):
        # f(beta, nu) = e^{L(nu)} s e^{-x^2/2} g(t) / (e^nu / sqrt(a)), the
        # oracle's factor in nu times its integrand over x, at rows on
        # both sides of every kink.
        fac = oracle._Factors(target)
        rng = np.random.default_rng(3)
        beta = rng.uniform(-2.0, 3.0, 400)
        nu = rng.uniform(-1.0, 1.5, 400)
        x = np.sqrt(fac.a) * (beta - fac.beta_hat) * np.exp(-nu)
        if target.priors[0] is None:
            inner = -0.5 * x * x            # g = 1
        else:
            inner = fac.log_inner(x, fac.m(nu) + fac.s * x)
        mine = fac.log_nu_factor(nu) - nu + fac.log_sqrt_a + inner
        ref = target.logpdf(np.column_stack([beta, nu]))
        np.testing.assert_allclose(mine, ref, rtol=1e-12, atol=0)


class TestGramRecord:
    def test_factors_match_the_design_bit_for_bit(self):
        # a, beta_hat and RSS come from the data's Gram record, with the
        # bits of the dot products over the design's only column.
        for n in range(4, 401):
            t = reduced_target(n, 0.5, 1.0, CTN(0.98))
            x, y = t.data.X[:, 0], t.data.y
            a = float(x @ x)
            beta_hat = float(x @ y) / a
            rss = max(float(y @ y) - a * beta_hat ** 2, 0.0)
            fac = oracle._Factors(t)
            assert (np.array([fac.a, fac.beta_hat, fac.rss]).tobytes()
                    == np.array([a, beta_hat, rss]).tobytes()), n

    @pytest.mark.parametrize("family, sigma_power", [
        (Student(4.0), 0), (LPTN(0.95), 0), (CTN(0.98), 0), (None, 0),
        (CTN(0.98), 1)], ids=["student", "lptn", "ctn", "flat", "sigma^+1"])
    def test_cold_and_warm_design_cache_agree(self, family, sigma_power):
        def moments():
            t = reduced_target(N, 0.5, 1.0, family, sigma_power=sigma_power)
            return repr(dataclasses.astuple(quadrature_moments(t)))
        model._reduced_data.cache_clear()
        cold = moments()
        assert moments() == cold


class TestClosedPieces:
    @pytest.mark.parametrize("lam2", [0.3, 1.0, 5.0])
    @pytest.mark.parametrize("m", [0.7, -1.9, 3.5, -40.0, 1e3],
                             ids=["inside", "inside-", "outside", "far-",
                                  "far"])
    def test_ctn_matches_quad(self, lam2, m):
        # The bump and both constant tails, from one batch of 3k rows,
        # against scipy.integrate.quad of e^{-x^2/2} g(m + s x) x^j over
        # the returned scale (of order 1 here), cut at the kinks and at
        # x = 0, +/-20.  The
        # prior argument at x = 0 is m: inside the kinks, outside them, and
        # so far beyond them that the bump's share underflows.
        from scipy.integrate import quad
        fac = oracle._Factors(reduced_target(N, 0.5, lam2, CTN(0.98)))
        family, s = fac.prior.family, fac.s
        log_c, ints = fac.closed_pieces(np.array([m, -m]))
        cuts = np.unique([(-family.kappa - m) / s, (family.kappa - m) / s,
                          -20.0, 0.0, 20.0])
        ends = np.concatenate([[-np.inf], cuts, [np.inf]])

        def f(x, j):
            return x ** j * np.exp(-0.5 * x * x - log_c[0]
                                   + family.log_density(m + s * x))

        for j in range(3):
            ref = sum(quad(f, a, b, args=(j,), epsabs=1e-16, epsrel=1e-13,
                           limit=200)[0] for a, b in zip(ends[:-1], ends[1:]))
            # The first moment is relative to the mass: it is 0 at m = 0.
            assert ints[0, j] == pytest.approx(
                ref, rel=1e-12, abs=1e-12 * ints[0, 0] if j == 1 else 0.0)
        # At -m the integrals mirror: the same mass and second moment, and
        # the first moment negated.
        assert log_c[1] == log_c[0]
        np.testing.assert_allclose(ints[1], ints[0] * [1.0, -1.0, 1.0],
                                   rtol=1e-13, atol=1e-13 * ints[0, 0])


class TestPriorKinks:
    # The LPTN and CTN densities kink at |z| = tau (kappa).  In the inner
    # integral over beta the prior argument is t = m + s x, so the kinks sit
    # at fixed t.  Between them both are the normal density, and beyond
    # them CTN is a constant: those inner integrals are closed forms.  Only
    # LPTN's tails are integrated adaptively, on intervals cut at the kinks.

    @pytest.mark.parametrize("family, mu2, lam2, sigma_power", [
        (LPTN(0.95), 0.5, 1.5, 0), (CTN(0.98), 0.4, 1.0, 0),
        (CTN(0.98), 0.5, 0.3, 1), (CTN(0.98), 0.5, 101.0, 0)])
    def test_no_panel_straddles_a_kink(self, family, mu2, lam2,
                                       sigma_power, monkeypatch):
        # LPTN evaluates its density at 21 Kronrod nodes of each inner
        # interval, all in the tails and on one side of each kink; CTN
        # evaluates it at none.  At lam2 = 101 the prior's bump is about
        # 1/101 wide in x.
        t = reduced_target(N, mu2, lam2, family, sigma_power=sigma_power)
        blocks = []
        log_density = type(family).log_density

        def recording(self, z, check=True):
            if np.ndim(z) == 2:
                blocks.append(np.array(z))
            return log_density(self, z, check)

        monkeypatch.setattr(type(family), "log_density", recording)
        quadrature_moments(t)
        if isinstance(family, CTN):
            assert blocks == []
            return
        nodes = np.concatenate(blocks)
        assert nodes.shape[1] == 21
        side = np.sign(nodes) * (np.abs(nodes) > family.tau)
        assert np.all(side != 0)
        assert np.all(side == side[:, :1])
        assert len(np.unique(side[:, 0])) == 2

    @pytest.mark.parametrize("lam2", [0.02, 0.1])
    def test_lptn_tails_out_of_reach(self, lam2):
        # A wide prior: over x in [-13, 13] most nu nodes never reach LPTN's
        # tails, so they have no adaptive interval, and at lam2 = 0.02 no
        # node of the first round has one.  The tails sit more than 14
        # likelihood widths out, so the posterior is the conjugate one.
        res = quadrature_moments(reduced_target(N, 0.5, lam2, LPTN(0.95)))
        ref = conjugate_posterior(N, 0.5, lam2)
        assert abs(res.mean - ref.beta_mean) < 1e-12
        assert res.sd == pytest.approx(np.sqrt(ref.beta_variance), rel=1e-12)

    @pytest.mark.parametrize("family, mu2, lam2", [
        (CTN(0.98), 0.4, 1.0), (CTN(0.98), 0.5, 1.02), (LPTN(0.95), 0.5, 1.0)])
    def test_default_tol_meets_tight_reference(self, family, mu2, lam2):
        # With panels straddling the kink the error estimate was fooled
        # here: tol 1e-10 missed the tol-1e-13 mean by up to 2.3e-9.
        t = reduced_target(N, mu2, lam2, family)
        a = quadrature_moments(t, tol=1e-10)
        b = quadrature_moments(t, tol=1e-13)
        assert abs(a.mean - b.mean) < 1e-10
        assert abs(a.sd - b.sd) < 1e-10

    def test_lptn_concentrated_scaling_point(self):
        # Splitting along the relatively wider side ran out of its 60,000
        # panels here at the default tol.
        t = reduced_target(N, 0.5, 10.0, LPTN(0.95))
        res = quadrature_moments(t)
        ref = quadrature_moments(t, tol=1e-8)
        assert abs(res.mean - ref.mean) < 1e-6

    def test_lptn_panel_count(self):
        # 12,597 final panels when splitting along the relatively wider side,
        # and 1,365 while panels still straddled the kink.
        res = quadrature_moments(reduced_target(N, 0.5, 1.5, LPTN(0.95)))
        assert res.n_panels < 400

    @pytest.mark.parametrize("family, lam2", [(LPTN(0.95), 1.5),
                                              (CTN(0.98), 1.0)])
    def test_tolerance_convergence(self, family, lam2):
        t = reduced_target(N, 0.5, lam2, family)
        a = quadrature_moments(t, tol=1e-10)
        b = quadrature_moments(t, tol=1e-12)
        assert abs(a.mean - b.mean) < 1e-9
        assert abs(a.sd - b.sd) < 1e-9


class TestLimitingTargets:
    # The limits the quoted laws describe are reduced targets too.
    def test_reduced_limit_is_flat_prior(self):
        bar = _limit_target(LOCATION, LPTN(0.95), N)
        flat = reduced_target(N, family=None)
        q = np.array([[0.3, 0.1], [0.0, -0.2]])
        np.testing.assert_allclose(bar.logpdf(q), flat.logpdf(q), atol=1e-12)

    def test_ctn_limit_carries_sigma_power(self):
        bar = _limit_target(SCALING, CTN(0.98), N)
        flat = reduced_target(N, family=None)
        q = np.array([[0.3, 0.1], [0.3, 0.5]])
        diff = bar.logpdf(q) - flat.logpdf(q)
        # extra -nu per conflict
        np.testing.assert_allclose(diff, -q[:, 1], atol=1e-12)
