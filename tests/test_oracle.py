"""Closed forms and the adaptive quadrature engine."""

import numpy as np
import pytest

from robustpriors import oracle
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

    @pytest.mark.parametrize("family, sigma_power, integral", [
        (LPTN(0.95), 100, "e^{4nu} f (sigma^4)"),
        (LPTN(0.95), 97, "e^{4nu} f (sigma^4)"), (Student(4), 0, "f")])
    def test_panel_budget_names_integral(self, family, sigma_power, integral):
        # sigma^100 against the Jeffreys base leaves both sigma^2 moments
        # infinite and sigma^97 its variance, while beta's mean and sd exist;
        # the budget error names the integral that cannot converge.  A
        # finite target stopped early names the one with most error left.
        t = reduced_target(N, 0.5, 1.0, family, sigma_power=sigma_power)
        with pytest.raises(NumericalError) as exc:
            quadrature_moments(t, max_panels=300 if sigma_power else 40)
        assert f"the integral of {integral} carries" in str(exc.value)

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


# Sequential reference versions of the mode and box search, one point per
# `logpdf` call.  The oracle's batched search must find exactly what they find.

def _reference_grid_search(logf, centre, h=0.05, maxiter=300):
    # Returns the maximizer, its value and the grids it evaluated.
    offsets = [np.array([i, j], dtype=float)
               for i in range(-3, 4) for j in range(-3, 4)]
    mode, f0 = centre, logf(centre)
    grid = [mode + h * o for o in offsets]
    vals = [logf(q) for q in grid]
    grids = 1
    for _ in range(maxiter):
        i = int(np.argmax(vals))
        moved = vals[i] > f0
        if moved:
            mode, f0 = grid[i], vals[i]
        if not (moved and np.max(np.abs(offsets[i])) == 3):
            h /= 3.0
            if h < 1e-6:
                break
        grid = [mode + h * o for o in offsets]
        vals = [logf(q) for q in grid]
        grids += 1
    return mode, f0, grids


def _reference_expand_axis(logf, point, f0, axis, sign):
    step = 0.1
    total = 0.0
    while True:
        probe1 = point.copy()
        probe1[axis] += sign * (total + step)
        probe2 = point.copy()
        probe2[axis] += sign * (total + 2 * step)
        if max(logf(probe1), logf(probe2)) < f0 - oracle._LOG_DROP:
            return total + step
        total += step
        step *= 2.0
        if total > oracle._MAX_WIDTH:
            raise NumericalError("bounding-box expansion exceeded 1e6 widths; "
                                 "target does not appear integrable")


def _reference_search(target):
    """(mode, box, grids of the mode search) found one point at a time."""
    def logf(pt):
        return float(target.logpdf(pt[None, :])[0])

    ols = float(np.linalg.solve(target._XtX, target._Xty)[0])
    cand_b = [ols]
    prior = target.priors[0]
    if prior is not None:
        cand_b += [prior.mu, 0.5 * (ols + prior.mu)]
        shrink = prior.lam ** 2 / (target.n + prior.lam ** 2)
        cand_b.append(ols * (1 - shrink) + prior.mu * shrink)
    cands = [np.array([b, 0.0]) for b in cand_b]
    vals = [logf(c) for c in cands]
    mode, f0, grids = _reference_grid_search(logf, cands[int(np.argmax(vals))])
    keep = [mode] + [c for c in cands if logf(c) > f0 - oracle._LOG_DROP]
    box = (min(c[0] - _reference_expand_axis(logf, c, f0, 0, -1.0) for c in keep),
           max(c[0] + _reference_expand_axis(logf, c, f0, 0, +1.0) for c in keep),
           min(c[1] - _reference_expand_axis(logf, c, f0, 1, -1.0) for c in keep),
           max(c[1] + _reference_expand_axis(logf, c, f0, 1, +1.0) for c in keep))
    return (float(mode[0]), float(mode[1])), box, grids


SEARCH_TARGETS = [
    ("student", dict(mu2=0.0, lambda2=1.0, family=Student(4))),
    ("student", dict(mu2=2.0, lambda2=1.0, family=Student(4))),
    ("lptn", dict(mu2=0.5, lambda2=1.5, family=LPTN(0.95))),
    ("lptn", dict(mu2=2.0, lambda2=1.0, family=LPTN(0.95))),
    ("ctn", dict(mu2=0.5, lambda2=1.0, family=CTN(0.98))),
    ("ctn", dict(mu2=0.5, lambda2=101.0, family=CTN(0.98))),
    ("ctn_corrected", dict(mu2=0.5, lambda2=0.3, family=CTN(0.98),
                           sigma_power=1)),
    ("ctn_corrected", dict(mu2=0.5, lambda2=2.0, family=CTN(0.98),
                           sigma_power=1)),
    ("normal", dict(mu2=0.5, lambda2=10.0, family=Normal())),
    ("flat", dict(family=None)),
]


class TestBatchedSearch:
    @pytest.mark.parametrize("family", [Student(4), LPTN(0.95), CTN(0.98), None])
    def test_row_value_independent_of_batch(self, family):
        # The batched search relies on this: for a 2-D target a row's value
        # is the same bits alone as inside any batch.  (The Gram path with
        # p > 1 does not have this property: there B @ XtX takes another
        # BLAS kernel for one row than for several.)
        t = reduced_target(N, 0.5, 1.0, family)
        rng = np.random.default_rng(1)
        q = np.column_stack([rng.uniform(-2.0, 3.0, 1000),
                             rng.uniform(-1.0, 1.0, 1000)])
        # Box-search probes reach far beyond the posterior's bulk.
        q[:48:2, 0] += oracle._NEAR
        q[1:48:2, 1] -= oracle._FAR
        full = t.logpdf(q)
        for m in (3, 225):
            np.testing.assert_array_equal(t.logpdf(q[:m]), full[:m])
        for i in range(225):
            assert t.logpdf(q[i])[0] == full[i]

    @pytest.mark.parametrize("tag, kwargs", SEARCH_TARGETS)
    def test_mode_and_box_match_sequential_search(self, tag, kwargs):
        t = reduced_target(N, **kwargs)
        mode, box, _ = _reference_search(t)
        res = quadrature_moments(t)
        assert res.mode == mode
        assert res.box == box

    @pytest.mark.parametrize("tag, kwargs", SEARCH_TARGETS[::2])
    def test_logpdf_calls_before_first_panel(self, tag, kwargs):
        # One call for the candidates' grids, one per further grid (about
        # ten) and one for the box.
        t = reduced_target(N, **kwargs)
        _, _, grids = _reference_search(t)
        rows = []
        logpdf = t.logpdf
        t.logpdf = lambda q: rows.append(len(q)) or logpdf(q)
        quadrature_moments(t)
        assert 1 not in rows
        first_panels = next(i for i, m in enumerate(rows) if m % 225 == 0)
        assert first_panels == grids + 1
        assert first_panels <= 16

    def test_mode_on_lptn_kink_ridge(self):
        # The posterior's ridge follows a kink curve here.  Nelder-Mead
        # stalled on it at log density -146.3613; the grid reaches -146.3409.
        t = reduced_target(N, 0.5, 0.94, LPTN(0.95))
        res = quadrature_moments(t)
        assert t.logpdf(np.array(res.mode))[0] > -146.35


def _brute_force_panel_values(target, maps, s_lo, s_hi, v_lo, v_hi, shift):
    # The five integrands f, beta f, beta^2 f, e^{2nu} f and e^{4nu} f, each
    # times the Jacobian b, summed node by node in the region's coordinates
    # (beta = a + s b, a = a0 + a1 e^nu, b = b0 + b1 e^nu) under the
    # K15 x K15, G7 x G7 and mixed rules; also returns the K15 x K15 rule
    # of their absolute values, the scale for comparisons.
    wk, wg, g = oracle._K15_WEIGHTS, oracle._G7_WEIGHTS, oracle._G7_IDX
    out = []
    for (a0, a1, b0, b1), sl, sh, vl, vh in zip(maps, s_lo, s_hi, v_lo, v_hi):
        hs, hv = 0.5 * (sh - sl), 0.5 * (vh - vl)
        s = 0.5 * (sh + sl) + hs * oracle._K15_NODES
        v = 0.5 * (vh + vl) + hv * oracle._K15_NODES
        S, V = np.meshgrid(s, v, indexing="ij")
        jac = b0 + b1 * np.exp(V)
        B = a0 + a1 * np.exp(V) + S * jac
        f = np.exp(target.logpdf(np.column_stack([B.ravel(), V.ravel()]))
                   .reshape(15, 15) - shift) * jac
        comps = [f, B * f, B * B * f, np.exp(2 * V) * f, np.exp(4 * V) * f]

        def rule(ws, i_s, wv, iv, c):
            return hs * hv * np.sum(np.outer(ws, wv) * c[np.ix_(i_s, iv)])

        k = np.arange(15)
        kk = np.array([rule(wk, k, wk, k, c) for c in comps])
        gg = np.array([rule(wg, g, wg, g, c) for c in comps])
        gk = np.array([rule(wg, g, wk, k, c) for c in comps])
        kg = np.array([rule(wk, k, wg, g, c) for c in comps])
        scale = np.array([rule(wk, k, wk, k, np.abs(c)) for c in comps])
        out.append((kk, np.abs(kk - gg), np.abs(kk - gk).sum(),
                    np.abs(kk - kg).sum(), scale))
    return [np.array(x) for x in zip(*out)]


class TestPanelValues:
    def test_matches_five_integrand_reference(self):
        t = reduced_target(N, 0.5, 1.5, LPTN(0.95))
        res = quadrature_moments(t)
        mu, w = 0.5, LPTN(0.95).tau / t.priors[0].lam
        e0 = np.exp(res.mode[1])
        rng = np.random.default_rng(2)
        # Ten panels in each region kind: plain, central band, lower and
        # upper tail, each panel on its own side of the kink.
        maps = np.repeat([(0.0, 0.0, 1.0, 0.0), (mu, 0.0, 0.0, 1.0),
                          (w * e0, -w, 1.0, 0.0), (-w * e0, w, 1.0, 0.0)],
                         10, axis=0)
        s_lo = np.concatenate([rng.uniform(-0.5, 0.6, 10),
                               rng.uniform(-w, 0.5 * w, 10),
                               rng.uniform(-0.5, 0.0, 10),
                               rng.uniform(mu + w * e0, 0.9, 10)])
        s_hi = s_lo + rng.uniform(1e-4, 0.5, 40)
        s_hi[10:20] = np.minimum(s_hi[10:20], w)
        s_hi[20:30] = np.minimum(s_hi[20:30], mu - w * e0)
        v_lo = rng.uniform(-0.3, 0.2, 40)
        v_hi = v_lo + rng.uniform(1e-4, 0.3, 40)
        kk, err, split_s = oracle._panel_values(t, maps, s_lo, s_hi, v_lo,
                                                v_hi, res.log_norm)
        ref, ref_err, err_s, err_nu, scale = _brute_force_panel_values(
            t, maps, s_lo, s_hi, v_lo, v_hi, res.log_norm)
        assert np.all(np.abs(kk - ref) <= 1e-13 * scale)
        assert np.all(np.abs(err - ref_err) <= 1e-13 * scale)
        clear = np.abs(err_s - err_nu) > 1e-12 * scale.sum(axis=1)
        assert clear.sum() > 30
        np.testing.assert_array_equal(split_s[clear], (err_s >= err_nu)[clear])


class TestPriorKinks:
    # The LPTN and CTN densities kink at |z| = tau (kappa), which in
    # (beta, nu) is the curve beta = mu +/- tau e^nu / lambda.  The oracle
    # integrates the central band and the two tails as separate regions whose
    # edges follow these curves, so no panel holds a kink.

    @pytest.mark.parametrize("family, mu2, lam2, sigma_power", [
        (LPTN(0.95), 0.5, 1.5, 0), (CTN(0.98), 0.4, 1.0, 0),
        (CTN(0.98), 0.5, 0.3, 1), (CTN(0.98), 0.5, 101.0, 0)])
    def test_no_panel_straddles_a_kink(self, family, mu2, lam2, sigma_power):
        # Every 15 x 15 node block the oracle evaluates lies on one side of
        # each kink curve.
        t = reduced_target(N, mu2, lam2, family, sigma_power=sigma_power)
        blocks = []
        logpdf = t.logpdf

        def recording(q):
            if len(q) % 225 == 0:
                blocks.append(q)
            return logpdf(q)

        t.logpdf = recording
        res = quadrature_moments(t)
        nodes = np.concatenate(blocks).reshape(-1, 225, 2)
        assert len(nodes) == res.panels_evaluated
        thr = getattr(family, "tau", None) or family.kappa
        z = t.priors[0].lam * (nodes[..., 0] - mu2) * np.exp(-nodes[..., 1])
        side = np.sign(z) * (np.abs(z) > thr)
        assert np.all(side == side[:, :1])
        assert len(np.unique(side[:, 0])) > 1

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
