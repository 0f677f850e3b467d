"""HMC sampler: integrator properties, calibration, diagnostics."""

import csv
import io
import warnings

import numpy as np
import pytest

from robustpriors.model import (PosteriorTarget, RegressionData,
                                reduced_target, standardize)
from robustpriors.priors import LPTN, CoefficientPrior, Normal, Student
from robustpriors.sampler import (MIN_AUTO_WARMUP, MIN_PILOT,
                                  MODE_SEARCH_CALLS, WARMUP_LEAPFROG_STEPS,
                                  Chain, DivergenceError, HmcConfig,
                                  _climb_to_mode, _pilot_steps,
                                  _steps_from_warmup, ess_imse, leapfrog,
                                  sample, save_chains, summarize)


class GaussianTarget:
    """Isotropic standard normal in d dimensions."""

    def __init__(self, d):
        self.dim = d

    def logpdf(self, q):
        q = np.atleast_2d(q)
        return -0.5 * np.sum(q * q, axis=1)

    def grad_logpdf(self, q):
        return -np.atleast_2d(q)


class CountingTarget(GaussianTarget):
    """`GaussianTarget` that counts its gradient calls."""

    def __init__(self, d):
        super().__init__(d)
        self.grad_calls = 0

    def grad_logpdf(self, q):
        self.grad_calls += 1
        return super().grad_logpdf(q)


def reference_sample(target, config):
    """Plain HMC loop with unit mass: fresh `leapfrog` and `logpdf` calls
    every iteration, drawing from the same streams as `sample`.

    Returns the post-warmup draws (chains, n_samples, dim) and the total
    number of leapfrog steps taken.
    """
    dim, m = target.dim, config.n_chains
    streams = np.random.SeedSequence(config.rng_seed).spawn(m + 1)
    chain_rngs = [np.random.Generator(np.random.PCG64(s)) for s in streams[:m]]
    traj_rng = np.random.Generator(np.random.PCG64(streams[m]))
    q = np.zeros((m, dim))
    for i in range(m):
        q[i] += 0.1 * chain_rngs[i].standard_normal(dim)
    lo = int(np.ceil(0.8 * config.leapfrog_steps))
    hi = int(np.ceil(1.2 * config.leapfrog_steps))
    draws, total_steps = [], 0
    for it in range(config.n_warmup + config.n_samples):
        n_steps = int(traj_rng.integers(lo, hi + 1))
        total_steps += n_steps
        p0 = np.stack([rng.standard_normal(dim) for rng in chain_rngs])
        q_new, p_new, div = leapfrog(target, q, p0, config.step_size, n_steps)
        h_old = -target.logpdf(q) + 0.5 * np.sum(p0 * p0, axis=1)
        h_new = -target.logpdf(q_new) + 0.5 * np.sum(p_new * p_new, axis=1)
        u = np.array([rng.random() for rng in chain_rngs])
        accept = (np.log(u) < h_old - h_new) & ~div
        q = np.where(accept[:, None], q_new, q)
        if it >= config.n_warmup:
            draws.append(q)
    return np.stack(draws, axis=1), total_steps


class CliffTarget:
    """Steep sextic well; large steps overflow and must be flagged."""

    dim = 1

    def logpdf(self, q):
        q = np.atleast_2d(q)
        with np.errstate(over="ignore"):
            out = -np.power(q[:, 0], 6)
        return np.where(np.isfinite(out), out, -np.inf)

    def grad_logpdf(self, q):
        q = np.atleast_2d(q)
        with np.errstate(over="ignore"):
            out = -6.0 * np.power(q, 5)
        return np.where(np.isfinite(out), out, 0.0)


class TestLeapfrog:
    def test_zero_momentum_tiny_step(self):
        t = GaussianTarget(2)
        q0 = np.array([[0.7, -0.3]])
        q1, _, _ = leapfrog(t, q0, np.zeros((1, 2)), 1e-8, 1)
        assert np.max(np.abs(q1 - q0)) < 1e-12

    def test_energy_error_quarters_with_half_step(self):
        t = GaussianTarget(1)
        q0, p0 = np.array([[1.0]]), np.array([[0.5]])
        h0 = 0.5 * (1.0 + 0.25)
        errs = []
        for eps in (0.2, 0.1):
            q, p, _ = leapfrog(t, q0, p0, eps, int(round(4.0 / eps)))
            h = 0.5 * (q[0, 0] ** 2 + p[0, 0] ** 2)
            errs.append(abs(h - h0))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)

    def test_reversibility_on_reduced_target(self):
        t = reduced_target(100, 2.0, 1.0, Normal())
        q0 = np.array([[0.5, 0.2]])
        p0 = np.array([[0.3, -0.7]])
        q1, p1, _ = leapfrog(t, q0, p0, 0.05, 30)
        q2, p2, _ = leapfrog(t, q1, -p1, 0.05, 30)
        assert np.max(np.abs(q2 - q0)) < 1e-8
        assert np.max(np.abs(-p2 - p0)) < 1e-8

    def test_divergence_flagged(self):
        t = CliffTarget()
        q, p, div = leapfrog(t, np.array([[3.0]]), np.array([[0.0]]), 5.0, 10)
        assert div[0]


class TestSample:
    def test_isotropic_gaussian_moments(self):
        t = GaussianTarget(2)
        cfg = HmcConfig(step_size=0.3, leapfrog_steps=8, n_samples=8000,
                        n_warmup=500, n_chains=2, rng_seed=5)
        chains = sample(t, cfg)
        draws = np.concatenate([c.draws for c in chains])
        assert np.max(np.abs(draws.mean(axis=0))) < 0.03
        cov = np.cov(draws.T)
        assert np.max(np.abs(cov - np.eye(2))) < 0.05

    def test_general_p_sigma_calibration(self):
        # Flat priors and normal errors give a closed-form scale marginal:
        # p(sigma | y) ~ sigma^-(n - p + 1) exp(-RSS / (2 sigma^2)), so
        # E[sigma] = sqrt(RSS/2) * Gamma((k-2)/2) / Gamma((k-1)/2) with
        # k = n - p + 1.  Checks the general-p likelihood scaling end to end.
        import math
        from robustpriors.model import (PosteriorTarget, RegressionData,
                                        ols_fit)
        rng = np.random.default_rng(31)
        n = 80
        X = np.column_stack([np.ones(n), rng.normal(size=n),
                             rng.normal(size=n)])
        y = X @ np.array([0.2, 1.0, -0.4]) + 0.7 * rng.normal(size=n)
        data = RegressionData(y=y, X=X)
        resid = y - X @ ols_fit(data)
        c = float(resid @ resid) / 2
        k = n - data.p + 1
        exact = math.sqrt(c) * math.exp(math.lgamma((k - 2) / 2)
                                        - math.lgamma((k - 1) / 2))

        target = PosteriorTarget(data, [None, None, None])
        cfg = HmcConfig(step_size=0.08, leapfrog_steps=20, n_samples=8000,
                        n_warmup=1000, n_chains=2, rng_seed=6)
        row = summarize(sample(target, cfg)).row("sigma")
        assert abs(row["mean"] - exact) < 4 * row["mcse"]

    def test_gradient_carry_matches_reference_loop(self):
        # `sample` reuses the end-of-trajectory gradient instead of
        # recomputing it; the chains must not change by a single bit.  The
        # large step rejects about a third of the proposals, so the carry
        # is exercised on both branches.
        cfg = HmcConfig(step_size=1.5, leapfrog_steps=4, n_samples=300,
                        n_warmup=50, n_chains=3, rng_seed=4)
        chains = sample(GaussianTarget(3), cfg)
        expected, _ = reference_sample(GaussianTarget(3), cfg)
        for c in chains:
            assert 0.5 < c.accept_rate < 0.9
            assert np.array_equal(c.draws, expected[c.index])

    def test_one_gradient_call_per_leapfrog_step(self):
        # Besides one call per step and one at the jittered start, the mode
        # search makes one call: the origin's gradient is zero, so it stops.
        cfg = HmcConfig(step_size=1.5, leapfrog_steps=4, n_samples=200,
                        n_warmup=20, n_chains=2, rng_seed=6)
        t = CountingTarget(2)
        sample(t, cfg)
        _, total_steps = reference_sample(GaussianTarget(2), cfg)
        assert t.grad_calls == total_steps + 2

    def test_seed_determinism(self):
        t = reduced_target(100, family=None)
        cfg = HmcConfig(n_samples=300, n_warmup=100, n_chains=2, rng_seed=9)
        a = sample(t, cfg)
        b = sample(t, cfg)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.draws, cb.draws)
            assert ca.accept_rate == cb.accept_rate

    def test_different_seeds_differ(self):
        t = reduced_target(100, family=None)
        a = sample(t, HmcConfig(n_samples=200, n_warmup=50, n_chains=1,
                                rng_seed=1))
        b = sample(t, HmcConfig(n_samples=200, n_warmup=50, n_chains=1,
                                rng_seed=2))
        assert not np.array_equal(a[0].draws, b[0].draws)

    def test_divergence_error(self):
        cfg = HmcConfig(step_size=5.0, leapfrog_steps=10, n_samples=50,
                        n_warmup=10, n_chains=1, rng_seed=0)
        with pytest.raises(DivergenceError):
            sample(CliffTarget(), cfg)

    def test_low_acceptance_warns(self):
        # 1.95 sits just inside the leapfrog stability region of the unit
        # Gaussian: no divergences, but the energy error is large.
        t = GaussianTarget(1)
        cfg = HmcConfig(step_size=1.95, leapfrog_steps=5, n_samples=500,
                        n_warmup=100, n_chains=1, rng_seed=3)
        with pytest.warns(UserWarning, match="acceptance"):
            sample(t, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HmcConfig(step_size=0.0)
        with pytest.raises(ValueError):
            HmcConfig(n_chains=0)

    @pytest.mark.parametrize("seed", [-1, True, 1.5, "3", None])
    def test_rng_seed_validation(self, seed):
        with pytest.raises(ValueError, match="rng_seed must be a "
                           f"non-negative integer, got {seed!r}"):
            HmcConfig(rng_seed=seed)

    def test_rng_seed_accepts_numpy_integers(self):
        assert HmcConfig(rng_seed=np.int64(7)).rng_seed == 7


class ScaledGaussian:
    """Independent normal coordinates with the given sds."""

    def __init__(self, sd):
        self.sd = np.asarray(sd, dtype=float)
        self.dim = len(self.sd)

    def logpdf(self, q):
        z = np.atleast_2d(q) / self.sd
        return -0.5 * np.sum(z * z, axis=1)

    def grad_logpdf(self, q):
        return -np.atleast_2d(q) / self.sd ** 2


class RecordingTarget(GaussianTarget):
    """`GaussianTarget` that keeps a copy of every `logpdf` batch."""

    def __init__(self, d):
        super().__init__(d)
        self.logpdf_inputs = []

    def logpdf(self, q):
        self.logpdf_inputs.append(np.array(q))
        return super().logpdf(q)


class StuckTarget(GaussianTarget):
    """Flat within 0.5 of the origin and 500 nats lower outside it.

    The gradient is zero everywhere, so at a large step every trajectory
    runs straight out of the ball and is rejected: no chain ever moves.  The
    energy rise stays under the divergence threshold, so the run completes
    with all draws at the start.
    """

    def logpdf(self, q):
        q = np.atleast_2d(q)
        return np.where(np.linalg.norm(q, axis=1) < 0.5, 0.0, -500.0)

    def grad_logpdf(self, q):
        return np.zeros_like(np.atleast_2d(q))


class TestTrajectoryLengthFromWarmup:
    def test_quarter_period_of_slowest_coordinate(self):
        sd = np.array([0.1, 1.0, 0.8])
        step = 0.15
        cfg = HmcConfig(step_size=step, n_samples=200, n_warmup=1000,
                        n_chains=4, rng_seed=3)
        expected = round(0.5 * np.pi * sd.max() / step)
        chains = sample(ScaledGaussian(sd), cfg)
        assert {c.leapfrog_steps for c in chains} == {chains[0].leapfrog_steps}
        assert abs(chains[0].leapfrog_steps - expected) <= 1

    def test_warmup_matches_explicit_warmup_length(self):
        # Only the pilot runs at the pilot length, ceil(pi * 1 / 1.2) = 3 on
        # the unit Gaussian: its proposals are those of an explicit run at
        # that length with the same seed, and the first proposal after it
        # is not.  The mode search makes no logpdf call here, since the
        # origin's gradient is zero.
        kw = dict(step_size=1.2, n_samples=50, n_warmup=60, n_chains=3,
                  rng_seed=8)
        auto, fixed = RecordingTarget(2), RecordingTarget(2)
        chains = sample(auto, HmcConfig(**kw))
        assert chains[0].pilot_leapfrog_steps == 3
        sample(fixed, HmcConfig(leapfrog_steps=3, **kw))
        assert chains[0].warmup_leapfrog_steps != 3
        assert chains[0].leapfrog_steps != 3
        n = 1 + MIN_PILOT               # the start, then one per iteration
        for a, b in zip(auto.logpdf_inputs[:n], fixed.logpdf_inputs[:n]):
            assert np.array_equal(a, b)
        assert not np.array_equal(auto.logpdf_inputs[n], fixed.logpdf_inputs[n])

    @pytest.mark.filterwarnings("ignore:chain . acceptance rate")
    @pytest.mark.parametrize("n_warmup, pilot", [(20, MIN_PILOT),
                                                 (99, MIN_PILOT), (250, 25)])
    def test_pilot_is_a_tenth_of_warmup(self, n_warmup, pilot):
        # With a step far too small for the Gaussian, the pilot's draws ask
        # for a longer trajectory, so the first proposal after the pilot is
        # the first to leave the explicit run at the warmup length.
        kw = dict(step_size=0.01, n_samples=5, n_warmup=n_warmup, n_chains=2,
                  rng_seed=1)
        auto, fixed = RecordingTarget(2), RecordingTarget(2)
        chains = sample(auto, HmcConfig(**kw))
        sample(fixed, HmcConfig(leapfrog_steps=WARMUP_LEAPFROG_STEPS, **kw))
        assert chains[0].warmup_leapfrog_steps > WARMUP_LEAPFROG_STEPS
        same = [np.array_equal(a, b)
                for a, b in zip(auto.logpdf_inputs, fixed.logpdf_inputs)]
        assert same.index(False) == 1 + pilot

    def test_seed_determinism(self):
        t = reduced_target(100, 1.0, 1.0, LPTN(0.95))
        cfg = HmcConfig(step_size=0.08, n_samples=200, n_warmup=100,
                        n_chains=2, rng_seed=4)
        a, b = sample(t, cfg), sample(t, cfg)
        for ca, cb in zip(a, b):
            assert ca.leapfrog_steps == cb.leapfrog_steps
            np.testing.assert_array_equal(ca.draws, cb.draws)

    def test_explicit_length_is_recorded(self):
        cfg = HmcConfig(step_size=0.9, leapfrog_steps=7, n_samples=20,
                        n_warmup=0, n_chains=2)
        assert [c.leapfrog_steps for c in sample(GaussianTarget(2), cfg)] == [7, 7]

    def test_needs_enough_warmup(self):
        with pytest.raises(ValueError, match=f"n_warmup >= {MIN_AUTO_WARMUP}"):
            HmcConfig(n_warmup=MIN_AUTO_WARMUP - 1)
        HmcConfig(n_warmup=MIN_AUTO_WARMUP)
        HmcConfig(n_warmup=0, leapfrog_steps=5)
        with pytest.raises(ValueError, match="leapfrog_steps"):
            HmcConfig(leapfrog_steps=0)

    def test_stuck_warmup_keeps_warmup_length(self):
        cfg = HmcConfig(step_size=10.0, n_samples=20, n_warmup=40, n_chains=2)
        with pytest.warns(UserWarning) as record:
            chains = sample(StuckTarget(2), cfg)
        assert any(f"warmup length {WARMUP_LEAPFROG_STEPS}" in str(w.message)
                   for w in record)
        assert chains[0].warmup_leapfrog_steps == WARMUP_LEAPFROG_STEPS
        assert chains[0].leapfrog_steps == WARMUP_LEAPFROG_STEPS
        assert all(c.accept_rate == 0.0 for c in chains)

    @pytest.mark.parametrize("fill", [0.0, np.nan, np.inf])
    def test_no_finite_positive_sd_keeps_warmup_length(self, fill):
        window = np.full((2, 10, 3), fill)
        with pytest.warns(UserWarning, match="warmup length"):
            assert _steps_from_warmup(window, 0.1) == \
                WARMUP_LEAPFROG_STEPS


class CurvedTarget:
    """Gradient ``-c_j q_j``: curvature ``c_j`` along coordinate ``j``."""

    def __init__(self, curvature):
        self.curvature = np.asarray(curvature, dtype=float)
        self.dim = len(self.curvature)

    def grad_logpdf(self, q):
        return -np.atleast_2d(q) * self.curvature


class GradRecordingTarget(ScaledGaussian):
    """`ScaledGaussian` that keeps a copy of every `grad_logpdf` batch."""

    def __init__(self, sd):
        super().__init__(sd)
        self.grad_inputs = []

    def grad_logpdf(self, q):
        self.grad_inputs.append(np.array(q))
        return super().grad_logpdf(q)


class TestPilotFromCurvature:
    @pytest.mark.filterwarnings("ignore:chain . acceptance rate")
    def test_half_period_of_widest_coordinate(self):
        sd = np.array([0.5, 1.0, 0.8])
        expected = 11                       # ceil(pi * 1.0 / 0.3)
        assert _pilot_steps(ScaledGaussian(sd), np.zeros(3), 0.3) == expected
        cfg = HmcConfig(step_size=0.3, n_samples=5, n_warmup=20, n_chains=2)
        chains = sample(ScaledGaussian(sd), cfg)
        assert [c.pilot_leapfrog_steps for c in chains] == [expected] * 2

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_curvature_not_positive_and_finite_keeps_the_cap(self, bad):
        assert _pilot_steps(CurvedTarget([1.0, bad]), np.zeros(2),
                            0.5) == WARMUP_LEAPFROG_STEPS

    @pytest.mark.parametrize("step, expected", [
        (0.11, 29), (0.1, WARMUP_LEAPFROG_STEPS), (1e-300, WARMUP_LEAPFROG_STEPS),
        (10.0, 1)])
    def test_between_one_and_the_cap(self, step, expected):
        assert _pilot_steps(ScaledGaussian([1.0]), np.zeros(1),
                            step) == expected

    @pytest.mark.filterwarnings("ignore:chain . acceptance rate")
    def test_one_call_on_the_mode_and_its_neighbours(self):
        # One chain, so every other gradient batch has one row; the origin
        # is the mode, where the search stops at once.
        kw = dict(step_size=0.4, n_samples=5, n_warmup=20, n_chains=1)
        auto = GradRecordingTarget([1.0, 2.0])
        sample(auto, HmcConfig(**kw))
        probes = [x for x in auto.grad_inputs if len(x) == 3]
        assert len(probes) == 1 and probes[0] is auto.grad_inputs[1]
        h = 0.4
        assert np.array_equal(probes[0], [[0.0, 0.0], [h, 0.0], [0.0, h]])
        fixed = GradRecordingTarget([1.0, 2.0])
        sample(fixed, HmcConfig(leapfrog_steps=4, **kw))
        assert all(len(x) == 1 for x in fixed.grad_inputs)


class ShiftedGaussian(ScaledGaussian):
    """`ScaledGaussian` centred at `mean`, counting its target calls."""

    def __init__(self, mean, sd):
        super().__init__(sd)
        self.mean = np.asarray(mean, dtype=float)
        self.calls = 0

    def logpdf(self, q):
        self.calls += 1
        return super().logpdf(np.atleast_2d(q) - self.mean)

    def grad_logpdf(self, q):
        self.calls += 1
        return super().grad_logpdf(np.atleast_2d(q) - self.mean)


def orthogonal_regression(n=500, p=5, seed=0):
    """Standardized data with orthogonal covariates and R^2 = 0.9."""
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(np.column_stack([np.ones(n),
                                             rng.standard_normal((n, p + 1))]))
    X = basis[:, 1:p + 1] * np.sqrt(n)
    beta = np.linspace(1.0, -0.5, p)
    beta *= 1.5 / np.linalg.norm(beta)
    y = 0.5 + X @ beta + 0.5 * np.sqrt(n) * basis[:, -1]
    data, _ = standardize(RegressionData(y=y, X=np.column_stack([np.ones(n), X])))
    return data


class TestModeStart:
    def test_climbs_to_the_mode(self):
        t = ShiftedGaussian([2.0, -1.0, 0.5], [0.05, 1.0, 0.3])
        mode = _climb_to_mode(t, np.zeros(3))
        assert np.all(np.abs(mode - t.mean) < 1e-6 * t.sd)
        assert t.calls <= MODE_SEARCH_CALLS

    def test_mode_start_is_kept_bit_for_bit(self):
        t = ShiftedGaussian([0.25, -0.5], [1.0, 2.0])
        assert np.array_equal(_climb_to_mode(t, t.mean), t.mean)
        assert t.calls == 1             # one gradient, found zero

    def test_call_budget_without_a_mode(self):
        class Slope(GaussianTarget):
            calls = 0
            def logpdf(self, q):
                self.calls += 1
                return np.atleast_2d(q).sum(axis=1)
            def grad_logpdf(self, q):
                self.calls += 1
                return np.ones_like(np.atleast_2d(q))

        t = Slope(2)
        q = _climb_to_mode(t, np.zeros(2))
        assert t.calls <= MODE_SEARCH_CALLS and q.sum() > 1.0

    @pytest.mark.filterwarnings("ignore:chain . acceptance rate")
    def test_conflicting_normal_prior_far_from_least_squares(self):
        # The least-squares start sits deep in the prior's tail, where every
        # trajectory diverged; from the mode none may.
        data = orthogonal_regression()
        prior = CoefficientPrior(mu=3.0, lam=200.0, family=Normal())
        target = PosteriorTarget(data, [None] + [prior] * 5)
        cfg = HmcConfig(step_size=0.015, n_samples=200, n_warmup=60,
                        n_chains=2, rng_seed=0)
        chains = sample(target, cfg)
        trajectories = (cfg.n_warmup + cfg.n_samples) * cfg.n_chains
        assert sum(c.divergences for c in chains) < 0.01 * trajectories
        assert np.all(np.abs(chains[0].draws[:, 1:6].mean(axis=0) - 3.0) < 0.1)

    @pytest.mark.filterwarnings("ignore:chain . acceptance rate")
    def test_strong_conflict_reduced_target_leaves_its_start(self):
        # Seed 118 of this point stayed at the least-squares start and
        # raised `DivergenceError` when the chains started there.
        target = reduced_target(100, 2.0, 2.0, Normal())
        cfg = HmcConfig(n_samples=500, n_warmup=800, n_chains=2, rng_seed=118)
        chains = sample(target, cfg)
        assert sum(c.divergences for c in chains) == 0


class TestFailEarly:
    def test_warmup_divergences_raise_before_the_first_draw(self):
        class CountingCliff(CliffTarget):
            calls = 0
            def logpdf(self, q):
                self.calls += 1
                return super().logpdf(q)

        t = CountingCliff()
        cfg = HmcConfig(step_size=5.0, leapfrog_steps=10, n_samples=2000,
                        n_warmup=30, n_chains=2, rng_seed=0)
        with pytest.raises(DivergenceError, match="of warmup trajectories") as exc:
            sample(t, cfg)
        assert t.calls == 1 + cfg.n_warmup     # the start, then one per warmup
        assert exc.value.last_state[0] < cfg.n_warmup

    def test_divergent_pilot_raises_before_the_rest_of_warmup(self):
        # At step 5 the pilot's trajectories diverge and its chains stay at
        # their start; the run stops at the pilot's end, before those draws
        # are read for a trajectory length (which would warn) and before any
        # later call.
        class CountingCliff(CliffTarget):
            calls = 0
            def logpdf(self, q):
                self.calls += 1
                return super().logpdf(q)

        t = CountingCliff()
        cfg = HmcConfig(step_size=5.0, n_samples=2000, n_warmup=300,
                        n_chains=2, rng_seed=0)
        pilot = max(MIN_PILOT, cfg.n_warmup // 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError,
                               match="of warmup trajectories") as exc:
                sample(t, cfg)
        assert t.calls == 1 + pilot     # the start, then one per pilot trajectory
        assert exc.value.last_state[0] < pilot

    def test_rare_warmup_divergences_pass(self):
        # One divergent warmup trajectory in 20 (5%) is under the limit.
        class OnceCliff(GaussianTarget):
            calls = 0
            def logpdf(self, q):
                self.calls += 1
                out = super().logpdf(q)
                return np.full_like(out, -np.inf) if self.calls == 2 else out

        cfg = HmcConfig(step_size=1.2, leapfrog_steps=3, n_samples=100,
                        n_warmup=20, n_chains=1, rng_seed=0)
        chains = sample(OnceCliff(1), cfg)
        assert chains[0].divergences == 1


class TwoCallTarget:
    """A duck-typed view of a target: `dim`, `start_point`, `logpdf` and
    `grad_logpdf` only, so `sample` makes two calls at each trajectory's
    end."""

    def __init__(self, target):
        self.dim = target.dim
        self.start_point = target.start_point
        self.logpdf = target.logpdf
        self.grad_logpdf = target.grad_logpdf


class CountingPosterior(PosteriorTarget):
    """`PosteriorTarget` that counts its fused calls."""

    fused_calls = 0

    def logpdf_and_grad(self, q):
        self.fused_calls += 1
        return super().logpdf_and_grad(q)


class TestFusedTrajectoryEnd:
    def test_fused_and_two_call_paths_draw_the_same_bits(self):
        # Auto trajectory lengths, so the pilot and both chosen lengths run
        # on both paths; the step rejects about a fifth of the proposals.
        data = orthogonal_regression(n=60, p=3, seed=2)
        priors = [None, CoefficientPrior(1.0, 2.0, LPTN(0.95)),
                  CoefficientPrior(-0.5, 1.0, Student(4)), None]
        t = CountingPosterior(data, priors)
        cfg = HmcConfig(step_size=0.05, n_samples=200, n_warmup=100,
                        n_chains=3, rng_seed=8)
        fused = sample(t, cfg)
        assert t.fused_calls == 1 + cfg.n_warmup + cfg.n_samples
        two_call = sample(TwoCallTarget(t), cfg)
        assert t.fused_calls == 1 + cfg.n_warmup + cfg.n_samples
        for a, b in zip(fused, two_call):
            assert a.draws.tobytes() == b.draws.tobytes()
            assert a.accept_rate == b.accept_rate < 1.0
            assert a.divergences == b.divergences
            assert a.leapfrog_steps == b.leapfrog_steps
            assert a.warmup_leapfrog_steps == b.warmup_leapfrog_steps


class TestSummarize:
    @staticmethod
    def fake_chain(draws):
        return Chain(draws=draws, accept_rate=1.0, seed=0, index=0)

    def test_constant_chain(self):
        draws = np.ones((500, 2))
        s = summarize([self.fake_chain(draws)])
        assert s.row("beta_1")["sd"] == 0.0
        assert s.row("beta_1")["ess"] == 500.0

    def test_iid_ess_near_draw_count(self):
        rng = np.random.default_rng(8)
        draws = rng.standard_normal((10000, 2))
        s = summarize([self.fake_chain(draws)])
        assert s.row("beta_1")["ess"] == pytest.approx(10000, rel=0.2)

    def test_sigma_from_transformed_draws(self):
        rng = np.random.default_rng(2)
        nu = rng.normal(0.1, 0.05, size=2000)
        draws = np.column_stack([rng.standard_normal(2000), nu])
        s = summarize([self.fake_chain(draws)])
        sig = np.exp(nu)
        assert s.row("sigma")["mean"] == pytest.approx(sig.mean(), abs=1e-12)
        assert s.row("sigma")["sd"] == pytest.approx(sig.std(ddof=1), abs=1e-12)

    def test_mcse_identity(self):
        rng = np.random.default_rng(3)
        draws = rng.standard_normal((4000, 2))
        s = summarize([self.fake_chain(draws)])
        r = s.row("beta_1")
        assert r["mcse"] == pytest.approx(r["sd"] / np.sqrt(r["ess"]), rel=1e-12)

    def test_two_seeds_agree_within_mcse(self):
        t = reduced_target(100, family=None)
        cfg = dict(n_samples=4000, n_warmup=500, n_chains=2)
        s1 = summarize(sample(t, HmcConfig(rng_seed=21, **cfg)))
        s2 = summarize(sample(t, HmcConfig(rng_seed=22, **cfg)))
        r1, r2 = s1.row("beta_1"), s2.row("beta_1")
        combined = np.hypot(r1["mcse"], r2["mcse"])
        assert abs(r1["mean"] - r2["mean"]) < 3 * combined

    def test_minimum_draws(self):
        with pytest.raises(ValueError, match="100"):
            summarize([self.fake_chain(np.zeros((50, 2)))])
        with pytest.raises(ValueError):
            summarize([])


class TestEss:
    def test_iid(self):
        x = np.random.default_rng(3).standard_normal(10000)
        assert ess_imse(x) == pytest.approx(10000, rel=0.15)

    def test_correlated_is_smaller(self):
        rng = np.random.default_rng(4)
        x = np.zeros(5000)
        for i in range(1, 5000):
            x[i] = 0.95 * x[i - 1] + rng.standard_normal()
        ess = ess_imse(x)
        # AR(1) with phi = 0.95 has tau = (1+phi)/(1-phi) = 39
        assert 40 < ess < 350

    def test_capped_at_n(self):
        assert ess_imse(np.ones(100)) == 100.0
        x = np.tile([1.0, -1.0], 500)  # antithetic; tau clamps
        assert ess_imse(x) <= 1000.0


class TestSaveChains:
    def test_format(self, tmp_path):
        draws = np.arange(12.0).reshape(6, 2)
        chains = [Chain(draws=draws, accept_rate=0.9, seed=0, index=0),
                  Chain(draws=draws + 100, accept_rate=0.8, seed=0, index=1)]
        path = tmp_path / "chains.csv"
        save_chains(chains, path, comments=["test"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# test"
        assert lines[1] == "chain,iter,beta_1,nu"
        assert lines[2] == "0,0,0.0,1.0"
        assert lines[-1] == "1,5,110.0,111.0"

    def test_bytes_match_csv_writer(self, tmp_path):
        special = [-0.0, 1e300, 1e-20, np.nan, np.inf, -np.inf, 0.1, -2.5]
        draws = np.array(special).reshape(4, 2)
        chains = [Chain(draws=draws, accept_rate=0.9, seed=0, index=0),
                  Chain(draws=draws[::-1] * 3, accept_rate=0.8, seed=0, index=1)]
        path = tmp_path / "chains.csv"
        save_chains(chains, path, comments=["a = 1", "b"])
        expected = io.StringIO(newline="")
        expected.write("# a = 1\n# b\n")
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["chain", "iter", "beta_1", "nu"])
        writer.writerows([c.index, it, *row]
                         for c in chains for it, row in enumerate(c.draws.tolist()))
        assert path.read_bytes() == expected.getvalue().encode()
