"""Prior families: hyperparameter derivation, densities, gradients."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from robustpriors.model import reduced_target
from robustpriors.priors import (CTN, LPTN, LPTN_RHO_LOWER, CoefficientPrior,
                                 Normal, Student)
from robustpriors.specfun import normal_pdf

from test_specfun import bisect_inv_cdf

LOG_PHI_0 = -0.9189385332046727


class TestDerivation:
    def test_lptn_095(self):
        fam = LPTN(0.95)
        # tau from the bisection oracle at 1e-10; theta from the closed
        # formula 2 (1-rho)^-1 phi(tau) tau log(tau) + 1 evaluated at it.
        tau_oracle = bisect_inv_cdf(0.975)
        theta_oracle = 2 / 0.05 * normal_pdf(tau_oracle) * tau_oracle \
            * math.log(tau_oracle) + 1
        assert fam.tau == pytest.approx(tau_oracle, abs=1e-9)
        assert fam.theta == pytest.approx(theta_oracle, abs=1e-8)
        assert fam.tau == pytest.approx(1.959963984540054, abs=1e-9)
        assert fam.theta == pytest.approx(4.083353622139718, abs=1e-9)

    def test_lptn_090(self):
        fam = LPTN(0.90)
        assert fam.tau == pytest.approx(1.6448536269514722, abs=1e-9)
        assert fam.theta == pytest.approx(2.6884618478083793, abs=1e-9)

    def test_lptn_rho_domain(self):
        with pytest.raises(ValueError, match="0.68"):
            LPTN(0.5)
        with pytest.raises(ValueError):
            LPTN(1.0)
        with pytest.raises(ValueError):
            LPTN(LPTN_RHO_LOWER)  # boundary excluded

    def test_ctn_thresholds(self):
        assert CTN(0.98).kappa == pytest.approx(bisect_inv_cdf(0.99), abs=1e-9)
        assert CTN(0.98).kappa == pytest.approx(2.3263478740408408, abs=1e-9)
        assert CTN(0.95).kappa == pytest.approx(1.959963984540054, abs=1e-9)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.3])
    def test_ctn_domain(self, bad):
        with pytest.raises(ValueError):
            CTN(bad)

    def test_student_domain(self):
        with pytest.raises(ValueError):
            Student(0.0)
        with pytest.raises(ValueError):
            Student(-2.0)

    def test_properness_flags(self):
        assert Normal().is_proper and Student(4).is_proper and LPTN(0.95).is_proper
        assert not CTN(0.98).is_proper


class TestFrozenValues:
    @pytest.mark.parametrize("cls, args, text, attrs", [
        (Normal, (), "Normal()", ("name",)),
        (Student, (4,), "Student(gamma=4.0)", ("gamma",)),
        (LPTN, (0.95,), "LPTN(rho=0.95)", ("rho", "tau", "theta")),
        (CTN, (0.98,), "CTN(varrho=0.98)", ("varrho", "kappa")),
    ])
    def test_immutable_hashable_and_repr(self, cls, args, text, attrs):
        family = cls(*args)
        assert repr(family) == text
        twin = cls(*args)
        assert family == twin and hash(family) == hash(twin)
        assert len({family, twin}) == 1
        before = {a: getattr(family, a) for a in attrs}
        for attr in attrs:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(family, attr, 0.5)
        assert {a: getattr(family, a) for a in attrs} == before

    def test_parameters_decide_equality(self):
        assert Student(4) == Student(4.0) and Student(4) != Student(5)
        assert LPTN(0.95) != LPTN(0.9)
        assert LPTN(0.95) != CTN(0.95)


class TestLogDensity:
    def test_central_matching_is_exact(self):
        # The central branch is the same expression as the normal family,
        # so matching must be bitwise, not just close.
        z = np.linspace(-1.9, 1.9, 101)
        normal = Normal().log_density(z)
        np.testing.assert_array_equal(LPTN(0.95).log_density(z), normal)
        np.testing.assert_array_equal(CTN(0.98).log_density(z), normal)

    @pytest.mark.parametrize("family", [LPTN(0.95), CTN(0.98)])
    def test_all_central_batch_matches_mixed_batch(self, family):
        # An all-central batch skips the tail branch; its values are the
        # bits the same arguments get beside a tail argument.
        thr = getattr(family, "tau", None) or family.kappa
        z = np.array([-thr, -0.3, -0.0, 0.0, 0.7, thr])
        for method in (family.log_density, family.grad_log_density):
            mixed = method(np.append(z, 2.0 * thr), check=False)
            assert method(z, check=False).tobytes() == mixed[:-1].tobytes()

    @pytest.mark.parametrize("rho", [0.7, 0.95, 0.999])
    def test_lptn_all_tail_batch_matches_mixed_batch(self, rho):
        # An all-tail batch skips the central branch; its values are the
        # bits the same arguments get beside a central argument, on both
        # sides, from just past tau to far out.
        family = LPTN(rho)
        far = family.tau * np.array([np.nextafter(1.0, 2.0), 1.5, 7.0, 1e3,
                                     1e150])
        for z in (far, -far, np.concatenate([far, -far])):
            for method in (family.log_density, family.grad_log_density):
                mixed = method(np.append(z, 0.5), check=False)
                assert method(z, check=False).tobytes() == mixed[:-1].tobytes()

    def test_lptn_center(self):
        assert LPTN(0.95).log_density(0.0) == pytest.approx(LOG_PHI_0, abs=1e-7)

    def test_ctn_constant_tail(self):
        fam = CTN(0.98)
        # log phi(kappa) = log phi(0) - kappa^2 / 2
        expected = LOG_PHI_0 - fam.kappa ** 2 / 2
        assert fam.log_density(5.0) == pytest.approx(expected, abs=1e-12)
        assert fam.log_density(5.0) == pytest.approx(-3.624885748731842, abs=1e-9)
        assert fam.log_density(5.0) == fam.log_density(500.0)

    def test_lptn_tail_branch(self):
        fam = LPTN(0.95)
        z = 3.0
        manual = (math.log(normal_pdf(fam.tau)) + math.log(fam.tau / z)
                  + fam.theta * (math.log(math.log(fam.tau))
                                 - math.log(math.log(z))))
        assert fam.log_density(z) == pytest.approx(manual, abs=1e-12)
        assert fam.log_density(z) == pytest.approx(-5.266881750834798, abs=1e-9)

    @pytest.mark.parametrize("family", [LPTN(0.95), LPTN(0.9), CTN(0.98)])
    def test_continuity_at_kink(self, family):
        thr = getattr(family, "tau", None) or family.kappa
        eps = 1e-9
        below = family.log_density(thr - eps)
        above = family.log_density(thr + eps)
        assert abs(below - above) < 1e-7
        # one-sided limits agree to 1e-12 after removing the O(eps) slope
        assert abs(family.log_density(thr) - family.log_density(np.nextafter(thr, 4.0))) < 1e-12

    def test_student_full_normalization(self):
        # Frozen against an independent Student-pdf evaluation.
        assert Student(4).log_density(2.0) == pytest.approx(
            -2.713697204411589, abs=1e-12)

    @pytest.mark.parametrize("family", [Normal(), Student(4), LPTN(0.95), CTN(0.98)])
    def test_monotone_tails(self, family):
        z = np.linspace(0, 60, 2001)
        dens = family.density(z)
        assert np.all(np.diff(dens) <= 1e-300)

    def test_nonfinite_rejected(self):
        # The methods validate by default; only check=False skips it.
        for family in (Normal(), Student(4), LPTN(0.95), CTN(0.98)):
            for method in (family.log_density, family.grad_log_density):
                for bad in (np.inf, -np.inf, np.nan):
                    with pytest.raises(ValueError, match="finite"):
                        method(bad)
                    with pytest.raises(ValueError, match="finite"):
                        method(np.array([0.5, bad, 3.0]))

    @pytest.mark.parametrize("family", [LPTN(0.95), CTN(0.98)])
    def test_empty_argument(self, family):
        for method in (family.log_density, family.grad_log_density):
            for check in (True, False):
                assert method(np.empty(0), check=check).shape == (0,)

    def test_unchecked_matches_checked(self):
        z = np.array([-40.0, -2.5, -0.3, 0.0, 0.7, 1.9, 3.0, 1e6])
        for family in (Normal(), Student(4), LPTN(0.95), CTN(0.98)):
            for method in (family.log_density, family.grad_log_density):
                assert np.array_equal(method(z, check=False), method(z))


class TestNormalization:
    @staticmethod
    def integral(family, inner=50.0, outer=1e6):
        fam_pts = [getattr(family, "tau", 0.0) or 0.0]
        center = integrate.quad(family.density, -inner, inner,
                                points=[-p for p in fam_pts] + [0.0] + fam_pts,
                                limit=400)[0]

        def tail_logsub(u):
            # substitution z = e^u tames the decades-long polynomial tails
            z = math.exp(u)
            return family.density(z) * z

        tail = integrate.quad(tail_logsub, math.log(inner), math.log(outer),
                              limit=400)[0]
        return center + 2 * tail

    @pytest.mark.parametrize("family", [Normal(), Student(4), Student(1),
                                        LPTN(0.95)])
    def test_proper_families_integrate_to_one(self, family):
        assert self.integral(family) == pytest.approx(1.0, abs=1e-4)

    def test_heavier_lptn_integrates_to_one(self):
        # rho = 0.9 has theta ~ 2.69; the log-Pareto mass beyond 1e6 is
        # ~3.7e-4 and there is still ~1.1e-4 beyond 1e12, so the tolerance
        # tracks the analytic truncation remainder.
        assert self.integral(LPTN(0.9)) == pytest.approx(1.0, abs=5e-4)
        assert self.integral(LPTN(0.9), outer=1e12) == pytest.approx(1.0, abs=2e-4)

    def test_ctn_integral_grows_linearly(self):
        fam = CTN(0.98)
        vals = [self.integral(fam, outer=R) for R in (1e3, 1e4, 1e5)]
        slope = 2 * normal_pdf(fam.kappa)
        for R, v in zip((1e3, 1e4, 1e5), vals):
            assert v == pytest.approx(slope * R, rel=0.02)


class TestGradient:
    def test_normal_score(self):
        assert Normal().grad_log_density(1.7) == -1.7

    def test_student_closed_form(self):
        # -(gamma + 1) z / (gamma + z^2) at gamma=4, z=2
        assert Student(4).grad_log_density(2.0) == pytest.approx(-1.25, abs=1e-15)

    def test_ctn_tail_is_flat(self):
        assert CTN(0.98).grad_log_density(5.0) == 0.0
        assert CTN(0.98).grad_log_density(-17.0) == 0.0

    def test_lptn_tail_formula(self):
        fam = LPTN(0.95)
        z = 3.0
        assert fam.grad_log_density(z) == pytest.approx(
            -1 / z - fam.theta / (z * math.log(z)), abs=1e-14)
        assert fam.grad_log_density(-z) == -fam.grad_log_density(z)

    @pytest.mark.parametrize("family", [LPTN(0.95), CTN(0.98)])
    def test_kink_returns_interior_branch(self, family):
        thr = getattr(family, "tau", None) or family.kappa
        assert family.grad_log_density(thr) == -thr
        assert family.grad_log_density(-thr) == thr

    @pytest.mark.parametrize("family", [Normal(), Student(4), Student(1),
                                        LPTN(0.95), LPTN(0.9), CTN(0.98)])
    def test_matches_finite_differences(self, family):
        rng = np.random.default_rng(42)
        z = np.concatenate([rng.normal(0, 1, 60), rng.normal(0, 6, 60)])
        thr = getattr(family, "tau", None) or getattr(family, "kappa", None)
        if thr is not None:
            z = z[np.abs(np.abs(z) - thr) > 1e-4]
        h = 1e-6
        fd = (family.log_density(z + h) - family.log_density(z - h)) / (2 * h)
        grad = family.grad_log_density(z)
        denom = np.maximum(np.abs(fd), 1e-3)
        assert np.max(np.abs(grad - fd) / denom) < 1e-5


def prior_share(mu, lambda2, family, beta=0.0, nu=0.0):
    # One coefficient prior's term in the posterior at (beta, nu): the
    # reduced target minus its flat-prior twin.  With n = 4 the prior
    # inverse-scale is lambda2 * sqrt(4) = 2 lambda2, exactly.
    q = [beta, nu]
    return (reduced_target(4, mu, lambda2, family).logpdf(q)[0]
            - reduced_target(4, family=None).logpdf(q)[0])


class TestCoefficientPrior:
    def test_reduces_to_standard_normal(self):
        assert prior_share(0.0, 0.5, Normal()) == pytest.approx(LOG_PHI_0,
                                                                abs=1e-7)

    def test_scale_jacobian(self):
        # log(lam / sigma) with lam = 2, at sigma = 1 and at sigma = e^0.3.
        assert prior_share(0.0, 1.0, Normal()) == pytest.approx(
            math.log(2.0) + LOG_PHI_0, abs=1e-7)
        assert prior_share(0.0, 1.0, Normal(), nu=0.3) == pytest.approx(
            math.log(2.0) - 0.3 + LOG_PHI_0, abs=1e-7)

    def test_lptn_tail_through_scaling(self):
        fam = LPTN(0.95)
        # lam = 1 and z = -10 lands in the tail branch
        assert prior_share(10.0, 0.5, fam) == pytest.approx(
            fam.log_density(-10.0), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            CoefficientPrior(mu=0.0, lam=0.0, family=Normal())
        with pytest.raises(ValueError):
            CoefficientPrior(mu=np.inf, lam=1.0, family=Normal())
