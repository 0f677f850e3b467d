"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance is fixed here, not tuned at runtime.  Regression values
marked as such were computed once from the quadrature oracle (and
cross-checked against an independent scipy.integrate.dblquad evaluation)
and then frozen.

Criterion 4 contains one sub-claim that is quantitatively unattainable (the
log-Pareto-tailed prior does not track the conjugate attraction curve over
the scaling sweep; it is mid-rejection there, which is exactly the slow
partial rejection the sweep exists to show).  That sub-claim is kept as a
faithful assertion and marked as an expected failure; see the decisions
ledger for the measured numbers.
"""

import csv
import time
import zlib

import numpy as np
import pytest

from scipy.stats import invgamma

from robustpriors.asymptotics import (ConflictPath, _limiting_sigma_posterior,
                                      lptn_scaling_trace,
                                      marginal_ratio_convergence,
                                      prior_ratio)
from robustpriors.cli import main as cli_main
from robustpriors.model import reduced_target
from robustpriors.oracle import (conjugate_posterior, jeffreys_benchmark,
                                 quadrature_moments)
from robustpriors.priors import CTN, LPTN, Normal, Student
from robustpriors.sampler import HmcConfig, ess_imse, leapfrog, sample, summarize
from robustpriors.specfun import normal_cdf

N = 100

# Light sampler settings for the nine-target grid; the benchmark criterion
# uses the full defaults.
GRID_HMC = dict(n_samples=4000, n_warmup=800, n_chains=2)


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


def hmc_moment_checks(target, ref_mean, ref_var, config):
    """Mean and variance of the focal coefficient vs references, in MCSE units.

    The variance MCSE comes from the effective sample size of the centered
    squared draws, which mix slower than the draws themselves.
    """
    chains = sample(target, config)
    stats = summarize(chains).row("beta_1")
    x = np.concatenate([c.draws[:, 0] for c in chains])
    mean_err = abs(stats["mean"] - ref_mean) / stats["mcse"]
    centered_sq = [(c.draws[:, 0] - x.mean()) ** 2 for c in chains]
    ess_var = sum(ess_imse(s) for s in centered_sq)
    mcse_var = np.concatenate(centered_sq).std(ddof=1) / np.sqrt(ess_var)
    var_err = abs(x.var(ddof=1) - ref_var) / mcse_var
    return mean_err, var_err


def test_criterion_1_jeffreys_benchmark():
    t0 = time.perf_counter()
    mean_ref, var_ref = jeffreys_benchmark(N)
    quad = quadrature_moments(reduced_target(N, family=None))
    quad_mean_ok = abs(quad.mean) < 1e-6
    quad_var_rel = abs(quad.variance - var_ref) / var_ref
    mean_err, var_err = hmc_moment_checks(
        reduced_target(N, family=None), mean_ref, var_ref,
        HmcConfig(rng_seed=11))
    elapsed = time.perf_counter() - t0
    ok = (quad_mean_ok and quad_var_rel <= 1e-3 and mean_err <= 3
          and var_err <= 3 and elapsed < 30)
    report(1, ok,
           f"quad mean {quad.mean:.2e} (<1e-6), var rel dev {quad_var_rel:.2e} "
           f"(<=1e-3), hmc mean {mean_err:.2f} mcse / var {var_err:.2f} mcse "
           f"(<=3), elapsed {elapsed:.1f}s (<30s)")
    assert quad_mean_ok
    assert quad_var_rel <= 1e-3
    assert mean_err <= 3 and var_err <= 3
    assert elapsed < 30


def test_criterion_2_conjugate_equivalence():
    t0 = time.perf_counter()
    worst = dict(qmean=0.0, qvar=0.0, hmean=0.0, hvar=0.0)
    seed = 100
    for mu2 in (0.0, 1.0, 2.0):
        for lam2 in (0.5, 1.0, 2.0):
            ref = conjugate_posterior(N, mu2, lam2)
            target = reduced_target(N, mu2, lam2, Normal())
            quad = quadrature_moments(target)
            worst["qmean"] = max(worst["qmean"], abs(quad.mean - ref.beta_mean))
            worst["qvar"] = max(worst["qvar"],
                                abs(quad.variance - ref.beta_variance)
                                / ref.beta_variance)
            seed += 1
            m, v = hmc_moment_checks(target, ref.beta_mean, ref.beta_variance,
                                     HmcConfig(rng_seed=seed, **GRID_HMC))
            worst["hmean"] = max(worst["hmean"], m)
            worst["hvar"] = max(worst["hvar"], v)
    elapsed = time.perf_counter() - t0
    ok = (worst["qmean"] <= 1e-4 and worst["qvar"] <= 1e-3
          and worst["hmean"] <= 3 and worst["hvar"] <= 3 and elapsed < 120)
    report(2, ok,
           f"worst quad mean dev {worst['qmean']:.2e} (<=1e-4), var rel "
           f"{worst['qvar']:.2e} (<=1e-3); worst hmc {worst['hmean']:.2f}/"
           f"{worst['hvar']:.2f} mcse (<=3); elapsed {elapsed:.1f}s (<120s)")
    assert worst["qmean"] <= 1e-4
    assert worst["qvar"] <= 1e-3
    assert worst["hmean"] <= 3 and worst["hvar"] <= 3
    assert elapsed < 120


def _run_sweep(tmp_path, axis, families, **kw):
    out = tmp_path / f"sweep_{axis}.csv"
    argv = ["sweep", "--axis", axis, "--families", families,
            "--quad-tol", "1e-8", "--out", str(out)]
    for key, val in kw.items():
        argv += [f"--{key}", str(val)]
    assert cli_main(argv) == 0
    table = {}
    with open(out) as fh:
        for row in csv.reader(r for r in fh if not r.startswith("#")):
            if row[0] == "family":
                continue
            fam, _, mu2, lam2, mean, sd = row
            key = float(mu2) if axis == "mu2" else float(lam2)
            table.setdefault(fam, {})[key] = (float(mean), float(sd))
    return table


def test_criterion_3_location_sweep(tmp_path):
    table = _run_sweep(tmp_path, "mu2", "jeffreys,normal,student,lptn")
    grid = sorted(table["normal"])
    assert grid[0] == 0.0 and grid[-1] == 2.0 and len(grid) == 41

    # (i) conjugate mean is exactly linear with slope 1/2 at lambda2 = 1
    slope_ok = all(table["normal"][m][0] == pytest.approx(m / 2, abs=1e-12)
                   for m in grid)
    # (ii) whole robustness at the sweep end; the 0.0126 value is a frozen
    # regression number from the quadrature oracle (dblquad cross-check).
    lptn_end = table["lptn"][2.0][0]
    lptn_ok = abs(lptn_end) < 0.05 and lptn_end == pytest.approx(0.012575,
                                                                 abs=2e-3)
    # (iii) Student resolves the same conflict more slowly (frozen 0.0270)
    student_end = table["student"][2.0][0]
    student_ok = abs(student_end) > abs(lptn_end)
    # (iv) flat-prior sd is constant at sqrt(1/97)
    jeff_ok = all(table["jeffreys"][m][1] == pytest.approx(np.sqrt(1 / 97),
                                                           rel=1e-12)
                  for m in grid)
    ok = slope_ok and lptn_ok and student_ok and jeff_ok
    report(3, ok,
           f"normal slope exact: {slope_ok}; lptn mean at 2 = {lptn_end:.4f} "
           f"(<0.05, pinned 0.0126); student mean at 2 = {student_end:.4f} "
           f"(> lptn); jeffreys sd constant: {jeff_ok}")
    assert slope_ok and lptn_ok and student_ok and jeff_ok


@pytest.fixture(scope="module")
def lambda_sweep(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    return _run_sweep(tmp, "lambda2", "normal,lptn,ctn,ctn_corrected",
                      mu2=0.5)


def test_criterion_4_scaling_sweep(lambda_sweep):
    table = lambda_sweep
    grid = sorted(table["normal"])
    assert grid[0] == 0.02 and grid[-1] == 2.0

    # Constant-tail resolution: mean at lambda2 = 2 near the limit law mean
    # (zero by symmetry of the sigma^{-1}-adjusted flat-prior target).
    limit = quadrature_moments(reduced_target(N, family=None, sigma_power=-1))
    ctn_end = table["ctn"][2.0][0]
    ctn_ok = abs(ctn_end - limit.mean) < 0.05

    # Normal column must be the conjugate closed form exactly.
    normal_ok = all(
        table["normal"][l][0] == pytest.approx(0.5 * l ** 2 / (1 + l ** 2),
                                               abs=1e-12)
        for l in grid)

    # Correcting the scale prior for the constant-tail trace moves nothing
    # visible: the two mean columns sit on top of each other.
    corr_dev = max(abs(table["ctn"][l][0] - table["ctn_corrected"][l][0])
                   for l in grid)
    corr_ok = corr_dev <= 0.01

    ok = ctn_ok and normal_ok and corr_ok
    report("4 (attainable part)", ok,
           f"ctn mean at 2 = {ctn_end:.4f} vs limit {limit.mean:.4f} "
           f"(|diff|<0.05); normal exact: {normal_ok}; ctn vs corrected max "
           f"dev {corr_dev:.4f} (<=0.01)")
    assert ctn_ok and normal_ok and corr_ok


@pytest.mark.xfail(
    strict=True,
    reason="spec defect: over the scaling sweep the log-Pareto-tailed prior "
           "is already mid-rejection (mean 0.143 vs conjugate 0.25 at "
           "lambda2=1; 0.124 vs 0.40 at lambda2=2, two independent "
           "integrators agree), so it cannot stay within 0.05 of the "
           "conjugate attraction curve; see decisions ledger")
def test_criterion_4_lptn_stays_attracted(lambda_sweep):
    table = lambda_sweep
    devs = {l: abs(table["lptn"][l][0] - 0.5 * l ** 2 / (1 + l ** 2))
            for l in sorted(table["lptn"])}
    worst = max(devs.values())
    report("4 (lptn attraction)", worst <= 0.05,
           f"max |lptn mean - conjugate| over sweep = {worst:.3f} (<=0.05 "
           f"required; holds only for lambda2 <= "
           f"{max((l for l, d in devs.items() if d <= 0.05), default=0):.2f})")
    assert worst <= 0.05


def test_criterion_5_limiting_sigma_posteriors():
    far = 1e6
    results = {}
    for fam, tol in ((LPTN(0.95), 0.01), (Student(4.0), 0.02)):
        quad = quadrature_moments(reduced_target(N, far, 1.0, fam))
        shape, scale = _limiting_sigma_posterior(ConflictPath(b=1.0), fam, N)
        law = invgamma(shape, scale=scale)
        mean_dev = abs(quad.sigma_sq_mean - law.mean()) / law.mean()
        sd_dev = abs(quad.sigma_sq_sd - law.std()) / law.std()
        results[fam.name] = (mean_dev, sd_dev, tol, shape)
    ok = all(mean_dev <= tol for mean_dev, _, tol, _ in results.values())
    detail = "; ".join(
        f"{name}: E[s^2] dev {m:.3%} (<= {tol:.0%} of IG({shape:g},50); "
        f"sd dev {s:.3%} informational, the quoted shapes sit 1/2 below the "
        f"exact transformation law)"
        for name, (m, s, tol, shape) in results.items())
    report(5, ok, detail)
    for name, (mean_dev, _, tol, _) in results.items():
        assert mean_dev <= tol, name


def test_criterion_6_pointwise_asymptotics():
    t0 = time.perf_counter()
    # Regularly-varying limit across the 27-combination grid; each ratio is
    # over its (sigma/lam)^gamma trace, so the error is relative.
    location = ConflictPath(b=1.0)
    student_worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        for sig in (0.5, 1.0, 2.0):
            for gam in (1.0, 4.0, 10.0):
                s = prior_ratio(ConflictPath(b=1.0, c=lam), Student(gam), 1.0,
                                sigma=sig)
                student_worst = max(student_worst, float(s.abs_err[-1]))
                assert s.tail_nonincreasing()
    student_ok = student_worst <= 0.01

    lptn = prior_ratio(location, LPTN(0.95), 1.0)
    lptn_ok = float(lptn.abs_err[-1]) <= 0.05 and lptn.tail_nonincreasing()

    ctn_loc = prior_ratio(location, CTN(0.98), 0.0)
    ctn_scl = prior_ratio(ConflictPath(a=0.5, c=1.0, d=1.0), CTN(0.98), 0.0)
    ctn_ok = bool(np.all(ctn_loc.ratio == 1.0) and np.all(ctn_scl.ratio == 1.0))

    trace = lptn_scaling_trace(0.5, 0.0, 1.0, 0.95,
                               lam_grid=np.logspace(1, 12, 12))
    comp = trace.companion
    # Monotone, and still visibly unconverged: frozen regression bounds from
    # this oracle (0.2339 at 1e6, 0.1093 at 1e12).
    trace_ok = (bool(np.all(np.diff(comp.abs_err) < 0))
                and comp.abs_err[5] <= 0.25 and 0.01 <= comp.abs_err[11] <= 0.12)
    elapsed = time.perf_counter() - t0
    ok = student_ok and lptn_ok and ctn_ok and trace_ok and elapsed < 10
    report(6, ok,
           f"student worst rel {student_worst:.2e} (<=1%); lptn err "
           f"{float(lptn.abs_err[-1]):.2e} (<=0.05, monotone); ctn exact: "
           f"{ctn_ok}; trace companion {comp.abs_err[5]:.3f}/"
           f"{comp.abs_err[11]:.3f} at 1e6/1e12 (monotone, slow); "
           f"elapsed {elapsed:.1f}s (<10s)")
    assert student_ok and lptn_ok and ctn_ok and trace_ok
    assert elapsed < 10


def test_criterion_7_ctn_marginal_ratio():
    t0 = time.perf_counter()
    series = marginal_ratio_convergence(
        ConflictPath(a=0.5, c=1.0, d=1.0), CTN(0.98),
        omega_grid=[1.0, 10.0, 100.0, 1000.0, 10000.0])
    terminal = float(abs(series.ratio[-1] - 1.0))
    elapsed = time.perf_counter() - t0
    ok = terminal <= 0.02 and elapsed < 120
    report(7, ok, f"ratio at omega=1e4 within {terminal:.2e} of 1 (<=0.02); "
                  f"elapsed {elapsed:.1f}s (<120s)")
    assert terminal <= 0.02
    assert series.tail_nonincreasing()
    assert elapsed < 120


def test_criterion_8_gradient_suite():
    h = 1e-6
    worst = 0.0
    for family in (Normal(), Student(4.0), LPTN(0.95), CTN(0.98)):
        target = reduced_target(N, 0.7, 1.3, family)
        thr = getattr(family, "tau", None) or getattr(family, "kappa", None)
        rng = np.random.default_rng(zlib.crc32(family.name.encode()))
        checked = 0
        while checked < 100:
            b = rng.normal(0.2, 0.8)
            nu = rng.normal(0.0, 0.4)
            z = 1.3 * np.sqrt(N) * np.exp(-nu) * (b - 0.7)
            if thr is not None and abs(abs(z) - thr) < 1e-4:
                continue
            g = target.grad_logpdf([b, nu])[0]
            fd_b = (target.logpdf([b + h, nu])[0]
                    - target.logpdf([b - h, nu])[0]) / (2 * h)
            fd_nu = (target.logpdf([b, nu + h])[0]
                     - target.logpdf([b, nu - h])[0]) / (2 * h)
            worst = max(worst,
                        abs(g[0] - fd_b) / max(abs(fd_b), 1.0),
                        abs(g[1] - fd_nu) / max(abs(fd_nu), 1.0))
            checked += 1
    ok = worst <= 1e-5
    report(8, ok, f"worst gradient rel err over 4 x 100 points: {worst:.2e} "
                  f"(<=1e-5, kink neighborhoods excluded)")
    assert worst <= 1e-5


class StdNormal1D:
    dim = 1

    def logpdf(self, q):
        q = np.atleast_2d(q)
        return -0.5 * q[:, 0] ** 2

    def grad_logpdf(self, q):
        return -np.atleast_2d(q)


def test_criterion_9_sampler_correctness(tmp_path):
    # Kolmogorov-Smirnov: 50k draws against the standard normal cdf.
    cfg = HmcConfig(step_size=0.2, leapfrog_steps=10, n_samples=50000,
                    n_warmup=1000, n_chains=1, rng_seed=17)
    draws = np.sort(sample(StdNormal1D(), cfg)[0].draws[:, 0])
    n = len(draws)
    cdf = normal_cdf(draws)
    ks = float(max(np.max(np.arange(1, n + 1) / n - cdf),
                   np.max(cdf - np.arange(0, n) / n)))

    # Bit-exact reruns, library and CSV level.
    t = reduced_target(N, family=None)
    cfg2 = HmcConfig(n_samples=500, n_warmup=100, n_chains=2, rng_seed=5)
    runs = [sample(t, cfg2) for _ in range(2)]
    exact = all(np.array_equal(a.draws, b.draws)
                for a, b in zip(runs[0], runs[1]))
    from robustpriors.sampler import save_chains
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, chains in zip(paths, runs):
        save_chains(chains, path)
    exact_csv = paths[0].read_bytes() == paths[1].read_bytes()

    # Leapfrog reversibility on the reduced posterior.
    tt = reduced_target(N, 2.0, 1.0, LPTN(0.95))
    q0 = np.array([[0.4, 0.1]])
    p0 = np.array([[-0.6, 0.8]])
    q1, p1, _ = leapfrog(tt, q0, p0, 0.05, 30)
    q2, p2, _ = leapfrog(tt, q1, -p1, 0.05, 30)
    rev = float(max(np.max(np.abs(q2 - q0)), np.max(np.abs(-p2 - p0))))

    ok = ks < 0.01 and exact and exact_csv and rev <= 1e-8
    report(9, ok, f"KS {ks:.4f} (<0.01) on 50k draws; deterministic reruns: "
                  f"{exact} (csv: {exact_csv}); reversibility {rev:.1e} "
                  f"(<=1e-8)")
    assert ks < 0.01
    assert exact and exact_csv
    assert rev <= 1e-8
