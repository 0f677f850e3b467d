"""Numerical verification of the conflict-resolution limit claims.

Each routine traces a limit statement along a finite grid and returns a
`RatioSeries` whose values should approach a known target:

* Student location conflicts: the scaled-over-unscaled prior density ratio
  tends to ``(sigma/lam)^gamma`` (a partial resolution; the trace remains).
* LPTN location conflicts: the same ratio tends to 1 (whole robustness).
* LPTN scaling conflicts: the density collapses like
  ``phi(tau) * tau / |beta - mu| * (log tau / log lam)^theta``; the ratio
  against that asymptote tends to 1 at a log-slow rate.
* CTN conflicts: the scaled density over ``(lam/sigma) * phi(kappa)`` is
  exactly 1 once the argument passes the matching threshold, in either the
  location or the scaling regime.
* Marginal-ratio convergence: along an omega-parameterized conflict path
  the normalized marginal likelihood ratio tends to 1, with numerator and
  denominator both computed by the quadrature oracle on the reduced
  two-parameter posterior.

All ratios are formed in log space and exponentiated once at the end; the
unscaled densities underflow at moderate offsets otherwise.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .model import reduced_target
from .oracle import limiting_reduced_target, quadrature_moments
from .priors import CTN, LPTN, Student
from .specfun import normal_pdf

__all__ = ["ConflictPath", "RatioSeries", "ScalingTrace",
           "prior_ratio_student", "prior_ratio_lptn", "lptn_scaling_trace",
           "prior_limit_ctn", "marginal_ratio_convergence",
           "limiting_summary_comparison", "SummaryComparison",
           "write_series_csv", "DEFAULT_POINTWISE_GRID", "DEFAULT_QUAD_GRID"]

DEFAULT_POINTWISE_GRID = tuple(float(x) for x in np.logspace(1, 8, 8))
DEFAULT_QUAD_GRID = tuple(float(x) for x in np.logspace(0, 4, 5))


@dataclass(frozen=True)
class ConflictPath:
    """Omega-parameterized drift of one coefficient prior.

    The location moves as ``mu(omega) = a + b * omega`` and the inverse
    scale as ``lam(omega) = c + d * omega``.  A coefficient conflicts in
    location if ``b != 0`` and in scaling if ``d > 0``; the two modes are
    mutually exclusive.
    """

    a: float = 0.0
    b: float = 0.0
    c: float = 1.0
    d: float = 0.0

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.d < 0:
            raise ValueError(f"d must be nonnegative, got {self.d}")
        if self.b != 0 and self.d > 0:
            raise ValueError("location (b != 0) and scaling (d > 0) conflicts "
                             "are mutually exclusive on one coefficient")

    def mu(self, omega):
        return self.a + self.b * np.asarray(omega, dtype=float)

    def lam(self, omega):
        return self.c + self.d * np.asarray(omega, dtype=float)

    @property
    def conflicts_location(self):
        return self.b != 0

    @property
    def conflicts_scaling(self):
        return self.d > 0


@dataclass
class RatioSeries:
    """Ratio values along an increasing grid, with their target limit."""

    omega: np.ndarray
    ratio: np.ndarray
    target: float
    family: str
    label: str = ""

    def __post_init__(self):
        self.omega = np.asarray(self.omega, dtype=float)
        self.ratio = np.asarray(self.ratio, dtype=float)
        if np.any(np.diff(self.omega) <= 0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(self.ratio)) or np.any(self.ratio <= 0):
            raise ValueError("ratios must be finite and positive")

    @property
    def abs_err(self):
        return np.abs(self.ratio - self.target)

    def tail_nonincreasing(self, k=3):
        """Whether |ratio - target| is nonincreasing over the last k points."""
        err = self.abs_err[-k:]
        return bool(np.all(np.diff(err) <= 1e-15))


def _grid(grid, default):
    g = np.asarray(default if grid is None else grid, dtype=float)
    if np.any(np.diff(g) <= 0):
        raise ValueError("grid must be strictly increasing")
    return g


def _prior_ratio(family, lam, sigma, beta, mu_grid, trace_power, label):
    # Scaled over unscaled prior density of one family along a location
    # drift; the ratio tends to (sigma/lam)^trace_power.
    if lam <= 0 or sigma <= 0:
        raise ValueError("lam and sigma must be positive")
    mu = _grid(mu_grid, DEFAULT_POINTWISE_GRID)
    scale = lam / sigma
    log_ratio = (np.log(scale) + family.log_density(scale * (beta - mu))
                 - family.log_density(mu))
    return RatioSeries(mu, np.exp(log_ratio),
                       target=(sigma / lam) ** trace_power,
                       family=family.name, label=label)


def prior_ratio_student(lam, sigma, beta, gamma, mu_grid=None):
    """Student scaled/unscaled prior density ratio along a location drift.

    The ratio ``(lam/sigma) g((lam/sigma)(beta - mu)) / g(mu)`` tends to
    ``(sigma/lam)^gamma`` as the location goes to infinity.
    """
    return _prior_ratio(Student(gamma), lam, sigma, beta, mu_grid, gamma,
                        f"student gamma={gamma} lam={lam} sigma={sigma}")


def prior_ratio_lptn(lam, sigma, beta, rho, mu_grid=None):
    """LPTN scaled/unscaled prior density ratio along a location drift.

    Asymptotic location-scale invariance: the limit is 1 no matter the
    scale, at a log-polynomial rate.
    """
    return _prior_ratio(LPTN(rho), lam, sigma, beta, mu_grid, 0,
                        f"lptn rho={rho} lam={lam} sigma={sigma}")


@dataclass
class ScalingTrace:
    """LPTN density collapse under a scaling conflict.

    ``density`` holds ``(lam/sigma) g((lam/sigma)(beta - mu))`` along the
    grid; ``asymptote`` the collapse law proportional to ``1/|beta - mu|``;
    ``companion`` their ratio, whose limit is 1 at a log-slow rate.
    """

    lam: np.ndarray
    density: np.ndarray
    asymptote: np.ndarray
    companion: RatioSeries


def lptn_scaling_trace(beta, mu, sigma, rho, lam_grid=None):
    """Trace the LPTN prior density as its scaling collapses onto ``mu``.

    Requires ``beta != mu``: on the knot itself the density grows without
    bound and no trace limit exists.
    """
    if beta == mu:
        raise ValueError("beta == mu is degenerate: the collapsing prior "
                         "density diverges there")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    lam = _grid(lam_grid, tuple(float(x) for x in np.logspace(1, 12, 12)))
    fam = LPTN(rho)
    scale = lam / sigma
    delta = abs(beta - mu)
    log_density = np.log(scale) + fam.log_density(scale * (beta - mu))
    log_asymptote = (fam.log_density(fam.tau) + np.log(fam.tau / delta)
                     + fam.theta * (np.log(np.log(fam.tau)) - np.log(np.log(lam))))
    companion = RatioSeries(lam, np.exp(log_density - log_asymptote),
                            target=1.0, family="lptn",
                            label=f"lptn scaling trace rho={rho} delta={delta}")
    return ScalingTrace(lam=lam, density=np.exp(log_density),
                        asymptote=np.exp(log_asymptote), companion=companion)


def prior_limit_ctn(beta, varrho, regime, lam=1.0, mu=None, sigma=1.0,
                    grid=None):
    """CTN scaled density over its constant-tail value along a conflict.

    ``regime='location'`` drifts the location with ``lam`` fixed;
    ``regime='scaling'`` grows ``lam`` with ``mu`` fixed (and different
    from ``beta``).  The ratio equals 1 exactly once the standardized
    offset passes the matching threshold: the limit is attained, not
    approached.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    fam = CTN(varrho)
    if regime == "location":
        axis = _grid(grid, DEFAULT_POINTWISE_GRID)
        z = (lam / sigma) * (beta - axis)
        label = f"ctn location varrho={varrho} lam={lam}"
    elif regime == "scaling":
        if mu is None or mu == beta:
            raise ValueError("scaling regime needs a fixed mu different "
                             "from beta")
        axis = _grid(grid, DEFAULT_POINTWISE_GRID)
        z = (axis / sigma) * (beta - mu)
        label = f"ctn scaling varrho={varrho} mu={mu}"
    else:
        raise ValueError(f"unknown regime {regime!r}")
    log_ratio = fam.log_density(z) - fam.log_density(fam.kappa)
    return RatioSeries(axis, np.exp(log_ratio), target=1.0, family="ctn",
                       label=label)


def _check_limit_condition(n, p, n_location):
    # Sufficient condition for the location-conflict limits, in its stricter
    # appendix form n + |C^c| >= 2p + 1 + |C_b| (the statement form has -1);
    # the reduced experiments satisfy both with slack.
    n_free = p - n_location
    if n + n_free < 2 * p + 1 + n_location:
        warnings.warn(
            f"n={n}, p={p} with {n_location} location conflicts does not "
            "satisfy the sufficient sample-size condition; the limit is not "
            "guaranteed", UserWarning, stacklevel=3)


def marginal_ratio_convergence(path, family, n=100, omega_grid=None,
                               quad_tol=1e-10):
    """Normalized marginal-likelihood ratio along a conflict path.

    For a location conflict the marginal of the drifting posterior is
    normalized by the unscaled prior density at the drifted location; for a
    constant-tail scaling conflict by ``lam_eff * phi(kappa)``.  Both the
    drifting marginal and the limiting one come from the quadrature oracle
    on reduced targets, so the series tends to 1 when the corresponding
    limit theorem applies.  A path with no conflict is constant by
    construction (its normalizer is 1 and the limit is itself).
    """
    omega = _grid(omega_grid, DEFAULT_QUAD_GRID)
    if path.conflicts_scaling:
        if not isinstance(family, CTN):
            raise ValueError("scaling-conflict limits hold for the "
                             "constant-tailed family only")
        _check_limit_condition(n, 1, 0)
        bar = limiting_reduced_target(n, n_ctn_conflicts=1)
        log_norms = [np.log(float(path.lam(w)) * np.sqrt(n))
                     + np.log(normal_pdf(family.kappa)) for w in omega]
        label = f"scaling-conflict marginal ratio (ctn, d={path.d})"
    elif path.conflicts_location:
        if not isinstance(family, LPTN):
            raise ValueError("whole-robustness location limits hold for the "
                             "log-Pareto-tailed family only")
        _check_limit_condition(n, 1, 1)
        bar = limiting_reduced_target(n)
        log_norms = [family.log_density(float(path.mu(w))) for w in omega]
        label = f"location-conflict marginal ratio (lptn, b={path.b})"
    else:
        target = reduced_target(n, mu2=path.a, lambda2=path.c, family=family)
        log_m = quadrature_moments(target, tol=quad_tol).log_norm
        # m_omega / m_omega: the normalizers are empty.
        return RatioSeries(omega, np.ones(len(omega)), target=1.0,
                           family=family.name,
                           label=f"no-conflict path (log m = {log_m:.6f})")
    log_mbar = quadrature_moments(bar, tol=quad_tol).log_norm
    ratios = []
    for w, log_norm in zip(omega, log_norms):
        target = reduced_target(n, mu2=float(path.mu(w)),
                                lambda2=float(path.lam(w)), family=family)
        log_mw = quadrature_moments(target, tol=quad_tol).log_norm
        ratios.append(np.exp(log_mw - log_norm - log_mbar))
    return RatioSeries(omega, np.asarray(ratios), target=1.0,
                       family=family.name, label=label)


@dataclass
class SummaryComparison:
    """Posterior moments along a conflict path next to their limit values."""

    omega: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    limiting_mean: float
    limiting_sd: float
    family: str


def limiting_summary_comparison(path, family, n=100, omega_grid=None,
                                quad_tol=1e-10):
    """Posterior mean/sd of the coefficient along a path, with limit values.

    Quantifies how fast each family's posterior approaches its limit: the
    heavy log-Pareto tails resolve location conflicts faster than Student
    tails, and constant tails resolve scaling conflicts essentially at a
    finite threshold.
    """
    omega = _grid(omega_grid, DEFAULT_QUAD_GRID)
    means, sds = [], []
    for w in omega:
        target = reduced_target(n, mu2=float(path.mu(w)),
                                lambda2=float(path.lam(w)), family=family)
        res = quadrature_moments(target, tol=quad_tol)
        means.append(res.mean)
        sds.append(res.sd)
    bar = limiting_reduced_target(
        n, n_ctn_conflicts=int(path.conflicts_scaling and isinstance(family, CTN)))
    bar_res = quadrature_moments(bar, tol=quad_tol)
    return SummaryComparison(omega=omega, mean=np.asarray(means),
                             sd=np.asarray(sds),
                             limiting_mean=bar_res.mean,
                             limiting_sd=bar_res.sd, family=family.name)


def write_series_csv(series_list, path, comments=()):
    """Write ratio series as ``omega,ratio,target,abs_err`` rows.

    Each series is introduced by a ``# series = <label>`` comment line, so
    several series share one file without extra data columns.
    """
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(["omega", "ratio", "target", "abs_err"])
        for series in series_list:
            fh.write(f"# series = {series.label or series.family}\n")
            for w, r, e in zip(series.omega, series.ratio, series.abs_err):
                writer.writerow([repr(float(w)), repr(float(r)),
                                 repr(float(series.target)), repr(float(e))])
