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
* Conflict paths: along an omega-parameterized path one walk integrates
  the reduced two-parameter posterior by quadrature at each omega and at
  its limit, the flat-prior target times the trace the prior leaves (none
  for LPTN location conflicts, sigma^gamma for Student ones, sigma^{-1}
  for CTN scaling conflicts: one rule, `_conflict_limit`).  The normalized
  marginal-likelihood ratio and the posterior-limit series, E[sigma^2]
  over the limit's, tend to 1.

All ratios are formed in log space and exponentiated once at the end; the
unscaled densities underflow at moderate offsets otherwise.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .model import reduced_target
from .oracle import quadrature_moments
from .priors import CTN, LPTN, Student
from .specfun import normal_pdf

__all__ = ["ConflictPath", "RatioSeries", "ScalingTrace",
           "prior_ratio_student", "prior_ratio_lptn", "lptn_scaling_trace",
           "prior_limit_ctn", "marginal_ratio_convergence",
           "posterior_limit_convergence", "DEFAULT_POINTWISE_GRID",
           "DEFAULT_QUAD_GRID"]

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


def _prior_ratio(family, lam, sigma, beta, mu_grid, label):
    # Scaled over unscaled prior density of one family along a location
    # drift; the ratio tends to (sigma/lam)^k (see `_conflict_limit`).
    if lam <= 0 or sigma <= 0:
        raise ValueError("lam and sigma must be positive")
    mu = _grid(mu_grid, DEFAULT_POINTWISE_GRID)
    scale = lam / sigma
    log_ratio = (np.log(scale) + family.log_density(scale * (beta - mu))
                 - family.log_density(mu))
    return RatioSeries(mu, np.exp(log_ratio),
                       target=(sigma / lam) ** _conflict_limit(
                           ConflictPath(b=1.0), family)[0],
                       family=family.name, label=label)


def prior_ratio_student(lam, sigma, beta, gamma, mu_grid=None):
    """Student scaled/unscaled prior density ratio along a location drift.

    The ratio ``(lam/sigma) g((lam/sigma)(beta - mu)) / g(mu)`` tends to
    ``(sigma/lam)^gamma`` as the location goes to infinity.
    """
    return _prior_ratio(Student(gamma), lam, sigma, beta, mu_grid,
                        f"student gamma={gamma} lam={lam} sigma={sigma}")


def prior_ratio_lptn(lam, sigma, beta, rho, mu_grid=None):
    """LPTN scaled/unscaled prior density ratio along a location drift.

    Asymptotic location-scale invariance: the limit is 1 no matter the
    scale, at a log-polynomial rate.
    """
    return _prior_ratio(LPTN(rho), lam, sigma, beta, mu_grid,
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
            "guaranteed", UserWarning, stacklevel=4)


def _conflict_limit(path, family):
    """The trace a rejected conflicting prior leaves along the path.

    Returns k, the power of the sigma^k the limit posterior carries over
    the flat-prior one, and the marginal's log normalizer at ``(omega, n)``:

    * LPTN location conflict: k = 0, normalizer log g(mu(omega));
    * Student location conflict: k = gamma, no marginal normalizer (None);
    * CTN scaling conflict: k = -1, normalizer
      log(lam(omega) sqrt(n)) + log phi(kappa).

    Any other family or path raises `ValueError`.
    """
    if path.conflicts_scaling:
        if not isinstance(family, CTN):
            raise ValueError("scaling-conflict limits hold for the "
                             "constant-tailed family only")
        return -1, lambda w, n: (np.log(float(path.lam(w)) * np.sqrt(n))
                                 + np.log(normal_pdf(family.kappa)))
    if not path.conflicts_location:
        raise ValueError("a path with no conflict has no limit to approach")
    if isinstance(family, LPTN):
        return 0, lambda w, n: family.log_density(float(path.mu(w)))
    if isinstance(family, Student):
        return family.gamma, None
    raise ValueError("location-conflict limits hold for the "
                     "log-Pareto-tailed and Student families only")


def _limit_target(path, family, n):
    """The reduced target's limit along the path: flat prior times sigma^k."""
    return reduced_target(n, family=None,
                          sigma_power=_conflict_limit(path, family)[0])


def _limiting_sigma_posterior(path, family, n):
    """Inverse-gamma (shape, scale) of sigma^2 in the far-conflict limit.

    The limit's sigma^k trace (see `_conflict_limit`) gives the quoted shape
    (n - k - 2)/2 and the scale n/2.

    These shapes follow the convention in which the sigma-marginal kernel
    sigma^{-m} exp(-(n/2)/sigma^2) is read off directly in sigma^2 (shape
    (m - 2)/2); the corresponding exact change-of-variables law has shape
    larger by 1/2.  First moments agree with the quadrature oracle to about
    1% at the sweep scales used here.
    """
    shape = (n - _conflict_limit(path, family)[0] - 2.0) / 2.0
    if shape <= 0:
        raise ValueError(f"nonpositive limiting shape {shape}; n too small")
    return shape, n / 2.0


def _walk(path, family, n, omega_grid, quad_tol, what, ratio):
    # The series ratio(omega, result, limit's result) of the reduced
    # target's QuadratureResults along the path, with target 1.
    omega = _grid(omega_grid, DEFAULT_QUAD_GRID)
    limit = quadrature_moments(_limit_target(path, family, n), tol=quad_tol)
    _check_limit_condition(n, 1, int(path.conflicts_location))
    ratios = [ratio(w, quadrature_moments(reduced_target(
        n, mu2=float(path.mu(w)), lambda2=float(path.lam(w)), family=family),
        tol=quad_tol), limit) for w in omega]
    kind, drift = (("scaling", f"d={path.d}") if path.conflicts_scaling
                   else ("location", f"b={path.b}"))
    return RatioSeries(omega, ratios, target=1.0, family=family.name,
                       label=f"{kind}-conflict {what} ({family.name}, {drift})")


def marginal_ratio_convergence(path, family, n=100, omega_grid=None,
                               quad_tol=1e-10):
    """Normalized marginal-likelihood ratio along a conflict path.

    For a location conflict the marginal of the drifting posterior is
    normalized by the unscaled prior density at the drifted location; for a
    constant-tail scaling conflict by ``lam_eff * phi(kappa)``.  Both the
    drifting marginal and the limiting one come from the quadrature oracle
    on reduced targets, so the series tends to 1 when the corresponding
    limit theorem applies.  Any other family or path, one with no conflict
    included, raises `ValueError` (see `_conflict_limit`).
    """
    log_normalizer = _conflict_limit(path, family)[1]
    if log_normalizer is None:
        raise ValueError("whole-robustness location limits hold for the "
                         "log-Pareto-tailed family only")
    return _walk(path, family, n, omega_grid, quad_tol, "marginal ratio",
                 lambda w, res, limit: np.exp(
                     res.log_norm - log_normalizer(w, n) - limit.log_norm))


def posterior_limit_convergence(path, family, n=100, omega_grid=None,
                                quad_tol=1e-10):
    """E[sigma^2] along a conflict path over its value at the limit.

    The posterior tends to the flat-prior one times the trace the
    conflicting prior leaves (see `_conflict_limit`): none under log-Pareto
    tails, sigma^gamma under Student tails, sigma^{-1} under constant tails
    in a scaling conflict.  The trace moves sigma^2, which the limit's
    coefficient mean (zero) cannot show, so the series is the ratio of
    sigma^2 means, with target 1.
    """
    return _walk(path, family, n, omega_grid, quad_tol,
                 "posterior sigma^2 mean over its limit",
                 lambda w, res, limit: res.sigma_sq_mean / limit.sigma_sq_mean)
