"""Numerical verification of the conflict-resolution limit claims.

Each routine traces a limit statement along a finite grid and returns a
`RatioSeries` with target 1.  One rule, `_conflict_limit`, gives every
far-conflict law along a `ConflictPath`: a rejected prior's factor
``(lam/sigma) g((lam/sigma)(beta - mu))`` tends to ``g(ref) (lam/sigma)^-k``
and the posterior to the flat-prior one times sigma^k.  In a location
conflict ref = mu(omega) and k is 0 for LPTN, gamma for Student and -1 for
CTN; in a CTN scaling conflict ref = kappa and k = -1.  Three series read
k and ref:

* `prior_ratio`, the factor over its law, pointwise;
* `marginal_ratio_convergence`, the reduced two-parameter posterior's
  marginal, by quadrature, over the law times the limit's marginal;
* `posterior_limit_convergence`, E[sigma^2] over the limit's.

LPTN scaling conflicts follow another law: `lptn_scaling_trace` traces the
density's collapse like ``phi(tau) * tau / |beta - mu| *
(log tau / log lam)^theta``, whose ratio tends to 1 at a log-slow rate.

All ratios are formed in log space and exponentiated once at the end; the
unscaled densities underflow at moderate offsets otherwise.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .model import reduced_target
from .oracle import quadrature_moments
from .priors import CTN, LPTN, Student

__all__ = ["ConflictPath", "RatioSeries", "ScalingTrace", "prior_ratio",
           "lptn_scaling_trace", "marginal_ratio_convergence",
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
        if not np.all(np.isfinite([self.a, self.b, self.c, self.d])):
            raise ValueError(f"a, b, c and d must be finite, got {self}")
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


def prior_ratio(path, family, beta, sigma=1.0, omega_grid=None):
    """Scaled prior density along a conflict path over its far-conflict law.

    With ``s = lam(omega) / sigma`` the conflicting prior's factor
    ``s g(s (beta - mu(omega)))`` tends to ``g(ref) s^-k`` (see
    `_conflict_limit`), so the ratio ``s^(1 + k) g(s (beta - mu)) / g(ref)``
    tends to 1: polynomially under Student tails, log-slowly under
    log-Pareto ones, and exactly, past a finite threshold, under constant
    tails.  A path that never moves the prior off ``beta`` raises.
    """
    k, ref = _conflict_limit(path, family)
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    if not (np.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if path.b == 0 and beta == path.a:
        raise ValueError("beta == mu on a path with a fixed location is "
                         "degenerate: the scaled offset stays 0")
    omega = _grid(omega_grid, DEFAULT_POINTWISE_GRID)
    s = path.lam(omega) / sigma
    log_ratio = ((1 + k) * np.log(s)
                 + family.log_density(s * (beta - path.mu(omega)))
                 - family.log_density(ref(omega)))
    return RatioSeries(omega, np.exp(log_ratio), target=1.0,
                       family=family.name,
                       label=f"prior ratio at beta={beta} sigma={sigma}: "
                             f"{family!r} along {path!r}")


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
    """The far-conflict law of a prior the data reject along the path.

    Its factor ``(lam/sigma) g((lam/sigma)(beta - mu))`` tends to
    ``g(ref) (lam/sigma)^-k``, so the posterior tends to the flat-prior one
    times sigma^k.  Returns k and ref, a function of omega:

    * location conflict: ref = mu(omega); k = 0 under log-Pareto tails,
      gamma under Student tails and -1 under constant tails;
    * CTN scaling conflict: ref = kappa, k = -1.

    Any other family or path raises `ValueError`.
    """
    if path.conflicts_scaling:
        if not isinstance(family, CTN):
            raise ValueError("scaling-conflict limits hold for the "
                             "constant-tailed family only")
        return -1, lambda omega: family.kappa
    if not path.conflicts_location:
        raise ValueError("a path with no conflict has no limit to approach")
    if isinstance(family, LPTN):
        return 0, path.mu
    if isinstance(family, Student):
        return family.gamma, path.mu
    if isinstance(family, CTN):
        return -1, path.mu
    raise ValueError("location-conflict limits hold for the log-Pareto-"
                     "tailed, Student and constant-tailed families only")


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
    return RatioSeries(omega, ratios, target=1.0, family=family.name,
                       label=f"{what}: {family!r} along {path!r}")


def marginal_ratio_convergence(path, family, n=100, omega_grid=None,
                               quad_tol=1e-10):
    """Normalized marginal-likelihood ratio along a conflict path.

    The marginal of the drifting posterior is normalized by the prior's
    far-conflict law ``g(ref) lam_eff^-k`` (see `_conflict_limit`), with
    ``lam_eff = lam(omega) sqrt(n)`` the reduced target's inverse scale.
    Both the drifting marginal and the limiting one come from the quadrature
    oracle on reduced targets, so the series tends to 1 when the
    corresponding limit theorem applies.  Any other family or path, one with
    no conflict included, raises `ValueError`.
    """
    k, ref = _conflict_limit(path, family)

    def log_normalizer(w):
        return (family.log_density(float(ref(w)))
                - k * np.log(float(path.lam(w)) * np.sqrt(n)))
    return _walk(path, family, n, omega_grid, quad_tol, "marginal ratio",
                 lambda w, res, limit: np.exp(
                     res.log_norm - log_normalizer(w) - limit.log_norm))


def posterior_limit_convergence(path, family, n=100, omega_grid=None,
                                quad_tol=1e-10):
    """E[sigma^2] along a conflict path over its value at the limit.

    The posterior tends to the flat-prior one times the trace the
    conflicting prior leaves (see `_conflict_limit`): none under log-Pareto
    tails, sigma^gamma under Student tails, sigma^{-1} under constant
    tails.  The trace moves sigma^2, which the limit's
    coefficient mean (zero) cannot show, so the series is the ratio of
    sigma^2 means, with target 1.
    """
    return _walk(path, family, n, omega_grid, quad_tol,
                 "posterior sigma^2 mean over its limit",
                 lambda w, res, limit: res.sigma_sq_mean / limit.sigma_sq_mean)
