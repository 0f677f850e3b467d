"""Heavy-tailed prior families for regression coefficients.

Four standardized families are provided, each a strictly positive density
symmetric about zero:

``Normal``
    The standard normal reference choice.
``Student``
    Regularly-varying (polynomial) tails controlled by the degrees of
    freedom; under a location conflict it rejects the prior only partially.
``LPTN``
    Log-Pareto-tailed normal: equal to the standard normal on a central
    interval ``[-tau, tau]`` carrying mass ``rho``, with log-regularly
    varying tails ``phi(tau) * (tau/|z|) * (log tau / log |z|)^theta``
    beyond.  Location conflicts are wholly rejected in the limit.
``CTN``
    Constant-tailed normal: equal to the standard normal on ``[-kappa,
    kappa]`` carrying mass ``varrho`` and exactly constant beyond.  The
    density does not integrate (improper), but resolves both location and
    scaling conflicts.

Every family exposes ``log_density``, ``grad_log_density`` and ``density``,
vectorized over numpy arrays.  By default ``log_density`` and
``grad_log_density`` validate their input (non-finite ``z`` raises
``ValueError``) and return a float for scalar input.  With ``check=False``
they take a float array that the caller has already found finite, check
nothing and return an array; the posterior target calls them that way on
its hot path.  The formulas themselves live in private ``_log``/``_grad``
kernels shared by both modes.  The LPTN and CTN central branches evaluate
the *same* standard-normal expression as ``Normal``, so matching on the
central interval is exact by construction; when every argument is
central, their kernels return that branch without evaluating the tail,
with the same bits.  At the tail kinks the gradient returns the interior
branch value; the kink set has null measure, which is all gradient-based
samplers need.

The families are frozen dataclasses: immutable, equal and hashed by their
parameter, and safe for concurrent use.  Derived constants such as ``tau``
are attributes, not fields, so the repr reads ``LPTN(rho=0.95)``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import (LOG_INV_SQRT_2PI, _finite_map, normal_cdf,
                      normal_inv_cdf, normal_pdf)

__all__ = ["Normal", "Student", "LPTN", "CTN", "CoefficientPrior",
           "LPTN_RHO_LOWER"]

# Lower end of the admissible LPTN mass fraction, 2*Phi(1) - 1.
LPTN_RHO_LOWER = 2.0 * normal_cdf(1.0) - 1.0


def _std_normal_log_pdf(z):
    # Shared central branch of all four families.
    return LOG_INV_SQRT_2PI - 0.5 * z * z


def _derive(family, **values):
    # A frozen dataclass sets the attributes derived from its fields here.
    for key, value in values.items():
        object.__setattr__(family, key, value)


def _family(cls):
    """Make ``cls`` a frozen dataclass with the public density methods.

    They are set on the class itself, not inherited, so each family's own
    namespace holds them.  With ``check`` they validate ``z`` and return a
    float for scalar input; without, they pass a finite float array straight
    to the ``_log``/``_grad`` kernel.
    """
    cls = dataclass(frozen=True)(cls)

    def log_density(self, z, check=True):
        return _finite_map(self._log, z) if check else self._log(z)

    def grad_log_density(self, z, check=True):
        return _finite_map(self._grad, z) if check else self._grad(z)

    def density(self, z):
        return np.exp(self.log_density(z))

    for method in (log_density, grad_log_density, density):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


@_family
class Normal:
    """Standard normal density with score -z."""

    is_proper = True
    name = "normal"

    def _log(self, z):
        return _std_normal_log_pdf(z)

    def _grad(self, z):
        return -z


@_family
class Student:
    """Student density with ``gamma`` degrees of freedom, fully normalized.

    The normalizing constant is kept (Gamma-function based) because the
    conflict diagnostics compare absolute density values across families.
    """

    is_proper = True
    name = "student"

    gamma: float

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 0):
            raise ValueError(
                f"degrees of freedom must be positive, got {self.gamma}")
        g = float(self.gamma)
        _derive(self, gamma=g,
                _log_norm=(math.lgamma((g + 1) / 2) - math.lgamma(g / 2)
                           - 0.5 * math.log(g * math.pi)))

    def _log(self, z):
        g = self.gamma
        return self._log_norm - 0.5 * (g + 1) * np.log1p(z * z / g)

    def _grad(self, z):
        g = self.gamma
        return -(g + 1) * z / (g + z * z)


@_family
class LPTN:
    """Log-Pareto-tailed normal with mass fraction ``rho``.

    ``rho`` is the only free parameter and must lie in ``(2*Phi(1)-1, 1)``.
    The matching threshold and tail exponent are derived from it:

        tau   = Phi^{-1}((1 + rho) / 2)
        theta = 2 * (1 - rho)^{-1} * phi(tau) * tau * log(tau) + 1

    Both exceed 1, so the tail branch only ever sees ``log|z| > 0``.
    """

    is_proper = True
    name = "lptn"

    rho: float

    def __post_init__(self):
        rho = self.rho
        if not (np.isfinite(rho) and LPTN_RHO_LOWER < rho < 1.0):
            raise ValueError(
                f"rho must lie in ({LPTN_RHO_LOWER:.6f}, 1), got {rho}")
        rho = float(rho)
        tau = normal_inv_cdf((1.0 + rho) / 2.0)
        theta = (2.0 / (1.0 - rho) * normal_pdf(tau) * tau * math.log(tau)
                 + 1.0)
        _derive(self, rho=rho, tau=tau, theta=theta,
                _log_tail=(_std_normal_log_pdf(tau) + math.log(tau)
                           + theta * math.log(math.log(tau))))

    def _log(self, z):
        az = np.abs(z)
        interior = az <= self.tau
        if interior.all():
            return _std_normal_log_pdf(z)
        # Mask the tail argument so log(log|z|) never sees |z| <= 1.
        az_safe = np.where(interior, self.tau + 1.0, az)
        tail = (self._log_tail - np.log(az_safe)
                - self.theta * np.log(np.log(az_safe)))
        return np.where(interior, _std_normal_log_pdf(z), tail)

    def _grad(self, z):
        interior = np.abs(z) <= self.tau
        if interior.all():
            return -z
        z_safe = np.where(interior, self.tau + 1.0, z)
        tail = -1.0 / z_safe - self.theta / (z_safe * np.log(np.abs(z_safe)))
        return np.where(interior, -z, tail)


@_family
class CTN:
    """Constant-tailed normal with mass fraction ``varrho`` in (0, 1).

    Matches the standard normal on ``[-kappa, kappa]`` with
    ``kappa = Phi^{-1}((1 + varrho)/2)`` and is the constant ``phi(kappa)``
    beyond.  The density is improper: its integral grows linearly with the
    integration range.
    """

    is_proper = False
    name = "ctn"

    varrho: float

    def __post_init__(self):
        varrho = self.varrho
        if not (np.isfinite(varrho) and 0.0 < varrho < 1.0):
            raise ValueError(f"varrho must lie in (0, 1), got {varrho}")
        varrho = float(varrho)
        kappa = normal_inv_cdf((1.0 + varrho) / 2.0)
        _derive(self, varrho=varrho, kappa=kappa,
                _log_tail=_std_normal_log_pdf(kappa))

    def _log(self, z):
        interior = np.abs(z) <= self.kappa
        if interior.all():
            return _std_normal_log_pdf(z)
        return np.where(interior, _std_normal_log_pdf(z), self._log_tail)

    def _grad(self, z):
        interior = np.abs(z) <= self.kappa
        if interior.all():
            return -z
        return np.where(interior, -z, 0.0)


@dataclass(frozen=True)
class CoefficientPrior:
    """Location/scale prior on one regression coefficient.

    Realizes one factor of the product prior: the coefficient density is
    ``(lam / sigma) * g((lam / sigma) * (beta - mu))``, so ``mu`` plays the
    role of location and ``sigma / lam`` of scale.  Both ``mu`` and ``lam``
    are fixed, user-chosen hyperparameters.
    """

    mu: float
    lam: float
    family: object

    def __post_init__(self):
        if not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lam must be positive, got {self.lam}")

    def log_density(self, beta, sigma):
        """Log of the scaled prior density at ``beta`` given ``sigma``."""
        sig = np.asarray(sigma, dtype=float)
        if np.any(sig <= 0) or not np.all(np.isfinite(sig)):
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        return self.log_density_nu(beta, np.log(sig))

    def log_density_nu(self, beta, nu):
        """Same density parameterized by ``nu = log(sigma)``."""
        scale = self.lam * np.exp(-np.asarray(nu, dtype=float))
        z = scale * (np.asarray(beta, dtype=float) - self.mu)
        return np.log(self.lam) - nu + self.family.log_density(z)
