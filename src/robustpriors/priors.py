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
central interval is exact by construction.  At the tail kinks the gradient
returns the interior branch value; the kink set has null measure, which is
all gradient-based samplers need.

Instances are immutable after construction and safe for concurrent use.
"""

import math
from dataclasses import dataclass

import numpy as np

from .specfun import LOG_INV_SQRT_2PI, normal_cdf, normal_inv_cdf, normal_pdf

__all__ = ["Normal", "Student", "LPTN", "CTN", "CoefficientPrior",
           "LPTN_RHO_LOWER"]

# Lower end of the admissible LPTN mass fraction, 2*Phi(1) - 1.
LPTN_RHO_LOWER = 2.0 * normal_cdf(1.0) - 1.0


def _check_z(z):
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("z must be finite")
    return arr


def _std_normal_log_pdf(z):
    # Shared central branch of all four families.
    return LOG_INV_SQRT_2PI - 0.5 * z * z


def _maybe_scalar(out, z):
    return float(out) if np.isscalar(z) or np.ndim(z) == 0 else out


def _public(kernel, z, check):
    # What log_density and grad_log_density share: validate z and unwrap a
    # scalar result, or hand a finite float array straight to the kernel.
    if not check:
        return kernel(z)
    return _maybe_scalar(kernel(_check_z(z)), z)


class Normal:
    """Standard normal density with score -z."""

    is_proper = True
    name = "normal"

    def _log(self, z):
        return _std_normal_log_pdf(z)

    def _grad(self, z):
        return -z

    def log_density(self, z, check=True):
        return _public(self._log, z, check)

    def grad_log_density(self, z, check=True):
        return _public(self._grad, z, check)

    def density(self, z):
        return np.exp(self.log_density(z))

    def __repr__(self):
        return "Normal()"

    def __eq__(self, other):
        return isinstance(other, Normal)


class Student:
    """Student density with ``gamma`` degrees of freedom, fully normalized.

    The normalizing constant is kept (Gamma-function based) because the
    conflict diagnostics compare absolute density values across families.
    """

    is_proper = True
    name = "student"

    def __init__(self, gamma):
        if not (np.isfinite(gamma) and gamma > 0):
            raise ValueError(f"degrees of freedom must be positive, got {gamma}")
        self.gamma = float(gamma)
        g = self.gamma
        self._log_norm = (math.lgamma((g + 1) / 2) - math.lgamma(g / 2)
                          - 0.5 * math.log(g * math.pi))

    def _log(self, z):
        g = self.gamma
        return self._log_norm - 0.5 * (g + 1) * np.log1p(z * z / g)

    def _grad(self, z):
        g = self.gamma
        return -(g + 1) * z / (g + z * z)

    def log_density(self, z, check=True):
        return _public(self._log, z, check)

    def grad_log_density(self, z, check=True):
        return _public(self._grad, z, check)

    def density(self, z):
        return np.exp(self.log_density(z))

    def __repr__(self):
        return f"Student(gamma={self.gamma})"

    def __eq__(self, other):
        return isinstance(other, Student) and other.gamma == self.gamma


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

    def __init__(self, rho):
        if not (np.isfinite(rho) and LPTN_RHO_LOWER < rho < 1.0):
            raise ValueError(
                f"rho must lie in ({LPTN_RHO_LOWER:.6f}, 1), got {rho}")
        self.rho = float(rho)
        self.tau = normal_inv_cdf((1.0 + self.rho) / 2.0)
        self.theta = (2.0 / (1.0 - self.rho) * normal_pdf(self.tau)
                      * self.tau * math.log(self.tau) + 1.0)
        self._log_tail_const = (_std_normal_log_pdf(self.tau)
                                + math.log(self.tau)
                                + self.theta * math.log(math.log(self.tau)))

    def _log(self, z):
        az = np.abs(z)
        interior = az <= self.tau
        # Mask the tail argument so log(log|z|) never sees |z| <= 1.
        az_safe = np.where(interior, self.tau + 1.0, az)
        tail = (self._log_tail_const - np.log(az_safe)
                - self.theta * np.log(np.log(az_safe)))
        return np.where(interior, _std_normal_log_pdf(z), tail)

    def _grad(self, z):
        interior = np.abs(z) <= self.tau
        z_safe = np.where(interior, self.tau + 1.0, z)
        tail = -1.0 / z_safe - self.theta / (z_safe * np.log(np.abs(z_safe)))
        return np.where(interior, -z, tail)

    def log_density(self, z, check=True):
        return _public(self._log, z, check)

    def grad_log_density(self, z, check=True):
        return _public(self._grad, z, check)

    def density(self, z):
        return np.exp(self.log_density(z))

    def __repr__(self):
        return f"LPTN(rho={self.rho})"

    def __eq__(self, other):
        return isinstance(other, LPTN) and other.rho == self.rho


class CTN:
    """Constant-tailed normal with mass fraction ``varrho`` in (0, 1).

    Matches the standard normal on ``[-kappa, kappa]`` with
    ``kappa = Phi^{-1}((1 + varrho)/2)`` and is the constant ``phi(kappa)``
    beyond.  The density is improper: its integral grows linearly with the
    integration range.
    """

    is_proper = False
    name = "ctn"

    def __init__(self, varrho):
        if not (np.isfinite(varrho) and 0.0 < varrho < 1.0):
            raise ValueError(f"varrho must lie in (0, 1), got {varrho}")
        self.varrho = float(varrho)
        self.kappa = normal_inv_cdf((1.0 + self.varrho) / 2.0)
        self._log_tail = _std_normal_log_pdf(self.kappa)

    def _log(self, z):
        return np.where(np.abs(z) <= self.kappa,
                        _std_normal_log_pdf(z), self._log_tail)

    def _grad(self, z):
        return np.where(np.abs(z) <= self.kappa, -z, 0.0)

    def log_density(self, z, check=True):
        return _public(self._log, z, check)

    def grad_log_density(self, z, check=True):
        return _public(self._grad, z, check)

    def density(self, z):
        return np.exp(self.log_density(z))

    def __repr__(self):
        return f"CTN(varrho={self.varrho})"

    def __eq__(self, other):
        return isinstance(other, CTN) and other.varrho == self.varrho


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
