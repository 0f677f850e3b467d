"""Standard-normal special functions: pdf, cdf and inverse cdf.

The cdf and inverse cdf are validating wrappers over ``scipy.special.ndtr``
and ``ndtri``: non-finite input raises ``ValueError``, the inverse cdf takes
only the open interval (0, 1) and the cdf is clamped into it.
``ACCURACY_TARGET`` is the absolute error bound the pair is held to.
"""

import numpy as np
from scipy.special import ndtr, ndtri

ACCURACY_TARGET = 1e-9

LOG_INV_SQRT_2PI = -0.9189385332046727417803297364056176

_SQRT_2PI = 2.5066282746310005024157652848110453


def _finite_map(fn, z):
    # fn over z as a float array; non-finite z raises, scalar z gives a float.
    arr = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"z must be finite, got {z!r}")
    out = fn(arr)
    return float(out) if np.isscalar(z) or arr.ndim == 0 else out


def normal_pdf(z):
    """Standard normal density phi(z) = exp(-z^2/2) / sqrt(2*pi).

    Accepts a float or an ndarray; non-finite input raises ``ValueError``.
    """
    return _finite_map(lambda a: np.exp(-0.5 * a * a) / _SQRT_2PI, z)


def normal_cdf(z):
    """Standard normal cdf Phi(z), strictly inside (0, 1).

    Values that would underflow past the representable range are clamped to
    the nearest representable number inside the open interval.
    """
    return _finite_map(lambda a: np.clip(ndtr(a), np.nextafter(0.0, 1.0),
                                         np.nextafter(1.0, 0.0)), z)


def normal_inv_cdf(p):
    """Standard normal inverse cdf Phi^{-1}(p) for p in the open (0, 1)."""
    arr = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError(f"p must lie strictly inside (0, 1), got {p!r}")
    out = ndtri(arr)
    return float(out) if np.isscalar(p) or arr.ndim == 0 else out
