"""Sampler-independent ground truth for the reduced two-parameter posterior.

Two oracle routes live here:

* closed forms: the conjugate normal-prior posterior and the flat-prior
  benchmark;
* `quadrature_moments`, a deterministic nested adaptive Gauss-Kronrod
  integrator over (beta, nu) used to cross-check everything else, an order
  of magnitude tighter than Monte-Carlo error.

Integration happens in nu = log(sigma), so there is no boundary at zero.
With one coefficient the likelihood is Gaussian in beta at each nu, so the
integral nests: nu outside, and beta inside in the likelihood's
standardized variable (see `_Factors`), where the likelihood factor is
e^{-x^2/2} at every nu and the prior's bump and kinks sit at known places.
So no search is needed: wherever the prior's density is the normal one or
a constant (the normal family; LPTN between its kinks; CTN everywhere) the
inner integral is a truncated-normal moment in closed form; the rest
(LPTN's log-Pareto tails, the Student family) is cut at both bumps and at
the kinks on a fixed range and refined adaptively.  Each batch of nu nodes
takes one closed-form pass, `_gaussian_piece`, whose rows carry their own
window, mean and precision: under CTN the bump and both constant tails of
every node are rows of one call.  The nu range is closed form too: each nu
integrand is bounded by an inverse-gamma kernel in sigma^2, whose exponents
also say exactly which moments exist.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import erf, erfcx

from .priors import CTN, Normal
from .specfun import LOG_INV_SQRT_2PI

__all__ = [
    "NumericalError", "ConjugateResult", "conjugate_posterior",
    "jeffreys_benchmark", "QuadratureResult", "quadrature_moments",
]


class NumericalError(RuntimeError):
    """Raised when a numerical routine cannot reach its accuracy contract."""


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjugateResult:
    """Normal-prior posterior on the reduced target, in closed form.

    ``beta_mean``/``beta_variance`` are the marginal moments of the
    coefficient; sigma^2 is inverse-gamma with the recorded shape and scale.
    """

    beta_mean: float
    beta_variance: float
    sigma_sq_shape: float
    sigma_sq_scale: float


def conjugate_posterior(n, mu2, lambda2):
    """Exact posterior for the reduced target with a standard-normal prior.

    beta 's marginal mean is ``mu2 * lambda2^2 / (1 + lambda2^2)`` and its
    variance ``[1/(1+lambda2^2)] * (1 + mu2^2 lambda2^2/(lambda2^2+1))/(n-2)``;
    sigma^2 is inverse-gamma(n/2, (n/2)(1 + mu2^2 lambda2^2/(lambda2^2+1))).
    """
    if n <= 2:
        raise ValueError(f"posterior variance undefined for n <= 2, got n={n}")
    if not np.isfinite(mu2):
        raise ValueError(f"mu2 must be finite, got {mu2}")
    if not (np.isfinite(lambda2) and lambda2 > 0):
        raise ValueError(f"lambda2 must be positive and finite, got {lambda2}")
    shrink = lambda2 ** 2 / (1.0 + lambda2 ** 2)
    s = 1.0 + mu2 ** 2 * shrink
    return ConjugateResult(
        beta_mean=mu2 * shrink,
        beta_variance=s / ((1.0 + lambda2 ** 2) * (n - 2)),
        sigma_sq_shape=n / 2.0,
        sigma_sq_scale=n / 2.0 * s,
    )


def jeffreys_benchmark(n):
    """Mean and variance of the coefficient under the flat benchmark prior.

    The reduced flat-prior posterior has mean 0 and variance 1/(n - 3);
    n > 3 is required for propriety.
    """
    if n <= 3:
        raise ValueError(f"flat-prior posterior is improper for n <= 3, got n={n}")
    return 0.0, 1.0 / (n - 3)


# ---------------------------------------------------------------------------
# Nested 1-D quadrature
# ---------------------------------------------------------------------------

# Gauss-Kronrod 7-15 pair on [-1, 1], from the centre out: the Kronrod
# nodes and weights, and the weights of the Gauss nodes among them.
_K = np.array([0.0, 0.2077849550078985, 0.4058451513773972,
               0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
               0.9491079123427585, 0.9914553711208126])
_KW = np.array([0.2094821410847278, 0.2044329400752989, 0.1903505780647854,
                0.1690047266392679, 0.1406532597155259, 0.1047900103222502,
                0.06309209262997855, 0.02293532201052922])
_GW = np.array([0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
                0.1294849661688697])
_K15_NODES = np.concatenate([-_K[:0:-1], _K])
_K15_WEIGHTS = np.concatenate([_KW[:0:-1], _KW])
# Columns: the K15 weights, and K15 minus G7 (at every other Kronrod
# node), so one product gives a rule's estimate and its error estimate.
_RULES = np.column_stack([_K15_WEIGHTS, _K15_WEIGHTS])
_RULES[1::2, 1] -= np.concatenate([_GW[:0:-1], _GW])

_LOG_DROP = np.log(1e12)
_INTEGRALS = ("f", "beta f", "beta^2 f", "e^{2nu} f (sigma^2)",
              "e^{4nu} f (sigma^4)")
# Integral i is inner integral COLS i times e^{NU i nu} / sqrt(a)^{A i}.
_COLS = np.array([0, 1, 2, 0, 0])
_NU_POWERS = np.array([0.0, 1.0, 2.0, 2.0, 4.0])
_A_POWERS = np.array([0.0, 1.0, 2.0, 0.0, 0.0])
_SQRT_2PI = np.sqrt(2.0 * np.pi)
_LOG_SQRT_2PI = np.log(_SQRT_2PI)
_SQRT_HALF, _SQRT_HALF_PI = np.sqrt(0.5), np.sqrt(0.5 * np.pi)
# A bound on |z| in `_gaussian_piece`, with z^2 finite and e^{-z^2/2} zero.
_Z_MAX = 1e150
# e^{-x^2/2} holds under 1e-37 of its mass beyond |x| = 13.
_X_CUTS = np.array([-13.0, -3.0, 0.0, 3.0, 13.0])
_T_CUTS = 3.0 * 4.0 ** np.arange(40)    # with 0 and their negatives
_ROUNDOFF = 50 * 2.0 ** -52    # relative error at rounding level
_INNER_INTERVALS = 256  # intervals at a nu node past which none is split
_FIRST_PANELS = 200     # at most, each 2 widths wide if the range allows
_FLOOR_NODES = np.r_[-3.0 ** np.arange(5), 0, 3.0 ** np.arange(5)]  # widths


@dataclass
class QuadratureResult:
    """Posterior moments of the reduced target from deterministic quadrature.

    ``error`` is the summed error estimate of the five integrals over the
    final nu panels, the Kronrod-Gauss one of the outer rule plus the inner
    integrals' own, in units of the largest value of the density f(beta,
    nu) found at a node; ``panels_evaluated`` counts every nu panel
    evaluated, including those later split (``n_panels`` counts only the
    final ones).
    """

    mean: float
    sd: float
    log_norm: float
    sigma_sq_mean: float
    sigma_sq_sd: float
    n_panels: int
    error: float
    panels_evaluated: int

    @property
    def variance(self):
        return self.sd ** 2


def _bisect(split, lo, hi):
    # The halves of the intervals picked by `split`: lower ones, then upper.
    mid = 0.5 * (lo[split] + hi[split])
    return np.concatenate([lo[split], mid]), np.concatenate([mid, hi[split]])


def _gaussian_piece(lo, hi, mean, a):
    """Integrals of e^{-a (x - mean)^2 / 2} x^j dx over [lo, hi], j = 0, 1, 2.

    Each of the k rows has its own window, the (k,) arrays ``lo`` and
    ``hi``, whose bounds may be infinite; its mean and precision ``a`` are
    scalars or (k,) arrays, one per row.  Every row's values are the same
    bits alone as in a batch.  Returns a log scale (k,) and the (k, 3)
    integrals over its exponential.  In z = sqrt(a) (x - mean) a window on
    one side of 0 is reflected to z in [p, q], p > 0, and scaled by
    e^{-p^2/2}: its Phi difference is taken from the upper tail, as erfcx,
    so a far window neither cancels nor underflows.
    """
    root = np.sqrt(a)
    z = root * (np.array([lo, hi]) - mean)
    np.minimum(np.maximum(z, -_Z_MAX, out=z), _Z_MAX, out=z)
    flip = z[1] < 0.0
    p, q = pq = np.where(flip, -z[::-1], z)
    near = np.maximum(p, 0.0)
    # e^{-p^2/2} and e^{-q^2/2} over the scale e^{-near^2/2}.
    ep = np.exp(-0.5 * np.minimum(p, 0.0) ** 2)
    fall = -0.5 * (q - near) * (q + near)
    eq = np.exp(fall)
    # Integrals of e^{-z^2/2} times 1, z / sqrt(a) and z^2 / a, over it.
    # erfcx is read only where p > 0, where max(u, 0) is u, and erf only
    # where p <= 0; the floor keeps erfcx from overflowing elsewhere.
    u = pq * _SQRT_HALF
    ex, er = erfcx(np.maximum(u, 0.0)), erf(u)
    m0 = _SQRT_HALF_PI * np.where(p > 0.0, ex[0] - ex[1] * eq, er[1] - er[0])
    m1 = np.where(p >= 0.0, -np.expm1(fall), ep - eq)
    np.negative(m1, out=m1, where=flip)
    m1 /= root
    m2 = (m0 + p * ep - q * eq) / a
    mean_m0 = mean * m0
    ints = np.empty((len(m0), 3))
    for j, col in enumerate((m0, mean_m0 + m1,
                             mean * (mean_m0 + 2.0 * m1) + m2)):
        np.divide(col, root, out=ints[:, j])
    return -0.5 * near * near, ints


class _Factors:
    """The reduced target as a factor in nu times an integral over x.

    With a = X^T X, beta_hat = X^T y / a and RSS = y^T y - a beta_hat^2,
    from the Gram record of the target's data (``data.gram``), the
    likelihood's standardized variable x = sqrt(a) (beta - beta_hat) e^{-nu}
    makes the prior argument t = m + s x, with m = lam e^{-nu}
    (beta_hat - mu) and s = lam / sqrt(a), and

        f(beta, nu) dbeta = e^{L(nu)} s e^{-x^2/2} g(t) dx,
        L(nu) = nu + log pi(sigma) - n nu - RSS e^{-2nu}/2 - n log sqrt(2 pi),

    where s g(t) is e^nu / sqrt(a) under the flat prior.  The kernels are
    the target's own sigma prior and family.
    """

    def __init__(self, target):
        gram = target.data.gram
        self.a = float(gram.XtX[0, 0])
        self.beta_hat = float(gram.Xty[0]) / self.a
        self.rss = max(gram.yty - self.a * self.beta_hat ** 2, 0.0)
        self.log_sqrt_a = 0.5 * np.log(self.a)
        self.log_a_cols = _A_POWERS * self.log_sqrt_a
        self.n, self.sigma_prior = target.n, target.sigma_prior
        self.prior = target.priors[0]
        self.log_g0 = 0.0
        # Whether the inner integrals take the adaptive pass: not under the
        # flat prior, nor where g is the normal density or a constant.
        self.adaptive = False
        if self.prior is not None:
            family = self.prior.family
            self.s = self.prior.lam / np.sqrt(self.a)
            self.log_s = np.log(self.s)
            self.big_a = 1.0 + self.s * self.s
            # g is the standard normal density for |t| <= kink, and beyond
            # it the constant g(kink) under CTN; None: no normal branch.
            self.kink = np.inf if isinstance(family, Normal) else (
                getattr(family, "tau", None) or getattr(family, "kappa", None))
            self.constant_tails = isinstance(family, CTN)
            self.adaptive = not isinstance(family, (Normal, CTN))
            # g(0) and, read only under CTN, g(kink): one unchecked call.
            self.log_g0, self.log_g_kink = family.log_density(
                np.array([0.0, self.kink if self.constant_tails else 0.0]),
                check=False).tolist()

    def log_nu_factor(self, nu):
        """L(nu) plus log s, or plus nu - log sqrt(a) under the flat prior."""
        with np.errstate(over="ignore"):
            out = (nu + self.sigma_prior.log_density_nu(nu) - self.n * nu
                   - 0.5 * self.rss * np.exp(-2.0 * nu)
                   + self.n * LOG_INV_SQRT_2PI)
        if self.prior is None:
            return out + nu - self.log_sqrt_a
        return out + self.log_s

    def log_peak(self, nu, log_factor):
        """log f(beta, nu) where the integrand over x is 1."""
        return log_factor - nu + self.log_sqrt_a

    def m(self, nu):
        return self.prior.lam * np.exp(-nu) * (self.beta_hat - self.prior.mu)

    def log_inner(self, x, t):
        """log(e^{-x^2/2} g(t)), the integrand over x."""
        return self.prior.family.log_density(t, check=False) - 0.5 * x * x

    def closed_pieces(self, m):
        """The inner integrals' closed-form part at each nu: log scale (k,)
        and (k, 3) integrals over its exponential.

        On the normal branch e^{-x^2/2} g(t) is a normal bump in x, mean
        -m s / A and precision A = 1 + s^2, times e^{-m^2 / (2A)} / sqrt(2
        pi); under CTN each tail is the constant g(kappa) times e^{-x^2/2},
        and the bump and both tails are the 3k rows of one `_gaussian_piece`
        call.  Student has no closed part: log scale -inf.
        """
        k = len(m)
        if self.kink is None:
            return np.full(k, -np.inf), np.zeros((k, 3))
        s, big_a = self.s, self.big_a
        lo, hi = (-self.kink - m) / s, (self.kink - m) / s
        bump = -m * s / big_a
        log_bump = LOG_INV_SQRT_2PI - 0.5 * m * m / big_a
        if not self.constant_tails:
            log_c, ints = _gaussian_piece(lo, hi, bump, big_a)
            return log_c + log_bump, ints
        # Rows: the bump between the kinks, then the tails below and above.
        inf = np.full(k, np.inf)
        precision = np.ones(3 * k)
        precision[:k] = big_a
        logs, parts = _gaussian_piece(
            np.concatenate([lo, -inf, hi]), np.concatenate([hi, lo, inf]),
            np.concatenate([bump, np.zeros(2 * k)]), precision)
        logs = logs.reshape(3, k)
        logs[0] += log_bump
        logs[1:] += self.log_g_kink
        c = logs.max(axis=0)
        return c, np.einsum("pk,pkj->kj", np.exp(logs - c),
                            parts.reshape(3, k, 3))

    def inner(self, nu, log_weights, log_peaks, budget):
        """Integrals of e^{-x^2/2} g(m + s x) x^j dx, j = 0, 1, 2, at each nu.

        Returns their log scale c (k,), then the (k, 3) integrals and their
        (k, 3) error estimates, both over e^c, for a prior whose g is neither
        the normal density nor a constant everywhere.  Between LPTN's kinks
        they are closed forms (see `closed_pieces`), with no error.  What is
        left, LPTN's tails and Student's whole line, takes one adaptive
        K15/G7 pass over every node, over x in [-13, 13].
        Its first cuts are x = 0, +/-3, the kinks and t = 0, +/-3 * 4^j: the
        prior's bump is 1/s wide in x, and no interval next to either bump
        is longer than its distance from it.

        While a node's errors times ``exp(log_weights + c)`` sum above
        ``budget``, its intervals whose error is above their share of it,
        and above the noise rounding leaves, are bisected, until the node
        holds 256 intervals.  ``log_peaks + c`` is each node's
        `log_peak` less the caller's shift; where it is above 0 the weights
        are scaled by its largest value instead, as the next shift will be.
        """
        k = len(nu)
        m, s = self.m(nu), self.s
        c_closed, closed = self.closed_pieces(m)
        kinks = [] if self.kink is None else [-self.kink, self.kink]
        steps = _T_CUTS[:np.searchsorted(
            _T_CUTS, np.max(np.abs(m)) + _X_CUTS[-1] * s) + 1]
        t_cuts = np.concatenate([-steps, [0.0], steps, kinks])
        edges = np.sort(np.column_stack(
            [np.tile(_X_CUTS, (k, 1)), np.clip((t_cuts - m[:, None]) / s,
                                               _X_CUTS[0], _X_CUTS[-1])]),
            axis=1)
        new_lo, new_hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
        keep = new_hi > new_lo
        if kinks:
            # Only the tails are left: each interval lies on one side.
            t_mid = (np.repeat(m, edges.shape[1] - 1)
                     + s * 0.5 * (new_lo + new_hi))
            keep &= np.abs(t_mid) > self.kink
        new_lo, new_hi = new_lo[keep], new_hi[keep]
        new_ids = np.repeat(np.arange(k), edges.shape[1] - 1)[keep]
        if not len(new_ids):
            return c_closed, closed, np.zeros((k, 3))
        ids, a, b = new_ids[:0], new_lo[:0], new_hi[:0]
        est, err, e, size = np.empty((0, 3)), np.empty((0, 3)), a, a
        c = weights = None
        while True:
            half = 0.5 * (new_hi - new_lo)
            x = (0.5 * (new_lo + new_hi))[:, None] + half[:, None] * _K15_NODES
            h = self.log_inner(x, m[new_ids, None] + s * x)
            if c is None:
                # Each node's scale is its largest first value, or the
                # closed part's scale if larger or if it has no interval.
                firsts = np.flatnonzero(np.r_[True, np.diff(new_ids) != 0])
                c = c_closed.copy()
                at = new_ids[firsts]
                c[at] = np.maximum(c[at], np.maximum.reduceat(h.max(axis=1),
                                                              firsts))
                top = max(np.max(log_peaks + c), 0.0)
                # Capped short of overflow: so heavy a node is refined down
                # to rounding anyway.
                weights = np.exp(np.minimum(
                    log_weights + (c - top)[:, None], 600.0))
            # One product with both rules per power of x; a value more than
            # e^600 above a node's first ones is clipped and, unresolvable,
            # keeps its error.
            f = np.exp(np.minimum(h - c[new_ids, None], 600.0))
            fx = f * x
            rules = np.stack([f @ _RULES, fx @ _RULES, (fx * x) @ _RULES],
                             axis=1) * half[:, None, None]
            new_est, new_err = rules[..., 0], np.abs(rules[..., 1])
            wt = weights[new_ids]
            ids, a, b, est, err, e, size = (np.concatenate(p) for p in (
                (ids, new_ids), (a, new_lo), (b, new_hi), (est, new_est),
                (err, new_err), (e, np.einsum("ij,ij->i", new_err, wt)),
                (size, np.einsum("ij,ij->i", np.abs(new_est), wt))))
            # Rounding in h, up to |c| in size, leaves each value that much
            # relative noise, which no bisection removes.
            count = np.bincount(ids, minlength=k)
            noise = _ROUNDOFF * np.maximum(1.0, np.abs(c))[ids] * size
            share = np.maximum((budget / np.maximum(count, 1))[ids], noise)
            split = ((np.bincount(ids, e, minlength=k) > budget)
                     & (count < _INNER_INTERVALS))[ids] & (e > share)
            if not split.any():
                sums = [np.bincount(ids, col, minlength=k)
                        for col in np.concatenate([est, err], axis=1).T]
                ints = (np.column_stack(sums[:3])
                        + np.exp(c_closed - c)[:, None] * closed)
                return c, ints, np.column_stack(sums[3:])
            new_ids = np.tile(ids[split], 2)
            new_lo, new_hi = _bisect(split, a, b)
            ids, a, b, est, err, e, size = (
                v[~split] for v in (ids, a, b, est, err, e, size))

    def nu_values(self, nu, shift, budget=np.inf):
        """The five nu integrands at each node as a log scale (k, 5) times a
        factor (k, 5), and the factor's inner error estimates (k, 5).  The
        inner budget is in units of e^shift.

        The inner integrals are closed forms, with no error estimate (None),
        under the flat prior and wherever g is the normal density or a
        constant (see `closed_pieces`): on the whole line under the normal
        family and on the kinks' both sides under CTN.  So they skip the
        weights and peaks that only `inner`'s adaptive pass reads.
        """
        log_cols = (self.log_nu_factor(nu)[:, None] + _NU_POWERS * nu[:, None]
                    - self.log_a_cols)
        if not self.adaptive:
            if self.prior is None:
                c = np.zeros(len(nu))
                ints = np.tile([_SQRT_2PI, 0.0, _SQRT_2PI], (len(nu), 1))
            else:
                c, ints = self.closed_pieces(self.m(nu))
            log_cols += c[:, None]
            return log_cols, ints[:, _COLS], None
        # The inner integral of x^0 feeds integrals 0, 3 and 4.
        log_weights = log_cols[:, :3] - shift
        log_weights[:, 0] = np.logaddexp.reduce(log_cols[:, [0, 3, 4]],
                                                axis=1) - shift
        c, ints, errs = self.inner(
            nu, log_weights, self.log_peak(nu, log_cols[:, 0]) - shift, budget)
        log_cols += c[:, None]
        return log_cols, ints[:, _COLS], errs[:, _COLS]

    def nu_panels(self):
        """Initial nu panel edges, and f's largest value at their nodes.

        With the inner integral at most sqrt(2 pi) g(0), integral j's nu
        integrand is at most e^{u_j}, u_j(nu) = K_j + alpha_j nu - B e^{-2nu},
        an inverse-gamma kernel in sigma^2: B is RSS/2 plus the sigma prior's
        scale, alpha_j is 1 + its power - n + j's power of sigma P_j (+1 under
        the flat prior).  As sigma grows the inner integral tends to a positive
        constant, so integral j exists iff alpha_j < 0 < B; else
        `NumericalError` names the first that does not.  u_j peaks at nu_j =
        log(2B / -alpha_j) / 2 with curvature 2 alpha_j (f's sets a width), and
        x from there it has fallen by -alpha_j (x + (e^{-2x} - 1) / 2): by D or
        more at the ends, x = c/2 and -log(2c)/2, c = 1 - 2D/alpha_j.  D is
        u_j's peak less the largest value of f's integrand times sigma^P_j at
        nodes 0, 1, 3, ..., 81 widths from f's peak, over 1e12; an end more
        than 1e6 out raises too.  Given beta, nu's posterior has f's curvature
        near its mode wherever it lies (a prior adds a few units to 2n): the
        first panels split the range evenly, 2 widths wide.
        """
        alpha = (1.0 + self.sigma_prior.power - self.n + _NU_POWERS
                 + (self.prior is None))
        b = 0.5 * self.rss + self.sigma_prior.scale
        if not alpha.max() < 0.0 < b:
            diverges = (alpha >= 0.0) | (b <= 0.0)
            raise NumericalError(
                f"the integral of {_INTEGRALS[np.argmax(diverges)]} carries "
                f"infinite mass as sigma -> {'0' if b <= 0 else 'inf'}: the "
                f"target, or this moment of it, is not integrable")
        peaks = 0.5 * np.log(2.0 * b / -alpha)
        width = 1.0 / np.sqrt(-2.0 * alpha[0])
        nodes = peaks[0] + width * _FLOOR_NODES
        log_cols, ints, _ = self.nu_values(nodes, 0.0)
        with np.errstate(divide="ignore"):
            log_f = log_cols[:, 0] + np.log(ints[:, 0])
        drop = (self.log_nu_factor(peaks) + _LOG_SQRT_2PI + self.log_g0
                + _NU_POWERS * peaks + _LOG_DROP
                - (log_f[:, None] + _NU_POWERS * nodes[:, None]).max(axis=0))
        c = 1.0 - 2.0 * drop / alpha
        if not c.max() <= 2e6:
            raise NumericalError(
                f"the integral of {_INTEGRALS[np.argmax(c)]} carries mass "
                f"more than 1e6 from its peak in nu: it barely converges")
        lo, hi = (peaks - 0.5 * np.log(2.0 * c)).min(), (peaks + 0.5 * c).max()
        count = min(np.ceil((hi - lo) / (2 * width)), _FIRST_PANELS)
        return (np.linspace(lo, hi, int(count) + 1),
                self.log_peak(nodes, log_cols[:, 0]).max())


def quadrature_moments(target, tol=1e-10, max_panels=60000):
    """Posterior mean/sd of the coefficient and of sigma^2 by quadrature.

    Only two-parameter targets are supported (higher-dimensional posteriors
    are the sampler's job).  The integral is nested: nu outside and, at each
    nu node, beta inside, in the likelihood's standardized variable (see
    `_Factors`), so no mode or box is searched for.  The inner integrals
    are closed forms where the prior is normal or constant, and cut at its
    kinks elsewhere (see `_Factors.inner`).  The outer rule is adaptive
    K15/G7 on nu panels: each round evaluates its new panels' nodes in one
    inner pass and bisects every panel whose outer error is above its share
    of what the inner integrals leave of ``tol``.  ``tol`` bounds the
    summed error estimate of the five integrals, divided by the largest
    value of the density f(beta, nu) found at a node; the inner integrals
    may spend a tenth of it.  Raises `NumericalError` naming the first
    integral that diverges, or the one reaching past 1e6 in nu (see
    `_Factors.nu_panels`), or, if ``max_panels`` panels or inner integrals
    refined as far as they go cannot meet ``tol``, the one with most error,
    or if the variance of beta or of sigma^2 comes out at or below zero,
    its second moment cancelling against its squared mean; and `ValueError`
    if ``tol`` is not positive and finite.
    """
    if target.dim != 2:
        raise ValueError("quadrature_moments handles 2-D reduced targets only")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    factors = _Factors(target)
    edges, shift = factors.nu_panels()
    budget = 0.1 * tol / (edges[-1] - edges[0])
    new_lo, new_hi = edges[:-1], edges[1:]
    lo, hi = new_lo[:0], new_hi[:0]
    est, err, inner_err = (np.empty((0, 5)) for _ in range(3))
    evaluated = 0
    while True:
        half = 0.5 * (new_hi - new_lo)
        nu = ((0.5 * (new_lo + new_hi))[:, None]
              + half[:, None] * _K15_NODES).ravel()
        log_cols, ints, node_err = factors.nu_values(nu, shift, budget)
        peak = factors.log_peak(nu, log_cols[:, 0]).max()
        if peak > shift:
            # The shift is f's largest value at a node so far.
            rescale = np.exp(shift - peak)
            est, err, inner_err = (v * rescale for v in (est, err, inner_err))
            shift = peak
        scale = np.exp(log_cols - shift)
        rules = np.einsum("knj,nr->kjr", (scale * ints).reshape(-1, 15, 5),
                          _RULES) * half[:, None, None]
        lo, hi = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi])
        est = np.concatenate([est, rules[..., 0]])
        err = np.concatenate([err, np.abs(rules[..., 1])])
        panel_inner = np.zeros((len(half), 5)) if node_err is None else (
            half[:, None] * np.einsum("knj,n->kj", (scale * node_err).reshape(
                -1, 15, 5), _K15_WEIGHTS))
        inner_err = np.concatenate([inner_err, panel_inner])
        evaluated += len(new_lo)
        inner_total = float(inner_err.sum())
        total_err = float(err.sum()) + inner_total
        if total_err <= tol:
            break
        # Bisection only reduces the outer rule's error.
        share = (tol - inner_total) / len(lo)
        split = err.sum(axis=1) > share
        if len(lo) > max_panels or not (share > 0 and split.any()):
            errs = (err + inner_err).sum(axis=0)
            limit = (f"needs more than {max_panels} panels" if share > 0 else
                     "cannot refine its inner integrals over beta enough")
            raise NumericalError(
                f"quadrature {limit} to reach tol={tol:g}; the integral of "
                f"{_INTEGRALS[errs.argmax()]} carries the largest part, "
                f"{errs.max():g}, and no budget meets tol if it is infinite "
                f"(error {total_err:g})")
        new_lo, new_hi = _bisect(split, lo, hi)
        lo, hi, est, err, inner_err = (
            v[~split] for v in (lo, hi, est, err, inner_err))

    mass, m1, m2, s2, s4 = est.sum(axis=0)
    if not (np.isfinite(mass) and mass > 0):
        raise NumericalError("quadrature mass is not positive; bad target?")
    mean = m1 / mass            # about beta_hat
    s2_mean = s2 / mass
    var, s2_var = m2 / mass - mean ** 2, s4 / mass - s2_mean ** 2
    for name, v in (("beta", var), ("sigma^2", s2_var)):
        if not v > 0.0:
            raise NumericalError(
                f"quadrature leaves the variance of {name} at {v:g}: its "
                f"second moment cancels against its squared mean")
    return QuadratureResult(
        mean=float(factors.beta_hat + mean), sd=float(np.sqrt(var)),
        log_norm=float(np.log(mass) + shift), sigma_sq_mean=float(s2_mean),
        sigma_sq_sd=float(np.sqrt(s2_var)), n_panels=len(lo),
        error=total_err, panels_evaluated=evaluated)
