"""Linear-regression data handling and the joint log-posterior.

The model is ``y_i = x_i . beta + sigma * eps_i`` with standard normal
errors ``eps_i ~ N(0, 1)`` and the product prior

    pi(beta | sigma) = prod_j (lam_j / sigma) g_j((lam_j / sigma)(beta_j - mu_j)),

together with a prior ``pi(sigma)`` on the scale.  All posterior evaluation
happens in the unconstrained coordinates ``(beta, nu)`` with
``nu = log(sigma)``; the Jacobian ``e^nu`` of that substitution is included,
and sigma-space densities are only ever produced by transforming draws.

`PosteriorTarget` is the single formula source: the two-parameter simulation
target (orthogonal standardized covariates, zero least-squares estimate) is
built through `reduced_target` as an intercept-only instance of exactly the
same code path.

A note on scale conventions: in `reduced_target` the user-facing ``lam2``
follows the simulation-study convention where the prior inverse-scale is
``lam2 * sqrt(n)``; the constructor applies the ``sqrt(n)`` factor itself.
`CoefficientPrior` built directly takes the raw inverse-scale multiplier
with no such factor.
"""

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .priors import CTN, CoefficientPrior
from .specfun import LOG_INV_SQRT_2PI

__all__ = [
    "DataError", "RegressionData", "StandardizeTransform", "standardize",
    "ols_fit", "load_csv", "JeffreysSigma", "InverseGammaSigmaSq",
    "PowerAdjustedSigma", "PosteriorTarget", "reduced_target",
]


class DataError(ValueError):
    """Raised for malformed or degenerate input data."""


@dataclass
class RegressionData:
    """Response vector and design matrix with a leading intercept column.

    ``standardized`` asserts that every non-intercept column has mean 0 and
    mean square 1 and that ``y`` does too (checked to 1e-8).
    """

    y: np.ndarray
    X: np.ndarray
    standardized: bool = False

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        if self.y.ndim != 1 or self.X.ndim != 2:
            raise DataError("y must be a vector and X a matrix")
        n, p = self.X.shape
        if len(self.y) != n:
            raise DataError(f"y has length {len(self.y)} but X has {n} rows")
        if not (n >= p >= 1):
            raise DataError(f"need n >= p >= 1, got n={n}, p={p}")
        if not np.all(self.X[:, 0] == 1.0):
            raise DataError("first column of X must be the all-ones intercept")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.X))):
            raise DataError("data must be finite")
        if self.standardized:
            tol = 1e-8
            ok = abs(self.y.mean()) <= tol and abs((self.y ** 2).mean() - 1) <= tol
            for j in range(1, p):
                col = self.X[:, j]
                ok = ok and abs(col.mean()) <= tol
                ok = ok and abs((col ** 2).mean() - 1) <= tol
            if not ok:
                raise DataError("standardized flag set but moments are off")

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def p(self):
        return self.X.shape[1]


@dataclass(frozen=True)
class StandardizeTransform:
    """Per-column centering/scaling applied by `standardize`, for back-mapping."""

    y_mean: float
    y_scale: float
    col_means: np.ndarray
    col_scales: np.ndarray


def standardize(data):
    """Center and scale to the simulation-study convention.

    Every non-intercept column and the response end up with mean 0 and mean
    square 1 (population convention).  Returns the transformed data plus the
    transform record.  Already-standardized input round-trips unchanged.
    """
    if data.n < 2:
        raise DataError("standardization needs at least two rows")
    X = data.X.copy()
    col_means = np.zeros(data.p)
    col_scales = np.ones(data.p)
    for j in range(1, data.p):
        col = X[:, j]
        m = col.mean()
        s = np.sqrt(((col - m) ** 2).mean())
        if s == 0.0:
            raise DataError(f"column {j} is constant; cannot standardize")
        X[:, j] = (col - m) / s
        col_means[j] = m
        col_scales[j] = s
    ym = data.y.mean()
    ys = np.sqrt(((data.y - ym) ** 2).mean())
    if ys == 0.0:
        raise DataError("response is constant; cannot standardize")
    y = (data.y - ym) / ys
    out = RegressionData(y=y, X=X, standardized=True)
    return out, StandardizeTransform(ym, ys, col_means, col_scales)


def ols_fit(data):
    """Least-squares coefficients via the normal equations.

    With orthogonal standardized covariates this reduces to
    ``beta_hat_j = (1/n) sum_i x_ij y_i`` componentwise.
    """
    XtX = data.X.T @ data.X
    Xty = data.X.T @ data.y
    if np.linalg.matrix_rank(XtX) < data.p:
        raise DataError("design matrix is rank deficient")
    return np.linalg.solve(XtX, Xty)


def load_csv(path):
    """Read a regression dataset from CSV.

    Expects a header row of distinct, non-empty names containing ``y``;
    every other column is a numeric covariate.  An intercept column is
    prepended automatically.  A file that cannot be opened is a
    `DataError`.
    """
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read data file: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        for i, h in enumerate(header):
            if not h:
                raise DataError(f"{path}: header column {i + 1} has no name")
            if h in header[:i]:
                raise DataError(f"{path}: header names column {h!r} twice")
        if "y" not in header:
            raise DataError(f"{path}: no column named 'y' in header {header}")
        y_idx = header.index("y")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} fields")
            try:
                rows.append([float(c) for c in row])
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=float)
    y = arr[:, y_idx]
    covs = np.delete(arr, y_idx, axis=1)
    X = np.column_stack([np.ones(len(y)), covs])
    names = [h for i, h in enumerate(header) if i != y_idx]
    data = RegressionData(y=y, X=X)
    return data, names


def write_commented_csv(path, header, rows, comments=()):
    """Write ``#``-prefixed comment lines, then a header row and the rows."""
    with open(path, "w", newline="") as fh:
        for line in comments:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# Priors on sigma, parameterized by nu = log(sigma).  Each returns the log
# of pi(sigma = e^nu) without the change-of-variables Jacobian, which the
# target adds exactly once.
# ---------------------------------------------------------------------------

class JeffreysSigma:
    """Improper scale prior pi(sigma) proportional to 1/sigma."""

    def log_density_nu(self, nu):
        return -np.asarray(nu, dtype=float)

    def dlog_dnu(self, nu):
        # Scalar; broadcasts against batched nu.
        return -1.0

    def __repr__(self):
        return "JeffreysSigma()"


class InverseGammaSigmaSq:
    """Prior under which sigma^2 is inverse-gamma(shape, scale)."""

    def __init__(self, shape, scale):
        if not (0 < shape < math.inf and 0 < scale < math.inf):
            raise ValueError("shape and scale must be positive and finite")
        self.shape = float(shape)
        self.scale = float(scale)

    def log_density_nu(self, nu):
        nu = np.asarray(nu, dtype=float)
        # density of sigma: 2 * b^a / Gamma(a) * sigma^(-2a-1) * exp(-b/sigma^2)
        return -(2 * self.shape + 1) * nu - self.scale * np.exp(-2 * nu)

    def dlog_dnu(self, nu):
        nu = np.asarray(nu, dtype=float)
        return -(2 * self.shape + 1) + 2 * self.scale * np.exp(-2 * nu)

    def __repr__(self):
        return f"InverseGammaSigmaSq({self.shape}, {self.scale})"


class PowerAdjustedSigma:
    """A base sigma prior multiplied by sigma^power.

    The positive-power form is the full-information correction that cancels
    the constant-tail trace; the negative-power form is the limiting density
    left behind by unresolved scaling conflicts.
    """

    def __init__(self, base, power):
        if not float(power).is_integer():
            raise ValueError(f"sigma power must be an integer, got {power!r}")
        self.base = base
        self.power = int(power)

    def log_density_nu(self, nu):
        return self.base.log_density_nu(nu) + self.power * np.asarray(nu, dtype=float)

    def dlog_dnu(self, nu):
        return self.base.dlog_dnu(nu) + self.power

    def __repr__(self):
        return f"PowerAdjustedSigma({self.base!r}, {self.power})"


def _is_jeffreys_like(sigma_prior):
    while isinstance(sigma_prior, PowerAdjustedSigma):
        sigma_prior = sigma_prior.base
    return isinstance(sigma_prior, JeffreysSigma)


class PosteriorTarget:
    """Joint unnormalized log-posterior of (beta, nu) and its gradient.

    ``priors`` is one entry per design column: a `CoefficientPrior`, or
    ``None`` for the improper flat prior (the benchmark choice).  The
    errors are standard normal, so the likelihood depends on the data only
    through the Gram statistics ``X^T X``, ``X^T y`` and ``y^T y``: a batch
    of m rows costs one (m, p) by (p, p) product, whatever n is.
    Coefficient families are called with ``check=False`` (see
    `robustpriors.priors`), and only on rows already found finite.

    Instances are immutable after construction and evaluation has no side
    effects, so a single target can serve many chains concurrently.  With
    more than one column, a row's value and gradient can differ in the
    last bits with the number of rows evaluated together (BLAS picks
    another kernel for one row than for several; about 3e-14 on a value of
    -142), so bit-for-bit reproducibility holds at a fixed batch size, as
    in `sample`.
    """

    def __init__(self, data, priors, sigma_prior=None):
        self.data = data
        self.priors = list(priors)
        if len(self.priors) != data.p:
            raise ValueError(
                f"need {data.p} coefficient priors, got {len(self.priors)}")
        for pr in self.priors:
            if pr is not None and not isinstance(pr, CoefficientPrior):
                raise TypeError(f"bad prior entry {pr!r}")
        self.sigma_prior = sigma_prior if sigma_prior is not None else JeffreysSigma()

        self._XtX = data.X.T @ data.X
        self._Xty = data.X.T @ data.y
        self._yty = float(data.y @ data.y)
        self._n = data.n
        self._p = data.p
        # Along a null direction of the flat-prior columns the likelihood is
        # constant and nothing else bounds the density.  Such a direction
        # needs a rank-deficient design.
        self._full_rank = np.linalg.matrix_rank(self._XtX) == self._p
        flat = [j for j, pr in enumerate(self.priors) if pr is None]
        if (not self._full_rank
                and np.linalg.matrix_rank(self._XtX[np.ix_(flat, flat)]) < len(flat)):
            raise DataError(
                "the design columns with flat priors ("
                + ", ".join(f"beta_{j + 1}" for j in flat) + ") are collinear, "
                "so the posterior is improper; give one of them a proper prior")

        # Located priors as arrays, so every prior argument of a batch is
        # built at once as one (m, k) matrix.
        active = [(j, pr) for j, pr in enumerate(self.priors) if pr is not None]
        self._located = bool(active)
        self._cols = np.array([j for j, _ in active], dtype=int)
        self._mu = np.array([pr.mu for _, pr in active], dtype=float)
        self._lam = np.array([pr.lam for _, pr in active], dtype=float)
        self._log_lam = np.array([np.log(pr.lam) for _, pr in active])
        self._families = [pr.family for _, pr in active]

        self._check_properness()

    @property
    def n(self):
        return self.data.n

    @property
    def p(self):
        return self.data.p

    @property
    def dim(self):
        return self.data.p + 1

    @property
    def start_point(self):
        """Least-squares coefficients and log residual scale, for chain warm starts.

        A rank-deficient design has many least-squares points; the one of
        minimum norm is taken.
        """
        if self._full_rank:
            beta = np.linalg.solve(self._XtX, self._Xty)
        else:
            beta = np.linalg.lstsq(self.data.X, self.data.y, rcond=None)[0]
        resid = self.data.y - self.data.X @ beta
        rms = float(np.sqrt((resid ** 2).mean()))
        nu0 = np.log(rms) if rms > 0 else 0.0
        return np.concatenate([beta, [nu0]])

    def _check_properness(self):
        has_ctn = any(pr is not None and isinstance(pr.family, CTN)
                      for pr in self.priors)
        if not has_ctn:
            return
        sp = self.sigma_prior
        if isinstance(sp, InverseGammaSigmaSq):
            return
        if _is_jeffreys_like(sp) and self.n > self.p + 2:
            return
        warnings.warn(
            "constant-tailed coefficient priors are improper; the sigma prior "
            "should satisfy integral(sigma^-p * pi(sigma)) < infinity, or use "
            "n > p + 2 with the Jeffreys prior, to guarantee a proper posterior",
            UserWarning, stacklevel=3)

    # -- evaluation ---------------------------------------------------------

    def _split(self, beta, nu):
        B = np.atleast_2d(np.asarray(beta, dtype=float))
        v = np.atleast_1d(np.asarray(nu, dtype=float))
        if B.shape[0] != v.shape[0]:
            if B.shape[0] == 1:
                B = np.broadcast_to(B, (v.shape[0], B.shape[1]))
            elif v.shape[0] == 1:
                v = np.broadcast_to(v, (B.shape[0],))
            else:
                raise ValueError("beta and nu batch sizes do not match")
        if B.shape[1] != self.p:
            raise ValueError(f"beta must have length {self.p}")
        return B, v

    def log_posterior(self, beta, nu):
        """Unnormalized log joint density of (beta, nu), Jacobian included.

        Rows with non-finite coordinates (or overflowing intermediates)
        evaluate to -inf rather than raising, so trajectory integrators can
        treat them as divergences.
        """
        B, v = self._split(beta, nu)
        scalar = np.ndim(nu) == 0 and np.ndim(beta) == 1
        out = self._evaluate(B, v)[0]
        return float(out[0]) if scalar and B.shape[0] == 1 else out

    def grad_log_posterior(self, beta, nu):
        """Analytic gradient of `log_posterior` with respect to (beta, nu).

        At prior kinks the interior branch value is used (the kink set has
        null measure).  Non-finite rows yield a zero gradient.
        """
        B, v = self._split(beta, nu)
        scalar = np.ndim(nu) == 0 and np.ndim(beta) == 1
        out = self._evaluate(B, v, value=False, grad=True)[1]
        return out[0] if scalar and B.shape[0] == 1 else out

    def _prior_args(self, B, inv_sigma):
        # Z[:, i] = lam_i / sigma * (beta_{cols[i]} - mu_i), one column per
        # located prior; a free zero-width view when all priors are flat.
        if not self._located:
            return B[:, :0]
        return np.multiply.outer(inv_sigma, self._lam) * (B[:, self._cols] - self._mu)

    def _per_prior(self, Z, grad):
        # Column i holds located prior i's family log density (or, with
        # grad, its score) at column i of Z.  Z has only finite rows here,
        # so the family methods skip their input check.
        out = np.empty_like(Z)
        for i, fam in enumerate(self._families):
            method = fam.grad_log_density if grad else fam.log_density
            out[:, i] = method(Z[:, i], check=False)
        return out

    def _evaluate(self, B, v, value=True, grad=False):
        """Log density (m,) and/or its gradient (m, p+1) at rows (B, v).

        Returns ``(value, gradient)``, with None in place of the one not
        asked for.  Both share the prefix (``exp(-nu)``, prior arguments,
        finite checks and `_gram`), and each is computed by the same
        operations whether or not the other is, so a fused call gives the
        bits of two separate ones.

        A row with a non-finite coordinate or prior argument gives -inf and
        a zero gradient.  One reduction decides whether any row can be bad;
        the exact row mask is only built when it says so, and bad rows are
        evaluated at zero so the family methods only ever see finite
        arguments.  Afterwards a NaN value becomes -inf and non-finite
        gradient entries become zero.
        """
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            inv_sigma = np.exp(-v)
            Z = self._prior_args(B, inv_sigma)
            ok = None
            total = B.sum() + v.sum()
            if self._located:
                total += Z.sum()
            if not math.isfinite(total):
                ok = (np.isfinite(B).all(axis=1) & np.isfinite(v)
                      & np.isfinite(Z).all(axis=1))
                if ok.all():
                    ok = None
                else:
                    B = np.where(ok[:, None], B, 0.0)
                    v = np.where(ok, v, 0.0)
                    inv_sigma = np.exp(-v)
                    Z = self._prior_args(B, inv_sigma)
            gram = g = val = None
            if grad:
                gram = self._gram(B)
                g = self._gradient(v, inv_sigma, Z, gram, ok)
            if value:
                val = self._value(B, v, inv_sigma, Z, gram, ok)
        return val, g

    def _value(self, B, v, inv_sigma, Z, gram, ok):
        out = v + self.sigma_prior.log_density_nu(v)
        # Without `gram` only S is kept: a value-only call on a large batch
        # frees ``B @ XtX`` at once.
        S = (self._gram(B) if gram is None else gram)[1]
        out = out + (-self._n * v - 0.5 * S * inv_sigma * inv_sigma
                     + self._n * LOG_INV_SQRT_2PI)
        if self._located:
            prior = ((self._log_lam - v[:, None])
                     + self._per_prior(Z, grad=False))
            for t in prior.T:
                out = out + t
        if ok is not None:
            out = np.where(ok, out, -np.inf)
        if not math.isfinite(out.sum()):
            out = np.where(np.isnan(out), -np.inf, out)
        return out

    def _gradient(self, v, inv_sigma, Z, gram, ok):
        # Log pi(sigma), the Jacobian and the likelihood first.
        BX, S = gram
        inv2 = inv_sigma * inv_sigma
        gB = (self._Xty[None, :] - BX) * inv2[:, None]
        gv = 1.0 + self.sigma_prior.dlog_dnu(v) - self._n + S * inv2
        if self._located:
            G = self._per_prior(Z, grad=True)
            gB[:, self._cols] += G * self._lam * inv_sigma[:, None]
            # Column by column, in prior order, as a per-prior sum would.
            for t in (-1.0 - Z * G).T:
                gv += t
        out = np.empty((v.shape[0], self._p + 1))
        out[:, :self._p] = gB
        out[:, self._p] = gv
        if ok is not None:
            out = np.where(ok[:, None], out, 0.0)
        if not math.isfinite(out.sum()):
            out = np.where(np.isfinite(out), out, 0.0)
        return out

    def _gram(self, B):
        """``B @ XtX`` (m, p) and the residual sum of squares S(B) (m,).

        With p == 1 both are done elementwise, in the same operations and
        so to the same bits: a BLAS product on a one-column batch costs
        about ten times the arithmetic.
        """
        if self._p == 1:
            b = B[:, 0]
            BX = B * self._XtX[0, 0]
            return BX, self._yty - (2.0 * b) * self._Xty[0] + BX[:, 0] * b
        BX = B @ self._XtX
        return BX, self._yty - 2.0 * B @ self._Xty + (BX * B).sum(axis=1)

    def log_posterior_sigma(self, beta, sigma):
        """Joint log density in the original (beta, sigma) coordinates.

        Everything internal works in nu = log(sigma); this helper removes
        the change-of-variables Jacobian again for callers who want the
        sigma-space density.
        """
        sig = np.asarray(sigma, dtype=float)
        if np.any(sig <= 0) or not np.all(np.isfinite(sig)):
            raise ValueError(f"sigma must be positive and finite, got {sigma}")
        nu = np.log(sig)
        return self.log_posterior(beta, nu) - nu

    # -- flat coordinate interface for samplers and quadrature --------------

    def _packed(self, q):
        q = np.asarray(q, dtype=float)
        if q.ndim == 1:
            q = q[None, :]
        return q[:, :self._p], q[:, self._p]

    def logpdf(self, q):
        """Log density over packed coordinates ``q = (beta_1..beta_p, nu)``."""
        return self._evaluate(*self._packed(q))[0]

    def grad_logpdf(self, q):
        """Gradient of `logpdf`, one row of ``(d/d beta, d/d nu)`` per row of q."""
        return self._evaluate(*self._packed(q), value=False, grad=True)[1]

    def logpdf_and_grad(self, q):
        """``(logpdf(q), grad_logpdf(q))`` from one pass, bit for bit.

        The two share their prefix, so a caller that needs both at the same
        rows (a sampler at a trajectory's end) pays for it once.
        """
        return self._evaluate(*self._packed(q), grad=True)

    def whitened(self):
        """This target seen through the affine map ``q = q_hat + A w``.

        ``q_hat`` is `start_point` and ``A = blockdiag(sigma_hat R^{-1},
        c_nu / sqrt(2n))``, with ``sigma_hat = exp(nu_hat)`` and ``X^T X =
        R^T R`` (Cholesky).  A comes from the likelihood alone: at
        ``sigma_hat`` the likelihood of w has unit curvature in every
        coefficient direction.  A prior plays no part, because a
        conflicting one can be far narrower at q_hat than it is where the
        posterior lies.  Only when ``X^T X`` is singular, which needs
        collinear columns with located priors, is ``lam_j^2`` added to the
        diagonal of each located column before factoring.

        The likelihood's curvature in nu is ``2n exp(-2 (nu - nu_hat))``:
        it stiffens below the mode.  ``c_nu = exp(-3 / sqrt(2n))`` sizes the
        nu scale for the curvature three sd below the mode, so a step that
        is stable at the mode stays stable in the lower tail.

        The map is affine, so its Jacobian is a constant that the returned
        view leaves out; sampling w is HMC on q with the mass matrix
        ``(A A^T)^{-1}``.  The view has ``dim``, ``start_point`` (zeros),
        ``logpdf``, ``grad_logpdf`` (``grad(q) A``), ``logpdf_and_grad``,
        ``to_posterior`` (w rows to q rows) and ``s_min``, A's smallest
        singular value: the scale in q of the map's tightest direction, so
        a raw step ``h`` along it is the step ``h / s_min`` in w.
        """
        return _WhitenedTarget(self)

    def __repr__(self):
        fams = [pr.family.name if pr is not None else "flat" for pr in self.priors]
        return (f"PosteriorTarget(n={self.n}, p={self.p}, priors={fams}, "
                f"sigma={self.sigma_prior!r})")


class _WhitenedTarget:
    """A `PosteriorTarget` over ``w``, with ``q = q_hat + A w``; see `whitened`."""

    def __init__(self, target):
        p, n = target.p, target.n
        self.target = target
        self.q_hat = target.start_point
        gram = target._XtX
        if not target._full_rank:
            gram = gram.copy()
            gram[target._cols, target._cols] += target._lam ** 2
        A = np.zeros((p + 1, p + 1))
        # sigma_hat R^{-1}, with R the transpose of the Cholesky factor.
        A[:p, :p] = (math.exp(self.q_hat[p])
                     * np.linalg.inv(np.linalg.cholesky(gram)).T)
        A[p, p] = math.exp(-3.0 / math.sqrt(2 * n)) / math.sqrt(2 * n)
        self.A = A
        self.s_min = float(np.linalg.svd(A, compute_uv=False).min())

    @property
    def dim(self):
        return self.target.dim

    @property
    def start_point(self):
        return np.zeros(self.dim)

    def to_posterior(self, w):
        """The ``(beta, nu)`` rows ``q_hat + A w`` of rows (or a row) `w`."""
        return self.q_hat + np.asarray(w, dtype=float) @ self.A.T

    def logpdf(self, w):
        return self.target.logpdf(self.to_posterior(w))

    def grad_logpdf(self, w):
        return self.target.grad_logpdf(self.to_posterior(w)) @ self.A

    def logpdf_and_grad(self, w):
        value, grad = self.target.logpdf_and_grad(self.to_posterior(w))
        return value, grad @ self.A


def _standardized_pattern(n):
    # Deterministic response with mean 0 and mean square 1.
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    y = y - y.mean()
    norm = np.sqrt((y ** 2).sum())
    return y * np.sqrt(n) / norm


def reduced_target(n, mu2=0.0, lambda2=1.0, family=None, sigma_power=0):
    """The two-parameter simulation target as an intercept-only model.

    With a single all-ones design column and a standardized response the
    general likelihood collapses to exactly the reduced form
    ``-(n+1) nu - n (1 + beta^2) / (2 e^{2 nu}) + log g(...)`` used in the
    sweeps, so no second formula path exists.

    ``family=None`` selects the improper flat benchmark prior on the
    coefficient.  The prior inverse-scale is ``lambda2 * sqrt(n)``
    (simulation-study convention).  ``sigma_power`` multiplies the Jeffreys
    prior by ``sigma^power`` (+1 is the constant-tail correction, -1 the
    scaling-conflict limit).
    """
    if n < 4:
        raise ValueError("reduced target needs n >= 4 for a proper benchmark")
    y = _standardized_pattern(n)
    X = np.ones((n, 1))
    data = RegressionData(y=y, X=X, standardized=True)
    if family is None:
        priors = [None]
    else:
        priors = [CoefficientPrior(mu=mu2, lam=lambda2 * np.sqrt(n), family=family)]
    sigma_prior = (PowerAdjustedSigma(JeffreysSigma(), sigma_power)
                   if sigma_power else None)
    return PosteriorTarget(data, priors, sigma_prior=sigma_prior)
