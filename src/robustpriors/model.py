"""Linear-regression data handling and the joint log-posterior.

The model is ``y_i = x_i . beta + sigma * eps_i`` with standard normal
errors ``eps_i ~ N(0, 1)`` and the product prior

    pi(beta | sigma) = prod_j (lam_j / sigma) g_j((lam_j / sigma)(beta_j - mu_j)),

together with a scale prior ``pi(sigma) ~ sigma^power exp(-scale / sigma^2)``
(`SigmaPrior`, Jeffreys' 1/sigma by default).  All posterior evaluation
happens in the unconstrained coordinates ``(beta, nu)`` with
``nu = log(sigma)``; the Jacobian ``e^nu`` of that substitution is included,
and sigma-space densities are only ever produced by transforming draws.

`PosteriorTarget` holds the posterior's formula, and its packed-row methods
`logpdf`, `grad_logpdf` and `logpdf_and_grad` are the one way to evaluate
it.  The data enter only through the Gram record that each
`RegressionData` computes once (``gram``), which the target, `ols_fit` and
the quadrature oracle read.  The oracle reuses the family and sigma-prior
kernels in a factorized form, and its tests check that form against
`logpdf`.
The two-parameter simulation target (orthogonal standardized covariates,
zero least-squares estimate) is built through `reduced_target` as an
intercept-only instance of exactly the same code path.

A note on scale conventions: in `reduced_target` the user-facing ``lam2``
follows the simulation-study convention where the prior inverse-scale is
``lam2 * sqrt(n)``; the constructor applies the ``sqrt(n)`` factor itself.
`CoefficientPrior` built directly takes the raw inverse-scale multiplier
with no such factor.
"""

import csv
import functools
import io
import math
import operator
import os
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .priors import CTN, CoefficientPrior
from .specfun import LOG_INV_SQRT_2PI

__all__ = [
    "DataError", "RegressionData", "StandardizeTransform", "standardize",
    "ols_fit", "load_csv", "SigmaPrior", "PosteriorTarget", "reduced_target",
]


class DataError(ValueError):
    """Raised for malformed or degenerate input data."""


def _read_only(a):
    # A float copy, in the layout given, that rejects writes.
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


class _Gram(NamedTuple):
    """The Gram statistics of a data set: all that the likelihood reads."""

    XtX: np.ndarray
    Xty: np.ndarray
    yty: float
    full_rank: bool


@dataclass(frozen=True)
class RegressionData:
    """Response vector and design matrix with a leading intercept column.

    ``y`` and ``X`` are read-only copies of the arrays given, and the
    fields cannot be reassigned, so ``gram``, computed once at
    construction, always describes them: ``XtX`` (X^T X), ``Xty`` (X^T y),
    ``yty`` (y^T y) and ``full_rank``, whether X^T X has rank p.
    """

    y: np.ndarray
    X: np.ndarray
    gram: _Gram = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        y, X = _read_only(self.y), _read_only(self.X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        if y.ndim != 1 or X.ndim != 2:
            raise DataError("y must be a vector and X a matrix")
        n, p = X.shape
        if len(y) != n:
            raise DataError(f"y has length {len(y)} but X has {n} rows")
        if not (n >= p >= 1):
            raise DataError(f"need n >= p >= 1, got n={n}, p={p}")
        if not np.all(X[:, 0] == 1.0):
            raise DataError("first column of X must be the all-ones intercept")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X))):
            raise DataError("data must be finite")
        XtX, Xty = X.T @ X, X.T @ y
        XtX.flags.writeable = Xty.flags.writeable = False
        object.__setattr__(self, "gram", _Gram(
            XtX, Xty, float(y @ y), bool(np.linalg.matrix_rank(XtX) == p)))

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
    out = RegressionData(y=y, X=X)
    return out, StandardizeTransform(ym, ys, col_means, col_scales)


def ols_fit(data):
    """Least-squares coefficients via the normal equations, from ``data.gram``.

    With orthogonal standardized covariates this reduces to
    ``beta_hat_j = (1/n) sum_i x_ij y_i`` componentwise.
    """
    if not data.gram.full_rank:
        raise DataError("design matrix is rank deficient")
    return np.linalg.solve(data.gram.XtX, data.gram.Xty)


def load_csv(path):
    """Read a regression dataset from CSV.

    Expects a header row of distinct, non-empty names containing ``y``;
    every other column is a numeric covariate.  An intercept column is
    prepended automatically.  A file that cannot be read, or is not UTF-8
    text, is a `DataError`.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(
            f"cannot read data file: {_os_error_text(exc)}") from None
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
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


def _os_error_text(exc):
    """``str(exc)`` with the file name as it is, not as its repr.

    The repr of a name that reached Python with surrogate escapes (a
    non-ASCII name under an ASCII locale) spells them out as backslash
    escapes; as it is, the name goes back out as its own bytes.
    """
    if exc.filename is None or exc.strerror is None:
        return str(exc)
    return f"[Errno {exc.errno}] {exc.strerror}: '{os.fsdecode(exc.filename)}'"


def write_commented_csv(path, header, rows, comments=()):
    r"""Write ``#`` comment lines, then a header row and the rows, as UTF-8.

    The one writer of every result file; each line ends in "\n", and a
    carriage return or line feed inside a comment is written as the escape
    ``\r`` or ``\n``, so the comment stays on one line.  A cell is written
    as ``str(cell)``, for a float its shortest round-trip text; cells are
    numbers or fixed identifiers, so none is quoted.  A surrogate-escaped
    path (a non-ASCII name under an ASCII locale) keeps its own bytes.
    """
    with open(path, "w", newline="", encoding="utf-8",
              errors="surrogateescape") as fh:
        fh.writelines("# " + line.replace("\r", "\\r").replace("\n", "\\n")
                      + "\n" for line in comments)
        fh.write(",".join(header) + "\n")
        row_format = ",".join(["%s"] * len(header)) + "\n"
        fh.writelines(row_format % tuple(row) for row in rows)


# ---------------------------------------------------------------------------
# The prior on sigma, as log pi(sigma = e^nu) in nu = log(sigma), without
# the change-of-variables Jacobian, which the target adds exactly once.
# ---------------------------------------------------------------------------

class SigmaPrior:
    """The scale prior pi(sigma) ~ sigma^power exp(-scale / sigma^2).

    Jeffreys' 1/sigma is the default; sigma^2 ~ inverse-gamma(a, b) is
    ``SigmaPrior(-(2a + 1), b)``; a sigma^k trace adds k to the power.
    """

    __slots__ = ("power", "scale")

    def __init__(self, power=-1.0, scale=0.0):
        self.power, self.scale = float(power), float(scale)
        if not math.isfinite(self.power):
            raise ValueError(f"sigma power must be finite, got {power!r}")
        if not 0.0 <= self.scale < math.inf:
            raise ValueError(f"scale must be finite and >= 0, got {scale!r}")

    def log_density_nu(self, nu):
        nu = np.asarray(nu, dtype=float)
        out = self.power * nu
        # Only when present: 0 * inf would be NaN where e^(-2 nu) overflows.
        if self.scale:
            out = out - self.scale * np.exp(-2 * nu)
        return out

    def dlog_dnu(self, nu):
        # A scalar without the exponential term; it broadcasts against
        # batched nu.
        if not self.scale:
            return self.power
        nu = np.asarray(nu, dtype=float)
        return self.power + 2 * self.scale * np.exp(-2 * nu)

    def __repr__(self):
        return f"SigmaPrior(power={self.power!r}, scale={self.scale!r})"


# Widest batch that `_sum_rows` adds by accumulation: on a 2-core x86-64
# VM, 1 us against 3 us for five rows of 4 columns, but 7 us against 3 us
# for five rows of 225 columns.
_ACCUMULATE_COLUMNS = 32


def _sum(a):
    # ``a.sum()`` without the Python wrapper numpy puts around it: the same
    # reduction, so the same bits.
    return np.add.reduce(a, axis=None)


def _sum_rows(terms):
    # ``terms[0] + terms[1] + ...``, added in that order.  An accumulation
    # never reorders its additions either, and is one call instead of one
    # per row; but it loops over the rows once per column, so on a wide
    # batch it costs far more than the in-place additions.
    if len(terms) > 1 and terms.shape[1] <= _ACCUMULATE_COLUMNS:
        return np.add.accumulate(terms, axis=0)[-1]
    out = terms[0]
    for t in terms[1:]:
        out += t
    return out


class PosteriorTarget:
    """Joint unnormalized log-posterior of (beta, nu) and its gradient.

    It is evaluated at packed rows ``q = (beta_1..beta_p, nu)`` by
    `logpdf`, `grad_logpdf` and `logpdf_and_grad` alone.  ``priors`` is one
    entry per design column: a `CoefficientPrior`, or ``None`` for the
    improper flat prior (the benchmark choice).  The errors are standard
    normal, so the likelihood depends on the data only through the Gram
    statistics ``X^T X``, ``X^T y`` and ``y^T y``, read from ``data.gram``
    and not recomputed: a batch of m rows costs one (m, p) by (p, p)
    product, whatever n is, and targets may share one `RegressionData`.
    Coefficient families are called with ``check=False`` (see
    `robustpriors.priors`), and only on rows already found finite.  The
    columns of the located priors are chosen once, at construction: by a
    slice when they are consecutive, so a batch's prior arguments start
    from a view of it and the prior scores are added into one block of the
    gradient, and by an index array otherwise.

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
        self.sigma_prior = SigmaPrior() if sigma_prior is None else sigma_prior
        if not isinstance(self.sigma_prior, SigmaPrior):
            raise TypeError(f"bad sigma prior {sigma_prior!r}")

        self._XtX, self._Xty, self._yty, self._full_rank = data.gram
        self.n, self.p, self.dim = data.n, data.p, data.p + 1
        # Along a null direction of the flat-prior columns the likelihood is
        # constant and nothing else bounds the density.  Such a direction
        # needs a rank-deficient design.
        flat = [j for j, pr in enumerate(self.priors) if pr is None]
        if (not self._full_rank
                and np.linalg.matrix_rank(self._XtX[np.ix_(flat, flat)]) < len(flat)):
            raise DataError(
                "the design columns with flat priors ("
                + ", ".join(f"beta_{j + 1}" for j in flat) + ") are collinear, "
                "so the posterior is improper; give one of them a proper prior")

        # Located priors as (k, 1) columns, so every prior argument of a
        # batch is built at once as one (k, m) matrix, a row per prior.
        # `_sel` picks their columns of the design: a slice (a view) when
        # they are consecutive, else the index array.
        active = [(j, pr) for j, pr in enumerate(self.priors) if pr is not None]
        self._located = bool(active)
        self._cols = np.array([j for j, _ in active], dtype=int)
        consecutive = self._located and np.all(np.diff(self._cols) == 1)
        self._sel = (slice(int(self._cols[0]), int(self._cols[-1]) + 1)
                     if consecutive else self._cols)
        self._mu = np.array([[pr.mu] for _, pr in active], dtype=float)
        self._lam = np.array([[pr.lam] for _, pr in active], dtype=float)
        self._log_lam = np.log(self._lam)
        self._log_densities = [pr.family.log_density for _, pr in active]
        self._grad_log_densities = [pr.family.grad_log_density
                                    for _, pr in active]

        self._check_properness()

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
        if sp.scale > 0 and sp.power < self.p - 1:
            return
        if sp.scale == 0 and self.n > self.p + 2:
            return
        warnings.warn(
            "constant-tailed coefficient priors are improper; the sigma prior "
            "should satisfy integral(sigma^-p * pi(sigma)) < infinity, or use "
            "n > p + 2 with the Jeffreys prior, to guarantee a proper posterior",
            UserWarning, stacklevel=3)

    # -- evaluation ---------------------------------------------------------

    def logpdf(self, q):
        """Log density (m,) at rows ``q = (beta_1..beta_p, nu)``, or one row.

        Non-finite rows (or overflowing intermediates) give -inf, not an
        error, so trajectory integrators can treat them as divergences.
        """
        return self._evaluate(q)[0]

    def grad_logpdf(self, q):
        """Gradient of `logpdf`, one row of ``(d/d beta, d/d nu)`` per row of q.

        At prior kinks the interior branch value is used (the kink set has
        null measure).  Non-finite rows yield a zero gradient.
        """
        return self._evaluate(q, value=False, grad=True)[1]

    def logpdf_and_grad(self, q):
        """``(logpdf(q), grad_logpdf(q))`` from one pass, bit for bit.

        The two share their prefix, so a caller that needs both at the same
        rows (a sampler at a trajectory's end) pays for it once.
        """
        return self._evaluate(q, grad=True)

    def _prior_args(self, B, inv_sigma):
        # Z[i] = lam_i / sigma * (beta_{cols[i]} - mu_i) over the batch, one
        # row per located prior; a free zero-height view when all priors are
        # flat.
        if not self._located:
            return B[:, :0].T
        return self._lam * inv_sigma * (B[:, self._sel].T - self._mu)

    def _per_prior(self, Z, methods, out):
        # Row i of `out` gets located prior i's family log density (or
        # score, by `methods`) at row i of Z.  Z has only finite columns
        # here, so the family methods skip their input check.
        for i, method in enumerate(methods):
            out[i] = method(Z[i], check=False)
        return out

    def _evaluate(self, q, value=True, grad=False):
        """Log density (m,) and/or its gradient (m, p+1) at packed rows q.

        Returns ``(value, gradient)``, with None in place of the one not
        asked for.  Both share the prefix (``exp(-nu)``, prior arguments,
        finite checks and `_gram`), and each is computed by the same
        operations whether or not the other is, so a fused call gives the
        bits of two separate ones.

        A row with a non-finite coordinate or prior argument gives -inf and
        a zero gradient.  One sum over the rows and one over the prior
        arguments decide whether any row can be bad; the exact row mask is
        only built when they say so, and bad rows are evaluated at zero so
        the family methods only ever see finite arguments.  Afterwards a
        NaN value becomes -inf and non-finite gradient entries become zero.
        """
        q = np.asarray(q, dtype=float)
        if q.ndim == 1:
            q = q[None, :]
        B, v = q[:, :self.p], q[:, self.p]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            inv_sigma = np.exp(-v)
            Z = self._prior_args(B, inv_sigma)
            ok = None
            total = _sum(q)
            if self._located:
                total += _sum(Z)
            if not math.isfinite(total):
                ok = (np.isfinite(B).all(axis=1) & np.isfinite(v)
                      & np.isfinite(Z).all(axis=0))
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
        # Row 0 of `terms` takes log pi(sigma), the Jacobian and the
        # likelihood, row i + 1 located prior i; they are added in that
        # order, as a per-prior sum would.
        terms = np.empty((1 + len(Z), len(v)))
        out = np.add(v, self.sigma_prior.log_density_nu(v), out=terms[0])
        # Without `gram` only S is kept: a value-only call on a large batch
        # frees ``B @ XtX`` at once.
        S = (self._gram(B) if gram is None else gram)[1]
        out += (-self.n * v - 0.5 * S * inv_sigma * inv_sigma
                + self.n * LOG_INV_SQRT_2PI)
        if self._located:
            prior = self._per_prior(Z, self._log_densities, terms[1:])
            prior += self._log_lam - v
        out = _sum_rows(terms)
        if ok is not None:
            out = np.where(ok, out, -np.inf)
        if not math.isfinite(_sum(out)):
            out = np.where(np.isnan(out), -np.inf, out)
        return out

    def _gradient(self, v, inv_sigma, Z, gram, ok):
        # Log pi(sigma), the Jacobian and the likelihood first: the beta
        # block straight into the output, the nu column as row 0 of
        # `terms`, with row i + 1 for located prior i, added in that order.
        BX, S = gram
        inv2 = inv_sigma * inv_sigma
        out = np.empty((len(v), self.p + 1))
        gB = out[:, :self.p]
        np.subtract(self._Xty, BX, out=gB)
        gB *= inv2[:, None]
        terms = np.empty((1 + len(Z), len(v)))
        np.add(1.0 + self.sigma_prior.dlog_dnu(v) - self.n, S * inv2,
               out=terms[0])
        if self._located:
            G = self._per_prior(Z, self._grad_log_densities,
                                np.empty(Z.shape))
            gB[:, self._sel] += (G * self._lam * inv_sigma).T
            np.subtract(-1.0, Z * G, out=terms[1:])
        out[:, self.p] = _sum_rows(terms)
        if ok is not None:
            out = np.where(ok[:, None], out, 0.0)
        if not math.isfinite(_sum(out)):
            out = np.where(np.isfinite(out), out, 0.0)
        return out

    def _gram(self, B):
        """``B @ XtX`` (m, p) and the residual sum of squares S(B) (m,).

        With p == 1 both are done elementwise, in the same operations and
        so to the same bits: a BLAS product on a one-column batch costs
        about ten times the arithmetic.
        """
        if self.p == 1:
            b = B[:, 0]
            BX = B * self._XtX[0, 0]
            return BX, self._yty - (2.0 * b) * self._Xty[0] + BX[:, 0] * b
        BX = B @ self._XtX
        return BX, (self._yty - 2.0 * B @ self._Xty
                    + np.add.reduce(BX * B, axis=1))

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
        self.dim = target.dim
        self.q_hat = target.start_point
        gram = target._XtX
        if not target._full_rank:
            gram = gram.copy()
            gram[target._cols, target._cols] += target._lam[:, 0] ** 2
        A = np.zeros((p + 1, p + 1))
        # sigma_hat R^{-1}, with R the transpose of the Cholesky factor.
        A[:p, :p] = (math.exp(self.q_hat[p])
                     * np.linalg.inv(np.linalg.cholesky(gram)).T)
        A[p, p] = math.exp(-3.0 / math.sqrt(2 * n)) / math.sqrt(2 * n)
        self.A = A
        self.s_min = float(np.linalg.svd(A, compute_uv=False).min())

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


@functools.lru_cache(maxsize=8)
def _reduced_data(n):
    # The reduced design at one n, validated and with its Gram record, built
    # once and shared by every target at that n: its arrays reject writes.
    return RegressionData(y=_standardized_pattern(n), X=np.ones((n, 1)))


def reduced_target(n, mu2=0.0, lambda2=1.0, family=None, sigma_power=0):
    """The two-parameter simulation target as an intercept-only model.

    With a single all-ones design column and a standardized response the
    general likelihood collapses to exactly the reduced form
    ``-(n+1) nu - n (1 + beta^2) / (2 e^{2 nu}) + log g(...)`` used in the
    sweeps, so no second formula path exists.

    ``n`` is an integer of at least 4.  The design and response depend on n
    alone, so targets at one n share one read-only `RegressionData`, built
    at the first of them; a sweep validates it and computes its Gram record
    once.  ``family=None`` selects the improper flat benchmark prior on the
    coefficient.  The prior inverse-scale is ``lambda2 * sqrt(n)``
    (simulation-study convention).  ``sigma_power`` multiplies the Jeffreys
    prior by ``sigma^sigma_power``: the scale prior is
    ``SigmaPrior(sigma_power - 1)``.
    """
    # Before the cache: 100.0 would otherwise find the design built at 100.
    n = operator.index(n)
    if n < 4:
        raise ValueError("reduced target needs n >= 4 for a proper benchmark")
    if family is None:
        priors = [None]
    else:
        priors = [CoefficientPrior(mu=mu2, lam=lambda2 * np.sqrt(n), family=family)]
    return PosteriorTarget(_reduced_data(n), priors,
                           sigma_prior=SigmaPrior(sigma_power - 1))
