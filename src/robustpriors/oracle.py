"""Sampler-independent ground truth for the reduced two-parameter posterior.

Three oracle routes live here:

* closed forms: the conjugate normal-prior posterior, the flat-prior
  benchmark, and the limiting inverse-gamma laws of sigma^2 quoted for the
  far-conflict regime;
* limiting-target constructors realizing the dropped-prior posteriors that
  the convergence theorems identify;
* `quadrature_moments`, a deterministic adaptive 2-D Gauss-Kronrod
  integrator over (beta, nu) used to cross-check everything else, an order
  of magnitude tighter than Monte-Carlo error.

Integration happens in nu = log(sigma) so there is no boundary at zero: for
proper targets the integrand decays super-exponentially in both directions.
The search before the first panel is batched.  The mode search evaluates a
7 x 7 grid of spacing h around its best point in one `logpdf` call, moves to
the grid's best point if that beats the centre, keeps h while the best point
is on the outer ring (the maximum is not yet bracketed) and divides it by 3
otherwise, until h < 1e-6: about 11 calls, the first holding the grids around
all mode candidates.  The bounding box comes from one call holding the whole
doubling search (24 probe levels, two probes each, up to 1e6 widths, in four
directions from the mode and from every candidate that carries
non-negligible density); its edge along each direction is the first level
whose probes fall below ``peak * 1e-12``.  A 2-D target's row value does not
depend on how many rows are evaluated with it, so this finds the same mode
and box as evaluating one point at a time.

The integration domain is cut into at most three regions along the prior's
kinks.  The LPTN and CTN densities switch from the normal to their heavier
tails at |z| = tau (kappa), which in (beta, nu) are the curves
beta = mu +/- tau e^nu / lambda.  A rectangle in (beta, nu) would cross them
obliquely, and a Kronrod rule on a panel holding a kink both converges slowly
and misjudges its own error.  So the central band is integrated in
t = (beta - mu) e^{-nu} and each tail in u, a translation of beta along its
kink curve; in those coordinates the kinks are straight panel edges.  A
prior without a kink keeps the single region beta itself.

A panel is a rectangle in its region's coordinates (s, nu).  Its 15 x 15
Kronrod nodes are mapped to (beta, nu) and evaluated in one batch with all
other panels of a round, and the panel is contracted axis by axis: nu first,
as matrix products with the Kronrod and Gauss weights times eight columns
(the region's Jacobian times the powers of its map and of e^{2nu}); then s,
with both weights times 1, s and s^2.  That gives the five moment integrals
under four tensor rules at once.  Refinement bisects the panels with the
largest embedded Gauss-7 error estimate, each along the axis its error comes
from: the Gauss rule applied in s alone and in nu alone gives one error
estimate per axis (as in Genz & Malik 1980 and DCUHRE), and the panel is
halved along the axis with the larger one.  Results are accumulated in
panel-creation order, so the result is independent of evaluation scheduling.
"""

import heapq
from dataclasses import dataclass

import numpy as np

from .model import PosteriorTarget, PowerAdjustedSigma, reduced_target
from .priors import CTN, LPTN, Student

__all__ = [
    "NumericalError", "ConjugateResult", "conjugate_posterior",
    "jeffreys_benchmark", "limiting_sigma_posterior",
    "inverse_gamma_mean", "inverse_gamma_sd",
    "limiting_reduced_target", "limiting_target_resolved",
    "limiting_target_ctn", "QuadratureResult", "quadrature_moments",
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


def limiting_sigma_posterior(n, family, n_conflicts=1):
    """Inverse-gamma (shape, scale) of sigma^2 in the far-conflict limit.

    Under an extreme location conflict the Student prior leaves a sigma^gamma
    trace, giving shape (n - gamma - 2)/2; the log-Pareto-tailed prior leaves
    none, giving (n - 2)/2.  A constant-tailed prior leaves sigma^{-1} per
    conflicting coefficient, giving (n - 2 + n_conflicts)/2.  The scale is
    n/2 throughout.

    These shapes follow the convention in which the sigma-marginal kernel
    sigma^{-k} exp(-(n/2)/sigma^2) is read off directly in sigma^2 (shape
    (k - 2)/2); the corresponding exact change-of-variables law has shape
    larger by 1/2.  First moments agree with the quadrature oracle to about
    1% at the sweep scales used here; see `inverse_gamma_mean`.
    """
    half_n = n / 2.0
    if isinstance(family, Student):
        shape = (n - family.gamma - 2.0) / 2.0
    elif isinstance(family, LPTN):
        shape = (n - 2.0) / 2.0
    elif isinstance(family, CTN):
        shape = (n - 2.0 + n_conflicts) / 2.0
    else:
        raise ValueError(
            f"no finite conflict limit for family {family!r}")
    if shape <= 0:
        raise ValueError(f"nonpositive limiting shape {shape}; n too small")
    return shape, half_n


def inverse_gamma_mean(shape, scale):
    if shape <= 1:
        raise ValueError("mean undefined for shape <= 1")
    return scale / (shape - 1.0)


def inverse_gamma_sd(shape, scale):
    if shape <= 2:
        raise ValueError("sd undefined for shape <= 2")
    return scale / ((shape - 1.0) * np.sqrt(shape - 2.0))


# ---------------------------------------------------------------------------
# Limiting targets
# ---------------------------------------------------------------------------

def limiting_reduced_target(n, n_ctn_conflicts=0):
    """Reduced-target limit law: flat coefficient prior, adjusted scale prior.

    For resolved location conflicts the conflicting prior simply drops
    (``n_ctn_conflicts=0``); for constant-tailed scaling conflicts each
    conflicting coefficient leaves a sigma^{-1} factor behind.
    """
    return reduced_target(n, family=None, sigma_power=-n_ctn_conflicts)


def limiting_target_resolved(target, conflict_indices, sigma_prior=None):
    """Limit of `target` when the priors at ``conflict_indices`` resolve away.

    The conflicting coefficient priors are replaced by flat ones and the
    sigma prior is kept (pass ``sigma_prior`` to strip a correction factor
    that was only there to cancel an anticipated trace).
    """
    priors = list(target.priors)
    for j in conflict_indices:
        priors[j] = None
    sp = sigma_prior if sigma_prior is not None else target.sigma_prior
    return PosteriorTarget(target.data, priors, sigma_prior=sp)


def limiting_target_ctn(target, conflict_indices):
    """Limit of `target` for constant-tailed conflicts: sigma^{-|C|} trace."""
    return limiting_target_resolved(
        target, conflict_indices,
        PowerAdjustedSigma(target.sigma_prior, -len(conflict_indices)))


# ---------------------------------------------------------------------------
# Adaptive 2-D quadrature
# ---------------------------------------------------------------------------

# Gauss-Kronrod 7-15 pair on [-1, 1]; the 7 Gauss nodes sit at the odd
# positions of the sorted Kronrod abscissas.
_K15_NODES = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0, 0.2077849550078985, 0.4058451513773972,
    0.5860872354676911, 0.7415311855993944, 0.8648644233597691,
    0.9491079123427585, 0.9914553711208126])
_K15_WEIGHTS = np.array([
    0.02293532201052922, 0.06309209262997855, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278, 0.2044329400752989,
    0.1903505780647854, 0.1690047266392679, 0.1406532597155259,
    0.1047900103222502, 0.06309209262997855, 0.02293532201052922])
_G7_IDX = np.arange(1, 15, 2)
_G7_WEIGHTS = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694, 0.3818300505051189, 0.2797053914892767,
    0.1294849661688697])

_LOG_DROP = np.log(1e12)
_INTEGRALS = ("f", "beta f", "beta^2 f", "e^{2nu} f (sigma^2)",
              "e^{4nu} f (sigma^4)")
_MAX_WIDTH = 1e6
_EPS = 2.0 ** -52       # bounds the relative rounding error of one float op
_SPLITS_PER_ROUND = 24  # panels bisected per refinement round


@dataclass
class QuadratureResult:
    """Posterior moments of the reduced target from deterministic quadrature.

    ``error`` is the summed Kronrod-Gauss error estimate of the final panels
    that the stop rule accepted; ``panels_evaluated`` counts every panel whose
    nodes were evaluated, including those later split (``n_panels`` counts
    only the final ones).  ``mode`` is the search's best point, an anchor for
    the box, panels and shift; on an LPTN or CTN kink ridge it need not be
    the exact maximizer.
    """

    mean: float
    sd: float
    log_norm: float
    sigma_sq_mean: float
    sigma_sq_sd: float
    n_panels: int
    box: tuple
    mode: tuple
    error: float
    panels_evaluated: int

    @property
    def variance(self):
        return self.sd ** 2


# The mode search's grid, in units of its spacing: row 24 is the centre.
_GRID = np.array([(i, j) for i in range(-3, 4) for j in range(-3, 4)], float)
_RING = np.abs(_GRID).max(axis=1) == 3.0
_GRID_STEP, _MIN_STEP = 0.05, 1e-6


def _grid_search(target, grid, vals, maxiter=300):
    """Best point and value of a grid-contraction search from the evaluated
    first grid ``grid``/``vals``, centre + _GRID_STEP * _GRID.
    """
    mode, f0, h = grid[24], vals[24], _GRID_STEP
    for _ in range(maxiter):
        i = int(np.argmax(vals))
        moved = vals[i] > f0
        if moved:
            mode, f0 = grid[i], vals[i]
        h /= 1.0 if moved and _RING[i] else 3.0
        if h < _MIN_STEP:
            break
        grid = mode + h * _GRID
        vals = target.logpdf(grid)
    return mode, f0


def _probe_offsets():
    # The doubling search's probe levels: at level (total, step) the probes
    # sit at total + step and total + 2 step, and the last level is the one
    # whose total first would pass _MAX_WIDTH.
    totals, steps = [], []
    total, step = 0.0, 0.1
    while total <= _MAX_WIDTH:
        totals.append(total)
        steps.append(step)
        total += step
        step *= 2.0
    totals, steps = np.array(totals), np.array(steps)
    return totals + steps, totals + 2 * steps


_NEAR, _FAR = _probe_offsets()


def _box_distances(target, points, f0):
    """Distance from each point along -beta, +beta, -nu, +nu: (k, 2, 2).

    At the first probe level where both probes lie more than _LOG_DROP below
    ``f0`` the distance is that level's near offset.  All probes of all
    points and directions are evaluated in one `logpdf` call.
    """
    k = len(points)
    offsets = np.stack([_NEAR, _FAR])                     # (2 probes, L)
    signed = np.array([-1.0, 1.0])[:, None, None] * offsets
    # Indexed by point, axis, sign, probe, level and coordinate.
    probes = np.empty((k, 2, 2, 2, len(_NEAR), 2))
    probes[...] = points[:, None, None, None, None, :]
    for axis in (0, 1):
        probes[:, axis, ..., axis] += signed
    logf = target.logpdf(probes.reshape(-1, 2)).reshape(probes.shape[:-1])
    below = logf.max(axis=3) < f0 - _LOG_DROP             # (k, axis, sign, L)
    if not below.any(axis=-1).all():
        raise NumericalError(
            "bounding-box expansion exceeded 1e6 widths; target does not "
            "appear integrable")
    return _NEAR[below.argmax(axis=-1)]


# The K15 and G7 weights on the 15 Kronrod nodes, G7 zero off its own.
_RULE_WEIGHTS = np.zeros((15, 2))
_RULE_WEIGHTS[:, 0] = _K15_WEIGHTS
_RULE_WEIGHTS[_G7_IDX, 1] = _G7_WEIGHTS


def _rule_weights(cols):
    """(k, 15, 2c) node weights: K15 times each of the c columns, then G7."""
    k, _, c = cols.shape
    weights = _RULE_WEIGHTS[:, :, None] * cols[:, :, None, :]     # (k, 15, 2, c)
    return weights.reshape(k, 15, 2 * c)


def _panel_values(target, maps, s_lo, s_hi, v_lo, v_hi, shift):
    """Tensor K15/G7 estimates of the five moment integrands on panels.

    A panel is the rectangle [s_lo, s_hi] x [v_lo, v_hi] of its region's
    coordinates, mapped to beta = a0 + a1 e^nu + s (b0 + b1 e^nu) by the
    row (a0, a1, b0, b1) of ``maps``, (k, 4); the other panel arrays are
    (k,).  Returns the (k, 5) K15 x K15 estimates of the integrals of f,
    beta f, beta^2 f, e^{2nu} f and e^{4nu} f, their (k, 5) error estimates
    |K15 x K15 - G7 x G7|, and a (k,) bool that is True where the panel's
    error comes more from s than from nu: there the G7 rule in s alone (K15
    in nu) moves the estimate at least as much as the G7 rule in nu alone.
    """
    k = len(s_lo)
    hs = 0.5 * (s_hi - s_lo)
    hv = 0.5 * (v_hi - v_lo)
    sx = 0.5 * (s_hi + s_lo)[:, None] + hs[:, None] * _K15_NODES[None, :]
    vx = 0.5 * (v_hi + v_lo)[:, None] + hv[:, None] * _K15_NODES[None, :]
    with np.errstate(over="ignore", under="ignore"):
        ev = np.exp(vx)
        e2v = np.exp(2.0 * vx)
    a0, a1, b0, b1 = (m[:, None] for m in maps.T)
    a = a0 + a1 * ev                                          # (k, 15)
    b = b0 + b1 * ev                                          # also the Jacobian
    q = np.empty((k, 15, 15, 2))
    q[..., 0] = a[:, None, :] + sx[:, :, None] * b[:, None, :]
    q[..., 1] = vx[:, None, :]
    logf = target.logpdf(q.reshape(-1, 2)).reshape(k, 15, 15)
    with np.errstate(over="ignore", under="ignore"):
        f = np.exp(logf - shift)

    # beta^j = (a + s b)^j, so the five integrands are s-powers 1, s, s^2
    # times the nu-columns below, Jacobian b included.  Contract nu first
    # with the K15 and G7 weights times the eight columns, then s with both
    # weights times 1, s and s^2, so one pass over the nodes gives four
    # tensor rules.
    ab = a * b
    cols = np.stack([b, b * a, ab * a, b * e2v, b * (e2v * e2v),
                     b * b, 2.0 * ab * b, b * b * b], axis=-1)
    powers = np.stack([np.ones_like(sx), sx, sx * sx], axis=-1)
    rules = _rule_weights(powers).transpose(0, 2, 1) @ (f @ _rule_weights(cols))
    rules *= (hs * hv)[:, None, None]
    # Indexed by panel, s rule, s power, nu rule and nu column.
    r = rules.reshape(k, 2, 3, 2, 8)
    comps = np.stack([r[:, :, 0, :, 0], r[:, :, 0, :, 1] + r[:, :, 1, :, 5],
                      r[:, :, 0, :, 2] + r[:, :, 1, :, 6] + r[:, :, 2, :, 7],
                      r[:, :, 0, :, 3], r[:, :, 0, :, 4]], axis=1)
    # kk: K15 x K15, gk: G7 in s only, kg: G7 in nu only, gg: G7 x G7.
    kk, gk, kg, gg = (comps[:, :, rs, rv]
                      for rs, rv in ((0, 0), (1, 0), (0, 1), (1, 1)))
    err = np.abs(kk - gg)
    split_s = np.abs(kk - gk).sum(axis=1) >= np.abs(kk - kg).sum(axis=1)
    return kk, err, split_s


def _regions(prior, box, mode):
    """Each region's map (a0, a1, b0, b1), beta = a0 + a1 e^nu + s (b0 + b1 e^nu),
    and its s-range: the image of the (beta, nu) box, cut at the kinks.

    Without a kink, beta = s.  With kinks on beta = mu -/+ w e^nu
    (w = tau / lambda), the lower tail, the band and the upper tail are
    beta = u - w (e^nu - e^{nu0}), beta = mu + t e^nu with |t| <= w, and
    beta = u + w (e^nu - e^{nu0}), nu0 the mode's nu; a tail's kink is then
    the line u = mu -/+ w e^{nu0}, and u stays close to beta however far the
    conflict.  Regions that miss the box are left out.
    """
    b_lo, b_hi, v_lo, v_hi = box
    thr = None if prior is None else (getattr(prior.family, "tau", None)
                                      or getattr(prior.family, "kappa", None))
    if thr is None:
        return [((0.0, 0.0, 1.0, 0.0), b_lo, b_hi)]
    mu, w = prior.mu, thr / prior.lam
    e0, e_lo, e_hi = np.exp([mode[1], v_lo, v_hi])
    t_corners = [(b - mu) / e for b in (b_lo, b_hi) for e in (e_lo, e_hi)]
    regions = [
        ((w * e0, -w, 1.0, 0.0),
         b_lo + w * (e_lo - e0), min(b_hi + w * (e_hi - e0), mu - w * e0)),
        ((mu, 0.0, 0.0, 1.0), max(min(t_corners), -w), min(max(t_corners), w)),
        ((-w * e0, w, 1.0, 0.0),
         max(b_lo - w * (e_hi - e0), mu + w * e0), b_hi - w * (e_lo - e0)),
    ]
    return [(m, lo, hi) for m, lo, hi in regions if lo < hi]


def _initial_panels(prior, box, mode):
    """Initial panels (s_lo, s_hi, v_lo, v_hi, region) and the (R, 4) maps.

    The beta edges are uniform splits of the box plus the mode's beta; each
    is mapped at the mode's nu into the region that holds it, and every
    region adds its own ends, so the kink loci are panel edges.  The nu
    edges are uniform splits plus the mode's nu, shared by all regions.
    """
    b_lo, b_hi, v_lo, v_hi = box
    b_edges = set(np.linspace(b_lo, b_hi, 7))
    b_edges.add(min(max(mode[0], b_lo), b_hi))
    v_edges = set(np.linspace(v_lo, v_hi, 5))
    v_edges.add(min(max(mode[1], v_lo), v_hi))
    v_edges = sorted(v_edges)
    regions = _regions(prior, box, mode)
    e0 = np.exp(mode[1])
    panels = []
    for r, ((a0, a1, b0, b1), lo, hi) in enumerate(regions):
        s_edges = {lo, hi}
        for x in b_edges:
            s = (x - a0 - a1 * e0) / (b0 + b1 * e0)
            if lo < s < hi:
                s_edges.add(float(s))
        s_edges = sorted(s_edges)
        for i in range(len(s_edges) - 1):
            for j in range(len(v_edges) - 1):
                panels.append((s_edges[i], s_edges[i + 1],
                               v_edges[j], v_edges[j + 1], r))
    return panels, np.array([m for m, _, _ in regions])


def quadrature_moments(target, tol=1e-10, max_panels=60000):
    """Posterior mean/sd of the coefficient and of sigma^2 by 2-D quadrature.

    Only two-parameter targets are supported (higher-dimensional posteriors
    are the sampler's job).  The mode is found by a grid-contraction search
    from the best of a few candidates (least squares, the prior location and
    two blends), and the bounding box by a doubling search from the mode and
    every candidate within 1e12 of its density; both searches batch their
    `logpdf` calls (see the module docstring).  ``tol`` is the absolute
    tolerance on the summed error estimate of the mode-normalized integrals.
    The prior's kink loci become initial panel edges: the box is integrated
    over the regions between the kinks, each in coordinates where its kinks
    are straight edges, so no panel ever holds a kink.  Each round evaluates
    the nodes of all its new panels in one call and bisects the 24 panels
    with the largest error, each along the axis its error comes from.  The
    result reports the error reached (``error``) and the panels evaluated
    on the way (``panels_evaluated``) beside the final ``n_panels``.
    Raises `NumericalError` if the budget of ``max_panels`` cannot meet
    ``tol`` or if box expansion fails to terminate, and `ValueError` if
    ``tol`` is not positive and finite.
    """
    if target.dim != 2:
        raise ValueError("quadrature_moments handles 2-D reduced targets only")
    if not (np.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")

    # Mode candidates: least-squares point, prior locations, and a blend.
    # Each is evaluated at the centre of the first grid a search from it
    # would use, so the best one's grid needs no second call.
    ols = float(target.start_point[0])
    cand_b = [ols]
    prior = target.priors[0]
    if prior is not None:
        cand_b += [prior.mu, 0.5 * (ols + prior.mu)]
        shrink = prior.lam ** 2 / (target.n + prior.lam ** 2)
        cand_b.append(ols * (1 - shrink) + prior.mu * shrink)
    cands = np.array([[b, 0.0] for b in cand_b])
    grids = cands[:, None, :] + _GRID_STEP * _GRID            # (k, 49, 2)
    vals = target.logpdf(grids.reshape(-1, 2)).reshape(len(cands), -1)
    best = int(np.argmax(vals[:, 24]))
    mode, f0 = _grid_search(target, grids[best], vals[best])

    # Box = union of per-candidate expansions over all candidates that carry
    # non-negligible density (catches secondary bumps at prior locations).
    keep = np.vstack([mode, cands[vals[:, 24] > f0 - _LOG_DROP]])
    dist = _box_distances(target, keep, f0)
    b_lo = np.min(keep[:, 0] - dist[:, 0, 0])
    b_hi = np.max(keep[:, 0] + dist[:, 0, 1])
    v_lo = np.min(keep[:, 1] - dist[:, 1, 0])
    v_hi = np.max(keep[:, 1] + dist[:, 1, 1])

    box = (b_lo, b_hi, v_lo, v_hi)
    panels, maps = _initial_panels(prior, box, mode)

    store = {}      # id -> (panel, estimate (5,), err, split along s, errs)
    heap = []       # (-err, id), one entry per stored panel
    next_id = 0
    # Running total of the panel errors, and a bound on its rounding drift.
    # The exact in-order sum, which alone decides stopping and is the one
    # reported, is only taken when the running total cannot rule out that
    # sum meeting tol (the slack adds a bound on the in-order sum's own
    # rounding), or is not finite.  This avoids re-summing every panel on
    # every round.
    running = 0.0
    drift = 0.0

    def add_panels(batch):
        nonlocal next_id, running, drift
        arr = np.asarray(batch)
        k_est, errs, split_s = _panel_values(
            target, maps[arr[:, 4].astype(int)], arr[:, 0], arr[:, 1],
            arr[:, 2], arr[:, 3], f0)
        for row, est, e, ss, es in zip(batch, k_est, errs.sum(axis=1),
                                       split_s, errs):
            store[next_id] = (row, est, float(e), bool(ss), es)
            heapq.heappush(heap, (-float(e), next_id))
            next_id += 1
            running += float(e)
            drift += _EPS * abs(running)

    add_panels(panels)

    while True:
        slack = drift + len(store) * _EPS * running
        if not running - slack > tol or len(store) > max_panels:
            total_err = sum(e for _, _, e, _, _ in store.values())
            if total_err <= tol:
                break
            if len(store) > max_panels:
                errs = np.sum([es for *_, es in store.values()], axis=0)
                raise NumericalError(
                    f"quadrature needs more than {max_panels} panels to reach "
                    f"tol={tol:g}; the integral of {_INTEGRALS[errs.argmax()]} "
                    f"carries the largest part, {errs.max():g}, and no budget "
                    f"meets tol if it is infinite (error {total_err:g})")
            running, drift = total_err, len(store) * _EPS * total_err
        # Split the worst panels; ties broken by id so runs are reproducible.
        children = []
        for _ in range(min(_SPLITS_PER_ROUND, len(heap))):
            (slo, shi, vlo, vhi, r), _, e, split_s, _ = store.pop(
                heapq.heappop(heap)[1])
            running -= e
            drift += _EPS * abs(running)
            if split_s:
                mid = 0.5 * (slo + shi)
                children += [(slo, mid, vlo, vhi, r), (mid, shi, vlo, vhi, r)]
            else:
                mid = 0.5 * (vlo + vhi)
                children += [(slo, shi, vlo, mid, r), (slo, shi, mid, vhi, r)]
        add_panels(children)

    # Fixed summation order (panel id) so results do not depend on the heap.
    est = np.zeros(5)
    for pid in sorted(store):
        est += store[pid][1]
    mass, m1, m2, s2, s4 = est
    if not (np.isfinite(mass) and mass > 0):
        raise NumericalError("quadrature mass is not positive; bad target?")
    mean = m1 / mass
    var = m2 / mass - mean ** 2
    s2_mean = s2 / mass
    s2_var = s4 / mass - s2_mean ** 2
    return QuadratureResult(
        mean=float(mean), sd=float(np.sqrt(max(var, 0.0))),
        log_norm=float(np.log(mass) + f0),
        sigma_sq_mean=float(s2_mean),
        sigma_sq_sd=float(np.sqrt(max(s2_var, 0.0))),
        n_panels=len(store), box=box,
        mode=(float(mode[0]), float(mode[1])),
        error=float(total_err), panels_evaluated=next_id)
