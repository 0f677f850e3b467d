"""Hamiltonian Monte Carlo over a log-density target with gradients.

The sampler works on any object exposing ``dim``, ``logpdf(q)`` and
``grad_logpdf(q)`` over batched coordinate rows; posteriors supply these in
``(beta, nu)`` coordinates so the space is unconstrained.

Start: the target's ``start_point`` (or the origin) is moved uphill to a
local mode by gradient ascent (`_climb_to_mode`, at most
`MODE_SEARCH_CALLS` target calls), and each chain adds its own
``0.1 N(0, I)`` jitter to that mode.  Under a strong conflicting prior the
least-squares point sits deep in that prior's tail, where a step size that
suits the posterior diverges.

Tuning: a fixed step size, standard normal momenta (the identity metric)
and a trajectory length ``L`` jittered uniformly over ``{ceil(0.8 L), ...,
ceil(1.2 L)}`` to avoid resonances.  A target that needs another metric
gets it from a change of coordinates, as `PosteriorTarget.whitened` gives.
``L`` is either given or, by default, chosen from the warmup in two
stages.  A pilot, the first tenth of warmup and at least `MIN_PILOT`
iterations, runs at half a period of the widest coordinate at the mode,
``ceil(pi max_j s_j / step_size)`` with ``s_j = c_j^(-1/2)`` and ``c_j``
the curvature along coordinate ``j`` from one finite-difference gradient
call (`_pilot_steps`); it runs at most `WARMUP_LEAPFROG_STEPS` = 30
steps, and 30 when a curvature is not positive and finite.  From the
second half of its draws the rest of warmup runs at a quarter period of
the slowest coordinate, ``max(1, round((pi/2) max_j s_j / step_size))``
with ``s_j`` the within-chain sd averaged over chains.  From the second
half of warmup the same rule sets the post-warmup length ``L*``.  The
pilot's length is jittered by +-20%; the two chosen from draws are
jittered wider, over ``{ceil(0.5 L*), ..., ceil(1.5 L*)}``: a short length
that lands near a resonance stays near it under +-20%.  Chains are
vectorized; each chain draws momenta and acceptance variables from its
own stream derived from ``(rng_seed, chain_index)``, while the jittered
lengths come from one extra derived stream shared by all chains (a common
deterministic schedule, so the batch stays in lockstep).  Everything is
reproducible bit for bit from the seed.

Each trajectory costs ``n_steps`` target calls.  The first ``n_steps - 1``
ask for the gradient; the last, at the proposal, asks for the density and
the gradient together, through ``target.logpdf_and_grad`` when the
target's type has one (`PosteriorTarget` does, sharing the work of the
two) and through ``logpdf`` then ``grad_logpdf`` otherwise.  The start
state is evaluated the same way.  The proposal's gradient is carried to
the next iteration (the proposal's on accept, the old one on reject), so
a run of ``N`` trajectories makes ``sum(n_steps) + 1`` gradient
evaluations and ``N + 1`` density evaluations in all, besides those of
the mode search and, with chosen lengths, the pilot's one call on
``dim + 1`` rows.

Kinked gradients from the piecewise prior tails need no special treatment
(the kink sets have null measure); non-finite trajectories are flagged as
divergences and auto-rejected.  A run raises `DivergenceError` when more
than 10% of its warmup trajectories diverge: at the end of the pilot, if
its own trajectories already pass that rate, and otherwise at the end of
warmup, before any post-warmup draw.  It also raises when more than 10%
of all its trajectories diverge, at the end.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .model import _open_csv, write_commented_csv

__all__ = ["HmcConfig", "Chain", "PosteriorSummary", "DivergenceError",
           "leapfrog", "sample", "summarize", "ess_imse", "save_chains"]


class DivergenceError(RuntimeError):
    """Raised when more than 10% of warmup, or of all, trajectories diverge.

    ``summary`` gives the rate, ``last_state`` the last divergent
    ``(iteration, chain, state)``; the message joins the two.
    """

    def __init__(self, summary, last_state):
        super().__init__(summary, last_state)
        self.summary, self.last_state = summary, last_state

    def __str__(self):
        return f"{self.summary}; last divergent state {self.last_state}"


# Longest pilot trajectory, and the pilot's length when the curvature at
# the mode cannot size it.
WARMUP_LEAPFROG_STEPS = 30
# Fewest warmup iterations whose second half can estimate the scales.
MIN_AUTO_WARMUP = 20
# Fewest pilot iterations; the pilot is otherwise the first tenth of warmup.
MIN_PILOT = 10
# Most target calls the search for the start's mode may make.
MODE_SEARCH_CALLS = 200
# Fewest post-warmup draws per chain that `summarize` takes.
MIN_SUMMARY_DRAWS = 100


@dataclass(frozen=True)
class HmcConfig:
    """Sampler settings; the defaults are sized for the reduced 2-D targets.

    Momenta are standard normal: the metric is the identity.
    ``leapfrog_steps=None`` (the default) runs a warmup pilot at a length
    sized from the curvature at the mode (at most `WARMUP_LEAPFROG_STEPS`),
    chooses the length for the rest of warmup from the pilot's draws and
    the post-warmup length from the warmup's, which needs
    ``n_warmup >= MIN_AUTO_WARMUP``; an integer fixes the length for
    the whole run.  Every run starts from a local mode uphill of the
    target's start point and stops at the end of warmup (or of the pilot)
    if more than 10% of its warmup trajectories so far diverged.
    ``rng_seed`` must be a non-negative integer.
    """

    step_size: float = 0.05
    leapfrog_steps: int | None = None
    n_samples: int = 20000
    n_warmup: int = 2000
    n_chains: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        seed = self.rng_seed
        if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
                or seed < 0):
            raise ValueError(
                f"rng_seed must be a non-negative integer, got {seed!r}")
        if not (np.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        for name in ("n_samples", "n_chains"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.n_warmup < 0:
            raise ValueError("n_warmup must be nonnegative")
        if self.leapfrog_steps is None:
            if self.n_warmup < MIN_AUTO_WARMUP:
                raise ValueError(
                    f"choosing leapfrog_steps from warmup needs n_warmup >= "
                    f"{MIN_AUTO_WARMUP}, got {self.n_warmup}; give "
                    "leapfrog_steps or more warmup")
        elif self.leapfrog_steps < 1:
            raise ValueError("leapfrog_steps must be at least 1")


@dataclass
class Chain:
    """Post-warmup draws of one chain in (beta, nu) coordinates."""

    draws: np.ndarray           # (n_samples, dim)
    accept_rate: float
    seed: int                   # rng_seed the stream was derived from
    index: int                  # chain index within the run
    divergences: int = 0
    leapfrog_steps: int | None = None   # post-warmup length, before jitter
    warmup_leapfrog_steps: int | None = None    # length after the pilot
    pilot_leapfrog_steps: int | None = None     # pilot length


def leapfrog(target, position, momentum, step_size, n_steps):
    """Integrate Hamilton's equations with the position-momentum leapfrog.

    `position`/`momentum` are (m, dim) batches advanced ``n_steps >= 1``
    steps.  Returns ``(position, momentum, divergent)``; rows flagged
    divergent hit a non-finite or absurdly large state along the way and
    must be rejected by the caller.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")
    q = np.array(np.atleast_2d(position), dtype=float)
    p = np.array(np.atleast_2d(momentum), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        grad = target.grad_logpdf(q)
        q, p, _, _, divergent = _leapfrog(
            target, q, p, grad, step_size, n_steps,
            lambda x: (None, target.grad_logpdf(x)))
    return q, p, divergent


def _leapfrog(target, q, p, grad, step_size, n_steps, end):
    """`leapfrog` given the gradient at `q`, under the caller's errstate.

    The last step evaluates the target through ``end(q)``, which returns
    ``(logp, grad)``, so a caller that needs the proposal's density gets it
    from that call.  Returns ``(q, p, logp, grad, divergent)``; the end
    gradient is carried by the caller to the next trajectory's start.
    """
    # Non-finite states propagate freely (the target maps them to -inf /
    # zero gradient) and are flagged once at the end; the caller rejects
    # divergent rows, so there is no need to freeze them mid-trajectory.
    p = p + 0.5 * step_size * grad
    for _ in range(n_steps - 1):
        q = q + step_size * p
        p = p + step_size * target.grad_logpdf(q)
    q = q + step_size * p
    logp, grad = end(q)
    p = p + 0.5 * step_size * grad
    # Magnitudes beyond 1e50 count as divergent too: a gradient that
    # overflowed mid-trajectory can leave a huge but still-finite state.
    # A NaN fails the comparison, so it is flagged with the infinities.
    state_max = np.maximum.reduce(np.maximum(np.abs(q), np.abs(p)), axis=1)
    return q, p, logp, grad, ~(state_max <= 1e50)


def _kinetic(p):
    return 0.5 * np.add.reduce(p * p, axis=1)


def _jitter_range(n_steps, spread):
    return (int(np.ceil((1.0 - spread) * n_steps)),
            int(np.ceil((1.0 + spread) * n_steps)))


def _steps_from_warmup(window, step_size):
    """Trajectory length covering a quarter period of the slowest coordinate.

    `window` holds the (chains, draws, dim) states of the second half of
    the pilot or of warmup.  If no coordinate has a positive finite sd (the
    chains never moved), the warmup length is kept, with a warning.
    """
    # Deviations from each chain's first state make a chain that never moved
    # give an sd of exactly 0, not round-off from its mean.
    with np.errstate(over="ignore", invalid="ignore"):
        dev = window - window[:, :1]
        sd = np.sqrt(np.mean(np.var(dev, axis=1, ddof=1), axis=0))
    ok = np.isfinite(sd) & (sd > 0)
    if not ok.any():
        warnings.warn(
            "warmup draws have no positive finite sd to choose the trajectory "
            f"length from; keeping the warmup length {WARMUP_LEAPFROG_STEPS}",
            UserWarning, stacklevel=3)
        return WARMUP_LEAPFROG_STEPS
    return max(1, int(round(0.5 * np.pi * float(sd[ok].max()) / step_size)))


def _pilot_steps(target, mode, step_size):
    """Pilot trajectory length: half a period of the widest coordinate.

    One `grad_logpdf` call on `mode` and on ``mode + h e_j``, with ``h =
    step_size`` the position change of one leapfrog step at unit momentum,
    gives the curvatures ``c_j = -(g_j(mode + h e_j) - g_j(mode)) / h`` and
    the scales ``s_j = 1 / sqrt(c_j)``.  The length is ``ceil(pi max_j s_j
    / step_size)``, between 1 and `WARMUP_LEAPFROG_STEPS`.  Half a period
    is twice what the later stages choose, so the pilot still overshoots a
    scale underestimated at the mode.  If a curvature is not positive and
    finite (a flat or convex direction, or a failed evaluation), it is
    `WARMUP_LEAPFROG_STEPS`.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        probes = mode + step_size * np.eye(len(mode))
        g = target.grad_logpdf(np.vstack([mode, probes]))
        curvature = -(np.diagonal(g[1:]) - g[0]) / step_size
        if not np.all(np.isfinite(curvature) & (curvature > 0)):
            return WARMUP_LEAPFROG_STEPS
        widest = float(np.max(1.0 / np.sqrt(curvature)))
        steps = np.ceil(np.pi * widest / step_size)
    return int(min(WARMUP_LEAPFROG_STEPS, max(1.0, steps)))


# Density change, in nats, below which two moves in a row end the search.
_MODE_GAIN = 1e-8
# Accepted values the mode search's backtracking compares a move with.
_MODE_MEMORY = 10


def _climb_to_mode(target, q0):
    """Move `q0` uphill to a local mode of `target`; returns the end point.

    Gradient ascent with Barzilai-Borwein step lengths and the nonmonotone
    backtracking of Grippo, Lampariello and Lucidi: a move must gain 1e-4 of
    its first-order prediction over the lowest of the last `_MODE_MEMORY`
    values, which keeps the long steps that make Barzilai-Borwein fast on
    badly scaled targets.  It stops after two moves in a row that change
    the density by under `_MODE_GAIN` nats, a move that underflows, or
    `MODE_SEARCH_CALLS` calls of `logpdf` and `grad_logpdf` together.  A
    start whose gradient is zero, or whose density or gradient is not
    finite, is returned unchanged.
    """
    q = np.array(q0, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        g = target.grad_logpdf(q[None, :])[0]
    if not (np.all(np.isfinite(g)) and np.any(g)):
        return q
    f = float(target.logpdf(q[None, :])[0])
    calls = 2
    if not np.isfinite(f):
        return q
    recent = [f]
    flat_moves = 0
    # The first move is at most 1e-3 in any coordinate; the Barzilai-Borwein
    # lengths then follow the curvature seen along the path.
    alpha = 1e-3 / float(np.max(np.abs(g)))
    while calls + 2 <= MODE_SEARCH_CALLS:
        q_new = q + alpha * g
        if np.array_equal(q_new, q):
            break
        with np.errstate(over="ignore", invalid="ignore"):
            f_new = float(target.logpdf(q_new[None, :])[0])
        calls += 1
        if not f_new >= min(recent) + 1e-4 * alpha * float(g @ g):
            alpha *= 0.5
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            g_new = target.grad_logpdf(q_new[None, :])[0]
        calls += 1
        flat_moves = flat_moves + 1 if abs(f_new - f) < _MODE_GAIN else 0
        s, y = q_new - q, g - g_new
        q, f, g = q_new, f_new, g_new
        recent = recent[1 - _MODE_MEMORY:] + [f]
        if flat_moves == 2 or not (np.all(np.isfinite(g)) and np.any(g)):
            break
        sy = float(s @ y)
        # Along a direction of negative curvature keep growing the step.
        alpha = float(s @ s) / sy if sy > 0 else 2.0 * alpha
    return q


def _check_divergences(divergences, n_trajectories, last_divergent, what):
    rate = divergences.sum() / n_trajectories
    if rate > 0.10:
        raise DivergenceError(f"{rate:.1%} of {what} trajectories diverged",
                              last_divergent)


def sample(target, config):
    """Run Metropolis-corrected HMC chains against `target`.

    `target` needs ``dim``, ``logpdf`` and ``grad_logpdf``; ``start_point``
    and ``logpdf_and_grad`` are used when it has them.  Returns one `Chain`
    per configured chain with warmup discarded.  The
    acceptance decision uses the exact joint Hamiltonian difference.  A
    tuning warning is emitted if any chain's post-warmup acceptance rate
    leaves [0.4, 0.95].  With ``config.leapfrog_steps=None`` the warmup
    trajectory length is chosen after the pilot and the post-warmup one at
    the end of warmup (see the module docstring); both are recorded in each
    `Chain`.
    """
    dim = target.dim
    m = config.n_chains

    root = np.random.SeedSequence(config.rng_seed)
    streams = root.spawn(m + 1)
    chain_rngs = [np.random.Generator(np.random.PCG64(s)) for s in streams[:m]]
    traj_rng = np.random.Generator(np.random.PCG64(streams[m]))

    start = getattr(target, "start_point", None)
    start = np.zeros(dim) if start is None else np.asarray(start, dtype=float)
    mode = _climb_to_mode(target, start)
    q = np.repeat(mode[None, :], m, axis=0)
    for i in range(m):
        q[i] += 0.1 * chain_rngs[i].standard_normal(dim)

    if hasattr(type(target), "logpdf_and_grad"):
        evaluate = target.logpdf_and_grad
    else:
        def evaluate(x):
            return target.logpdf(x), target.grad_logpdf(x)

    auto = config.leapfrog_steps is None
    pilot_steps = _pilot_steps(target, mode, config.step_size) if auto else None
    n_fixed = pilot_steps if auto else config.leapfrog_steps
    lo, hi = _jitter_range(n_fixed, 0.2)
    total = config.n_warmup + config.n_samples
    pilot = max(MIN_PILOT, config.n_warmup // 10) if auto else None
    warmup_steps = None
    if auto:
        warmup = np.empty((m, config.n_warmup, dim))

    draws = np.empty((m, config.n_samples, dim))
    accepted = np.zeros(m, dtype=int)
    divergences = np.zeros(m, dtype=int)
    last_divergent = None
    p0 = np.empty((m, dim))
    u = np.empty(m)

    with np.errstate(over="ignore", invalid="ignore"):
        logp, grad = evaluate(q)
        for it in range(total):
            if auto and it == pilot:
                # A pilot that cannot sample stops the run here, before its
                # stuck draws are read for a trajectory length.
                _check_divergences(divergences, it * m, last_divergent,
                                   "warmup")
                warmup_steps = _steps_from_warmup(warmup[:, pilot // 2:pilot],
                                                  config.step_size)
                lo, hi = _jitter_range(warmup_steps, 0.5)
            if it == config.n_warmup and it > 0:
                _check_divergences(divergences, it * m, last_divergent,
                                   "warmup")
                if auto:
                    n_fixed = _steps_from_warmup(warmup[:, it // 2:],
                                                 config.step_size)
                    lo, hi = _jitter_range(n_fixed, 0.5)
            n_steps = int(traj_rng.integers(lo, hi + 1))
            # Each chain's stream gives its momenta, then its acceptance
            # variable.
            for i, rng in enumerate(chain_rngs):
                rng.standard_normal(out=p0[i])
                u[i] = rng.random()
            q_new, p_new, logp_new, grad_new, div = _leapfrog(
                target, q, p0, grad, config.step_size, n_steps, evaluate)

            h_old = _kinetic(p0) - logp
            h_new = _kinetic(p_new) - logp_new
            # Energy blow-ups are divergences even when the state is finite;
            # a non-finite h_new is one, so it is never accepted.
            div |= ~np.isfinite(h_new) | (h_new - h_old > 1000.0)
            accept = (np.log(u) < h_old - h_new) & ~div

            if accept.all():
                q, grad, logp = q_new, grad_new, logp_new
            elif accept.any():
                q = np.where(accept[:, None], q_new, q)
                grad = np.where(accept[:, None], grad_new, grad)
                logp = np.where(accept, logp_new, logp)
            if div.any():
                divergences += div
                bad = int(np.argmax(div))
                last_divergent = (it, bad, q_new[bad].copy())
            if it >= config.n_warmup:
                draws[:, it - config.n_warmup] = q
                accepted += accept
            elif auto:
                warmup[:, it] = q

    _check_divergences(divergences, total * m, last_divergent, "all")

    chains = []
    for i in range(m):
        acc = accepted[i] / config.n_samples
        if not 0.4 <= acc <= 0.95:
            warnings.warn(
                f"chain {i} acceptance rate {acc:.2f} outside [0.4, 0.95]; "
                "consider retuning step_size/leapfrog_steps", UserWarning,
                stacklevel=2)
        chains.append(Chain(draws=draws[i], accept_rate=float(acc),
                            seed=config.rng_seed, index=i,
                            divergences=int(divergences[i]),
                            leapfrog_steps=n_fixed,
                            warmup_leapfrog_steps=warmup_steps,
                            pilot_leapfrog_steps=pilot_steps))
    return chains


def ess_imse(x):
    """Effective sample size by Geyer's initial monotone sequence estimator.

    Pair sums of autocorrelations are truncated at the first nonpositive
    value and forced nonincreasing before summation.  A constant series has
    no Monte-Carlo error to estimate; its ESS is reported as the draw count.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    x = x - x.mean()
    c0 = float(x @ x) / n
    if c0 == 0.0 or n < 4:
        return float(n)
    nfft = 1 << (2 * n - 1).bit_length()
    fx = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(fx * np.conj(fx), nfft)[:n].real / n
    rho = acov / acov[0]
    npairs = n // 2
    gamma = rho[0:2 * npairs:2] + rho[1:2 * npairs:2]
    pos = gamma > 0
    cut = int(np.argmin(pos)) if not pos.all() else npairs
    if cut == 0:
        return float(n)
    gamma = np.minimum.accumulate(gamma[:cut])
    tau = max(-1.0 + 2.0 * gamma.sum(), 1.0 / n)
    return float(min(n, n / tau))


@dataclass
class PosteriorSummary:
    """Pooled per-parameter moments with Monte-Carlo error estimates.

    Rows cover the (beta, nu) coordinates plus ``sigma``, whose summaries
    come from transforming the draws (never from transforming summaries).
    """

    params: list
    mean: np.ndarray
    sd: np.ndarray
    ess: np.ndarray
    mcse: np.ndarray

    def row(self, name):
        i = self.params.index(name)
        return {"mean": self.mean[i], "sd": self.sd[i],
                "ess": self.ess[i], "mcse": self.mcse[i]}

    def write_csv(self, path, comments=()):
        table = np.column_stack([self.mean, self.sd, self.ess, self.mcse])
        rows = ([name, *map(repr, values)]
                for name, values in zip(self.params, table.tolist()))
        write_commented_csv(path, ["param", "mean", "sd", "ess", "mcse"], rows,
                            comments)


def summarize(chains):
    """Pool chains into a `PosteriorSummary`.

    Needs at least one chain, each with at least `MIN_SUMMARY_DRAWS`
    post-warmup draws.  ESS is summed over chains (each by `ess_imse`);
    MCSE is SD / sqrt(ESS).
    """
    if not chains:
        raise ValueError("no chains to summarize")
    if any(c.draws.shape[0] < MIN_SUMMARY_DRAWS for c in chains):
        raise ValueError(f"need at least {MIN_SUMMARY_DRAWS} post-warmup "
                         "draws per chain")
    dim = chains[0].draws.shape[1]

    blocks = [c.draws for c in chains]
    names = [f"beta_{j + 1}" for j in range(dim - 1)] + ["nu", "sigma"]
    columns = [np.concatenate([b[:, j] for b in blocks]) for j in range(dim)]
    columns.append(np.exp(np.concatenate([b[:, dim - 1] for b in blocks])))
    per_chain = [[b[:, j] for b in blocks] for j in range(dim)]
    per_chain.append([np.exp(b[:, dim - 1]) for b in blocks])

    mean = np.array([c.mean() for c in columns])
    sd = np.array([c.std(ddof=1) for c in columns])
    ess = np.array([sum(ess_imse(x) for x in series) for series in per_chain])
    with np.errstate(divide="ignore", invalid="ignore"):
        mcse = np.where(ess > 0, sd / np.sqrt(ess), np.inf)
    return PosteriorSummary(params=names, mean=mean, sd=sd, ess=ess, mcse=mcse)


def save_chains(chains, path, comments=()):
    """Dump chains as CSV rows ``chain,iter,beta_1..beta_p,nu`` in fixed order."""
    if not chains:
        raise ValueError("no chains to save")
    dim = chains[0].draws.shape[1]
    header = ["chain", "iter"] + [f"beta_{j + 1}" for j in range(dim - 1)] + ["nu"]
    write_commented_csv(path, header, (), comments)
    # Each chain's rows are formatted as one string, with the "\r\n" line
    # ends `csv.writer` uses; no float repr needs quoting.  ``tolist``
    # yields Python floats, whose repr is the shortest round trip.
    with _open_csv(path, "a") as fh:
        for c in chains:
            fh.write("".join(f"{c.index},{it},{','.join(map(repr, row))}\r\n"
                             for it, row in enumerate(c.draws.tolist())))
