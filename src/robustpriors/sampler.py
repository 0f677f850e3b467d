"""Hamiltonian Monte Carlo over a log-density target with gradients.

The sampler works on any object exposing ``dim``, ``logpdf(q)`` and
``grad_logpdf(q)`` over batched coordinate rows; posteriors supply these in
``(beta, nu)`` coordinates so the space is unconstrained.

Tuning: a fixed step size, identity (or user supplied diagonal) mass, and a
trajectory length ``L`` jittered uniformly over ``{ceil(0.8 L), ...,
ceil(1.2 L)}`` to avoid resonances.  ``L`` is either given or, by default,
chosen from the warmup: warmup runs at ``L = 30``, and from the second half
of its draws the post-warmup length is set to a quarter period of the
slowest coordinate, ``L* = max(1, round((pi/2) max_j s_j sqrt(mass_j) /
step_size))`` with ``s_j`` the within-chain sd averaged over chains.  The
chosen length is jittered wider, over ``{ceil(0.5 L*), ..., ceil(1.5 L*)}``:
a short length that lands near a resonance stays near it under +-20%.
Chains are vectorized; each chain draws momenta and acceptance variables
from its own stream derived from ``(rng_seed, chain_index)``, while the
jittered lengths come from one extra derived stream shared by all chains (a
common deterministic schedule, so the batch stays in lockstep).  Everything
is reproducible bit for bit from the seed.

Each trajectory costs its ``n_steps`` gradient evaluations and one density
evaluation at the proposal.  The gradient at the current state is carried
from one iteration to the next (the proposal's on accept, the old one on
reject), so a run of ``N`` trajectories makes ``sum(n_steps) + 1`` gradient
calls in all.

Kinked gradients from the piecewise prior tails need no special treatment
(the kink sets have null measure); non-finite trajectories are flagged as
divergences and auto-rejected, and a run whose divergence rate exceeds 10%
raises `DivergenceError`.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .model import write_commented_csv

__all__ = ["HmcConfig", "Chain", "PosteriorSummary", "DivergenceError",
           "leapfrog", "sample", "summarize", "ess_imse", "save_chains"]


class DivergenceError(RuntimeError):
    """Raised when more than 10% of trajectories diverge."""

    def __init__(self, msg, last_state=None):
        super().__init__(msg)
        self.last_state = last_state


# Warmup trajectory length when the post-warmup one is chosen from warmup.
WARMUP_LEAPFROG_STEPS = 30
# Fewest warmup iterations whose second half can estimate the scales.
MIN_AUTO_WARMUP = 20


@dataclass(frozen=True)
class HmcConfig:
    """Sampler settings; the defaults are sized for the reduced 2-D targets.

    ``leapfrog_steps=None`` (the default) runs warmup at
    `WARMUP_LEAPFROG_STEPS` and then chooses the trajectory length from the
    warmup draws, which needs ``n_warmup >= MIN_AUTO_WARMUP``; an integer
    fixes the length for the whole run.
    """

    step_size: float = 0.05
    leapfrog_steps: int | None = None
    n_samples: int = 20000
    n_warmup: int = 2000
    n_chains: int = 4
    rng_seed: int = 0
    mass: np.ndarray | None = None

    def __post_init__(self):
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


def leapfrog(target, position, momentum, step_size, n_steps, mass=None):
    """Integrate Hamilton's equations with the position-momentum leapfrog.

    `position`/`momentum` are (m, dim) batches advanced ``n_steps`` steps.
    Returns ``(position, momentum, divergent)``; rows flagged divergent hit
    a non-finite or absurdly large state along the way and must be rejected
    by the caller.
    """
    q = np.array(np.atleast_2d(position), dtype=float)
    p = np.array(np.atleast_2d(momentum), dtype=float)
    inv_mass = 1.0 / (np.ones(q.shape[1]) if mass is None else np.asarray(mass, dtype=float))
    with np.errstate(over="ignore", invalid="ignore"):
        grad = target.grad_logpdf(q)
    q, p, _, divergent = _leapfrog(target, q, p, grad, step_size, n_steps, inv_mass)
    return q, p, divergent


def _leapfrog(target, q, p, grad, step_size, n_steps, inv_mass):
    """`leapfrog` given the gradient at `q`; also returns the one at the end.

    Returns ``(q, p, grad, divergent)``.  The end gradient is the one the
    last step computed, so a caller that keeps it needs no fresh evaluation
    at the start of the next trajectory.
    """
    # Non-finite states propagate freely (the target maps them to -inf /
    # zero gradient) and are flagged once at the end; the caller rejects
    # divergent rows, so there is no need to freeze them mid-trajectory.
    # Magnitudes beyond 1e50 count as divergent too: a gradient that
    # overflowed mid-trajectory can leave a huge but still-finite state.
    with np.errstate(over="ignore", invalid="ignore"):
        p = p + 0.5 * step_size * grad
        last = n_steps - 1
        for i in range(n_steps):
            q = q + step_size * p * inv_mass[None, :]
            grad = target.grad_logpdf(q)
            p = p + (0.5 if i == last else 1.0) * step_size * grad
        state_max = np.maximum(np.max(np.abs(q), axis=1),
                               np.max(np.abs(p), axis=1))
        divergent = ~np.isfinite(state_max) | (state_max > 1e50)
    return q, p, grad, divergent


def _kinetic(p, inv_mass):
    with np.errstate(over="ignore"):
        return 0.5 * np.sum(p * p * inv_mass[None, :], axis=1)


def _jitter_range(n_steps, spread):
    return (int(np.ceil((1.0 - spread) * n_steps)),
            int(np.ceil((1.0 + spread) * n_steps)))


def _steps_from_warmup(window, mass, step_size):
    """Trajectory length covering a quarter period of the slowest coordinate.

    `window` holds the (chains, draws, dim) states of the second half of
    warmup.  If no coordinate has a positive finite sd (the chains never
    moved), the warmup length is kept, with a warning.
    """
    # Deviations from each chain's first state make a chain that never moved
    # give an sd of exactly 0, not round-off from its mean.
    with np.errstate(over="ignore", invalid="ignore"):
        dev = window - window[:, :1]
        sd = np.sqrt(np.mean(np.var(dev, axis=1, ddof=1), axis=0))
        scale = sd * np.sqrt(mass)
    ok = np.isfinite(scale) & (scale > 0)
    if not ok.any():
        warnings.warn(
            "warmup draws have no positive finite sd to choose the trajectory "
            f"length from; keeping the warmup length {WARMUP_LEAPFROG_STEPS}",
            UserWarning, stacklevel=3)
        return WARMUP_LEAPFROG_STEPS
    return max(1, int(round(0.5 * np.pi * float(scale[ok].max()) / step_size)))


def sample(target, config):
    """Run Metropolis-corrected HMC chains against `target`.

    Returns one `Chain` per configured chain with warmup discarded.  The
    acceptance decision uses the exact joint Hamiltonian difference.  A
    tuning warning is emitted if any chain's post-warmup acceptance rate
    leaves [0.4, 0.95].  With ``config.leapfrog_steps=None`` the post-warmup
    trajectory length is chosen at the end of warmup (see the module
    docstring) and recorded in each `Chain`.
    """
    dim = target.dim
    m = config.n_chains
    mass = np.ones(dim) if config.mass is None else np.asarray(config.mass, dtype=float)
    if mass.shape != (dim,) or np.any(mass <= 0):
        raise ValueError("mass must be a positive vector of length dim")
    inv_mass = 1.0 / mass

    root = np.random.SeedSequence(config.rng_seed)
    streams = root.spawn(m + 1)
    chain_rngs = [np.random.Generator(np.random.PCG64(s)) for s in streams[:m]]
    traj_rng = np.random.Generator(np.random.PCG64(streams[m]))

    q = np.zeros((m, dim))
    start = getattr(target, "start_point", None)
    if start is not None:
        q += np.asarray(start, dtype=float)[None, :]
    for i in range(m):
        q[i] += 0.1 * chain_rngs[i].standard_normal(dim)

    logp = target.logpdf(q)
    with np.errstate(over="ignore", invalid="ignore"):
        grad = target.grad_logpdf(q)
    auto = config.leapfrog_steps is None
    n_fixed = WARMUP_LEAPFROG_STEPS if auto else config.leapfrog_steps
    lo, hi = _jitter_range(n_fixed, 0.2)
    total = config.n_warmup + config.n_samples
    window_start = config.n_warmup // 2
    if auto:
        window = np.empty((m, config.n_warmup - window_start, dim))

    draws = np.empty((m, config.n_samples, dim))
    accepted = np.zeros(m, dtype=int)
    divergences = np.zeros(m, dtype=int)
    last_divergent = None

    for it in range(total):
        if auto and it == config.n_warmup:
            n_fixed = _steps_from_warmup(window, mass, config.step_size)
            lo, hi = _jitter_range(n_fixed, 0.5)
        n_steps = int(traj_rng.integers(lo, hi + 1))
        p0 = np.stack([rng.standard_normal(dim) for rng in chain_rngs])
        p0 *= np.sqrt(mass)[None, :]
        q_new, p_new, grad_new, div = _leapfrog(target, q, p0, grad,
                                                config.step_size, n_steps,
                                                inv_mass)
        logp_new = target.logpdf(q_new)

        h_old = -logp + _kinetic(p0, inv_mass)
        h_new = -logp_new + _kinetic(p_new, inv_mass)
        with np.errstate(over="ignore", invalid="ignore"):
            log_accept = np.where(np.isfinite(h_new), h_old - h_new, -np.inf)
            # Energy blow-ups are divergences even when the state is finite.
            div = div | ~np.isfinite(h_new) | (h_new - h_old > 1000.0)
        u = np.array([rng.random() for rng in chain_rngs])
        accept = (np.log(u) < log_accept) & ~div

        q = np.where(accept[:, None], q_new, q)
        grad = np.where(accept[:, None], grad_new, grad)
        logp = np.where(accept, logp_new, logp)
        if np.any(div):
            divergences += div
            bad = int(np.argmax(div))
            last_divergent = (it, bad, q_new[bad].copy())
        if it >= config.n_warmup:
            draws[:, it - config.n_warmup] = q
            accepted += accept
        elif auto and it >= window_start:
            window[:, it - window_start] = q

    rate = divergences.sum() / (total * m)
    if rate > 0.10:
        raise DivergenceError(
            f"{rate:.1%} of trajectories diverged; last divergent state "
            f"{last_divergent}", last_state=last_divergent)

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
                            leapfrog_steps=n_fixed))
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
        cols = (self.mean, self.sd, self.ess, self.mcse)
        rows = ([name] + [repr(float(c[i])) for c in cols]
                for i, name in enumerate(self.params))
        write_commented_csv(path, ["param", "mean", "sd", "ess", "mcse"], rows,
                            comments)


def summarize(chains):
    """Pool chains into a `PosteriorSummary`.

    Needs at least one chain with at least 100 post-warmup draws.  ESS is
    summed over chains (each by `ess_imse`); MCSE is SD / sqrt(ESS).
    """
    if not chains:
        raise ValueError("no chains to summarize")
    if any(c.draws.shape[0] < 100 for c in chains):
        raise ValueError("need at least 100 post-warmup draws per chain")
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
    rows = ([c.index, it] + [repr(float(v)) for v in row]
            for c in chains for it, row in enumerate(c.draws))
    write_commented_csv(path, header, rows, comments)
