"""Command-line front end: fit posteriors, run sweeps, check limit claims.

Three subcommands:

``fit``
    Standardize a CSV dataset, build the posterior with per-covariate prior
    specs, sample it with HMC in likelihood-whitened coordinates and write
    a summary CSV plus a chain dump.
``sweep``
    Reproduce the simulation-study data: posterior mean and sd of the
    focal coefficient as the prior location (axis ``mu2``) or scaling
    (axis ``lambda2``) varies, per family, from the closed forms or the
    quadrature oracle.
``check``
    Run the asymptotic-limit diagnostics and write a pass/fail report plus
    the underlying ratio series.

Each command takes only the options it reads.  All three take ``--config``
and ``--out``; only ``fit`` takes the sampler options (``--seed`` and
``--hmc-*``), and ``sweep`` and ``check`` take ``--quad-tol``.  A flag
or config-file key that a command does not take is an error.

Exit codes: 0 success, 2 configuration error (an output file that cannot
be written among them), 3 data error, 4 numerical failure.  All output
CSVs are written by `write_commented_csv`: UTF-8, comma-delimited, LF
line ends, ``#`` comment lines recording the fully resolved configuration,
so identical configurations and seeds produce byte-identical files.
"""

import argparse
import os
import re
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .asymptotics import (ConflictPath, lptn_scaling_trace,
                          marginal_ratio_convergence,
                          posterior_limit_convergence, prior_ratio)
from .model import (DataError, PosteriorTarget, SigmaPrior, _os_error_text,
                    load_csv, reduced_target, standardize, write_commented_csv)
from .oracle import (NumericalError, conjugate_posterior, jeffreys_benchmark,
                     quadrature_moments)
from .priors import CTN, LPTN, CoefficientPrior, Normal, Student
from .sampler import (MIN_SUMMARY_DRAWS, DivergenceError, HmcConfig,
                      sample, save_chains, summarize)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

SWEEP_FAMILIES = ("jeffreys", "normal", "student", "lptn", "ctn",
                  "ctn_corrected")


class ConfigError(ValueError):
    """Raised for invalid command-line or config-file input."""


# The fixed value of each sweep axis while the other one is swept.  A value
# given for the swept axis itself would be ignored: an error.
_FIXED_AXIS = {"mu2": 0.5, "lambda2": 1.0}


def default_mu2_grid():
    return [round(0.05 * k, 10) for k in range(41)]          # 0, 0.05, ..., 2.0


def default_lambda2_grid():
    grid = [round(0.02 + 0.04 * k, 10) for k in range(50)]   # 0.02, 0.06, ..., 1.98
    grid.append(2.0)
    return grid


# Located prior families by spec name: constructor, the spec key of the
# family's shape parameter and that parameter's default.  Sweeps also take
# ``ctn_corrected``: the CTN family under a sigma^{+1} correction.
_LOCATED = {"normal": (Normal, None, None),
            "student": (Student, "gamma", 4.0),
            "lptn": (LPTN, "rho", 0.95),
            "ctn": (CTN, "rho", 0.98)}


def _spec_options(rest, spec):
    # ``key=value,...`` as floats by key; spaces around keys and values are
    # allowed, a repeated key is not.
    opts = {}
    if rest:
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            key = key.strip()
            if not eq:
                raise ConfigError(f"bad option {item!r} in {spec!r}: "
                                  "expected key=value")
            if key in opts:
                raise ConfigError(f"option {key!r} given twice in {spec!r}")
            try:
                opts[key] = float(val)
            except ValueError:
                raise ConfigError(f"non-numeric value in {item!r}") from None
    return opts


def parse_prior_spec(spec):
    """Parse ``family[:key=value,...]`` into a prior factory.

    Families: ``jeffreys`` (flat, no options), ``normal`` (mu, lambda),
    ``student`` (gamma, mu, lambda), ``lptn`` (rho, mu, lambda), ``ctn``
    (rho, mu, lambda).  Returns None for the flat prior or a
    `CoefficientPrior`.
    """
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    opts = _spec_options(rest, spec)
    if name == "jeffreys":
        if opts:
            raise ConfigError(f"the flat prior takes no options, got {spec!r}")
        return None
    if name not in _LOCATED:
        raise ConfigError(f"unknown prior family {name!r}")
    make, key, default = _LOCATED[name]
    try:
        family = make() if key is None else make(opts.pop(key, default))
        mu = opts.pop("mu", 0.0)
        lam = opts.pop("lambda", 1.0)
        if opts:
            raise ConfigError(f"unknown prior options {sorted(opts)} in {spec!r}")
        return CoefficientPrior(mu=mu, lam=lam, family=family)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def parse_sigma_prior_spec(spec):
    """Parse ``jeffreys`` or ``invgamma:shape=a,scale=b``, then ``*sigma^K``.

    Returns `SigmaPrior(power, scale)`: (-1, 0) for jeffreys, (-(2a + 1), b)
    for invgamma; ``*sigma^K``, for any finite real K, adds K to the power.
    """
    base_spec, _, adjust = spec.partition("*")
    k = 0.0
    if adjust:
        adjust = adjust.strip().lower()
        if not adjust.startswith("sigma^"):
            raise ConfigError(f"bad sigma-prior adjustment {adjust!r}")
        try:
            k = float(adjust[len("sigma^"):])
        except ValueError:
            raise ConfigError(f"bad sigma power in {spec!r}") from None
    name, _, rest = base_spec.partition(":")
    name = name.strip().lower()
    try:
        opts = _spec_options(rest, spec)
        if name == "jeffreys":
            power, scale = -1.0, 0.0
        elif name == "invgamma":
            shape, scale = opts.pop("shape"), opts.pop("scale")
            if not (0 < shape < np.inf and 0 < scale < np.inf):
                raise ValueError("shape and scale must be positive and finite")
            power = -(2 * shape + 1)
        else:
            raise ConfigError(f"unknown sigma prior {name!r}")
        if opts:
            raise ConfigError(f"unknown sigma-prior options {sorted(opts)}")
        return SigmaPrior(power + k, scale)
    except KeyError as exc:
        raise ConfigError(f"bad sigma prior {spec!r}: missing option {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"bad sigma prior {spec!r}: {exc}") from None


def read_config_file(path):
    """Read a flat ``key = value`` config file; later flags override it.

    Returns ``{key: (lineno, value)}``; a key given twice keeps its last line.
    """
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                key, eq, val = line.partition("=")
                if not eq:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                values[key.strip().replace("-", "_")] = (lineno, val.strip())
    except OSError as exc:
        raise ConfigError(
            f"cannot read config file: {_os_error_text(exc)}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    return values


def _config_comments(args, extra=(), resolved=()):
    # Full resolved configuration, minus self-referential output locations
    # (so reruns into different files stay byte-identical) and the raw
    # values of the options in `resolved`, whose resolved values `extra`
    # records instead.
    skip = {"func", "config", "out", "chains_out", *resolved}
    items = [f"{k} = {v}" for k, v in sorted(vars(args).items())
             if k not in skip and not callable(v)]
    return [f"robustpriors {__version__}"] + items + list(extra)


def cmd_fit(args):
    """Sample the posterior of a CSV dataset in likelihood-whitened coordinates.

    HMC runs on `PosteriorTarget.whitened`, where the likelihood has unit
    scale in every coefficient direction, at the step ``--hmc-step-size /
    s_min``.  The flag so keeps its meaning in ``(beta, nu)``: the raw step
    along the likelihood's tightest direction.  Draws, and the state a
    `DivergenceError` reports, are mapped back to ``(beta, nu)`` before
    they are summarized or written.
    """
    data, cov_names = load_csv(args.data)
    data, transform = standardize(data)
    specs = args.prior or []
    if len(specs) != len(cov_names):
        raise ConfigError(
            f"need one --prior per covariate: {len(cov_names)} covariates "
            f"({', '.join(cov_names)}) but {len(specs)} priors")
    priors = [None]  # flat prior on the intercept
    priors += [parse_prior_spec(s) for s in specs]
    sigma_prior = parse_sigma_prior_spec(args.sigma_prior)
    target = PosteriorTarget(data, priors, sigma_prior=sigma_prior)
    # Validated with the flag's own value, so an error quotes it.
    config = HmcConfig(step_size=args.hmc_step_size,
                       leapfrog_steps=args.hmc_leapfrog_steps,
                       n_samples=args.hmc_samples, n_warmup=args.hmc_warmup,
                       n_chains=args.hmc_chains, rng_seed=args.seed)
    if args.hmc_samples < MIN_SUMMARY_DRAWS:
        raise ConfigError(f"--hmc-samples must be at least {MIN_SUMMARY_DRAWS} "
                          f"for the summary, got {args.hmc_samples}")
    chains_out = args.chains_out or _derive_path(args.out, "_chains")
    # Checked before sampling, so a path that cannot be written costs no run.
    for flag, path in (("--out", args.out), ("--chains-out", chains_out)):
        folder = os.path.dirname(path)
        if folder and not os.path.isdir(folder):
            raise ConfigError(f"{flag} {path!r}: directory {folder!r} does "
                              "not exist")
    view = target.whitened()
    step = args.hmc_step_size / view.s_min
    try:
        chains = sample(view, replace(config, step_size=step))
    except DivergenceError as exc:
        it, chain, state = exc.last_state
        raise DivergenceError(exc.summary,
                              (it, chain, view.to_posterior(state))) from None
    chains = [replace(c, draws=view.to_posterior(c.draws)) for c in chains]
    summary = summarize(chains)
    extra = ["columns: intercept=beta_1, " + ", ".join(
        f"{name}=beta_{i + 2}" for i, name in enumerate(cov_names))]
    # Rows are in standardized units; this line maps them back.
    means = [transform.y_mean, *transform.col_means[1:]]
    scales = [transform.y_scale, *transform.col_scales[1:]]
    extra.append("standardized units, each column as (value - mean) / scale: "
                 + ", ".join(f"{name} mean={float(m)!r} scale={float(s)!r}"
                             for name, m, s in zip(["y", *cov_names], means, scales)))
    extra.append(f"sampled in whitened coordinates: s_min(A) = {view.s_min!r}, "
                 f"step = hmc_step_size / s_min(A) = {step!r}")
    if args.hmc_leapfrog_steps is None:
        extra.append(f"pilot leapfrog steps = {chains[0].pilot_leapfrog_steps}"
                     " (from the curvature at the mode)")
        extra.append(f"warmup leapfrog steps after the pilot = "
                     f"{chains[0].warmup_leapfrog_steps} (chosen from the pilot)")
        extra.append(f"leapfrog steps after warmup = "
                     f"{chains[0].leapfrog_steps} (chosen from warmup)")
    comments = _config_comments(args, extra=extra)
    summary.write_csv(args.out, comments=comments)
    save_chains(chains, chains_out, comments=comments)
    print(f"wrote {args.out} and {chains_out}")
    return EXIT_OK


def _derive_path(path, suffix):
    # The suffix goes before the file name's extension, never into a
    # directory name with a dot.
    stem, ext = os.path.splitext(path)
    return stem + suffix + ext


def _sweep_point(family_tag, family, axis_mu2, axis_lambda2, n, tol):
    """Posterior mean/sd of the focal coefficient at one sweep grid point."""
    if family_tag == "jeffreys":
        mean, var = jeffreys_benchmark(n)
        return mean, float(np.sqrt(var))
    if family_tag == "normal":
        res = conjugate_posterior(n, axis_mu2, axis_lambda2)
        return res.beta_mean, float(np.sqrt(res.beta_variance))
    target = reduced_target(n, mu2=axis_mu2, lambda2=axis_lambda2,
                            family=family,
                            sigma_power=1 if family_tag == "ctn_corrected" else 0)
    res = quadrature_moments(target, tol=tol)
    return res.mean, res.sd


def _check_quad_tol(args):
    # Checked whatever is computed: a value no run reads is still an error.
    if not (np.isfinite(args.quad_tol) and args.quad_tol > 0):
        raise ConfigError(f"--quad-tol must be positive and finite, "
                          f"got {args.quad_tol}")


def cmd_sweep(args):
    _check_quad_tol(args)
    families = [f.strip().lower() for f in args.families.split(",") if f.strip()]
    for f in families:
        if f not in SWEEP_FAMILIES:
            raise ConfigError(f"unknown family {f!r}; choose from "
                              f"{', '.join(SWEEP_FAMILIES)}")
    if args.grid is None:
        grid = default_mu2_grid() if args.axis == "mu2" else default_lambda2_grid()
    else:
        try:
            grid = [float(x) for x in args.grid.split(",")]
        except ValueError:
            raise ConfigError(f"--grid must be a comma list of numbers, "
                              f"got {args.grid!r}") from None
        if not np.all(np.isfinite(grid)):
            raise ConfigError(f"--grid values must be finite, got {args.grid!r}")
        if args.axis == "lambda2" and min(grid) <= 0:
            raise ConfigError(f"--grid values on the lambda2 axis must be "
                              f"positive, got {args.grid!r}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ConfigError("--grid must be a strictly increasing list")
    # Identity, not equality: a value given by flag or config key is a new
    # float even when it equals the default object argparse leaves.
    if getattr(args, args.axis) is not _FIXED_AXIS[args.axis]:
        raise ConfigError(f"--{args.axis} fixes {args.axis} while the other "
                          f"axis is swept, but the swept axis is {args.axis}")
    if not np.isfinite(args.mu2):
        raise ConfigError(f"--mu2 must be finite, got {args.mu2}")
    if not (np.isfinite(args.lambda2) and args.lambda2 > 0):
        raise ConfigError(f"--lambda2 must be positive and finite, "
                          f"got {args.lambda2}")

    # Shape values per located family: its repeatable flag, else the default.
    # A flag for a family that is not swept would be ignored: an error.
    shape_flags = {"student": "gamma", "lptn": "rho", "ctn": "varrho"}
    hyper_flags = {fam: getattr(args, flag) for fam, flag in shape_flags.items()}
    swept = {f.removesuffix("_corrected") for f in families}
    for fam, flag in shape_flags.items():
        if hyper_flags[fam] and fam not in swept:
            raise ConfigError(f"--{flag} sets the {fam} shape, but the swept "
                              f"families are {', '.join(families)}")
    comments = _config_comments(args, extra=[
        f"grid = {','.join(repr(g) for g in grid)}",
        "prior inverse-scale includes the sqrt(n) factor of the reduced "
        "study: lambda_eff = lambda2 * sqrt(n)"], resolved=("grid",))

    rows = []
    for family_tag in families:
        located = family_tag.removesuffix("_corrected")
        make, _, default = _LOCATED.get(located, (None, None, None))
        for hyper in hyper_flags.get(located) or [default]:
            family = None if hyper is None else make(hyper)
            for g in grid:
                mu2 = g if args.axis == "mu2" else args.mu2
                lam2 = g if args.axis == "lambda2" else args.lambda2
                mean, sd = _sweep_point(family_tag, family, mu2, lam2,
                                        args.n, args.quad_tol)
                rows.append([family_tag, "" if hyper is None else float(hyper),
                             float(mu2), float(lam2), float(mean), float(sd)])
    write_commented_csv(args.out, ["family", "hyper", "mu2", "lambda2", "mean",
                                   "sd"], rows, comments)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def _check_claims(args):
    """Run the diagnostics; yield (claim, terminal_error, threshold, verdict, series)."""
    location, scaling = ConflictPath(b=1.0), ConflictPath(a=0.5, c=1.0, d=1.0)
    # Prior ratios over their far-conflict law, target 1: Student's worst
    # case across a hyperparameter grid, LPTN's log-slow approach and CTN's
    # exact attainment on both kinds of path.
    s = max((prior_ratio(ConflictPath(b=1.0, c=lam), Student(gam), 1.0,
                         sigma=sig)
             for lam in (0.5, 1.0, 2.0) for sig in (0.5, 1.0, 2.0)
             for gam in (1.0, 4.0, 10.0)), key=lambda r: r.abs_err[-1])
    err = float(s.abs_err[-1])
    yield ("student_location_limit", err, 0.01, err <= 0.01, s)

    s = prior_ratio(location, LPTN(0.95), 1.0)
    err = float(s.abs_err[-1])
    ok = err <= 0.05 and s.tail_nonincreasing()
    yield ("lptn_location_invariance", err, 0.05, ok, s)

    tr = lptn_scaling_trace(0.5, 0.0, 1.0, 0.95)
    comp = tr.companion
    monotone = bool(np.all(np.diff(comp.abs_err) < 0))
    # Log-slow collapse: far from converged even at lam = 1e12.  The 0.12
    # terminal bound is a regression value recorded from this oracle.
    slow = comp.abs_err[-1] > 1e-2
    yield ("lptn_scaling_trace_slow", float(comp.abs_err[-1]), 0.12,
           monotone and slow and comp.abs_err[-1] <= 0.12, comp)

    ctn = [prior_ratio(path, CTN(0.98), 0.0) for path in (location, scaling)]
    exact = all(np.all(s.ratio == 1.0) for s in ctn)
    yield ("ctn_exact_attainment", max(float(s.abs_err[-1]) for s in ctn),
           0.0, exact, ctn[0])

    grid = [1.0, 10.0, 100.0, 1000.0, 10000.0]
    mr = marginal_ratio_convergence(scaling, CTN(0.98), omega_grid=grid,
                                    quad_tol=args.quad_tol)
    err = float(abs(mr.ratio[-1] - 1.0))
    yield ("ctn_marginal_ratio_limit", err, 0.02, err <= 0.02, mr)

    mr2 = marginal_ratio_convergence(location, LPTN(0.95), omega_grid=grid[1:],
                                     quad_tol=args.quad_tol)
    err = float(abs(mr2.ratio[-1] - 1.0))
    mono = bool(np.all(np.diff(np.abs(mr2.ratio - 1.0)) < 0))
    yield ("lptn_marginal_ratio_monotone", err, 1.0, mono and err <= 1.0, mr2)

    # The posterior's sigma^2 mean against its limit's: the prior drops
    # out, leaves sigma^gamma, or leaves sigma^{-1}.
    for claim, family, path, omega, threshold in (
            ("lptn_location_posterior_limit", LPTN(0.95), location, grid[1:],
             0.01),
            ("student_location_posterior_limit", Student(4.0), location,
             grid[1:], 1e-4),
            ("ctn_scaling_posterior_limit", CTN(0.98), scaling, grid, 1e-4)):
        s = posterior_limit_convergence(path, family, omega_grid=omega,
                                        quad_tol=args.quad_tol)
        err = float(s.abs_err[-1])
        yield (claim, err, threshold,
               err <= threshold and s.tail_nonincreasing(len(omega)), s)


def cmd_check(args):
    """Write the claim report and, beside it, every claim's ratio series.

    ``<out>_series.csv`` is one ``claim,omega,ratio,abs_err`` table in the
    report's claim order, with a ``# <claim>: <label>`` line per claim.
    """
    _check_quad_tol(args)
    rows, series_rows, labels = [], [], []
    any_fail = False
    for claim, err, threshold, ok, s in _check_claims(args):
        verdict = "PASS" if ok else "FAIL"
        any_fail |= not ok
        rows.append([claim, float(err), float(threshold), verdict])
        labels.append(f"{claim}: {s.label or s.family}")
        series_rows += ([claim, float(w), float(r), float(e)]
                        for w, r, e in zip(s.omega, s.ratio, s.abs_err))
        print(f"{claim}: {verdict} (terminal error {err:.3e}, "
              f"threshold {threshold:g})")
    comments = _config_comments(args)
    write_commented_csv(args.out, ["claim", "terminal_error", "threshold",
                                   "verdict"], rows, comments)
    series_path = _derive_path(args.out, "_series")
    write_commented_csv(series_path, ["claim", "omega", "ratio", "abs_err"],
                        series_rows, comments + labels)
    print(f"wrote {args.out} and {series_path}")
    return EXIT_NUMERICAL if any_fail else EXIT_OK


# Options every run of a command needs.  `_parse_args` checks them after the
# config file is applied, not argparse, because the file may supply them.
_REQUIRED = {"fit": ("out", "data"), "sweep": ("out", "axis"),
             "check": ("out",)}


def build_parser():
    return _build_parsers()[0]


def _build_parsers():
    # The top-level parser and each command's subparser by name.
    parser = argparse.ArgumentParser(
        prog="robustpriors",
        description="Heavy-tailed coefficient priors for Bayesian linear "
                    "regression: fitting, sweeps and limit diagnostics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_options(p, quadrature=False):
        p.add_argument("--config", help="flat key = value config file; "
                       "explicit flags take precedence")
        p.add_argument("--out", help="output CSV path (required)")
        if quadrature:
            p.add_argument("--quad-tol", type=float, default=1e-10,
                           help="absolute quadrature tolerance")

    p_fit = sub.add_parser("fit", help="fit a posterior to CSV data with HMC")
    add_options(p_fit)
    p_fit.add_argument("--seed", type=int, default=0, help="rng seed")
    p_fit.add_argument("--hmc-step-size", type=float, default=0.05)
    p_fit.add_argument("--hmc-leapfrog-steps", type=int, default=None,
                       help="trajectory length; default: chosen from warmup")
    p_fit.add_argument("--hmc-samples", type=int, default=20000)
    p_fit.add_argument("--hmc-warmup", type=int, default=2000)
    p_fit.add_argument("--hmc-chains", type=int, default=4)
    p_fit.add_argument("--data", help="CSV with a 'y' column (required)")
    p_fit.add_argument("--prior", action="append",
                       help="prior spec per covariate, e.g. "
                            "'student:gamma=4,mu=1,lambda=2' or 'jeffreys'; "
                            "mu and lambda are read on the standardized "
                            "scale of y and the covariate")
    p_fit.add_argument("--sigma-prior", default="jeffreys",
                       help="'jeffreys', 'invgamma:shape=..,scale=..', "
                            "optionally '*sigma^K' for any real K")
    p_fit.add_argument("--chains-out", help="chain dump CSV path")
    p_fit.set_defaults(func=cmd_fit)

    p_sweep = sub.add_parser("sweep", help="reproduce the conflict sweeps")
    add_options(p_sweep, quadrature=True)
    p_sweep.add_argument("--axis", choices=("mu2", "lambda2"),
                         help="swept parameter (required)")
    p_sweep.add_argument("--families", default="jeffreys,normal,student,lptn,ctn",
                         help=f"comma list from {', '.join(SWEEP_FAMILIES)}")
    p_sweep.add_argument("--n", type=int, default=100)
    p_sweep.add_argument("--grid", help="comma list overriding the default grid")
    p_sweep.add_argument("--mu2", type=float, default=_FIXED_AXIS["mu2"],
                         help="fixed location for the lambda2 axis")
    p_sweep.add_argument("--lambda2", type=float,
                         default=_FIXED_AXIS["lambda2"],
                         help="fixed scaling for the mu2 axis")
    p_sweep.add_argument("--gamma", action="append", type=float,
                         help="Student degrees of freedom (repeatable)")
    p_sweep.add_argument("--rho", action="append", type=float,
                         help="LPTN mass fraction (repeatable)")
    p_sweep.add_argument("--varrho", action="append", type=float,
                         help="CTN mass fraction (repeatable)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="run asymptotic-limit diagnostics")
    add_options(p_check, quadrature=True)
    p_check.set_defaults(func=cmd_check)
    return parser, {"fit": p_fit, "sweep": p_sweep, "check": p_check}


def _parse_args(argv):
    # Pass 1 finds the command and --config as argparse reads them, so the
    # --config=path form and abbreviations such as --conf count.  The file's
    # values become the command's defaults, and pass 2 parses argv over
    # them, so explicit flags keep precedence.
    parser, commands = _build_parsers()
    first, _ = parser.parse_known_args(argv)
    sub = commands[first.command]
    if first.config is not None:
        sub.set_defaults(**_config_defaults(sub, first, first.config))
    args = parser.parse_args(argv)
    missing = [k for k in _REQUIRED[args.command] if getattr(args, k) is None]
    if missing:
        sub.error("the following arguments are required: "
                  + ", ".join("--" + k for k in missing))
    return args


def _config_defaults(sub, first, path):
    # Each of the file's values is parsed by the command's own subparser
    # `sub`, so types and choices are checked as on the command line, and an
    # error names the file, the line and the key.
    values = read_config_file(path)
    known = set(vars(first)) - {"command", "func"}
    defaults = {}
    for key, (lineno, raw) in values.items():
        where = f"{path}:{lineno}: {key}"
        if key not in known:
            raise ConfigError(f"{where}: unknown config key for {first.command}")
        flag = "--" + key.replace("_", "-")
        sub.exit_on_error = False   # raise, not print usage and exit
        try:
            value = getattr(sub.parse_args([f"{flag}={raw}"]), key)
        except argparse.ArgumentError as exc:
            raise ConfigError(f"{where}: {exc.message}") from None
        finally:
            sub.exit_on_error = True
        # A repeatable flag given on the command line replaces the file's list.
        if not isinstance(getattr(first, key), list):
            defaults[key] = value
    return defaults


def _print_error(message):
    """Print ``message`` to stderr, each surrogate escape as its own byte.

    A file name that the locale could not decode reaches Python with
    surrogate escapes, which stderr's default error handler would print as
    backslash escapes; the rest of the message keeps that handler, so a
    character stderr's encoding lacks is still a backslash escape.
    """
    stream = sys.stderr
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        print(message, file=stream)
        return
    encoding = stream.encoding or "utf-8"
    parts = re.split("([\udc80-\udcff]+)", message + "\n")
    data = b"".join(part.encode(encoding, "surrogateescape" if i % 2
                                else "backslashreplace")
                    for i, part in enumerate(parts))
    stream.flush()
    buffer.write(data)
    buffer.flush()


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        return args.func(args)
    except DataError as exc:
        _print_error(f"data error: {exc}")
        return EXIT_DATA
    except (NumericalError, DivergenceError) as exc:
        _print_error(f"numerical failure: {exc}")
        return EXIT_NUMERICAL
    except ValueError as exc:
        # ConfigError plus invalid constructor arguments reached via flags
        _print_error(f"error: {exc}")
        return EXIT_CONFIG
    except OSError as exc:
        # An output path that cannot be written; inputs that cannot be
        # read are reported as data or configuration errors.
        _print_error(f"error: cannot write output: {_os_error_text(exc)}")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
