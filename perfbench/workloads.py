"""The three workloads: inputs made from a seed, timed operations, gates.

Each workload turns ``(seed, seconds)`` into a fixed list of operations, so
every count (points, panels, gradient rows, ESS) repeats exactly for a
given seed.  ``seconds`` sizes the list through the per-operation costs
below, measured on a 2-core x86-64 VM; a run therefore takes about
``seconds`` there and proportionally longer or shorter elsewhere.

Every operation goes through the package's public calls only, looked up on
the module at call time so that a tracer installed later sees them.  Gates
run after the timed loop and never inside it.
"""

import csv
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import robustpriors as rp
import robustpriors.cli as cli

# Wall time of both default sweeps (all 409 grid points) and of one
# operation of each sampler workload on the reference VM.
QUAD_FULL_SWEEP_S = 55.0
HMC_POSTERIOR_S = 4.5
FIT_S = 2.8

N_REDUCED = 100         # sweep default n
HMC_SAMPLES, HMC_WARMUP, HMC_CHAINS = 2000, 400, 2
FIT_N, FIT_COVARIATES = 500, 5
FIT_SAMPLES, FIT_WARMUP = 500, 50
FIT_STEP_SIZE = 0.015   # the CLI default 0.05 diverges on this data
FIT_PRIORS = ("normal", "student", "lptn", "ctn", "jeffreys")
MCSE_LIMIT = 5.0


@dataclass
class Op:
    """One timed operation, its correctness gate and the work it yields."""

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]       # failure reason or None
    work: Callable[[object], float] = lambda out: 1.0


def quiet_cli(argv):
    """`robustpriors <argv>` in process, its progress lines discarded."""
    with redirect_stdout(io.StringIO()):
        return cli.main(argv)


def evenly_spaced(size, k):
    """``k`` indices spread evenly over ``range(size)``, both ends included."""
    return sorted({round(j * (size - 1) / max(1, k - 1)) for j in range(k)})


def _family(tag):
    # The sweep's default hyperparameters.
    return {"normal": rp.Normal, "student": lambda: rp.Student(4.0),
            "lptn": lambda: rp.LPTN(0.95),
            "ctn": lambda: rp.CTN(0.98),
            "ctn_corrected": lambda: rp.CTN(0.98)}[tag]()


def _moment_errors(mean, sd, ref_mean, ref_var):
    return abs(mean - ref_mean), abs(sd * sd - ref_var) / ref_var


# ---------------------------------------------------------------------------
# quad_sweeps
# ---------------------------------------------------------------------------

class QuadSweeps:
    """Grid points of the location and scaling sweeps, plus one `check`."""

    name = "quad_sweeps"
    primary = "point"

    def __init__(self, seed, seconds, workdir):
        self.seed = seed
        self.frac = min(1.0, seconds / QUAD_FULL_SWEEP_S)
        self.workdir = Path(workdir)
        self._flat_quad = None

    def _sweep_args(self, axis, families=None, mu2=None):
        argv = ["sweep", "--axis", axis, "--out", "unused.csv"]
        if families:
            argv += ["--families", families]
        if mu2 is not None:
            argv += ["--mu2", str(mu2)]
        return cli.build_parser().parse_args(argv)

    def build(self):
        """The same grid points for every seed; the seed sets their order.

        Point costs span 10 ms to 0.7 s, so which points run decides the
        median and the throughput; a fixed set keeps both comparable from
        seed to seed.
        """
        ops = []
        sweeps = [(self._sweep_args("mu2"), cli.default_mu2_grid()),
                  (self._sweep_args("lambda2", "normal,lptn,ctn,ctn_corrected",
                                    0.5), cli.default_lambda2_grid())]
        for args, grid in sweeps:
            for tag in args.families.split(","):
                k = max(1, round(self.frac * len(grid)))
                for i in evenly_spaced(len(grid), k):
                    mu2 = grid[i] if args.axis == "mu2" else args.mu2
                    lam2 = grid[i] if args.axis == "lambda2" else args.lambda2
                    ops.append(self._point(tag, mu2, lam2, args.n, args.quad_tol))
        ops.append(Op("check", "check", self._run_check, self._check_gate))
        order = np.random.default_rng(self.seed).permutation(len(ops))
        return [ops[i] for i in order]

    def _point(self, tag, mu2, lam2, n, tol):
        def run():
            if tag == "jeffreys":
                mean, var = rp.jeffreys_benchmark(n)
                return mean, math.sqrt(var)
            if tag == "normal":
                res = rp.conjugate_posterior(n, mu2, lam2)
                return res.beta_mean, math.sqrt(res.beta_variance)
            target = rp.reduced_target(
                n, mu2=mu2, lambda2=lam2, family=_family(tag),
                sigma_power=1 if tag == "ctn_corrected" else 0)
            res = rp.quadrature_moments(target, tol=tol)
            return res.mean, res.sd

        def check(out):
            mean, sd = out
            if not (math.isfinite(mean) and math.isfinite(sd) and sd > 0):
                return f"non-finite or degenerate moments {out}"
            if tag == "normal":
                ref = rp.conjugate_posterior(n, mu2, lam2)
                quad = rp.quadrature_moments(
                    rp.reduced_target(n, mu2, lam2, rp.Normal()), tol=tol)
                checks = [(mean, sd), (quad.mean, quad.sd)]
                ref_mean, ref_var = ref.beta_mean, ref.beta_variance
            elif tag == "jeffreys":
                ref_mean, ref_var = 0.0, 1.0 / (n - 3)
                checks = [(mean, sd), self._flat_moments(n, tol)]
            else:
                return None
            for m, s in checks:
                dm, dv = _moment_errors(m, s, ref_mean, ref_var)
                if dm > 1e-4 or dv > 1e-3:
                    return f"mean error {dm:.2e} (<=1e-4), variance rel {dv:.2e} (<=1e-3)"
            return None

        return Op("point", f"{tag} mu2={mu2!r} lambda2={lam2!r}", run, check)

    def _flat_moments(self, n, tol):
        if self._flat_quad is None:
            q = rp.quadrature_moments(rp.reduced_target(n, family=None), tol=tol)
            self._flat_quad = (q.mean, q.sd)
        return self._flat_quad

    def _run_check(self):
        out = self.workdir / "check.csv"
        return quiet_cli(["check", "--out", str(out)]), out

    def _check_gate(self, result):
        code, out = result
        if code != 0:
            return f"check exited with {code}"
        with open(out) as fh:
            rows = [r for r in csv.reader(line for line in fh
                                          if not line.startswith("#"))]
        failing = [r[0] for r in rows[1:] if r[3] != "PASS"]
        if not rows[1:] or failing:
            return f"claims not PASS: {failing or 'none reported'}"
        return None


# ---------------------------------------------------------------------------
# hmc_grid
# ---------------------------------------------------------------------------

# One (mu2, lambda2) point per family, fixed so that the posterior shapes,
# and so the ESS each one yields, are the same from seed to seed; the seed
# sets the sampler streams.  At 2000 draws per chain the 5-MCSE gate holds
# with margin even for the kinked LPTN and CTN posteriors; at 500 it does not.
HMC_DESIGN = (("normal", 1.0, 0.5), ("student", 0.75, 1.25),
              ("lptn", 0.5, 1.0), ("ctn", 0.25, 0.75))


class HmcGrid:
    """Independent reduced posteriors on a (family, mu2, lambda2) grid.

    Not listed in BENCHMARK.json: at the sampler's present speed only four
    posteriors long enough for the 5-MCSE gate fit in one run, too few for a
    steady median.  Run it by name.
    """

    name = "hmc_grid"
    primary = "posterior"

    def __init__(self, seed, seconds, workdir):
        self.seed = seed
        self.rounds = max(1, round(seconds / (len(HMC_DESIGN) * HMC_POSTERIOR_S)))

    def build(self):
        rng = np.random.default_rng(self.seed)
        ops = []
        for tag, mu2, lam2 in HMC_DESIGN * self.rounds:
            family = _family(tag)
            target = rp.reduced_target(N_REDUCED, mu2=mu2, lambda2=lam2,
                                       family=family)
            config = rp.HmcConfig(n_samples=HMC_SAMPLES, n_warmup=HMC_WARMUP,
                                  n_chains=HMC_CHAINS,
                                  rng_seed=int(rng.integers(2 ** 31)))
            ops.append(self._posterior(f"{tag} mu2={mu2} lambda2={lam2}",
                                       target, config))
        return ops

    def _posterior(self, label, target, config):
        def run():
            chains = rp.sample(target, config)
            return chains, rp.summarize(chains)

        def check(out):
            chains, summary = out
            ref = rp.quadrature_moments(target)
            row = summary.row("beta_1")
            x = [c.draws[:, 0] for c in chains]
            centred = [(d - row["mean"]) ** 2 for d in x]
            ess_var = sum(rp.ess_imse(c) for c in centred)
            mcse_var = np.concatenate(centred).std(ddof=1) / math.sqrt(ess_var)
            mcse_sd = mcse_var / (2.0 * row["sd"])
            z_mean = abs(row["mean"] - ref.mean) / row["mcse"]
            z_sd = abs(row["sd"] - ref.sd) / mcse_sd
            if z_mean > MCSE_LIMIT or z_sd > MCSE_LIMIT:
                return (f"mean {z_mean:.2f} / sd {z_sd:.2f} MCSE from the "
                        f"quadrature reference (limit {MCSE_LIMIT:g})")
            return None

        return Op("posterior", label, run, check,
                  work=lambda out: float(np.min(out[1].ess)))


# ---------------------------------------------------------------------------
# fit_regression
# ---------------------------------------------------------------------------

def write_regression_csv(path, seed):
    """n = 500 rows, 5 covariates, a strong signal (R^2 = 0.9).

    The covariates are orthogonal and the noise orthogonal to them, with
    fixed norms, so the seed rotates the rows but the standardized
    posterior, and so the ESS a fit yields, is the same for every seed.
    """
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((FIT_N, FIT_COVARIATES + 1))
    basis, _ = np.linalg.qr(np.column_stack([np.ones(FIT_N), raw]))
    X = basis[:, 1:FIT_COVARIATES + 1] * math.sqrt(FIT_N)
    noise = basis[:, -1] * math.sqrt(FIT_N) * 0.5
    beta = np.array([1.0, -0.8, 0.6, 0.4, -0.3])
    beta *= 1.5 / np.linalg.norm(beta)
    y = 0.5 + X @ beta + noise
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(FIT_COVARIATES)] + ["y"])
        for row, yi in zip(X, y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(yi))])


def fit_argv(data, out, seed, step_size=None):
    argv = ["fit", "--data", str(data), "--out", str(out), "--seed", str(seed),
            "--hmc-samples", str(FIT_SAMPLES), "--hmc-warmup", str(FIT_WARMUP)]
    if step_size is not None:
        argv += ["--hmc-step-size", str(step_size)]
    for spec in FIT_PRIORS:
        argv += ["--prior", spec]
    return argv


def read_summary(path):
    with open(path) as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    return {r["param"]: {k: float(v) for k, v in r.items() if k != "param"}
            for r in rows}


class FitRegression:
    """Repeated in-process `robustpriors fit` on one generated CSV.

    Each fit gets its own sampler seed except the last, which repeats the
    first so the determinism gate can compare their files byte for byte.
    """

    name = "fit_regression"
    primary = "fit"

    def __init__(self, seed, seconds, workdir):
        self.seed = seed
        self.count = max(2, round(seconds / FIT_S))
        self.workdir = Path(workdir)
        self.data = self.workdir / "regression.csv"
        self._reference = {}      # seed -> bytes of the first fit's files
        self._ols = None

    def build(self):
        write_regression_csv(self.data, self.seed)
        seeds = [self.seed + i for i in range(self.count - 1)] + [self.seed]
        return [self._fit(i, s) for i, s in enumerate(seeds)]

    def _fit(self, i, seed):
        out = self.workdir / f"fit_{i}.csv"
        chains_out = out.with_name(f"fit_{i}_chains.csv")
        argv = fit_argv(self.data, out, seed, FIT_STEP_SIZE)
        argv += ["--chains-out", str(chains_out)]

        def run():
            return quiet_cli(argv), out, chains_out

        def check(result):
            code, out, chains_out = result
            if code != 0:
                return f"fit exited with {code}"
            files = (out.read_bytes(), chains_out.read_bytes())
            if self._reference.setdefault(seed, files) != files:
                return "output differs from the earlier fit with the same seed"
            return self._check_summary(out)

        return Op("fit", f"fit #{i} seed {seed}", run, check,
                  work=lambda res: min(r["ess"] for r in read_summary(res[1]).values()))

    def _check_summary(self, out):
        summary = read_summary(out)
        if self._ols is None:
            data, _ = rp.standardize(rp.load_csv(self.data)[0])
            self._ols = rp.ols_fit(data)
        for j, b in enumerate(self._ols):
            row = summary[f"beta_{j + 1}"]
            if not abs(row["mean"] - b) <= 0.5 * row["sd"] + MCSE_LIMIT * row["mcse"]:
                return f"beta_{j + 1} mean {row['mean']:.4f} far from least squares {b:.4f}"
        return None


WORKLOADS = {w.name: w for w in (QuadSweeps, HmcGrid, FitRegression)}


# ---------------------------------------------------------------------------
# Known-defect probes (traced runs only; not part of any workload)
# ---------------------------------------------------------------------------

def probe_lptn_scaling(tol=1e-10):
    """LPTN scaling point lambda2 = 10 at the CLI tolerance: fails today."""
    target = rp.reduced_target(N_REDUCED, mu2=0.5, lambda2=10.0,
                               family=rp.LPTN(0.95))
    try:
        rp.quadrature_moments(target, tol=tol)
    except rp.NumericalError:
        return True
    return False


def probe_fit_default_step(workdir, seed):
    """The fit workload at the CLI default step size: diverges today."""
    data = Path(workdir) / "probe_regression.csv"
    write_regression_csv(data, seed)
    with redirect_stderr(io.StringIO()):
        return quiet_cli(fit_argv(data, Path(workdir) / "probe_fit.csv", seed)) != 0
