"""Command-line interface: subcommands, exit codes, output formats."""

import argparse
import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import robustpriors
from robustpriors import cli, model
from robustpriors.asymptotics import RatioSeries
from robustpriors.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_NUMERICAL, EXIT_OK,
                              default_lambda2_grid, default_mu2_grid, main,
                              parse_prior_spec, parse_sigma_prior_spec)
from robustpriors.model import SigmaPrior
from robustpriors.priors import LPTN, Student


def read_csv(path):
    """Whole ``#`` comment lines, then the header and rows of a CSV."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    comments = [line for line in lines if line.startswith("# ")]
    rows = list(csv.reader(line for line in lines if not line.startswith("# ")))
    return comments, rows[0], rows[1:]


def write_dataset(path, n=60, seed=0, constant_col=False, duplicate_col=False):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=n)
    x2 = np.full(n, 3.0) if constant_col else rng.normal(size=n)
    y = 1.0 + 0.8 * x1 - 0.5 * x2 + 0.6 * rng.normal(size=n)
    cols = [y, x1, x2] + [x2] * duplicate_col
    with open(path, "w") as fh:
        fh.write("y,x1,x2" + ",x3" * duplicate_col + "\n")
        for row in zip(*cols):
            fh.write(",".join(f"{v:.10f}" for v in row) + "\n")


@pytest.fixture
def no_sample(monkeypatch):
    """Make `fit` fail the test if it reaches the sampler."""
    import robustpriors.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("sample was called")

    monkeypatch.setattr(cli, "sample", refuse)


class TestPriorSpecs:
    def test_families(self):
        assert parse_prior_spec("jeffreys") is None
        pr = parse_prior_spec("student:gamma=3,mu=1.5,lambda=2")
        assert isinstance(pr.family, Student) and pr.family.gamma == 3.0
        assert pr.mu == 1.5 and pr.lam == 2.0
        pr = parse_prior_spec("lptn:rho=0.9")
        assert isinstance(pr.family, LPTN) and pr.family.rho == 0.9

    def test_defaults(self):
        pr = parse_prior_spec("normal")
        assert pr.mu == 0.0 and pr.lam == 1.0

    @pytest.mark.parametrize("bad", ["cauchy", "normal:junk", "normal:mu=x",
                                     "student:gamma=-1", "lptn:rho=0.5",
                                     "normal:width=2"])
    def test_bad_specs(self, bad):
        from robustpriors.cli import ConfigError
        with pytest.raises(ConfigError):
            parse_prior_spec(bad)

    def test_sigma_specs(self):
        # Jeffreys is sigma^-1, IG(a, b) on sigma^2 is sigma^-(2a + 1) with
        # scale b, and *sigma^K adds any real K to the power.
        for spec, power, scale in (
                ("jeffreys", -1.0, 0.0),
                ("invgamma:shape=2,scale=3", -5.0, 3.0),
                ("jeffreys*sigma^1", 0.0, 0.0),
                ("jeffreys*sigma^0.5", -0.5, 0.0),
                ("invgamma:shape=2,scale=3*sigma^-2.5", -7.5, 3.0)):
            sp = parse_sigma_prior_spec(spec)
            assert isinstance(sp, SigmaPrior)
            assert (sp.power, sp.scale) == (power, scale), spec


    def test_flat_prior_takes_no_options(self, tmp_path):
        from robustpriors.cli import ConfigError
        with pytest.raises(ConfigError, match="no options"):
            parse_prior_spec("jeffreys:mu=3,lambda=2")
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        code = main(["fit", "--data", str(data_path),
                     "--prior", "jeffreys:mu=3", "--prior", "jeffreys",
                     "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "o.csv").exists()

    def test_sigma_spec_whitespace_and_bad_items(self):
        from robustpriors.cli import ConfigError
        sp = parse_sigma_prior_spec("invgamma: shape = 2 , scale=3 ")
        assert isinstance(sp, SigmaPrior)
        assert sp.power == -5.0 and sp.scale == 3.0
        with pytest.raises(ConfigError, match="'scale3'"):
            parse_sigma_prior_spec("invgamma:shape=2,scale3")
        with pytest.raises(ConfigError, match="missing option 'scale'"):
            parse_sigma_prior_spec("invgamma:shape=2")
        with pytest.raises(ConfigError, match="unknown sigma-prior options"):
            parse_sigma_prior_spec("jeffreys:shape=2")
        for bad in ("invgamma:shape=-1,scale=2", "invgamma:shape=2,scale=0"):
            with pytest.raises(ConfigError, match="positive and finite"):
                parse_sigma_prior_spec(bad)

    def test_repeated_option_is_error(self):
        from robustpriors.cli import ConfigError
        with pytest.raises(ConfigError, match="'gamma' given twice"):
            parse_prior_spec("student:gamma=3,gamma=5")
        with pytest.raises(ConfigError, match="'mu' given twice"):
            parse_prior_spec("normal:mu=1, mu =2")
        with pytest.raises(ConfigError, match="'shape' given twice"):
            parse_sigma_prior_spec("invgamma:shape=2,shape=3,scale=1")


class TestFit:
    def test_flat_prior_recovers_ols(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        out = tmp_path / "fit.csv"
        code = main(["fit", "--data", str(data_path),
                     "--prior", "jeffreys", "--prior", "jeffreys",
                     "--out", str(out), "--seed", "7",
                     "--hmc-samples", "3000", "--hmc-warmup", "500",
                     "--hmc-chains", "2"])
        assert code == EXIT_OK
        comments, header, rows = read_csv(out)
        assert header == ["param", "mean", "sd", "ess", "mcse"]
        table = {r[0]: [float(v) for v in r[1:]] for r in rows}
        assert set(table) == {"beta_1", "beta_2", "beta_3", "nu", "sigma"}

        # flat priors + normal errors center the posterior on least squares
        from robustpriors.model import load_csv, ols_fit, standardize
        data, _ = load_csv(data_path)
        data, _ = standardize(data)
        beta_hat = ols_fit(data)
        for j in (1, 2, 3):
            mean, _, _, mcse = table[f"beta_{j}"]
            assert abs(mean - beta_hat[j - 1]) < 4 * mcse

        chains_path = tmp_path / "fit_chains.csv"
        assert chains_path.exists()
        _, chead, crows = read_csv(chains_path)
        assert chead == ["chain", "iter", "beta_1", "beta_2", "beta_3", "nu"]
        assert len(crows) == 2 * 3000

    def test_conjugate_prior_matches_oracle(self, tmp_path):
        # Orthogonal standardized design with zero least-squares estimate:
        # the coefficient posterior under a located normal prior has the
        # closed conjugate form.  lambda = 10 is the study scaling
        # lambda2 * sqrt(n) with lambda2 = 1, n = 100.
        n = 100
        x = np.tile([1.0, -1.0], n // 2)
        y = np.tile([1.0, 1.0, -1.0, -1.0], n // 4)
        data_path = tmp_path / "d.csv"
        with open(data_path, "w") as fh:
            fh.write("y,x1\n")
            for row in zip(y, x):
                fh.write(f"{row[0]:.1f},{row[1]:.1f}\n")
        out = tmp_path / "fit.csv"
        code = main(["fit", "--data", str(data_path),
                     "--prior", "normal:mu=2,lambda=10",
                     "--out", str(out), "--seed", "13",
                     "--hmc-samples", "4000", "--hmc-warmup", "800",
                     "--hmc-chains", "2"])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        table = {r[0]: [float(v) for v in r[1:]] for r in rows}
        from robustpriors.oracle import conjugate_posterior
        ref = conjugate_posterior(n, 2.0, 1.0)
        mean, _, _, mcse = table["beta_2"]
        assert abs(mean - ref.beta_mean) < 3 * mcse

    def test_chosen_trajectory_length_is_recorded(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        base = ["fit", "--data", str(data_path), "--prior", "jeffreys",
                "--prior", "normal:mu=1", "--seed", "2", "--hmc-samples",
                "100", "--hmc-warmup", "40", "--hmc-chains", "2",
                "--hmc-step-size", "0.1"]
        lines = {"leapfrog": "# leapfrog steps after warmup = {} "
                             "(chosen from warmup)",
                 "warmup": "# warmup leapfrog steps after the pilot = {} "
                           "(chosen from the pilot)"}
        auto = tmp_path / "auto.csv"
        assert main(base + ["--out", str(auto)]) == EXIT_OK
        comments, _, _ = read_csv(auto)
        for start, line in lines.items():
            chosen = [c for c in comments if c.startswith(f"# {start}")]
            assert len(chosen) == 1
            steps = int(chosen[0].split("= ")[1].split(" ")[0])
            assert chosen[0] == line.format(steps) and steps >= 1
        assert read_csv(tmp_path / "auto_chains.csv")[0] == comments
        rerun = tmp_path / "rerun.csv"
        assert main(base + ["--out", str(rerun)]) == EXIT_OK
        assert rerun.read_bytes() == auto.read_bytes()

        fixed = tmp_path / "fixed.csv"
        assert main(base + ["--hmc-leapfrog-steps", "30",
                            "--out", str(fixed)]) == EXIT_OK
        fixed_comments = read_csv(fixed)[0]
        assert not any(c.startswith(("# leapfrog", "# warmup leapfrog"))
                       for c in fixed_comments)
        assert "# hmc_leapfrog_steps = 30" in fixed_comments

    def test_pilot_length_is_recorded(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        base = ["fit", "--data", str(data_path), "--prior", "jeffreys",
                "--prior", "normal:mu=1", "--seed", "2", "--hmc-samples",
                "100", "--hmc-warmup", "40", "--hmc-chains", "2",
                "--hmc-step-size", "0.1"]
        auto, rerun = tmp_path / "auto.csv", tmp_path / "rerun.csv"
        assert main(base + ["--out", str(auto)]) == EXIT_OK
        assert main(base + ["--out", str(rerun)]) == EXIT_OK
        for path in (auto, tmp_path / "auto_chains.csv"):
            pilot = [c for c in read_csv(path)[0] if c.startswith("# pilot")]
            assert len(pilot) == 1
            steps = int(pilot[0].split("= ")[1].split(" ")[0])
            assert 1 <= steps <= 30
            assert pilot[0] == (f"# pilot leapfrog steps = {steps} "
                                "(from the curvature at the mode)")
        assert rerun.read_bytes() == auto.read_bytes()
        assert ((tmp_path / "rerun_chains.csv").read_bytes()
                == (tmp_path / "auto_chains.csv").read_bytes())

        fixed = tmp_path / "fixed.csv"
        assert main(base + ["--hmc-leapfrog-steps", "30",
                            "--out", str(fixed)]) == EXIT_OK
        assert not any(c.startswith("# pilot") for c in read_csv(fixed)[0])

    def test_too_few_samples_fail_before_sampling(self, tmp_path, capsys,
                                                  monkeypatch):
        # summarize needs 100 draws per chain; a shorter run must not be
        # sampled in full before it is refused.
        import robustpriors.cli as cli

        def no_sample(*args, **kwargs):
            raise AssertionError("sample was called")

        monkeypatch.setattr(cli, "sample", no_sample)
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        out = tmp_path / "o.csv"
        code = main(["fit", "--data", str(data_path), "--prior", "jeffreys",
                     "--prior", "jeffreys", "--hmc-samples", "50",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "--hmc-samples must be at least 100" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "o_chains.csv").exists()

    @pytest.mark.parametrize("flag", ["--out", "--chains-out"])
    def test_missing_output_directory_fails_before_sampling(
            self, tmp_path, capsys, no_sample, flag):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        paths = {"--out": tmp_path / "o.csv",
                 "--chains-out": tmp_path / "c.csv"}
        paths[flag] = tmp_path / "nodir" / "x.csv"
        code = main(["fit", "--data", str(data_path), "--prior", "jeffreys",
                     "--prior", "jeffreys", "--out", str(paths["--out"]),
                     "--chains-out", str(paths["--chains-out"])])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and "nodir" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv"]

    def test_negative_seed_fails_before_sampling(self, tmp_path, capsys,
                                                 no_sample):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        out = tmp_path / "o.csv"
        code = main(["fit", "--data", str(data_path), "--prior", "jeffreys",
                     "--prior", "jeffreys", "--seed", "-1", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert ("rng_seed must be a non-negative integer, got -1"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_non_utf8_data_file_is_data_error(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        data_path.write_bytes(b"\xff\xfey\x00\n\x001\x00\n")
        code = main(["fit", "--data", str(data_path), "--prior", "jeffreys",
                     "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {data_path}: not UTF-8 text")

    def test_too_little_warmup_to_choose_length(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        code = main(["fit", "--data", str(data_path), "--prior", "jeffreys",
                     "--prior", "jeffreys", "--hmc-warmup", "10",
                     "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG
        assert "n_warmup >= 20" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:chain . acceptance rate")
    def test_conflicting_prior_on_every_covariate(self, tmp_path):
        # n = 500 with 5 orthogonal covariates: the least-squares start is
        # deep in the tail of the strong prior at 3, where every trajectory
        # at step 0.015 diverged.
        n, p = 500, 5
        rng = np.random.default_rng(4)
        basis, _ = np.linalg.qr(np.column_stack(
            [np.ones(n), rng.standard_normal((n, p + 1))]))
        X = basis[:, 1:p + 1] * np.sqrt(n)
        y = X @ np.linspace(0.6, -0.3, p) + 0.5 * np.sqrt(n) * basis[:, -1]
        data_path = tmp_path / "d.csv"
        np.savetxt(data_path, np.column_stack([X, y]), delimiter=",",
                   header="x1,x2,x3,x4,x5,y", comments="")
        argv = ["fit", "--data", str(data_path), "--hmc-step-size", "0.015",
                "--hmc-samples", "100", "--hmc-warmup", "40",
                "--hmc-chains", "2", "--out", str(tmp_path / "o.csv")]
        argv += ["--prior", "normal:mu=3,lambda=200"] * p
        assert main(argv) == EXIT_OK

    @pytest.mark.filterwarnings("ignore:warmup draws have no positive")
    def test_divergent_warmup_exits_before_sampling(self, tmp_path, capsys):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        code = main(["fit", "--data", str(data_path), "--prior", "jeffreys",
                     "--prior", "jeffreys", "--hmc-step-size", "5",
                     "--hmc-warmup", "20", "--hmc-samples", "2000",
                     "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_NUMERICAL
        assert "of warmup trajectories diverged" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:warmup draws have no positive")
    def test_divergent_state_is_reported_in_posterior_coordinates(
            self, tmp_path, capsys):
        # fit samples w with q = q_hat + A w; the state it reports is q.
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        assert main(["fit", "--data", str(data_path), "--prior", "jeffreys",
                     "--prior", "jeffreys", "--hmc-step-size", "5",
                     "--hmc-warmup", "20", "--hmc-samples", "2000",
                     "--out", str(tmp_path / "o.csv")]) == EXIT_NUMERICAL
        err = capsys.readouterr().err

        from robustpriors.model import PosteriorTarget, load_csv, standardize
        from robustpriors.sampler import DivergenceError, HmcConfig, sample
        data, _ = standardize(load_csv(data_path)[0])
        view = PosteriorTarget(data, [None, None, None]).whitened()
        with pytest.raises(DivergenceError) as raised:
            sample(view, HmcConfig(step_size=5 / view.s_min, n_warmup=20,
                                   n_samples=2000))
        it, chain, w = raised.value.last_state
        mapped = (it, chain, view.to_posterior(w))
        assert err == (f"numerical failure: {raised.value.summary}; "
                       f"last divergent state {mapped}\n")
        assert str((it, chain, w)) not in err

    def test_prior_count_mismatch(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        code = main(["fit", "--data", str(data_path), "--prior", "jeffreys",
                     "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG

    def test_constant_column_is_data_error(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path, constant_col=True)
        code = main(["fit", "--data", str(data_path),
                     "--prior", "jeffreys", "--prior", "jeffreys",
                     "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("prior, code", [("normal", EXIT_OK),
                                             ("jeffreys", EXIT_DATA)])
    def test_duplicated_covariate(self, tmp_path, capsys, prior, code):
        # x3 repeats x2: proper priors on both keep the posterior proper,
        # flat ones leave it improper.
        data_path = tmp_path / "d.csv"
        write_dataset(data_path, duplicate_col=True)
        out = tmp_path / "o.csv"
        assert main(["fit", "--data", str(data_path), "--prior", "jeffreys",
                     "--prior", prior, "--prior", prior, "--seed", "1",
                     "--hmc-samples", "200", "--hmc-warmup", "40",
                     "--hmc-chains", "2", "--out", str(out)]) == code
        if code == EXIT_DATA:
            assert "improper" in capsys.readouterr().err
            return
        # The two copies are exchangeable, so their means agree.
        table = {r[0]: [float(v) for v in r[1:]] for r in read_csv(out)[2]}
        (m3, _, _, e3), (m4, _, _, e4) = table["beta_3"], table["beta_4"]
        assert abs(m3 - m4) < 4 * (e3 + e4)

    def test_units_comment(self, tmp_path):
        # Rows stay in standardized units; both files say how to map back.
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        out = tmp_path / "fit.csv"
        assert main(["fit", "--data", str(data_path), "--prior", "jeffreys",
                     "--prior", "jeffreys", "--hmc-samples", "100",
                     "--hmc-warmup", "20", "--hmc-chains", "1",
                     "--out", str(out)]) == EXIT_OK
        from robustpriors.model import load_csv
        data, _ = load_csv(data_path)
        x2 = data.X[:, 2]
        line = ("# standardized units, each column as (value - mean) / scale: "
                f"y mean={float(data.y.mean())!r} "
                f"scale={float(data.y.std())!r}, x1 mean=")
        for path in (out, tmp_path / "fit_chains.csv"):
            units = [c for c in path.read_text().splitlines()
                     if c.startswith("# standardized units")]
            assert len(units) == 1 and units[0].startswith(line)
            assert units[0].endswith(f"x2 mean={float(x2.mean())!r} "
                                     f"scale={float(x2.std())!r}")

    def test_whitening_comment(self, tmp_path):
        # Both files record the map's scale and the step the sampler ran at;
        # a rerun writes the same bytes.
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        argv = ["fit", "--data", str(data_path), "--prior", "jeffreys",
                "--prior", "normal:mu=1", "--hmc-samples", "100",
                "--hmc-warmup", "20", "--hmc-chains", "2",
                "--hmc-step-size", "0.1"]
        out, rerun = tmp_path / "fit.csv", tmp_path / "rerun.csv"
        assert main(argv + ["--out", str(out)]) == EXIT_OK
        assert main(argv + ["--out", str(rerun)]) == EXIT_OK
        from robustpriors.model import PosteriorTarget, load_csv, standardize
        data, _ = standardize(load_csv(data_path)[0])
        target = PosteriorTarget(data, [None, None, parse_prior_spec("normal:mu=1")])
        s_min = target.whitened().s_min
        line = (f"# sampled in whitened coordinates: s_min(A) = {s_min!r}, "
                f"step = hmc_step_size / s_min(A) = {0.1 / s_min!r}")
        for path in (out, tmp_path / "fit_chains.csv"):
            assert [c for c in read_csv(path)[0]
                    if c.startswith("# sampled in")] == [line]
        assert rerun.read_bytes() == out.read_bytes()
        assert ((tmp_path / "rerun_chains.csv").read_bytes()
                == (tmp_path / "fit_chains.csv").read_bytes())

    def test_invalid_hmc_settings(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        out = tmp_path / "o.csv"
        code = main(["fit", "--data", str(data_path), "--prior", "jeffreys",
                     "--prior", "jeffreys", "--hmc-samples", "0",
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists() and not (tmp_path / "o_chains.csv").exists()

    def test_derived_chain_path_keeps_the_directory(self, tmp_path):
        # The chain dump's name comes from the file name's extension, not
        # from a dot in a directory name.
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        (tmp_path / "res.v2").mkdir()
        out = tmp_path / "res.v2" / "fit"
        assert main(["fit", "--data", str(data_path), "--prior", "jeffreys",
                     "--prior", "jeffreys", "--hmc-samples", "100",
                     "--hmc-warmup", "20", "--hmc-chains", "1",
                     "--out", str(out)]) == EXIT_OK
        assert out.exists() and (tmp_path / "res.v2" / "fit_chains").exists()

    def test_missing_data_file_is_data_error(self, tmp_path, capsys):
        code = main(["fit", "--data", str(tmp_path / "nofile.csv"),
                     "--prior", "jeffreys", "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot read data file")
        assert err.count("\n") == 1

    def test_fractional_sigma_power(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        assert main(["fit", "--data", str(data_path), "--prior", "jeffreys",
                     "--prior", "jeffreys", "--sigma-prior",
                     "jeffreys*sigma^0.5", "--hmc-samples", "100",
                     "--hmc-warmup", "20", "--hmc-chains", "1",
                     "--out", str(tmp_path / "o.csv")]) == EXIT_OK

    @pytest.mark.parametrize("spec", ["jeffreys*sigma^nan",
                                      "jeffreys*sigma^inf",
                                      "invgamma:shape=2,scale=3*sigma^-inf"])
    def test_non_finite_sigma_power(self, tmp_path, capsys, spec):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        out = tmp_path / "o.csv"
        code = main(["fit", "--data", str(data_path), "--prior", "jeffreys",
                     "--prior", "jeffreys", "--sigma-prior", spec,
                     "--out", str(out)])
        assert code == EXIT_CONFIG and not out.exists()
        assert "sigma power must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["invgamma:shape=inf,scale=1",
                                      "invgamma:shape=1,scale=inf"])
    def test_infinite_sigma_prior_parameter(self, tmp_path, capsys, spec):
        # Rejected before sampling, with no output written.
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        out = tmp_path / "o.csv"
        code = main(["fit", "--data", str(data_path), "--prior", "jeffreys",
                     "--prior", "jeffreys", "--sigma-prior", spec,
                     "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_rows_is_data_error(self, tmp_path):
        data_path = tmp_path / "d.csv"
        data_path.write_text("y,x1,x2\n1.0,2.0,3.0\n2.0,3.0,4.0\n")
        code = main(["fit", "--data", str(data_path),
                     "--prior", "jeffreys", "--prior", "jeffreys",
                     "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_DATA


class TestSweep:
    def test_default_grids(self):
        mu = default_mu2_grid()
        assert mu[0] == 0.0 and mu[-1] == 2.0 and len(mu) == 41
        assert mu[1] == 0.05
        lam = default_lambda2_grid()
        assert lam[0] == 0.02 and lam[1] == 0.06 and lam[-1] == 2.0

    def test_normal_column_is_conjugate(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--axis", "mu2", "--families", "jeffreys,normal",
                     "--grid", "0.0,0.5,1.0,2.0", "--out", str(out)])
        assert code == EXIT_OK
        comments, header, rows = read_csv(out)
        assert header == ["family", "hyper", "mu2", "lambda2", "mean", "sd"]
        assert any("grid = " in c for c in comments)
        normal = {float(r[2]): float(r[4]) for r in rows if r[0] == "normal"}
        for mu2, mean in normal.items():
            assert mean == pytest.approx(mu2 / 2, abs=1e-12)
        jeff = [float(r[5]) for r in rows if r[0] == "jeffreys"]
        assert all(s == pytest.approx(np.sqrt(1 / 97), rel=1e-12) for s in jeff)

    def test_quadrature_families(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--axis", "lambda2", "--families",
                     "ctn,ctn_corrected", "--grid", "0.5,2.0",
                     "--quad-tol", "1e-8", "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        ctn = {float(r[3]): float(r[4]) for r in rows if r[0] == "ctn"}
        cor = {float(r[3]): float(r[4]) for r in rows if r[0] == "ctn_corrected"}
        for lam2 in (0.5, 2.0):
            assert abs(ctn[lam2] - cor[lam2]) < 0.01

    def test_repeated_in_one_process(self, tmp_path):
        # The same sweep twice in one process, the first from a cold design
        # cache, writes the same bytes.
        model._reduced_data.cache_clear()
        outs = [tmp_path / f"sweep_{i}.csv" for i in (1, 2)]
        for out in outs:
            assert main(["sweep", "--axis", "lambda2", "--grid",
                         "0.1,0.5,1.0,2.0", "--out", str(out)]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_repeatable_hyper_flags(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--axis", "mu2", "--families", "student",
                     "--grid", "0.0,1.0", "--gamma", "1", "--gamma", "4",
                     "--quad-tol", "1e-8", "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        hypers = sorted({r[1] for r in rows})
        assert hypers == ["1.0", "4.0"]

    @pytest.mark.parametrize("flag, families", [
        ("gamma", "jeffreys,normal"), ("rho", "ctn,ctn_corrected"),
        ("varrho", "student,lptn")])
    def test_shape_flag_for_unswept_family(self, tmp_path, capsys, flag,
                                           families):
        out = tmp_path / "x.csv"
        code = main(["sweep", "--axis", "mu2", "--families", families,
                     f"--{flag}", "3", "--grid", "0.5", "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"--{flag}" in err and families.replace(",", ", ") in err
        assert not out.exists()

    @pytest.mark.parametrize("axis, source", [("mu2", "flag"),
                                              ("lambda2", "config")])
    def test_value_for_swept_axis(self, tmp_path, capsys, axis, source):
        out = tmp_path / "x.csv"
        argv = ["sweep", "--axis", axis, "--families", "normal", "--grid",
                "0.5", "--out", str(out)]
        if source == "flag":
            argv += [f"--{axis}", "3"]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{axis} = 3\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_CONFIG
        assert f"--{axis}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("axis, default", [("mu2", "0.5"),
                                               ("lambda2", "1.0")])
    def test_default_value_for_swept_axis(self, tmp_path, capsys, axis,
                                          default, source):
        # Given at the value the swept axis fixes by default, the flag is
        # still ignored, so still an error.
        out = tmp_path / "x.csv"
        argv = ["sweep", "--axis", axis, "--families", "normal", "--grid",
                "0.5", "--out", str(out)]
        if source == "flag":
            argv += [f"--{axis}", default]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{axis} = {default}\n")
            argv += ["--config", str(cfg)]
        assert main(argv) == EXIT_CONFIG
        assert f"--{axis} fixes {axis}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["mu2", "lambda2"])
    def test_fixed_axes_recorded_without_flags(self, tmp_path, axis):
        out = tmp_path / "x.csv"
        assert main(["sweep", "--axis", axis, "--families", "normal",
                     "--grid", "0.5", "--out", str(out)]) == EXIT_OK
        comments = read_csv(out)[0]
        assert "# mu2 = 0.5" in comments and "# lambda2 = 1.0" in comments

    def test_unknown_family(self, tmp_path):
        code = main(["sweep", "--axis", "mu2", "--families", "gauss",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG

    def test_bad_grid(self, tmp_path):
        code = main(["sweep", "--axis", "mu2", "--families", "normal",
                     "--grid", "1.0,0.5", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("axis, grid, message", [
        ("mu2", "", "--grid must be a comma list of numbers, got ''"),
        ("mu2", "0.5,abc", "--grid must be a comma list of numbers"),
        *[(axis, f"0.5,{value}", "--grid values must be finite")
          for axis in ("mu2", "lambda2") for value in ("nan", "inf", "-inf")],
        *[("lambda2", grid, "--grid values on the lambda2 axis must be positive")
          for grid in ("-1", "0", "0,0.5")]])
    def test_invalid_grid(self, tmp_path, capsys, axis, grid, message):
        # The flat prior reads neither axis, so only the check stops its rows.
        out = tmp_path / "x.csv"
        assert main(["sweep", "--axis", axis, "--families", "jeffreys,normal",
                     f"--grid={grid}", "--out", str(out)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_empty_grid_in_config_file(self, tmp_path, capsys):
        # An empty grid is an error, not the default grid.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid =\n")
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", str(cfg), "--axis", "mu2",
                     "--families", "normal", "--out", str(out)]) == EXIT_CONFIG
        assert "--grid must be a comma list of numbers, got ''" in (
            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("mu2", "nan"), ("mu2", "-inf"), ("lambda2", "inf"), ("lambda2", "nan"),
        ("lambda2", "0"), ("lambda2", "-1")])
    def test_bad_fixed_axis_value(self, tmp_path, capsys, flag, value):
        # The flag fixes the axis that is not swept.
        axis = "lambda2" if flag == "mu2" else "mu2"
        out = tmp_path / "x.csv"
        assert main(["sweep", "--axis", axis, "--families", "jeffreys",
                     "--grid", "0.5", f"--{flag}={value}",
                     "--out", str(out)]) == EXIT_CONFIG
        assert f"--{flag} must be" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("families", ["student", "normal", "jeffreys"])
    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_quad_tol(self, tmp_path, capsys, families, tol):
        # An error whether or not a swept family reads the tolerance.
        out = tmp_path / "x.csv"
        assert main(["sweep", "--axis", "mu2", "--families", families,
                     "--grid", "0.5", f"--quad-tol={tol}",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "--quad-tol must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", [None, "0.0,0.5"])
    def test_one_grid_line(self, tmp_path, grid):
        # The resolved grid is recorded once, in place of the raw option.
        out = tmp_path / "x.csv"
        argv = ["sweep", "--axis", "mu2", "--families", "normal",
                "--out", str(out)]
        assert main(argv + ([] if grid is None else ["--grid", grid])) == EXIT_OK
        expected = ",".join(map(repr, default_mu2_grid())) if grid is None else grid
        grids = [c for c in read_csv(out)[0] if c.startswith("# grid")]
        assert grids == [f"# grid = {expected}"]

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--axis", "mu2", "--families", "normal,student",
                "--grid", "0.0,1.0", "--quad-tol", "1e-8"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


class TestCheck:
    def test_report(self, tmp_path):
        out = tmp_path / "check.csv"
        code = main(["check", "--out", str(out)])
        assert code == EXIT_OK
        comments, header, rows = read_csv(out)
        assert header == ["claim", "terminal_error", "threshold", "verdict"]
        assert {r[3] for r in rows} == {"PASS"}
        claims = {r[0] for r in rows}
        assert {"student_location_limit", "lptn_location_invariance",
                "lptn_scaling_trace_slow", "ctn_exact_attainment"} <= claims
        assert (tmp_path / "check_series.csv").exists()

    def test_derived_series_path_keeps_the_directory(self, tmp_path):
        (tmp_path / "res.v2").mkdir()
        out = tmp_path / "res.v2" / "report"
        assert main(["check", "--out", str(out)]) == EXIT_OK
        assert out.exists() and (tmp_path / "res.v2" / "report_series").exists()

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "x.csv"
        assert main(["check", "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output:")
        assert err.count("\n") == 1 and "nodir" in err

    def test_full_report(self, tmp_path):
        out = tmp_path / "check.csv"
        assert main(["check", "--out", str(out)]) == EXIT_OK
        _, _, rows = read_csv(out)
        assert [r[0] for r in rows] == [
            "student_location_limit", "lptn_location_invariance",
            "lptn_scaling_trace_slow", "ctn_exact_attainment",
            "ctn_marginal_ratio_limit", "lptn_marginal_ratio_monotone",
            "lptn_location_posterior_limit",
            "student_location_posterior_limit", "ctn_scaling_posterior_limit"]
        assert {r[3] for r in rows} == {"PASS"}
        # Terminal errors and thresholds of the first six claims; the
        # Student error is that of its ratio over the sigma^gamma trace.
        recorded = [(1.1000003641292722e-07, 0.01),
                    (1.221672363271864e-08, 0.05),
                    (0.10931316326032792, 0.12), (0.0, 0.0),
                    (1.8285419622898758e-08, 0.02),
                    (0.5963438358618669, 1.0)]
        for row, (err, threshold) in zip(rows, recorded):
            assert float(row[1]) == pytest.approx(err, rel=1e-9)
            assert float(row[2]) == threshold
        # One series table: each claim's rows in report order, one label
        # line per claim.  Each series tends to 1, so its rows carry no
        # target column and abs_err is |ratio - 1| to the bit.
        claims = [r[0] for r in rows]
        comments, header, series = read_csv(tmp_path / "check_series.csv")
        assert header == ["claim", "omega", "ratio", "abs_err"]
        labels = [c.partition(": ")[0] for c in comments
                  if c.partition(": ")[0][2:] in claims]
        assert labels == [f"# {c}" for c in claims]
        assert {r[0] for r in series} == set(claims)
        assert [r[0] for r in series] == sorted((r[0] for r in series),
                                                key=claims.index)
        for _, _, ratio, err in series:
            assert float(err) == abs(float(ratio) - 1.0)

    def test_marginal_monotone_claim_reads_its_threshold(self, monkeypatch):
        # |ratio - 1| falls 3, 2, 1.5: monotone, but above the threshold 1.
        monkeypatch.setattr(cli, "marginal_ratio_convergence",
                            lambda *args, **kwargs: RatioSeries(
                                [10.0, 100.0, 1000.0], [4.0, 3.0, 2.5],
                                family="lptn"))
        args = argparse.Namespace(quad_tol=1e-10)
        row = next(row for row in cli._check_claims(args)
                   if row[0] == "lptn_marginal_ratio_monotone")
        assert row[1:4] == (1.5, 1.0, False)

    @pytest.mark.parametrize("tol", ["-1e-10", "nan"])
    def test_bad_quad_tol(self, tmp_path, capsys, tol):
        out = tmp_path / "check.csv"
        assert main(["check", f"--quad-tol={tol}",
                     "--out", str(out)]) == EXIT_CONFIG
        assert "--quad-tol must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


class TestOptionGroups:
    # Each command takes only the options it reads.
    @pytest.mark.parametrize("argv", [["check", "--hmc-samples", "5"],
                                      ["check", "--seed", "1"],
                                      ["fit", "--data", "d.csv", "--prior",
                                       "jeffreys", "--quad-tol", "1e-3"],
                                      ["sweep", "--axis", "mu2", "--method",
                                       "hmc"],
                                      ["sweep", "--axis", "mu2", "--seed", "1"],
                                      ["sweep", "--axis", "mu2",
                                       "--hmc-samples", "5"]])
    def test_option_a_command_does_not_read(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "o.csv")])
        assert exc.value.code == EXIT_CONFIG
        assert not (tmp_path / "o.csv").exists()

    def test_config_key_a_command_does_not_read(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hmc_samples = 5\n")
        assert main(["check", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{cfg}:1: hmc_samples: unknown config key for check" in err
        cfg.write_text("axis = mu2\nmethod = hmc\n")
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{cfg}:2: method: unknown config key for sweep" in err
        assert not (tmp_path / "o.csv").exists()


class TestConfigFile:
    def test_file_values_and_flag_precedence(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("families = normal\ngrid = 0.0,1.0\naxis = mu2\n")
        out = tmp_path / "o.csv"
        code = main(["sweep", "--config", str(cfg), "--grid", "0.0,2.0",
                     "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        assert [r[2] for r in rows] == ["0.0", "2.0"]  # flag wins over file

    def test_equals_form_is_applied(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("families = normal\ngrid = 0.0,1.0\naxis = mu2\n")
        rows = []
        for i, flag in enumerate(([f"--config={cfg}"], ["--config", str(cfg)],
                                  ["--conf", str(cfg)])):
            out = tmp_path / f"o{i}.csv"
            assert main(["sweep", *flag, "--out", str(out)]) == EXIT_OK
            rows.append(read_csv(out)[2])
        assert rows[0] == rows[1] == rows[2]
        assert [r[2] for r in rows[0]] == ["0.0", "1.0"]

    def test_repeatable_flag_replaces_file_value(self, tmp_path):
        cfg = tmp_path / "s.cfg"
        cfg.write_text("families = student\ngrid = 0.0\naxis = mu2\ngamma = 3\n")
        hypers = []
        for i, flags in enumerate(([], ["--gamma", "5"])):
            out = tmp_path / f"o{i}.csv"
            assert main(["sweep", "--config", str(cfg), *flags,
                         "--out", str(out)]) == EXIT_OK
            hypers.append([r[1] for r in read_csv(out)[2]])
        assert hypers == [["3.0"], ["5.0"]]

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("no_such_option = 1\n")
        code = main(["sweep", "--config", str(cfg), "--axis", "mu2",
                     "--families", "normal", "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG

    def test_bad_value_names_file_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("families = normal\n# the swept axis\naxis = foo\n")
        code = main(["sweep", "--config", str(cfg), "--out",
                     str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG
        assert f"{cfg}:3: axis: invalid choice: 'foo'" in capsys.readouterr().err

    def test_non_utf8_file_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes("# café\nfamilies = normal\n".encode("latin-1"))
        out = tmp_path / "o.csv"
        assert main(["sweep", "--config", str(cfg), "--axis", "mu2",
                     "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}: not UTF-8 text")
        assert not out.exists()

    def test_parsers_are_built_once(self, tmp_path, monkeypatch):
        import robustpriors.cli as cli
        build, calls = cli._build_parsers, []
        monkeypatch.setattr(cli, "_build_parsers",
                            lambda: calls.append(1) or build())
        cfg = tmp_path / "run.cfg"
        cfg.write_text("families = normal\ngrid = 0.0,1.0\naxis = mu2\n")
        assert main(["sweep", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_OK
        assert len(calls) == 1

    def test_bad_value_leaves_the_subparser_exiting(self, tmp_path):
        # The file's values are parsed without exiting; afterwards the
        # command's own parser exits on a bad value again.
        from robustpriors.cli import (ConfigError, _build_parsers,
                                      _config_defaults)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("axis = foo\n")
        parser, commands = _build_parsers()
        first, _ = parser.parse_known_args(["sweep", "--config", str(cfg)])
        with pytest.raises(ConfigError, match="invalid choice"):
            _config_defaults(commands["sweep"], first, str(cfg))
        assert commands["sweep"].exit_on_error

    def test_key_of_another_command(self, tmp_path):
        # "quad_tol" belongs to sweep and check; fit must not drop it
        # silently.  The key is refused before the data file is read.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("quad_tol = 1e-8\n")
        code = main(["fit", "--config", str(cfg), "--data", "missing.csv",
                     "--prior", "jeffreys", "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG


class TestOutputFiles:
    """Every file that `fit`, `sweep` and `check` write: "\n" line ends, a
    block of whole ``# `` comment lines, then the header and rows."""

    HEADERS = {"fit.csv": "param,mean,sd,ess,mcse",
               "fit_chains.csv": "chain,iter,beta_1,beta_2,beta_3,nu",
               "sweep.csv": "family,hyper,mu2,lambda2,mean,sd",
               "check.csv": "claim,terminal_error,threshold,verdict",
               "check_series.csv": "claim,omega,ratio,abs_err"}

    def test_line_ends_comments_and_table(self, tmp_path):
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        for argv in (["fit", "--data", str(data_path), "--prior", "normal",
                      "--prior", "jeffreys", "--hmc-samples", "100",
                      "--hmc-warmup", "20", "--hmc-chains", "2",
                      "--out", str(tmp_path / "fit.csv")],
                     ["sweep", "--axis", "mu2", "--families",
                      "jeffreys,student", "--grid", "0.0,1.0",
                      "--out", str(tmp_path / "sweep.csv")],
                     ["check", "--out", str(tmp_path / "check.csv")]):
            assert main(argv) == EXIT_OK
        for name, header in self.HEADERS.items():
            text = (tmp_path / name).read_bytes().decode("utf-8")
            assert "\r" not in text
            lines = text.split("\n")
            assert lines.pop() == ""            # every line ends in "\n"
            k = lines.index(header)
            assert k > 0 and all(line.startswith("# ") for line in lines[:k])
            table = list(csv.reader(lines[k:]))
            assert len(table) > 1
            assert all(len(row) == len(table[0]) for row in table)

    def test_line_break_in_a_comment_is_escaped(self, tmp_path):
        # A quoted header name may hold a line break, and a spec that still
        # parses after stripping may end in one; each comment stays on one
        # line, so a reader that skips "#" lines finds the header.
        data_path = tmp_path / "d.csv"
        write_dataset(data_path)
        rows = data_path.read_text().split("\n", 1)[1]
        data_path.write_text('y,"dose\r\n(mg)",x2\n' + rows, newline="")
        out = tmp_path / "fit.csv"
        assert main(["fit", "--data", str(data_path), "--prior", "jeffreys",
                     "--prior", "jeffreys", "--sigma-prior", "jeffreys\n",
                     "--hmc-samples", "100", "--hmc-warmup", "20",
                     "--hmc-chains", "1", "--out", str(out)]) == EXIT_OK
        sweep = tmp_path / "sweep.csv"
        assert main(["sweep", "--axis", "mu2", "--families", "normal\n",
                     "--grid", "0.0", "--out", str(sweep)]) == EXIT_OK
        for path, line in (
                (out, "# columns: intercept=beta_1, dose\\r\\n(mg)=beta_2, "
                      "x2=beta_3"),
                (out, "# sigma_prior = jeffreys\\n"),
                (tmp_path / "fit_chains.csv", "# sigma_prior = jeffreys\\n"),
                (sweep, "# families = normal\\n")):
            lines = path.read_text().split("\n")
            assert line in lines and "" not in lines[:-1]
        with open(out) as fh:
            reader = csv.DictReader(line for line in fh
                                    if not line.startswith("#"))
            assert reader.fieldnames == ["param", "mean", "sd", "ess", "mcse"]
            assert [r["param"] for r in reader][:2] == ["beta_1", "beta_2"]


class TestAsciiLocale:
    """The CLI in a subprocess under the C locale with UTF-8 mode off, so
    the locale's encoding is ASCII and non-ASCII command-line arguments
    arrive as surrogate escapes."""

    @staticmethod
    def run_cli(argv, cwd):
        src = os.path.dirname(os.path.dirname(robustpriors.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
                   PYTHONUTF8="0", PYTHONPATH=path)
        return subprocess.run([sys.executable, "-m", "robustpriors.cli", *argv],
                              cwd=cwd, env=env, capture_output=True, timeout=120)

    def test_fit_writes_a_non_ascii_path_as_utf8(self, tmp_path):
        name = "donnée.csv".encode("utf-8")
        write_dataset(tmp_path / os.fsdecode(name))
        proc = self.run_cli(["fit", "--data", os.fsdecode(name),
                             "--prior", "normal", "--prior", "jeffreys",
                             "--hmc-samples", "100", "--hmc-warmup", "20",
                             "--out", "fit.csv"], tmp_path)
        assert proc.returncode == EXIT_OK, proc.stderr
        for out in ("fit.csv", "fit_chains.csv"):
            lines = (tmp_path / out).read_bytes().split(b"\n")
            assert b"# data = " + name in lines

    def test_config_file_is_read_as_utf8(self, tmp_path):
        (tmp_path / "run.cfg").write_bytes(
            "# café\nfamilies = normal\ngrid = 0.5\n".encode("utf-8"))
        proc = self.run_cli(["sweep", "--config", "run.cfg", "--axis", "mu2",
                             "--out", "x.csv"], tmp_path)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert len(read_csv(tmp_path / "x.csv")[2]) == 1

    @pytest.mark.parametrize("argv, code, message", [
        (["sweep", "--config", "nöpe.cfg", "--axis", "mu2",
          "--out", "x.csv"], EXIT_CONFIG, b"error: cannot read config file"),
        (["fit", "--data", "dönnée.csv", "--prior", "jeffreys",
          "--out", "o.csv"], EXIT_DATA, b"data error: cannot read data file"),
        (["check", "--out", "nödir/x.csv"], EXIT_CONFIG,
         b"error: cannot write output")],
        ids=["config", "data", "output"])
    def test_os_error_names_the_file_by_its_bytes(self, tmp_path, argv, code,
                                                  message):
        # The missing name arrives as surrogate escapes; stderr quotes it as
        # its own UTF-8 bytes, not as backslash escapes.
        name = next(a for a in argv if not a.isascii()).encode("utf-8")
        proc = self.run_cli([os.fsdecode(a.encode("utf-8")) for a in argv],
                            tmp_path)
        assert proc.returncode == code
        assert proc.stderr == (message + b": [Errno 2] No such file or "
                               b"directory: '" + name + b"'\n")
