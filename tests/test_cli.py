"""Command-line interface: subcommands, exit codes, output formats."""

import csv

import numpy as np
import pytest

from robustpriors.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_OK,
                              default_lambda2_grid, default_mu2_grid, main,
                              parse_prior_spec, parse_sigma_prior_spec)
from robustpriors.model import InverseGammaSigmaSq, PowerAdjustedSigma
from robustpriors.priors import LPTN, Student


def read_csv(path):
    with open(path) as fh:
        comments = []
        rows = []
        reader = csv.reader(fh)
        for row in reader:
            if row and row[0].startswith("# "):
                comments.append(row[0])
            else:
                rows.append(row)
    return comments, rows[0], rows[1:]


def write_dataset(path, n=60, seed=0, constant_col=False):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=n)
    x2 = np.full(n, 3.0) if constant_col else rng.normal(size=n)
    y = 1.0 + 0.8 * x1 - 0.5 * x2 + 0.6 * rng.normal(size=n)
    with open(path, "w") as fh:
        fh.write("y,x1,x2\n")
        for row in zip(y, x1, x2):
            fh.write(",".join(f"{v:.10f}" for v in row) + "\n")


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
        from robustpriors.model import JeffreysSigma
        assert isinstance(parse_sigma_prior_spec("jeffreys"), JeffreysSigma)
        sp = parse_sigma_prior_spec("invgamma:shape=2,scale=3")
        assert isinstance(sp, InverseGammaSigmaSq)
        sp = parse_sigma_prior_spec("jeffreys*sigma^1")
        assert isinstance(sp, PowerAdjustedSigma) and sp.power == 1


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
        assert isinstance(sp, InverseGammaSigmaSq)
        assert sp.shape == 2.0 and sp.scale == 3.0
        with pytest.raises(ConfigError, match="'scale3'"):
            parse_sigma_prior_spec("invgamma:shape=2,scale3")
        with pytest.raises(ConfigError, match="missing option 'scale'"):
            parse_sigma_prior_spec("invgamma:shape=2")
        with pytest.raises(ConfigError, match="unknown sigma-prior options"):
            parse_sigma_prior_spec("jeffreys:shape=2")


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

    def test_repeatable_hyper_flags(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--axis", "mu2", "--families", "student",
                     "--grid", "0.0,1.0", "--gamma", "1", "--gamma", "4",
                     "--quad-tol", "1e-8", "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        hypers = sorted({r[1] for r in rows})
        assert hypers == ["1.0", "4.0"]

    def test_unknown_family(self, tmp_path):
        code = main(["sweep", "--axis", "mu2", "--families", "gauss",
                     "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG

    def test_bad_grid(self, tmp_path):
        code = main(["sweep", "--axis", "mu2", "--families", "normal",
                     "--grid", "1.0,0.5", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG

    def test_invalid_hmc_settings(self, tmp_path):
        code = main(["sweep", "--axis", "mu2", "--families", "student",
                     "--grid", "0.0", "--method", "hmc",
                     "--hmc-samples", "0", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sweep", "--axis", "mu2", "--families", "normal,student",
                "--grid", "0.0,1.0", "--quad-tol", "1e-8"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_hmc_method(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--axis", "mu2", "--families", "student",
                     "--grid", "0.0", "--method", "hmc", "--seed", "3",
                     "--hmc-samples", "2000", "--hmc-warmup", "500",
                     "--hmc-chains", "2", "--out", str(out)])
        assert code == EXIT_OK
        _, _, rows = read_csv(out)
        assert abs(float(rows[0][4])) < 0.02  # mean near 0 at mu2 = 0


class TestCheck:
    def test_fast_report(self, tmp_path):
        out = tmp_path / "check.csv"
        code = main(["check", "--fast", "--out", str(out)])
        assert code == EXIT_OK
        comments, header, rows = read_csv(out)
        assert header == ["claim", "terminal_error", "threshold", "verdict"]
        assert {r[3] for r in rows} == {"PASS"}
        claims = {r[0] for r in rows}
        assert {"student_location_limit", "lptn_location_invariance",
                "lptn_scaling_trace_slow", "ctn_exact_attainment"} <= claims
        assert (tmp_path / "check_series.csv").exists()


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

    def test_boolean_values(self, tmp_path, capsys):
        from robustpriors.cli import _parse_args
        cfg = tmp_path / "run.cfg"
        for raw, expected in (("yes", True), ("On", True), ("1", True),
                              ("false", False), ("off", False), ("0", False)):
            cfg.write_text(f"fast = {raw}\n")
            args = _parse_args(["check", "--config", str(cfg), "--out", "o.csv"])
            assert args.fast is expected
        # An unknown word is an error, not false.
        cfg.write_text("out = o.csv\nfast = maybe\n")
        assert main(["check", "--config", str(cfg)]) == EXIT_CONFIG
        assert f"{cfg}:2: fast: expected one of" in capsys.readouterr().err

    def test_key_of_another_command(self, tmp_path):
        # "fast" belongs to check; sweep must not drop it silently.
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fast = yes\n")
        code = main(["sweep", "--config", str(cfg), "--axis", "mu2",
                     "--families", "normal", "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG
