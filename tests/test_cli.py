"""Command line interface: outputs, formats, error codes."""

import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

import betabart.cli as cli
from betabart import __version__, food_data_path
from betabart.cli import main
import betabart.inference as inference
from betabart.cumulants import NonFiniteCumulantError
from betabart.fit import NonConvergenceError, Restriction, fit_mle
from betabart.inference import BootstrapOptions, NestingError, run_test
from betabart.model import Dataset, logit_link
from conftest import food_dataset


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_test_example():
    """The README `betabart test` command (as argv) and the block it prints."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("```sh\nbetabart test") + len("```sh\n")
    end = readme.index("```", start)
    argv = shlex.split(readme[start:end].replace("\\\n", " "))[1:]
    block_start = readme.index("```\n", end + 3) + len("```\n")
    return argv, readme[block_start : readme.index("```", block_start)]


def test_readme_test_block(capsys):
    argv, block = readme_test_example()
    assert "boot" in argv[argv.index("--methods") + 1]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out == block


class TestFitCommand:
    def test_text_output(self, capsys):
        code, out, err = run_cli(capsys, "fit")
        assert code == 0 and err == ""
        assert "logit link, n = 38" in out
        assert "-0.622548" in out
        assert "35.6098" in out
        assert "(intercept)" in out and "phi" in out

    def test_json_matches_library(self, capsys, food_reduced, link):
        code, out, _ = run_cli(capsys, "fit", "--format", "json")
        assert code == 0
        document = json.loads(out)
        result = fit_mle(food_reduced, link)
        estimates = document["estimates"]
        assert list(estimates) == ["(intercept)", "income", "persons", "phi"]
        assert estimates["income"]["value"] == result.theta_hat.beta[1]
        assert estimates["phi"]["value"] == result.theta_hat.phi
        assert estimates["phi"]["std_error"] == result.std_errors[3]
        assert document["loglik"] == result.loglik
        assert document["model"] == {
            "link": "logit",
            "response": "y",
            "terms": ["(intercept)", "income", "persons"],
            "n": 38,
        }
        assert document["meta"]["version"] == __version__
        assert document["meta"]["iterations"] == result.iterations

    def test_csv_output(self, capsys, food_reduced, link):
        code, out, _ = run_cli(capsys, "fit", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "term,estimate,std_error"
        assert len(lines) == 5
        result = fit_mle(food_reduced, link)
        income_row = lines[2].split(",")
        assert income_row[0] == "income"
        assert float(income_row[1]) == result.theta_hat.beta[1]
        assert float(income_row[2]) == result.std_errors[1]

    def test_derived_terms(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "fit",
            "--covariates",
            "income,persons,income*persons,income^2",
            "--format",
            "json",
        )
        assert code == 0
        document = json.loads(out)
        assert document["model"]["terms"] == [
            "(intercept)",
            "income",
            "persons",
            "income*persons",
            "income^2",
        ]
        y, income, persons = (
            np.asarray(col)
            for col in np.genfromtxt(
                food_data_path(), delimiter=",", names=True, unpack=True
            )
        )
        X = np.column_stack(
            [np.ones(38), income, persons, income * persons, income**2]
        )
        result = fit_mle(Dataset(y, X), logit_link())
        got = document["estimates"]["income*persons"]["value"]
        assert got == result.theta_hat.beta[3]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "fit.json"
        code, out, _ = run_cli(capsys, "fit", "--format", "json", "--out", str(target))
        assert code == 0 and out == ""
        document = json.loads(target.read_text())
        assert document["command"] == "fit"

    def test_explicit_response_flag(self, capsys, tmp_path):
        # response named explicitly, remaining columns become covariates
        path = tmp_path / "shuffled.csv"
        rows = np.genfromtxt(food_data_path(), delimiter=",", names=True)
        with open(path, "w") as handle:
            handle.write("income,y,persons\n")
            for row in rows:
                handle.write(
                    f"{float(row['income'])!r},{float(row['y'])!r},"
                    f"{float(row['persons'])!r}\n"
                )
        code, out, _ = run_cli(
            capsys, "fit", "--data", str(path), "--response", "y", "--format", "json"
        )
        assert code == 0
        document = json.loads(out)
        assert document["model"]["response"] == "y"
        assert document["model"]["terms"] == ["(intercept)", "income", "persons"]


class TestTestCommand:
    def test_json_matches_library(self, capsys, food_full, link):
        code, out, _ = run_cli(
            capsys,
            "test",
            "--covariates",
            "income,persons,income*persons,income^2,persons^2",
            "--null",
            "income*persons,income^2,persons^2",
            "--methods",
            "lr,b3,boot",
            "--seed",
            "42",
            "--format",
            "json",
        )
        assert code == 0
        document = json.loads(out)
        report = run_test(
            food_full,
            link,
            Restriction((4, 5, 6), (0.0, 0.0, 0.0)),
            methods=("lr", "b3", "boot"),
            boot_opts=BootstrapOptions(B=500, seed=42),
        )
        tests = document["tests"]
        assert set(tests) == {"lr", "b3", "boot"}
        assert tests["lr"]["statistic"] == report.lr
        assert tests["b3"]["statistic"] == report.lr_b3
        assert tests["boot"]["statistic"] == report.lr_boot
        assert tests["lr"]["df"] == 3
        assert tests["lr"]["p_value"] == report.p_values["lr"]
        assert document["meta"]["seed"] == 42 and document["meta"]["B"] == 500

    def test_positional_alias_matches_name(self, capsys):
        args = [
            "test",
            "--covariates",
            "income,persons,income*persons",
            "--methods",
            "lr,b3",
            "--format",
            "json",
        ]
        code_name, out_name, _ = run_cli(capsys, *args, "--null", "income*persons")
        code_alias, out_alias, _ = run_cli(capsys, *args, "--null", "x4")
        assert code_name == 0 and code_alias == 0
        assert json.loads(out_name)["tests"] == json.loads(out_alias)["tests"]

    def test_nonzero_null_value(self, capsys):
        code, out, _ = run_cli(
            capsys, "test", "--null", "persons=0.1", "--methods", "lr", "--format", "json"
        )
        assert code == 0
        document = json.loads(out)
        assert document["tests"]["lr"]["df"] == 1

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "test", "--null", "persons", "--methods", "lr,b3")
        assert code == 0
        assert "H0: persons" in out and "[df = 1]" in out
        assert "lr" in out and "b3" in out

    def test_full_model_is_fitted_once(self, capsys, monkeypatch, food_reduced, link):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fit_mle(*args, **kwargs)

        monkeypatch.setattr(cli, "fit_mle", counted)
        monkeypatch.setattr(inference, "fit_mle", counted)
        code, out, _ = run_cli(
            capsys, "test", "--null", "persons", "--methods", "lr", "--format", "json"
        )
        assert code == 0 and len(calls) == 1
        document = json.loads(out)
        result = fit_mle(food_reduced, link)
        assert document["estimates"]["income"]["value"] == result.theta_hat.beta[1]
        assert document["estimates"]["phi"]["std_error"] == result.std_errors[3]
        assert document["meta"]["iterations"] == result.iterations

    def test_no_boot_meta_is_null(self, capsys):
        code, out, _ = run_cli(
            capsys, "test", "--null", "persons", "--methods", "lr", "--format", "json"
        )
        assert code == 0
        document = json.loads(out)
        assert document["meta"]["seed"] is None and document["meta"]["B"] is None


class TestConfigErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ("test", "--null", "nosuchterm"),
            ("test", "--null", "x9"),
            ("test", "--null", "persons=abc"),
            ("test", "--null", "persons,persons"),
            ("test", "--null", "persons", "--methods", "lr,wald"),
            ("test", "--null", "persons", "--boot-B", "0"),
            ("fit", "--link", "probit"),
            ("fit", "--covariates", "income,income"),
            ("fit", "--covariates", "income^3"),
            ("fit", "--covariates", "a*b*c"),
            ("fit", "--response", "nosuchcolumn"),
        ],
    )
    def test_exit_code_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")

    def test_missing_null_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["test"])
        assert info.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert __version__ in capsys.readouterr().out


class TestDataErrors:
    def write(self, tmp_path, content):
        path = tmp_path / "bad.csv"
        path.write_text(content)
        return str(path)

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "fit", "--data", "/nonexistent/file.csv")
        assert code == 3 and "error:" in err

    def test_boundary_response_with_line_number(self, capsys, tmp_path):
        path = self.write(
            tmp_path, "y,income\n0.5,1.0\n1.0,2.0\n0.4,3.0\n0.6,4.0\n"
        )
        code, _, err = run_cli(capsys, "fit", "--data", path)
        assert code == 3
        assert "line 3" in err and "(0, 1)" in err

    @pytest.mark.parametrize(
        "content",
        [
            "y,income\n",  # no data rows
            "",  # empty file
            "y,income\n0.5\n0.4,2.0\n",  # ragged row
            "y,income\n0.5,abc\n0.4,2.0\n",  # non-numeric field
            "y,y\n0.5,1.0\n0.4,2.0\n",  # duplicate header
            "y,\n0.5,1.0\n0.4,2.0\n",  # empty column name
        ],
    )
    def test_malformed_csv(self, capsys, tmp_path, content):
        code, _, err = run_cli(capsys, "fit", "--data", self.write(tmp_path, content))
        assert code == 3
        assert err.startswith("error:")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_covariate_with_line_number(self, capsys, tmp_path, cell):
        path = self.write(
            tmp_path, f"y,income\n0.5,1.0\n0.4,{cell}\n0.3,2.0\n0.6,1.5\n0.45,0.7\n"
        )
        code, _, err = run_cli(capsys, "fit", "--data", path)
        assert code == 3
        assert "line 3" in err and "not finite" in err

    @pytest.mark.parametrize(
        "covariates", ["income,income^2", "income,persons,income*persons"]
    )
    def test_overflowing_derived_term(self, capsys, tmp_path, covariates):
        path = self.write(
            tmp_path,
            "y,income,persons\n0.5,1.0,2\n0.4,1e200,1e150\n0.3,2.0,3\n"
            "0.6,1.5,4\n0.45,0.7,2\n0.55,1.2,5\n",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run_cli(
                capsys, "fit", "--data", path, "--covariates", covariates
            )
        assert code == 3
        assert "line 3" in err and "not finite" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_rank_deficient_design(self, capsys, tmp_path):
        rows = ["y,a,b"]
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.uniform(0.0, 1.0)
            rows.append(f"{rng.uniform(0.2, 0.8)},{a},{2 * a}")
        path = self.write(tmp_path, "\n".join(rows) + "\n")
        code, _, err = run_cli(capsys, "fit", "--data", path)
        assert code == 3
        assert "rank" in err

    def test_unwritable_out_path(self, capsys, tmp_path):
        target = str(tmp_path / "no_such_dir" / "report.txt")
        code, _, err = run_cli(capsys, "fit", "--out", target)
        assert code == 3
        assert err.startswith("error:") and target in err

    def test_simulate_out_collides_with_file(self, capsys, tmp_path):
        config = tmp_path / "study.json"
        config.write_text(
            json.dumps(
                {
                    "n": 20,
                    "p": 3,
                    "phi_true": 40.0,
                    "beta_true": [0.8, 0.0, 1.0],
                    "restriction": {"indices": [2]},
                    "reps": 2,
                    "boot_B": 1,
                    "methods": ["lr"],
                    "alpha_levels": [0.10],
                    "base_seed": 4,
                    "covariate_seed": 4,
                }
            )
        )
        blocker = tmp_path / "results"
        blocker.write_text("in the way")
        code, _, err = run_cli(
            capsys, "simulate", str(config), "--out", str(blocker)
        )
        assert code == 3
        assert err.startswith("error:") and "results" in err


class TestNumericalErrors:
    def test_non_convergence_exit_code(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise NonConvergenceError([], "synthetic failure")

        monkeypatch.setattr(cli, "fit_mle", explode)
        code, _, err = run_cli(capsys, "fit")
        assert code == 4 and "synthetic failure" in err

    def test_non_finite_cumulant_exit_code(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise NonFiniteCumulantError("cumulant tensor A is not finite")

        monkeypatch.setattr(cli, "run_test", explode)
        code, _, err = run_cli(capsys, "test", "--null", "persons", "--methods", "b3")
        assert code == 4 and "not finite" in err

    def test_nesting_error_exit_code(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise NestingError("synthetic nesting problem")

        monkeypatch.setattr(cli, "run_test", explode)
        code, _, err = run_cli(capsys, "test", "--null", "persons", "--methods", "lr")
        assert code == 4 and "nesting" in err


class TestSimulateCommand:
    def config_document(self, **overrides):
        document = {
            "n": 20,
            "p": 3,
            "phi_true": 40.0,
            "beta_true": [0.8, 0.0, 1.0],
            "restriction": {"indices": [2]},
            "reps": 8,
            "methods": ["lr", "b3"],
            "alpha_levels": [0.10],
            "base_seed": 4,
            "covariate_seed": 4,
        }
        document.update(overrides)
        return document

    def write_config(self, tmp_path, document):
        path = tmp_path / "study.json"
        path.write_text(json.dumps(document))
        return str(path)

    def test_smoke(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BETABART_THREADS", "1")
        path = self.write_config(tmp_path, self.config_document())
        out_dir = tmp_path / "results"
        code, out, err = run_cli(capsys, "simulate", path, "--out", str(out_dir))
        assert code == 0 and err == ""
        assert "replications: 8 (failures: 0)" in out
        rates = (out_dir / "rates.csv").read_text().splitlines()
        assert rates[0] == "statistic,alpha,rate"
        assert len(rates) == 3
        archive = (out_dir / "archive.csv").read_text().splitlines()
        assert archive[0] == "rep,lr,b3"
        assert len(archive) == 9

    def test_rerun_is_byte_identical(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BETABART_THREADS", "1")
        path = self.write_config(tmp_path, self.config_document())
        first = tmp_path / "one"
        second = tmp_path / "two"
        assert run_cli(capsys, "simulate", path, "--out", str(first))[0] == 0
        assert run_cli(capsys, "simulate", path, "--out", str(second))[0] == 0
        assert (first / "rates.csv").read_bytes() == (second / "rates.csv").read_bytes()
        assert (
            first / "archive.csv"
        ).read_bytes() == (second / "archive.csv").read_bytes()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.update(extra_field=1),
            lambda d: d.pop("n"),
            lambda d: d.update(restriction=[2]),
            lambda d: d.update(restriction={"indices": [2], "other": 1}),
            lambda d: d.update(reps=0),
            lambda d: d.update(methods=["wald"]),
        ],
    )
    def test_bad_config_exit_code_2(self, capsys, tmp_path, mutate):
        document = self.config_document()
        mutate(document)
        path = self.write_config(tmp_path, document)
        code, _, err = run_cli(capsys, "simulate", path)
        assert code == 2 and err.startswith("error:")

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "study.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "simulate", str(path))
        assert code == 2 and "invalid JSON" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "/nonexistent/study.json")
        assert code == 2
