"""Command line interface: outputs, formats, error codes."""

import json
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

import betabart.cli as cli
import betabart.fit as fit_module
import betabart.inference as inference
from betabart import __version__, food_data_path
from betabart.cli import main
from betabart.cumulants import NonFiniteCumulantError
from betabart.fit import NonConvergenceError, Restriction, fit_mle
from betabart.inference import BootstrapOptions, NestingError, run_test
from betabart.model import Dataset, logit_link
from betabart.simulate import SimConfig
from conftest import food_dataset


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_example(command):
    """The README `betabart <command>` example (as argv) and the block it prints."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index(f"```sh\nbetabart {command}") + len("```sh\n")
    end = readme.index("```", start)
    argv = shlex.split(readme[start:end].replace("\\\n", " "))[1:]
    block_start = readme.index("```\n", end + 3) + len("```\n")
    return argv, readme[block_start : readme.index("```", block_start)]


def test_readme_test_block(capsys):
    argv, block = readme_example("test")
    assert "boot" in argv[argv.index("--methods") + 1]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out == block


def test_readme_fit_block(capsys):
    # Pins the iteration count and the six-digit estimates of fit_mle.
    argv, block = readme_example("fit")
    assert argv == ["fit"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert out == block


def test_readme_library_snippet(food_reduced, link):
    # The Library snippet runs as printed, reading the bundled data where
    # it names "food.csv".
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = readme.index("```python\n") + len("```python\n")
    snippet = readme[start : readme.index("```", start)]
    assert snippet.count('"food.csv"') == 1
    namespace = {}
    exec(snippet.replace('"food.csv"', repr(food_data_path())), namespace)
    result, report = namespace["result"], namespace["report"]
    assert result.converged
    assert np.array_equal(result.theta_hat.beta, fit_mle(food_reduced, link).theta_hat.beta)
    assert list(report.statistics) == ["lr", "b3", "boot"]
    assert list(report.p_values) == ["lr", "b3", "boot"]


def test_readme_study_configs_load(tmp_path):
    # Both README study configs, the desk-scale study and the full-scale
    # cell, load as valid SimConfigs; no study is run.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [block[: block.index("```")] for block in readme.split("```json\n")[1:]]
    assert len(blocks) == 2
    for i, text in enumerate(blocks):
        path = tmp_path / f"study{i}.json"
        path.write_text(text)
        config = cli._load_sim_config(str(path))
        assert isinstance(config, SimConfig)
        assert config.reps == json.loads(text)["reps"]


def test_back_to_back_calls_match_a_fresh_parser(capsys):
    # main builds its parser once per process.  No default or namespace
    # state may carry from one call into the next: each call prints what
    # it prints with a parser built for it alone.
    test_argv = ["test", "--covariates", "income,persons", "--null", "persons"]
    test_argv += ["--methods", "lr,boot", "--boot-B", "40"]
    calls = [[*test_argv, "--seed", "5"], test_argv, ["fit"]]
    shared = [run_cli(capsys, *argv) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert shared == fresh
    assert all(code == 0 and err == "" for code, _, err in shared)
    # the second call ran with the default seed 0, not the first call's 5
    assert shared[0][1] != shared[1][1]
    assert shared[1] == run_cli(capsys, *test_argv, "--seed", "0")


def test_byte_order_mark_is_not_part_of_the_header(capsys, tmp_path):
    # Spreadsheet tools often save UTF-8 with a byte-order mark in front.
    marked = tmp_path / "bom.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(food_data_path()).read_bytes())
    test_argv, _ = readme_example("test")
    for argv in (["fit"], ["fit", "--format", "json", "--response", "y"], test_argv):
        plain = run_cli(capsys, *argv, "--data", food_data_path())
        assert plain[0] == 0
        assert run_cli(capsys, *argv, "--data", str(marked)) == plain


# `betabart simulate` on the criterion-6 cell (the benchmark's moments-cell
# design), 76 replications in two blocks, as the program printed it.
MOMENTS_CELL_SUMMARY = """\
replications: 76 (failures: 0)

statistic      alpha    rate %
lr               0.1     13.16
lr              0.05      9.21
lr              0.01      2.63
b1               0.1      9.21
b1              0.05      6.58
b1              0.01      1.32
b2               0.1      9.21
b2              0.05      6.58
b2              0.01      1.32
b3               0.1      9.21
b3              0.05      5.26
b3              0.01      1.32

statistic         mean  variance  skewness  kurtosis      p90      p95      p99
lr              2.1997    6.2767    2.0427    7.1782    5.252    8.107   10.808
b1              1.7550    3.9965    2.0424    7.1749    4.186    6.471    8.620
b2              1.7073    3.7826    2.0423    7.1741    4.071    6.296    8.386
b3              1.6423    3.5004    2.0422    7.1727    3.915    6.057    8.065
"""


def test_moments_cell_study_summary(capsys, tmp_path, monkeypatch):
    # Pins the rejection rates, moments and quantiles of a two-block study.
    monkeypatch.setenv("BETABART_THREADS", "1")
    config = {
        "n": 20,
        "p": 5,
        "phi_true": 30.0,
        "beta_true": [1.0, 0.0, 0.0, 5.0, -4.0],
        "restriction": {"indices": [2, 3]},
        "reps": 76,
        "methods": ["lr", "b1", "b2", "b3"],
        "base_seed": 2024,
        "covariate_seed": 0,
    }
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config))
    code, out, err = run_cli(
        capsys, "simulate", str(path), "--out", str(tmp_path / "study")
    )
    assert code == 0 and err == ""
    assert out == MOMENTS_CELL_SUMMARY


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

    def test_statistics_print_in_table_order(self, capsys):
        # the order of --methods does not set the order of the output
        code, out, _ = run_cli(capsys, "test", "--null", "persons", "--methods", "b3,b1")
        assert code == 0
        names = [line.split()[0] for line in out.splitlines()[4:]]
        assert names == ["b1", "b3"]

    def test_full_model_is_fitted_once(self, capsys, monkeypatch, food_reduced, link):
        # The full model is fitted once, together with the restricted one in
        # one scoring call (full design first), and the printed estimates
        # are that fit's: cmd_test does not refit it.
        refits, designs = [], []
        core = fit_module._fisher_scoring_batch

        def counted_core(Y, X, *args, **kwargs):
            designs.append(X)
            return core(Y, X, *args, **kwargs)

        def counted_fit(*args, **kwargs):
            refits.append(args)
            return fit_mle(*args, **kwargs)

        monkeypatch.setattr(fit_module, "_fisher_scoring_batch", counted_core)
        monkeypatch.setattr(cli, "fit_mle", counted_fit)
        code, out, _ = run_cli(
            capsys, "test", "--null", "persons", "--methods", "lr", "--format", "json"
        )
        assert code == 0 and refits == [] and len(designs) == 1
        full_design, restricted_design = designs[0]
        assert np.array_equal(full_design, food_reduced.X)
        assert restricted_design.shape == (food_reduced.n, food_reduced.p - 1)
        document = json.loads(out)
        result = fit_mle(food_reduced, link)
        assert document["estimates"]["income"]["value"] == result.theta_hat.beta[1]
        assert document["estimates"]["phi"]["std_error"] == result.std_errors[3]
        assert document["meta"]["iterations"] == result.iterations

    def test_design_rank_computed_once(self, capsys, monkeypatch):
        # The CLI's rank check and both fits read one rank off the Dataset.
        calls = []
        matrix_rank = np.linalg.matrix_rank

        def counted(*args, **kwargs):
            calls.append(args)
            return matrix_rank(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "matrix_rank", counted)
        code, _, _ = run_cli(
            capsys, "test", "--null", "persons", "--methods", "lr,b3", "--format", "json"
        )
        assert code == 0 and len(calls) == 1

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_no_finite_statistic(self, capsys, monkeypatch, fmt):
        # c <= 0 makes b1 NaN, so with b1 alone no statistic is reported;
        # the header still carries df, and no format raises.
        bartlett_rows = inference._bartlett_rows

        def negative_c(*args):
            eps_full, eps_nuis, bad = bartlett_rows(*args)
            return eps_nuis - 2.0, eps_nuis, bad

        monkeypatch.setattr(inference, "_bartlett_rows", negative_c)
        code, out, err = run_cli(
            capsys, "test", "--null", "persons", "--methods", "b1", "--format", fmt
        )
        assert code == 0 and err == ""
        if fmt == "text":
            lines = out.splitlines()
            assert lines[1] == "H0: persons   [df = 1]"
            assert lines[3].split() == ["statistic", "value", "p_value"]
            assert lines[4:] == []
        elif fmt == "json":
            assert json.loads(out)["tests"] == {}
        else:
            assert out == "statistic,value,df,p_value\n"

    def test_csv_rows_are_the_json_statistics(self, capsys):
        # Each CSV row holds the JSON output's statistic, df and p-value
        # under repr, in the order of the statistics table.
        argv = ["test", "--covariates", "income,persons,income*persons"]
        argv += ["--null", "income*persons", "--boot-B", "100", "--seed", "3"]
        code, out, err = run_cli(capsys, *argv, "--format", "csv")
        assert code == 0 and err == ""
        code, document, _ = run_cli(capsys, *argv, "--format", "json")
        tests = json.loads(document)["tests"]
        assert code == 0 and list(tests) == list(inference._METHODS)
        lines = out.splitlines()
        assert lines[0] == "statistic,value,df,p_value"
        assert [line.split(",") for line in lines[1:]] == [
            [name, repr(cell["statistic"]), repr(cell["df"]), repr(cell["p_value"])]
            for name, cell in tests.items()
        ]

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
            ("test", "--null", "persons", "--methods", "lr", "--boot-B", "0"),
            ("test", "--null", "persons", "--methods", "lr", "--seed", "-3"),
        ],
    )
    def test_exit_code_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("fit", "--covariates", "income,,persons"), "empty covariate term"),
            (("fit", "--covariates", "nosuch"), "unknown column 'nosuch'"),
            (("test", "--null", "income,,persons"), "empty entry in --null"),
            (("test", "--null", "persons="), "bad value '' for 'persons' in --null"),
        ],
    )
    def test_message_names_the_fault(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("terms", ["y,income", "income*y", "y^2"])
    def test_response_is_not_a_covariate(self, capsys, terms):
        code, out, err = run_cli(capsys, "fit", "--covariates", terms)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "response column 'y'" in err

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

    def test_blank_line_is_skipped(self, capsys, tmp_path):
        lines = Path(food_data_path()).read_text().splitlines(keepends=True)
        path = self.write(tmp_path, "".join(lines[:10] + ["\n"] + lines[10:]))
        bundled = run_cli(capsys, "fit", "--format", "json")
        assert bundled[0] == 0
        assert run_cli(capsys, "fit", "--data", path, "--format", "json") == bundled

    def test_data_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"y,income\n0.5,\xff\n0.4,2.0\n")
        code, _, err = run_cli(capsys, "fit", "--data", str(path))
        assert code == 3 and err.startswith("error:")
        assert f"{path}: not valid UTF-8 text" in err

    def test_one_column_has_no_covariate_terms(self, capsys, tmp_path):
        path = self.write(tmp_path, "y\n0.5\n0.4\n0.6\n")
        code, out, err = run_cli(capsys, "fit", "--data", path)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "no covariate terms given" in err

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
        reason = {
            "y,income\n0.5\n0.4,2.0\n": "line 2: expected 2 fields, got 1",
            "y,income\n0.5,abc\n0.4,2.0\n": "line 2: non-numeric value",
        }.get(content)
        if reason is not None:
            assert reason in err

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

    def test_fewer_rows_than_terms(self, capsys, tmp_path):
        path = self.write(tmp_path, "y,a,b,c\n0.3,1,2,3\n0.6,2,1,5\n0.4,7,1,2\n")
        code, _, err = run_cli(capsys, "fit", "--data", path)
        assert code == 3
        assert "design matrix rank 3 < 4" in err

    def test_as_many_rows_as_terms(self, capsys, tmp_path):
        # full rank, yet no residual degrees of freedom: a data error
        path = self.write(tmp_path, "y,income,persons\n0.3,1,2\n0.6,2,1\n0.4,7,1\n")
        code, _, err = run_cli(
            capsys, "fit", "--data", path, "--covariates", "income,persons"
        )
        assert code == 3
        assert "3 rows for 3 terms" in err

    def test_negative_seed_is_a_usage_error(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("fitted before the options were checked")

        monkeypatch.setattr(cli, "run_test", explode)
        code, _, err = run_cli(capsys, "test", "--null", "persons", "--seed", "-1")
        assert code == 2
        assert "seed must be nonnegative" in err

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
            lambda d: d.update(reps=2**32 + 1),
            lambda d: d.update(methods=["wald"]),
            lambda d: d.update(beta_true=5),
            lambda d: d.update(alpha_levels=0.1),
            lambda d: d.update(restriction={"indices": 2}),
            lambda d: d.update(restriction={"indices": [2.5]}),
            lambda d: d.update(methods="lr"),
            lambda d: d.update(beta_true=[40.0, 0.0, 0.0]),  # means at 1
        ],
    )
    def test_bad_config_exit_code_2(self, capsys, tmp_path, mutate):
        base = self.config_document()
        document = self.config_document()
        mutate(document)
        path = self.write_config(tmp_path, document)
        code, _, err = run_cli(capsys, "simulate", path)
        assert code == 2 and err.startswith("error:")
        # the message names the field that was broken
        keys = base.keys() | document.keys()
        changed = [key for key in keys if base.get(key) != document.get(key)]
        assert any(key in err for key in changed)

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "study.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "simulate", str(path))
        assert code == 2 and "invalid JSON" in err

    def test_byte_order_mark_is_read_as_utf8(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BETABART_THREADS", "1")
        plain = self.write_config(tmp_path, self.config_document())
        marked = tmp_path / "bom.json"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
        for path, out in ((plain, "plain"), (str(marked), "bom")):
            code, _, err = run_cli(capsys, "simulate", path, "--out", str(tmp_path / out))
            assert code == 0 and err == ""
        rates = [(tmp_path / out / "rates.csv").read_bytes() for out in ("plain", "bom")]
        assert rates[0] == rates[1]

    def test_config_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "study.json"
        path.write_bytes(b'{"n": 20, "p": "\xff"}')
        code, _, err = run_cli(capsys, "simulate", str(path))
        assert code == 2 and err.startswith("error:")
        assert f"{path}: not valid UTF-8 text" in err

    def test_config_that_is_not_an_object(self, capsys, tmp_path):
        path = self.write_config(tmp_path, [self.config_document()])
        code, _, err = run_cli(capsys, "simulate", path)
        assert code == 2 and err.startswith("error:")
        assert f"{path}: config must be a JSON object" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "/nonexistent/study.json")
        assert code == 2
