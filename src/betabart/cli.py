"""Command-line front end: CSV ingestion, model specification, reports.

Exit codes form a stable scripting contract: 0 success, 2 configuration
or usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import os
import re
import sys

import numpy as np

from . import __version__, food_data_path
from .fit import Restriction, fit_mle
from .inference import (
    _METHODS,
    _TEST_FAILURES,
    BootstrapOptions,
    TestReport,
    run_test,
)
from .model import Dataset, LinkFunction, _in_unit_interval, logit_link
from .simulate import (
    SimConfig,
    SimulationError,
    power_study,
    write_archive_csv,
    write_rates_csv,
)
from .specfun import _sequence

_POSITIONAL_NAME = re.compile(r"^x([1-9][0-9]*)$")


class CLIConfigError(ValueError):
    """Configuration problem: unknown column, bad syntax, bad option."""


class DataError(RuntimeError):
    """Problem with the contents of a data file."""


def parse_csv(path: str | os.PathLike) -> dict[str, np.ndarray]:
    """Read a comma-separated file with a header row into named columns.

    Every cell must be a number that Python's float() accepts; a UTF-8
    byte-order mark before the header is dropped.  Each record is
    converted by one map(float, ...), which runs its loop in C.  Errors
    carry the offending line number, counting the header as line 1.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            names = [name.strip() for name in header]
            if any(not name for name in names):
                raise DataError(f"{path}: line 1: empty column name in header")
            if len(set(names)) != len(names):
                raise DataError(f"{path}: line 1: duplicate column names")
            rows: list[list[float]] = []
            for lineno, record in enumerate(reader, start=2):
                if not record:
                    continue
                if len(record) != len(names):
                    raise DataError(
                        f"{path}: line {lineno}: expected {len(names)} fields, "
                        f"got {len(record)}"
                    )
                try:
                    rows.append([*map(float, record)])
                except ValueError:
                    raise DataError(
                        f"{path}: line {lineno}: non-numeric value"
                    ) from None
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise DataError(f"{path}: not valid UTF-8 text") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    table = np.array(rows)
    return {name: table[:, i] for i, name in enumerate(names)}


def _check_response(y: np.ndarray, path: str) -> None:
    """The response must lie strictly inside (0, 1); name the bad row."""
    bad = np.nonzero(~_in_unit_interval(y))[0]
    if bad.size:
        i = int(bad[0])
        raise DataError(
            f"{path}: line {i + 2}: response {float(y[i])!r} outside the open "
            f"interval (0, 1)"
        )


def _build_terms(
    columns: dict[str, np.ndarray], spec: str | None, response: str
) -> tuple[list[str], list[np.ndarray]]:
    """Resolve a covariate list with `a*b` products and `a^2` squares.

    Each term is the product of its factor columns: one for a plain term,
    two for a product, the same column twice for a square.  No term may
    read the response column.
    """
    if spec is None:
        tokens = [name for name in columns if name != response]
    else:
        tokens = [token.strip() for token in spec.split(",")]
    names: list[str] = []
    arrays: list[np.ndarray] = []
    for token in tokens:
        if not token:
            raise CLIConfigError("empty covariate term")
        if "*" in token:
            factors = [part.strip() for part in token.split("*")]
            if len(factors) != 2 or not all(factors):
                raise CLIConfigError(f"bad product term {token!r}; use a*b")
            name = "*".join(factors)
        elif "^" in token:
            base, _, power = token.partition("^")
            factors = [base.strip()] * 2
            if power.strip() != "2" or not factors[0]:
                raise CLIConfigError(f"bad power term {token!r}; only a^2 is supported")
            name = f"{factors[0]}^2"
        else:
            factors, name = [token], token
        for factor in factors:
            if factor == response:
                raise CLIConfigError(
                    f"covariate term {token!r} reads the response column {response!r}"
                )
            if factor not in columns:
                raise CLIConfigError(f"unknown column {factor!r}")
        if name in names:
            raise CLIConfigError(f"duplicate covariate term {name!r}")
        # An overflow becomes inf, which the caller reports as a non-finite
        # covariate on its line.
        with np.errstate(over="ignore", invalid="ignore"):
            array = functools.reduce(np.multiply, [columns[f] for f in factors])
        names.append(name)
        arrays.append(array)
    if not names:
        raise CLIConfigError("no covariate terms given")
    return names, arrays


def _parse_null(spec: str, coef_names: list[str]) -> Restriction:
    """Parse `name=value` entries; a bare name restricts to zero.

    Names match coefficient names first; otherwise `x<k>` addresses the
    k-th coefficient, counting the intercept as x1.
    """
    pairs: dict[int, float] = {}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            raise CLIConfigError("empty entry in --null")
        name, equals, raw_value = entry.partition("=")
        name = name.strip()
        if name in coef_names:
            index = coef_names.index(name) + 1
        else:
            match = _POSITIONAL_NAME.match(name)
            if match and int(match.group(1)) <= len(coef_names):
                index = int(match.group(1))
            else:
                raise CLIConfigError(f"unknown coefficient {name!r} in --null")
        if index in pairs:
            raise CLIConfigError(f"coefficient {name!r} restricted twice")
        if equals:
            try:
                pairs[index] = float(raw_value)
            except ValueError:
                raise CLIConfigError(
                    f"bad value {raw_value!r} for {name!r} in --null"
                ) from None
        else:
            pairs[index] = 0.0
    indices = tuple(sorted(pairs))
    return Restriction(indices, tuple(pairs[i] for i in indices))


def _resolve_link(name: str) -> LinkFunction:
    if name == "logit":
        return logit_link()
    raise CLIConfigError(f"unsupported link {name!r}")


def _load_model(args: argparse.Namespace):
    columns = parse_csv(args.data)
    response = args.response if args.response is not None else next(iter(columns))
    if response not in columns:
        raise CLIConfigError(f"unknown response column {response!r}")
    y = columns[response]
    _check_response(y, args.data)
    names, arrays = _build_terms(columns, args.covariates, response)
    X = np.column_stack([np.ones(len(y))] + arrays)
    bad = np.nonzero(~np.all(np.isfinite(X), axis=1))[0]
    if bad.size:
        raise DataError(
            f"{args.data}: line {int(bad[0]) + 2}: covariate value is not finite"
        )
    # The fits reuse data's rank.  With n <= p there is no Dataset, but a
    # deficient rank is still reported as such before the row count.
    n, p = X.shape
    data = Dataset(y, X) if n > p else None
    rank = int(np.linalg.matrix_rank(X)) if data is None else data.rank
    if rank < p:
        raise DataError(
            f"design matrix rank {rank} < {p}; duplicate or collinear columns"
        )
    if data is None:
        raise DataError(
            f"{args.data}: {n} rows for {p} terms; need more rows than terms"
        )
    coef_names = ["(intercept)"] + names
    link = _resolve_link(args.link)
    model = {
        "link": args.link,
        "response": response,
        "terms": coef_names,
        "n": n,
    }
    return data, link, coef_names, model


def _estimates(coef_names: list[str], result) -> dict[str, dict[str, float]]:
    values = list(result.theta_hat.beta) + [result.theta_hat.phi]
    names = coef_names + ["phi"]
    return {
        name: {"value": float(v), "std_error": float(se)}
        for name, v, se in zip(names, values, result.std_errors)
    }


def _tests_block(report: TestReport) -> dict[str, dict[str, float]]:
    return {
        name: {
            "statistic": float(value),
            "df": report.q,
            "p_value": report.p_values[name],
        }
        for name, value in report.statistics.items()
        if name in report.p_values
    }


def _emit(document: dict, args: argparse.Namespace, render_csv, render_text) -> None:
    """Write the document in the chosen format to --out, or to stdout."""
    if args.format == "json":
        text = json.dumps(document, indent=2) + "\n"
    else:
        text = (render_csv if args.format == "csv" else render_text)(document)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as handle:
            handle.write(text)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _render_fit_text(document: dict) -> str:
    model = document["model"]
    lines = [
        f"beta regression, {model['link']} link, n = {model['n']}",
        f"log-likelihood {_fmt(document['loglik'])} "
        f"after {document['meta']['iterations']} iterations",
        "",
    ]
    names = list(document["estimates"])
    width = max(len(name) for name in names) + 2
    lines.append(f"{'term':<{width}}{'estimate':>14}{'std_error':>14}")
    for name, cell in document["estimates"].items():
        lines.append(
            f"{name:<{width}}{_fmt(cell['value']):>14}{_fmt(cell['std_error']):>14}"
        )
    return "\n".join(lines) + "\n"


def _render_test_text(document: dict, null_spec: str, df: int) -> str:
    model = document["model"]
    lines = [
        f"beta regression, {model['link']} link, n = {model['n']}",
        f"H0: {null_spec}   [df = {df}]",
        "",
        f"{'statistic':<12}{'value':>14}{'p_value':>14}",
    ]
    for name, cell in document["tests"].items():
        lines.append(
            f"{name:<12}{_fmt(cell['statistic']):>14}{_fmt(cell['p_value']):>14}"
        )
    meta = document["meta"]
    if meta["B"] is not None:
        lines.append("")
        lines.append(f"bootstrap: B = {meta['B']}, seed = {meta['seed']}")
    return "\n".join(lines) + "\n"


def _render_fit_csv(document: dict) -> str:
    lines = ["term,estimate,std_error"]
    for name, cell in document["estimates"].items():
        lines.append(f"{name},{cell['value']!r},{cell['std_error']!r}")
    return "\n".join(lines) + "\n"


def _render_test_csv(document: dict) -> str:
    lines = ["statistic,value,df,p_value"]
    for name, cell in document["tests"].items():
        lines.append(
            f"{name},{cell['statistic']!r},{cell['df']},{cell['p_value']!r}"
        )
    return "\n".join(lines) + "\n"


def cmd_fit(args: argparse.Namespace) -> int:
    data, link, coef_names, model = _load_model(args)
    result = fit_mle(data, link)
    document = {
        "command": "fit",
        "model": model,
        "estimates": _estimates(coef_names, result),
        "tests": {},
        "loglik": float(result.loglik),
        "meta": {
            "seed": None,
            "B": None,
            "iterations": result.iterations,
            "version": __version__,
        },
    }
    _emit(document, args, _render_fit_csv, _render_fit_text)
    return 0


def cmd_test(args: argparse.Namespace) -> int:
    data, link, coef_names, model = _load_model(args)
    methods = tuple(token.strip() for token in args.methods.split(","))
    restriction = _parse_null(args.null, coef_names)
    boot_opts = BootstrapOptions(B=args.boot_B, seed=args.seed)
    report = run_test(data, link, restriction, methods=methods, boot_opts=boot_opts)
    full = report.full_fit
    document = {
        "command": "test",
        "model": model,
        "estimates": _estimates(coef_names, full),
        "tests": _tests_block(report),
        "meta": {
            "seed": args.seed if "boot" in methods else None,
            "B": args.boot_B if "boot" in methods else None,
            "iterations": full.iterations,
            "version": __version__,
        },
    }
    render_text = functools.partial(_render_test_text, null_spec=args.null, df=report.q)
    _emit(document, args, _render_test_csv, render_text)
    return 0


def _load_sim_config(path: str) -> SimConfig:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            document = json.load(handle)
    except OSError as exc:
        raise CLIConfigError(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise CLIConfigError(f"{path}: not valid UTF-8 text") from None
    except json.JSONDecodeError as exc:
        raise CLIConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise CLIConfigError(f"{path}: config must be a JSON object")
    fields = dataclasses.fields(SimConfig)
    unknown = sorted(set(document) - {f.name for f in fields})
    if unknown:
        raise CLIConfigError(f"{path}: unknown config fields: {', '.join(unknown)}")
    required = {f.name for f in fields if f.default is dataclasses.MISSING}
    missing = sorted(required - set(document))
    if missing:
        raise CLIConfigError(f"{path}: missing config fields: {', '.join(missing)}")
    restriction_doc = document.pop("restriction")
    if (
        not isinstance(restriction_doc, dict)
        or "indices" not in restriction_doc
        or set(restriction_doc) - {"indices", "values"}
    ):
        raise CLIConfigError(
            f"{path}: restriction must be an object with indices and optional values"
        )
    indices = restriction_doc["indices"]
    try:
        zeros = [0.0] * len(_sequence(indices, "restriction indices"))
        restriction = Restriction(indices, restriction_doc.get("values", zeros))
        return SimConfig(restriction=restriction, **document)
    except ValueError as exc:
        raise CLIConfigError(f"{path}: {exc}") from None


def _render_sim_summary(result) -> str:
    lines = [
        f"replications: {len(result.archive_reps) + result.failures} "
        f"(failures: {result.failures})",
        "",
        f"{'statistic':<12}{'alpha':>8}{'rate %':>10}",
    ]
    for (name, alpha), rate in result.rejection_rates.items():
        lines.append(f"{name:<12}{alpha:>8g}{100.0 * rate:>10.2f}")
    lines.append("")
    lines.append(
        f"{'statistic':<12}{'mean':>10}{'variance':>10}{'skewness':>10}"
        f"{'kurtosis':>10}{'p90':>9}{'p95':>9}{'p99':>9}"
    )
    for name, m in result.moments.items():
        qn = result.quantiles[name]
        lines.append(
            f"{name:<12}{m.mean:>10.4f}{m.variance:>10.4f}{m.skewness:>10.4f}"
            f"{m.kurtosis:>10.4f}{qn.p90:>9.3f}{qn.p95:>9.3f}{qn.p99:>9.3f}"
        )
    return "\n".join(lines) + "\n"


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _load_sim_config(args.config)
    result = power_study(config)
    os.makedirs(args.out, exist_ok=True)
    write_rates_csv(result, os.path.join(args.out, "rates.csv"))
    write_archive_csv(result, os.path.join(args.out, "archive.csv"))
    sys.stdout.write(_render_sim_summary(result))
    return 0


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--data",
        default=food_data_path(),
        help="CSV file with a header row (default: bundled food data)",
    )
    parser.add_argument(
        "--response",
        default=None,
        help="response column name (default: first column)",
    )
    parser.add_argument(
        "--covariates",
        default=None,
        help="comma-separated terms; a*b and a^2 are allowed "
        "(default: every non-response column)",
    )
    parser.add_argument("--link", default="logit", help="link name (default: logit)")
    parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--out", default=None, help="write the report to a file instead of stdout"
    )


# Built once per process: every in-process caller of main (tests, notebooks,
# benchmarks) would otherwise pay for it per call.  parse_args keeps no state
# between calls; each returns a fresh namespace.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betabart",
        description="Beta regression with small-sample corrected "
        "likelihood-ratio tests.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fit_parser = commands.add_parser("fit", help="fit a model by maximum likelihood")
    _add_model_flags(fit_parser)
    fit_parser.set_defaults(handler=cmd_fit)

    test_parser = commands.add_parser(
        "test", help="test linear restrictions on the coefficients"
    )
    _add_model_flags(test_parser)
    test_parser.add_argument(
        "--null",
        required=True,
        help="comma-separated restrictions, `name=value` or a bare name for zero",
    )
    test_parser.add_argument(
        "--methods",
        default=",".join(_METHODS),
        help="statistics to compute (default: %(default)s)",
    )
    test_parser.add_argument(
        "--boot-B", type=int, default=500, help="bootstrap size (default: 500)"
    )
    test_parser.add_argument(
        "--seed", type=int, default=0, help="bootstrap seed (default: 0)"
    )
    test_parser.set_defaults(handler=cmd_test)

    sim_parser = commands.add_parser(
        "simulate", help="run a Monte Carlo study from a JSON config"
    )
    sim_parser.add_argument("config", help="JSON file with study parameters")
    sim_parser.add_argument(
        "--out", default=".", help="directory for rates.csv and archive.csv"
    )
    sim_parser.set_defaults(handler=cmd_simulate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (*_TEST_FAILURES, SimulationError) as exc:
        # before ValueError: a NestingError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (CLIConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # input reads surface as DataError; a bare OSError is an output write
        name = exc.filename or ""
        detail = exc.strerror or str(exc)
        print(f"error: {name}: {detail}" if name else f"error: {detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
