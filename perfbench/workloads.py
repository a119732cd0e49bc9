"""The benchmark's workloads.  Every op is one ``betabart.cli.main(argv)``
call made in-process, with stdout captured and checked afterwards.

Each workload turns the workload seed into its inputs (``setup`` and
``prepare``), so one seed always gives the same inputs.  ``check`` parses
an op's output, raises ``CheckFailed`` when it is wrong, and returns
``(units attempted, units failed)``: a unit is an op for the test
workloads and a replication for ``moments-cell``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from pathlib import Path

import numpy as np

FOOD_COVARIATES = "income,persons,income*persons,income^2,persons^2"
FOOD_NULL = "income*persons,income^2,persons^2"
FOOD_TEST_ARGV = ["test", "--covariates", FOOD_COVARIATES, "--null", FOOD_NULL]

# The README's `betabart test` example and the block it documents.
GOLDEN_ARGV = FOOD_TEST_ARGV + ["--methods", "lr,b3,boot", "--seed", "1"]
GOLDEN_TEXT = """\
beta regression, logit link, n = 38
H0: income*persons,income^2,persons^2   [df = 3]

statistic            value       p_value
lr                 7.64986     0.0538304
b3                 6.55743      0.087425
boot               6.59881      0.085846

bootstrap: B = 500, seed = 1
"""
GOLDEN_LR = "7.64986"
GOLDEN_B3 = "6.55743"

BOOT_B = 500


class CheckFailed(Exception):
    """An op exited non-zero or its output failed a check."""


def invoke(cli, argv: list[str]) -> str:
    """Run ``cli.main(argv)`` and return its stdout; a non-zero exit raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    if code != 0:
        raise CheckFailed(f"betabart {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def golden_check(cli) -> None:
    text = invoke(cli, GOLDEN_ARGV)
    if text != GOLDEN_TEXT:
        raise CheckFailed(f"README test block not reproduced:\n{text}")


def op_seed(seed: int, i: int, stream: int) -> int:
    """A 31-bit seed for op i, drawn from the workload seed."""
    state = np.random.SeedSequence(seed, spawn_key=(stream, i)).generate_state(1)
    return int(state[0] >> 1)


def _check_tests(doc: dict) -> dict:
    tests = doc["tests"]
    for name, cell in tests.items():
        if not math.isfinite(cell["statistic"]):
            raise CheckFailed(f"{name} statistic is not finite")
        if not 0.0 <= cell["p_value"] <= 1.0:
            raise CheckFailed(f"{name} p-value {cell['p_value']} outside [0, 1]")
    return {name: cell["statistic"] for name, cell in tests.items()}


def _same(value: float, ref: float, rel: float = 1e-10) -> bool:
    return abs(value - ref) <= rel * abs(ref)


def _shape_parameters(link, X, beta, phi) -> np.ndarray:
    mu = link.g_inv(X @ beta)
    return np.concatenate([mu * phi, (1.0 - mu) * phi])


class FoodTest:
    """The README `test` command with the bootstrap, B = 500."""

    name = "food-test"
    units_per_op = 1

    def __init__(self, bb, seed: int, workdir: Path):
        self.bb = bb
        self.seed = seed
        self.reference = None
        self.record = {"B": BOOT_B}

    def setup(self) -> None:
        pass

    def prepare(self, i: int) -> list[str]:
        return FOOD_TEST_ARGV + [
            "--methods", "lr,b3,boot",
            "--boot-B", str(BOOT_B),
            "--seed", str(op_seed(self.seed, i, 0)),
            "--format", "json",
        ]

    def check(self, stdout: str) -> tuple[int, int]:
        stats = _check_tests(json.loads(stdout))
        if set(stats) != {"lr", "b3", "boot"}:
            raise CheckFailed(f"unexpected statistics {sorted(stats)}")
        if self.reference is None:
            # The first op sets the full-precision reference; it must agree
            # with the README block to the six digits printed there.
            if (f"{stats['lr']:.6g}", f"{stats['b3']:.6g}") != (GOLDEN_LR, GOLDEN_B3):
                raise CheckFailed(f"lr/b3 {stats['lr']}/{stats['b3']} differ from README")
            self.reference = stats
        for name in ("lr", "b3"):
            if not _same(stats[name], self.reference[name]):
                raise CheckFailed(f"{name} {stats[name]!r} != {self.reference[name]!r}")
        return 1, 0

    def probe_array(self) -> np.ndarray:
        """Shape parameters of the restricted food fit, tiled to the (B, 2n)
        array the bootstrap scores."""
        bb = self.bb
        cols = bb.cli.parse_csv(bb.package.food_data_path())
        income, persons = cols["income"], cols["persons"]
        X = np.column_stack(
            [np.ones(income.size), income, persons, income * persons, income**2, persons**2]
        )
        data = bb.model.Dataset(cols["y"], X)
        link = bb.model.logit_link()
        rest = bb.fit.fit_restricted(data, link, bb.fit.Restriction((4, 5, 6), (0.0, 0.0, 0.0)))
        theta = rest.theta_hat
        return np.tile(_shape_parameters(link, X, theta.beta, theta.phi), (BOOT_B, 1))


class MomentsCell:
    """`betabart simulate` on the criterion-6 null-moment cell, one block of
    replications per op."""

    name = "moments-cell"
    n = 20
    p = 5
    block = 12
    units_per_op = block
    beta = (1.0, 0.0, 0.0, 5.0, -4.0)
    phi = 30.0
    # Null means of lr and b3 in the paper's table for this cell.
    paper_means = {"lr": 2.6741, "b3": 1.9993}
    _summary = re.compile(r"^replications: (\d+) \(failures: (\d+)\)$", re.M)

    def __init__(self, bb, seed: int, workdir: Path):
        self.bb = bb
        self.seed = seed
        self.config_path = workdir / "study.json"
        self.out_dir = workdir / "study"
        self.values = {name: [] for name in self.paper_means}
        self.record = {"block": self.block, "n": self.n, "p": self.p, "q": 2}

    def setup(self) -> None:
        self.out_dir.mkdir(exist_ok=True)

    def prepare(self, i: int) -> list[str]:
        config = {
            "n": self.n,
            "p": self.p,
            "phi_true": self.phi,
            "beta_true": list(self.beta),
            "restriction": {"indices": [2, 3]},
            "reps": self.block,
            "methods": ["lr", "b3"],
            "base_seed": op_seed(self.seed, i, 1),
            "covariate_seed": 0,
        }
        self.config_path.write_text(json.dumps(config))
        return ["simulate", str(self.config_path), "--out", str(self.out_dir)]

    def check(self, stdout: str) -> tuple[int, int]:
        match = self._summary.search(stdout)
        if match is None:
            raise CheckFailed("simulate printed no replication summary")
        reps, failures = int(match.group(1)), int(match.group(2))
        if reps != self.block:
            raise CheckFailed(f"{reps} replications run, expected {self.block}")
        with open(self.out_dir / "archive.csv", newline="") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != reps - failures:
            raise CheckFailed(f"archive has {len(rows)} rows for {reps - failures} successes")
        for row in rows:
            for name in self.paper_means:
                value = float(row[name])
                if not math.isfinite(value):
                    raise CheckFailed(f"non-finite {name} in archive")
                self.values[name].append(value)
        return reps, failures

    def finish(self) -> None:
        """Pooled archive means within 4 standard errors of the paper's."""
        for name, target in self.paper_means.items():
            values = np.array(self.values[name])
            if values.size < 2:
                raise CheckFailed(f"{values.size} archived {name} values, too few to pool")
            se = values.std(ddof=1) / math.sqrt(values.size)
            if abs(values.mean() - target) > 4.0 * se:
                raise CheckFailed(
                    f"pooled {name} mean {values.mean():.4f} is more than 4 SE "
                    f"({se:.4f}) from the paper's {target}"
                )

    def probe_array(self) -> np.ndarray:
        X = self.bb.simulate.design_matrix(self.n, self.p, 0)
        return _shape_parameters(self.bb.model.logit_link(), X, np.array(self.beta), self.phi)


class WideTest:
    """`betabart test --methods lr,b1,b2,b3` on a generated n = 200 design
    with an intercept plus 11 covariates, testing the last 5 (q = 5)."""

    name = "wide-test"
    units_per_op = 1
    n = 200
    p = 12
    q = 5
    phi = 50.0
    files = 4
    beta = (0.5, 1.0, -1.0, 0.8, -0.8, 1.2, -1.2, 0.0, 0.0, 0.0, 0.0, 0.0)

    def __init__(self, bb, seed: int, workdir: Path):
        self.bb = bb
        self.seed = seed
        self.workdir = workdir
        self.names = [f"c{j}" for j in range(1, self.p)]
        self.record = {"n": self.n, "p": self.p, "q": self.q, "files": self.files}

    def _design(self) -> np.ndarray:
        return self.bb.simulate.design_matrix(self.n, self.p, op_seed(self.seed, 0, 2))

    def setup(self) -> None:
        X = self._design()
        mu = self.bb.model.logit_link().g_inv(X @ np.array(self.beta))
        rng = np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(3,)))
        for f in range(self.files):
            y = self.bb.simulate.gen_beta_sample(mu, self.phi, rng)
            with open(self.workdir / f"wide{f}.csv", "w", newline="") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(["y"] + self.names)
                for i in range(self.n):
                    writer.writerow([repr(float(y[i]))] + [repr(float(v)) for v in X[i, 1:]])

    def prepare(self, i: int) -> list[str]:
        return [
            "test",
            "--data", str(self.workdir / f"wide{i % self.files}.csv"),
            "--null", ",".join(self.names[-self.q:]),
            "--methods", "lr,b1,b2,b3",
            "--format", "json",
        ]

    def check(self, stdout: str) -> tuple[int, int]:
        stats = _check_tests(json.loads(stdout))
        if set(stats) != {"lr", "b1", "b2", "b3"}:
            raise CheckFailed(f"unexpected statistics {sorted(stats)}")
        if not stats["b1"] >= stats["b2"] >= stats["b3"]:
            raise CheckFailed(f"b1 >= b2 >= b3 violated: {stats}")
        return 1, 0

    def probe_array(self) -> np.ndarray:
        link = self.bb.model.logit_link()
        return _shape_parameters(link, self._design(), np.array(self.beta), self.phi)


WORKLOADS = {cls.name: cls for cls in (FoodTest, MomentsCell, WideTest)}
