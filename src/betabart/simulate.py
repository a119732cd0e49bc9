"""Monte Carlo studies of the likelihood-ratio test and its corrections.

Replications draw beta responses on a fixed design, run the full test
battery, and aggregate rejection rates, moments, and quantiles of the
statistics.  Randomness is hierarchical: replication j consumes streams
derived from ``(base_seed, j)`` only.  Replications run in fixed blocks
of _BLOCK consecutive indices: a block derives its streams in one pass,
draws all its responses through _beta_rows, the bootstrap's drawer, and
runs the test battery on its one design and (rows, n) response array
through _test_rows, the path run_test takes, which fits every full and
restricted model in one call to the batched scoring core and takes every
Bartlett factor from one batched pass.  The blocks do not depend on the
worker count, so neither does any result; BETABART_THREADS only spreads
the blocks over worker processes.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fit import FitOptions, Restriction
from .inference import (
    _METHODS,
    BootstrapOptions,
    _check_methods,
    _p_value,
    _pcg64_states,
    _spawn_state,
    _test_rows,
    run_test,  # noqa: F401  kept as a module attribute for span tracers
)
from .model import (
    Dataset,
    _beta_rows,
    _in_unit_interval,
    gen_beta_sample,  # noqa: F401  kept as a module attribute for span tracers
    logit_link,
)
from .specfun import _integer, _real, _reals, chisq_sf

_FAILURE_BUDGET = 0.01

# Replications per block.  A constant, so a block's batched products, and
# every result, are the same for any number of workers.
_BLOCK = 64


class SimulationError(RuntimeError):
    """Raised when a study exceeds its replication failure budget."""


@dataclass(frozen=True)
class SimConfig:
    """Design and execution parameters for one simulation cell.

    The mean model is logit(mu) = X beta with an intercept column and
    p - 1 covariates drawn once from Uniform(-0.5, 0.5) using
    ``covariate_seed``, then held fixed across replications.  ``delta``
    is added to the tested coefficients in the generator only; the
    hypothesis under test keeps the values stored in ``restriction``, which
    ``beta_true`` must equal at the tested positions.
    """

    n: int
    p: int
    phi_true: float
    beta_true: tuple[float, ...]
    restriction: Restriction
    delta: float = 0.0
    reps: int = 2000
    boot_B: int = 500
    alpha_levels: tuple[float, ...] = (0.10, 0.05, 0.01)
    base_seed: int = 0
    covariate_seed: int = 0
    methods: tuple[str, ...] = tuple(_METHODS)

    def __post_init__(self) -> None:
        def store(name, check, *args, **kwargs):
            value = check(getattr(self, name), name, *args, **kwargs)
            object.__setattr__(self, name, value)

        store("p", _integer, 1)
        store("n", _integer, self.p + 2)
        store("reps", _integer, 1)
        if self.reps > 2**32:
            raise ValueError("reps must be at least 1 and at most 2**32")
        store("boot_B", _integer, 1)
        store("base_seed", _integer, 0)
        store("covariate_seed", _integer, 0)
        store("beta_true", _reals)
        if len(self.beta_true) != self.p:
            raise ValueError("beta_true must hold p values")
        store("phi_true", _real, positive=True)
        store("delta", _real)
        store("alpha_levels", _reals)
        if not self.alpha_levels or any(not 0.0 < a < 1.0 for a in self.alpha_levels):
            raise ValueError("alpha_levels must lie strictly inside (0, 1)")
        if len(set(self.alpha_levels)) != len(self.alpha_levels):
            raise ValueError("alpha_levels must be distinct")
        # run_test de-duplicates its methods; a study's must be distinct
        methods = _check_methods(self.methods)
        if len(set(methods)) != len(methods):
            raise ValueError("methods must be distinct")
        object.__setattr__(self, "methods", methods)
        restriction = self.restriction
        if not isinstance(restriction, Restriction):
            raise ValueError("restriction must be a Restriction")
        if restriction.q >= self.p:
            raise ValueError("restriction must leave at least one free coefficient")
        # restriction.split, run here, checks the indices against p
        mu = _generating_means(self)[1]
        for index, value in zip(restriction.indices, restriction.values):
            if self.beta_true[index - 1] != value:
                raise ValueError(
                    "beta_true must equal the restriction values at tested positions"
                )
        if not np.all(_in_unit_interval(mu)):
            raise ValueError(
                "beta_true, with delta added to the tested coefficients, puts a "
                "generating mean at 0 or 1, where no beta response can be drawn"
            )


@dataclass(frozen=True)
class StatMoments:
    mean: float
    variance: float
    skewness: float
    kurtosis: float


@dataclass(frozen=True)
class StatQuantiles:
    p90: float
    p95: float
    p99: float


@dataclass(frozen=True)
class SimResult:
    """Aggregated output of one simulation cell.

    ``rejection_rates`` maps (statistic, alpha) to a fraction in [0, 1].
    ``statistic_archive`` holds the per-replication statistic values for
    the replications that succeeded, in replication order; the matching
    replication indices are in ``archive_reps``.  Kurtosis uses the
    non-excess convention (a chi-squared with 2 degrees of freedom has
    kurtosis 9).
    """

    rejection_rates: dict[tuple[str, float], float]
    statistic_archive: dict[str, np.ndarray]
    moments: dict[str, StatMoments]
    quantiles: dict[str, StatQuantiles]
    failures: int
    archive_reps: tuple[int, ...]


@dataclass(frozen=True)
class MomentTable:
    """Moments and quantiles per statistic, plus a `chisq` reference row."""

    moments: dict[str, StatMoments]
    quantiles: dict[str, StatQuantiles]


def design_matrix(n: int, p: int, covariate_seed: int) -> np.ndarray:
    """Intercept column plus p - 1 covariates drawn from Uniform(-0.5, 0.5).

    The draw depends only on ``covariate_seed``, so a study's design is
    frozen across replications, worker processes, and reruns.
    """
    n, p = _integer(n, "n", 1), _integer(p, "p", 1)
    covariate_seed = _integer(covariate_seed, "covariate_seed", 0)
    rng = np.random.default_rng(np.random.SeedSequence(covariate_seed))
    X = np.empty((n, p))
    X[:, 0] = 1.0
    if p > 1:
        X[:, 1:] = rng.uniform(-0.5, 0.5, size=(n, p - 1))
    return X


def _generating_means(config: SimConfig):
    """(X, mu): the study's design and the means its responses are drawn at,
    with delta added to the tested coefficients of beta_true."""
    X = design_matrix(config.n, config.p, config.covariate_seed)
    beta = np.array(config.beta_true)
    beta[config.restriction.split(X)[1]] += config.delta
    return X, logit_link().g_inv(X @ beta)


def _replication_block(
    config: SimConfig, indices: range
) -> dict[int, dict[str, float] | None]:
    """Statistics of each replication in indices, or None where it failed.

    Replication j draws on SeedSequence(base_seed, spawn_key=(j, 0)) and
    bootstraps with a seed from spawn_key (j, 1), bit for bit, though the
    block builds neither: it derives all draw states in one pass for
    _beta_rows and, only when boot is requested, all seeds in another.  A
    row with a response outside (0, 1), such as the NaN of two underflowed
    gamma variates, is a void draw, found by Dataset's response rule.  The
    block runs the test battery on the other rows at once through
    _test_rows, which fits all their full and restricted models in one
    call to the scoring core.  A replication fails on a void draw, a
    failure of its test or a non-finite statistic; any other exception,
    a ValueError included, is a defect and propagates.  Each row is its
    own, so a failure moves no other.
    """
    X, mu = _generating_means(config)
    key = (np.array(indices, dtype=np.uint64), 0)
    Y = _beta_rows(mu, config.phi_true, _pcg64_states(config.base_seed, key))
    kept = _in_unit_interval(Y).all(axis=1)
    drawn = [j for j, ok in zip(indices, kept.tolist()) if ok]

    outcomes: dict[int, dict[str, float] | None] = dict.fromkeys(indices)
    if not drawn:
        return outcomes
    Y = Y[kept]
    boot_opts = [None] * len(drawn)
    if "boot" in config.methods:
        key = (np.array(drawn, dtype=np.uint64), 1)
        seeds = _spawn_state(config.base_seed, key, 1)[0].tolist()
        boot_opts = [BootstrapOptions(B=config.boot_B, seed=seed) for seed in seeds]
    data, link = Dataset(Y[0], X), logit_link()
    reports, _ = _test_rows(
        data, Y, link, config.restriction, config.methods, boot_opts, FitOptions()
    )
    for i, report in reports.items():
        values = {m: float(report.statistics[m]) for m in config.methods}
        if all(math.isfinite(v) for v in values.values()):
            outcomes[drawn[i]] = values
    return outcomes


def _worker_count() -> int:
    raw = os.environ.get("BETABART_THREADS", "").strip()
    if not raw:
        return os.cpu_count() or 1
    try:
        count = int(raw)
    except ValueError:
        raise ValueError(f"BETABART_THREADS must be an integer, got {raw!r}") from None
    count = _integer(count, "BETABART_THREADS", 0)
    return count if count > 0 else os.cpu_count() or 1


def _summarize(values: np.ndarray) -> tuple[StatMoments, StatQuantiles]:
    mean = float(values.mean())
    if values.size >= 2:
        variance = float(values.var(ddof=1))
        m2 = float(((values - mean) ** 2).mean())
    else:
        variance = float("nan")
        m2 = 0.0
    if m2 > 0.0:
        skewness = float(((values - mean) ** 3).mean()) / m2**1.5
        kurtosis = float(((values - mean) ** 4).mean()) / m2**2
    else:
        skewness = float("nan")
        kurtosis = float("nan")
    q90, q95, q99 = np.percentile(values, [90.0, 95.0, 99.0])
    moments = StatMoments(mean, variance, skewness, kurtosis)
    return moments, StatQuantiles(float(q90), float(q95), float(q99))


def _run_study(config: SimConfig) -> SimResult:
    reps = config.reps
    blocks = [range(j, min(j + _BLOCK, reps)) for j in range(0, reps, _BLOCK)]
    workers = min(_worker_count(), len(blocks))
    configs = [config] * len(blocks)
    if workers == 1:
        results = list(map(_replication_block, configs, blocks))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replication_block, configs, blocks))
    outcomes = {j: values for block in results for j, values in block.items()}

    survivors = tuple(j for j in range(config.reps) if outcomes[j] is not None)
    failures = config.reps - len(survivors)
    if failures > _FAILURE_BUDGET * config.reps:
        raise SimulationError(
            f"{failures} of {config.reps} replications failed, "
            f"exceeding the {_FAILURE_BUDGET:.0%} budget"
        )

    archive = {
        m: np.array([outcomes[j][m] for j in survivors]) for m in config.methods
    }
    rates: dict[tuple[str, float], float] = {}
    moments: dict[str, StatMoments] = {}
    quantiles: dict[str, StatQuantiles] = {}
    for m in config.methods:
        values = archive[m]
        p_values = _p_value(values, config.restriction.q)
        for alpha in config.alpha_levels:
            rates[(m, alpha)] = float(np.mean(p_values <= alpha))
        moments[m], quantiles[m] = _summarize(values)
    return SimResult(rates, archive, moments, quantiles, failures, survivors)


def size_study(config: SimConfig) -> SimResult:
    """Null rejection rates: generate under the hypothesis and test it."""
    if config.delta != 0.0:
        raise ValueError("size_study requires delta = 0")
    return _run_study(config)


def power_study(config: SimConfig) -> SimResult:
    """Nonnull rejection rates: tested coefficients are shifted by delta
    in the generator while the hypothesis still tests the stored values.
    With delta = 0 this reduces to the size study."""
    return _run_study(config)


def _chisq_quantile(prob: float, df: int) -> float:
    """Inverse chi-squared CDF by bisection on the survival function."""
    target = 1.0 - prob
    hi = float(df) + 1.0
    while chisq_sf(hi, df) > target:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chisq_sf(mid, df) > target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def null_moments(config: SimConfig) -> MomentTable:
    """Moments and quantiles of the statistics under the hypothesis,
    with an analytic chi-squared reference row keyed `chisq`."""
    if config.delta != 0.0:
        raise ValueError("null_moments requires delta = 0")
    result = _run_study(config)
    moments = dict(result.moments)
    quantiles = dict(result.quantiles)
    q = len(config.restriction.indices)
    moments["chisq"] = StatMoments(
        mean=float(q),
        variance=2.0 * q,
        skewness=math.sqrt(8.0 / q),
        kurtosis=3.0 + 12.0 / q,
    )
    quantiles["chisq"] = StatQuantiles(
        p90=_chisq_quantile(0.90, q),
        p95=_chisq_quantile(0.95, q),
        p99=_chisq_quantile(0.99, q),
    )
    return MomentTable(moments, quantiles)


def write_rates_csv(result: SimResult, path: str | os.PathLike) -> None:
    """Write rejection rates as percentages, one row per (statistic, alpha)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["statistic", "alpha", "rate"])
        for (statistic, alpha), rate in result.rejection_rates.items():
            writer.writerow([statistic, alpha, 100.0 * rate])


def write_archive_csv(result: SimResult, path: str | os.PathLike) -> None:
    """Write per-replication statistic values, one row per replication."""
    names = list(result.statistic_archive)
    columns = [result.statistic_archive[name] for name in names]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["rep"] + names)
        for i, j in enumerate(result.archive_reps):
            writer.writerow([j] + [float(col[i]) for col in columns])
