"""Likelihood ratio tests with analytic and bootstrap corrections.

The likelihood ratio statistic LR = 2(l_full - l_restricted) is compared
to a chi-squared law with q degrees of freedom.  Three analytic variants
rescale LR by the correction factor c = 1 + x with x = (eps_full -
eps_nuis) / q: LR / c, LR exp(-x), and LR (1 - x), equivalent to order
1/n.  The bootstrap variant rescales by the mean of LR over parametric
resamples drawn under the null at the restricted estimate.  Each
statistic is one entry of the table _METHODS, the quantity it reads and
its formula, so a new statistic is one entry (and its quantity, if new).
Every p-value comes from one rule, _p_value.  One path, _test_rows,
fits both hypotheses of a stack of response vectors on one design in one
call to the scoring core and fills every report from the table,
computing each quantity once: run_test is a one-row call into it, and a
Monte Carlo block calls it on all its replications at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .cumulants import (
    _bartlett_rows,
    bartlett_factor,  # noqa: F401  kept as a module attribute for span tracers
)
from .fit import (
    FitError,
    FitOptions,
    FitResult,
    NonConvergenceError,
    Restriction,
    _fisher_scoring_batch,
    _fit_rows,
    fit_mle,  # noqa: F401  kept as a module attribute for span tracers
    fit_restricted,  # noqa: F401  kept as a module attribute for span tracers
)
from .model import Dataset, LinkFunction, _beta_rows, _means
from .specfun import _integer, _real, _sequence, chisq_sf

__all__ = [
    "NestingError",
    "BootstrapFailureError",
    "BootstrapOptions",
    "TestReport",
    "lr_statistic",
    "bartlett_corrected",
    "run_test",
]


def _b2(lr, q, x):
    """LR exp(-x); inf where that exceeds the float range, 0.0 when LR is 0."""
    try:
        return lr * math.exp(-x)
    except OverflowError:
        return math.inf if lr else 0.0


# Each statistic, in output order: the quantity it reads beyond LR (x, the
# Bartlett x; boot, the mean resample LR) and its value from (lr, q, that).
_METHODS = {
    "lr": (None, lambda lr, q, _: lr),
    "b1": ("x", lambda lr, q, x: lr / (1.0 + x) if 1.0 + x > 0.0 else math.nan),
    "b2": ("x", _b2),
    "b3": ("x", lambda lr, q, x: lr * (1.0 - x)),
    "boot": ("boot", lambda lr, q, mean: lr * q / mean),
}

# A tiny negative LR is pure round-off from two near-identical optima and
# is floored; anything more negative means the models are not nested.
_LR_ROUNDOFF = 1e-10


class NestingError(ValueError):
    """The two fits do not form a nested pair."""


class BootstrapFailureError(RuntimeError):
    """Too many resample fits failed, or the resample mean degenerated."""


# The numerical failures of one test, read only by cli.main, which maps each
# to exit code 4; a study counts the rows that _test_rows reports as failed.
_TEST_FAILURES = (FitError, BootstrapFailureError, NestingError)


def _check_methods(methods) -> tuple[str, ...]:
    """The requested statistic names as a tuple, each one of _METHODS."""
    chosen = _sequence(methods, "methods")
    if not chosen:
        raise ValueError("methods must name at least one statistic")
    for name in chosen:
        if not isinstance(name, str) or name not in _METHODS:
            raise ValueError(
                f"unknown method {name!r} in methods; choose from {', '.join(_METHODS)}"
            )
    return chosen


def _p_value(stat, q: int):
    """The chi-squared(q) tail at stat floored at 0, for scalars or arrays."""
    return chisq_sf(np.maximum(stat, 0.0), q)


@dataclass(frozen=True)
class BootstrapOptions:
    """Bootstrap settings: resample count, seed, and failure budget."""

    B: int = 500
    seed: int = 0
    max_failure_fraction: float = 0.02

    def __post_init__(self):
        object.__setattr__(self, "B", _integer(self.B, "B", 1))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))
        fraction = _real(self.max_failure_fraction, "max_failure_fraction")
        if not 0.0 <= fraction < 1.0:
            raise ValueError("max_failure_fraction must lie in [0, 1)")
        object.__setattr__(self, "max_failure_fraction", fraction)


@dataclass(frozen=True)
class TestReport:
    """Everything one restriction test produced.

    statistics maps lr, always, then each requested method to its value,
    in the order of the table _METHODS; lr, lr_b1, lr_b2, lr_b3 and
    lr_boot are views of it, None when not requested.  p_values maps
    each requested, finite statistic's name to its _p_value.  full_fit is
    the unrestricted fit behind lr, kept so callers need not refit it.
    """

    q: int
    statistics: dict[str, float]
    eps_diff_over_q: Optional[float]
    boot_mean: Optional[float]
    boot_failures: int
    p_values: dict = field(default_factory=dict)
    full_fit: Optional[FitResult] = field(default=None, compare=False, repr=False)
    lr = property(lambda self: self.statistics["lr"])
    lr_b1 = property(lambda self: self.statistics.get("b1"))
    lr_b2 = property(lambda self: self.statistics.get("b2"))
    lr_b3 = property(lambda self: self.statistics.get("b3"))
    lr_boot = property(lambda self: self.statistics.get("boot"))
    df = property(lambda self: self.q)

    def __post_init__(self):
        if self.lr < 0.0:
            raise ValueError("lr must be nonnegative")
        for name, prob in self.p_values.items():
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"p-value for {name} is outside [0, 1]")


def lr_statistic(full: FitResult, restricted: FitResult) -> float:
    """Likelihood ratio statistic 2(l_full - l_restricted)."""
    if not full.converged:
        raise NonConvergenceError([], "full fit did not converge")
    if not restricted.converged:
        raise NonConvergenceError([], "restricted fit did not converge")
    if full.fixed_mask.any():
        raise NestingError("the full fit has fixed coefficients")
    if not restricted.fixed_mask.any():
        raise NestingError("the restricted fit has no fixed coefficients")
    if full.fixed_mask.shape != restricted.fixed_mask.shape:
        raise NestingError("the fits have different parameter dimensions")
    lr = 2.0 * (full.loglik - restricted.loglik)
    if lr < -_LR_ROUNDOFF:
        raise NestingError(
            f"restricted log-likelihood exceeds the full one by {-lr / 2.0:.3e}; "
            "the models are not nested"
        )
    return max(lr, 0.0)


def bartlett_corrected(lr: float, eps_diff_over_q: float, q: int):
    """The table's b1, b2 and b3: LR/c, LR exp(-x) and LR (1-x).

    x = eps_diff_over_q and c = 1 + x.  When c <= 0 the division form is
    meaningless and b1 is NaN; b2 is inf past the float range (see _b2).
    """
    lr = _real(lr, "lr")
    if lr < 0.0:
        raise ValueError("lr must be nonnegative")
    q = _integer(q, "q", 1)
    x = _real(eps_diff_over_q, "eps_diff_over_q")
    return tuple(_METHODS[name][1](lr, q, x) for name in ("b1", "b2", "b3"))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# the PCG64 multiplier; numpy keeps both streams stable across releases.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_PCG64_STATE = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}


def _hashmix(value, const, mult=_MULT_A):
    """SeedSequence's hash of 32-bit words, an int or a uint64 array, and
    the next hash constant."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words, ints or uint64 arrays."""
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


def _spawn_state(seed: int, key, count: int) -> list:
    """SeedSequence(seed, spawn_key=key).generate_state(count, np.uint64)
    by numpy's mixing, for key words that are ints or uint64 arrays.

    The pool after the seed's w 32-bit words is SeedSequence(seed).pool;
    building it took four hashes per pool word and four per seed word past
    the fourth, so the hash constant has stepped 4 max(4, w) times.  The
    key's words are mixed in from there, an array word vectorised, as is
    every output word that follows it.  numpy spreads a key entry of 2**32
    or more over two words, so such an entry is an error.
    """
    for word in key:
        if np.max(word, initial=0) > _MASK32:
            raise ValueError("spawn key entries must be below 2**32")
    pool = np.random.SeedSequence(seed).pool.tolist()
    steps = 4 * max(4, (seed.bit_length() + 31) // 32)
    const = _INIT_A * pow(_MULT_A, steps, 1 << 32) & _MASK32
    for word in key:
        for dst in range(4):
            mixed, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], mixed)
    out, const = [], _INIT_B
    for i in range(2 * count):
        word, const = _hashmix(pool[i % 4], const, _MULT_B)
        out.append(word)
    # each uint64 is two 32-bit words, little-endian
    return [out[i] | out[i + 1] << 32 for i in range(0, 2 * count, 2)]


def _pcg64_states(seed: int, key) -> list[dict]:
    """The PCG64 state of default_rng(SeedSequence(seed, spawn_key=key))
    for each entry of the key's array words.

    The four uint64s of _spawn_state are the 128-bit seed and stream, high
    word first; PCG64 sets inc = 2 stream + 1 and takes two LCG steps from
    state 0, adding the seed between them.
    """
    halves = (h.tolist() for h in _spawn_state(seed, key, 4))
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(*halves):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append({**_PCG64_STATE, "state": {"state": state, "inc": inc}})
    return states


def _bootstrap_mean(
    data: Dataset,
    link: LinkFunction,
    restriction: Restriction,
    theta_tilde,
    opts: BootstrapOptions,
    fit_opts: FitOptions,
):
    """Mean resample LR under the null at theta_tilde, with failure count.

    Resample b is drawn from default_rng(SeedSequence(seed,
    spawn_key=(b,))), so the aggregate is independent of evaluation
    order: _pcg64_states derives all B of those generators' states in one
    pass, and _beta_rows, looked up in this module so a test can install
    another draw, draws every resample from them, each gen_beta_sample's
    draw bit for bit.  Summation over the successful resamples is in fixed
    b-order.  The restricted fits of all resamples are one call to the
    scoring core, which evaluates their shared start, the generating
    parameters, once; the full fits of the rows that converged are
    another, warm-started at each row's restricted solution; a resample
    fails unless both of its rows end CONVERGED and its LR passes the
    nesting rule of lr_statistic: an LR below -_LR_ROUNDOFF fails, and
    round-off above it is floored at 0.  The core's rows are bit for bit
    batch-independent, so each resample's fits, and hence the mean, do
    not depend on how resamples are grouped or ordered.  Only data's
    design is read.
    """
    X = data.X
    p = X.shape[1]
    free_cols, fixed_cols, offset = restriction.split(X)
    beta_t, phi_t = theta_tilde.beta[free_cols], theta_tilde.phi
    # the contiguous X' of the scoring core and of _theta_rows: mu is the
    # fit's bit for bit unless a fixed value is nonzero (see _dense_rows)
    XT = np.ascontiguousarray(X.T)
    M = _means(np.einsum("bj,jn->bn", theta_tilde.beta[None], XT), link)[0]
    states = _pcg64_states(opts.seed, (np.arange(opts.B, dtype=np.uint64),))
    Y = _beta_rows(M[0, : len(X)], phi_t, states)

    rest = _fisher_scoring_batch(
        Y, X[:, free_cols], offset, link, beta_t, phi_t, fit_opts, keep_K=False
    )
    rows = np.nonzero(rest.ok)[0]
    beta_full0 = np.empty((len(rows), p))
    beta_full0[:, fixed_cols] = restriction.values
    beta_full0[:, free_cols] = rest.Beta[rows]
    full = _fisher_scoring_batch(
        Y[rows], X, 0.0, link, beta_full0, rest.Phi[rows], fit_opts, keep_K=False
    )
    lr = 2.0 * (full.LL[full.ok] - rest.LL[rows][full.ok])
    lr_ok = np.maximum(lr[lr >= -_LR_ROUNDOFF], 0.0)
    failures = opts.B - len(lr_ok)
    if failures > opts.max_failure_fraction * opts.B:
        raise BootstrapFailureError(
            f"{failures} of {opts.B} resample fits failed, over the budget of "
            f"{opts.max_failure_fraction:.0%}"
        )
    mean = float(np.mean(lr_ok))
    if mean <= 0.0:
        raise BootstrapFailureError("the resample LR mean is not positive")
    return mean, failures


def _test_rows(data, Y, link, restriction, chosen, boot_opts, fit_opts):
    """(reports, failed): the test battery on each row of the responses Y
    (rows, n), all on the design of the Dataset data, whose cached rank
    every row shares.

    Every row is fitted under both hypotheses in one call to the scoring
    core.  A row fails on the error of its full fit, else of its
    restricted fit, then on a nesting error, failed cumulant tensors or a
    bootstrap failure, in that order.  The Bartlett factors of all rows
    come from one call to the batched core, and row i's bootstrap runs
    with boot_opts[i]; each row's values are its own.  reports maps every
    row that passed to its TestReport, without p-values, and failed every
    other row to its error.
    """
    (full, failed), (rest, rest_failed) = _fit_rows(
        data, Y, link, (None, restriction), fit_opts
    )
    failed = {**rest_failed, **failed}  # the full fit's error first
    q = restriction.q
    lr = {}
    for i in full.keys() & rest.keys():
        try:
            lr[i] = lr_statistic(full[i], rest[i])
        except NestingError as exc:
            failed[i] = exc
    rows = sorted(lr)
    methods = {m: _METHODS[m] for m in _METHODS if m == "lr" or m in chosen}
    reads = {need for need, _ in methods.values()}

    x = {}
    if rows and "x" in reads:
        X = data.X
        Beta = np.array([rest[i].theta_hat.beta for i in rows])
        Phi = np.array([rest[i].theta_hat.phi for i in rows])
        eps_full, eps_nuis, bad = _bartlett_rows(
            X, link, restriction.split(X)[0], Beta, Phi
        )
        failed.update((rows[r], error) for r, error in bad.items())
        x = dict(zip(rows, ((eps_full - eps_nuis) / q).tolist()))

    reports = {}
    for i in rows:
        if i in failed:
            continue
        boot_mean, boot_failures = None, 0
        if "boot" in reads:
            theta = rest[i].theta_hat
            try:
                boot_mean, boot_failures = _bootstrap_mean(
                    data, link, restriction, theta, boot_opts[i], fit_opts
                )
            except BootstrapFailureError as exc:
                failed[i] = exc
                continue
        read = {None: None, "x": x.get(i), "boot": boot_mean}
        reports[i] = TestReport(
            q=q,
            statistics={m: f(lr[i], q, read[need]) for m, (need, f) in methods.items()},
            eps_diff_over_q=x.get(i),
            boot_mean=boot_mean,
            boot_failures=boot_failures,
            full_fit=full[i],
        )
    return reports, failed


def run_test(
    data: Dataset,
    link: LinkFunction,
    restriction: Restriction,
    methods=tuple(_METHODS),
    boot_opts: Optional[BootstrapOptions] = None,
    fit_opts: Optional[FitOptions] = None,
) -> TestReport:
    """Fit both hypotheses once and compute every requested statistic.

    A one-row call into _test_rows, the path a Monte Carlo block takes, so
    both fits are one call to the scoring core.  The first error of the
    test is raised: when both fits fail, the full fit's.  The p-values of
    the requested statistics that are finite come from one _p_value call
    on an array, in the order of the statistics table.
    """
    chosen = _check_methods(methods)
    reports, failed = _test_rows(
        data,
        data.y[None],
        link,
        restriction,
        chosen,
        [boot_opts or BootstrapOptions()],
        fit_opts or FitOptions(),
    )
    if failed:
        raise failed[0]
    report = reports[0]
    finite = {
        name: value
        for name, value in report.statistics.items()
        if name in chosen and math.isfinite(value)
    }
    p_values = _p_value(np.array([*finite.values()], dtype=float), restriction.q)
    return replace(report, p_values=dict(zip(finite, p_values.tolist())))
