"""Likelihood ratio tests with analytic and bootstrap corrections.

The likelihood ratio statistic LR = 2(l_full - l_restricted) is compared
to a chi-squared law with q degrees of freedom.  Three analytic variants
rescale LR by the correction factor c = 1 + x with x = (eps_full -
eps_nuis) / q: LR / c, LR exp(-x), and LR (1 - x), equivalent to order
1/n.  The bootstrap variant rescales by the mean of LR over parametric
resamples drawn under the null at the restricted estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .cumulants import bartlett_factor
from .fit import (
    FitOptions,
    FitResult,
    NonConvergenceError,
    Restriction,
    _fisher_scoring_batch,
    fit_mle,
    fit_restricted,
)
from .model import MU_CLAMP, Dataset, LinkFunction
from .specfun import chisq_sf

__all__ = [
    "NestingError",
    "BootstrapFailureError",
    "BootstrapOptions",
    "TestReport",
    "lr_statistic",
    "bartlett_corrected",
    "bootstrap_bartlett",
    "run_test",
]

_METHODS = ("lr", "b1", "b2", "b3", "boot")

# A tiny negative LR is pure round-off from two near-identical optima and
# is floored; anything more negative means the models are not nested.
_LR_ROUNDOFF = 1e-10


class NestingError(ValueError):
    """The two fits do not form a nested pair."""


class BootstrapFailureError(RuntimeError):
    """Too many resample fits failed, or the resample mean degenerated."""


@dataclass(frozen=True)
class BootstrapOptions:
    """Bootstrap settings: resample count, seed, and failure budget."""

    B: int = 500
    seed: int = 0
    max_failure_fraction: float = 0.02

    def __post_init__(self):
        if not isinstance(self.B, (int, np.integer)) or self.B < 1:
            raise ValueError("B must be a positive integer")
        if not 0.0 <= self.max_failure_fraction < 1.0:
            raise ValueError("max_failure_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class TestReport:
    """Everything one restriction test produced.

    Statistics not requested are None; p_values maps each computed,
    finite statistic's name to chisq_sf(max(stat, 0), q).  full_fit is the
    unrestricted fit behind lr, kept so callers need not refit it.
    """

    lr: float
    q: int
    eps_diff_over_q: Optional[float]
    lr_b1: Optional[float]
    lr_b2: Optional[float]
    lr_b3: Optional[float]
    lr_boot: Optional[float]
    boot_mean: Optional[float]
    boot_failures: int
    p_values: dict
    full_fit: Optional[FitResult] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.lr < 0.0:
            raise ValueError("lr must be nonnegative")
        for name, prob in self.p_values.items():
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"p-value for {name} is outside [0, 1]")

    @property
    def df(self) -> int:
        return self.q


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
    """The three corrected statistics (LR/c, LR exp(-x), LR (1-x)).

    x = eps_diff_over_q and c = 1 + x.  When c <= 0 the division form is
    meaningless and lr_b1 is returned as NaN.
    """
    if lr < 0.0:
        raise ValueError("lr must be nonnegative")
    if q < 1:
        raise ValueError("q must be a positive integer")
    x = float(eps_diff_over_q)
    c = 1.0 + x
    lr_b1 = lr / c if c > 0.0 else math.nan
    lr_b2 = lr * math.exp(-x)
    lr_b3 = lr * (1.0 - x)
    return lr_b1, lr_b2, lr_b3


def _default_resample(mu, phi, rng):
    """Parametric beta resample via a pair of gamma variates."""
    g1 = rng.standard_gamma(mu * phi)
    g2 = rng.standard_gamma((1.0 - mu) * phi)
    return np.clip(g1 / (g1 + g2), MU_CLAMP, 1.0 - MU_CLAMP)


def _bootstrap_mean(
    data: Dataset,
    link: LinkFunction,
    restriction: Restriction,
    theta_tilde,
    opts: BootstrapOptions,
    fit_opts: FitOptions,
    resample_fn,
):
    """Mean resample LR under the null at theta_tilde, with failure count.

    Each resample b draws from an RNG stream derived from (seed, b), so
    the aggregate is independent of evaluation order; summation over the
    successful resamples is in fixed b-order.  The two fits per resample
    run through the row-batched scoring core, warm-started at the
    generating parameters (restricted) and at each row's restricted
    solution (full).  That core's per-row arithmetic is batch-independent
    bit for bit, so each resample's fits, and hence the mean, do not
    depend on how resamples are grouped or ordered in a batch.
    """
    X = data.X
    n, p = X.shape
    fixed_cols = np.array([i - 1 for i in restriction.indices], dtype=int)
    free_cols = np.array(
        [j for j in range(p) if (j + 1) not in restriction.indices], dtype=int
    )
    values = np.array(restriction.values, dtype=float)
    offset = X[:, fixed_cols] @ values
    X_free = X[:, free_cols]
    zero_offset = np.zeros(n)

    eta = X @ theta_tilde.beta
    mu_raw = np.asarray(link.g_inv(eta), dtype=float)
    mu_t = np.clip(mu_raw, MU_CLAMP, 1.0 - MU_CLAMP)
    phi_t = theta_tilde.phi
    beta0_free = theta_tilde.beta[free_cols]

    Y = np.empty((opts.B, n))
    for b in range(opts.B):
        rng = np.random.default_rng(np.random.SeedSequence(opts.seed, spawn_key=(b,)))
        Y[b] = resample_fn(mu_t, phi_t, rng)

    beta_r, phi_r, ll_r, ok_r = _fisher_scoring_batch(
        Y, X_free, offset, link, beta0_free, phi_t, fit_opts
    )
    rows = np.nonzero(ok_r)[0]
    lr_ok = np.zeros(0)
    if len(rows):
        beta_full0 = np.empty((len(rows), p))
        beta_full0[:, fixed_cols] = values
        beta_full0[:, free_cols] = beta_r[rows]
        _, _, ll_f, ok_f = _fisher_scoring_batch(
            Y[rows], X, zero_offset, link, beta_full0, phi_r[rows], fit_opts
        )
        lr_ok = np.maximum(2.0 * (ll_f[ok_f] - ll_r[rows][ok_f]), 0.0)
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


def bootstrap_bartlett(
    data: Dataset,
    link: LinkFunction,
    restriction: Restriction,
    opts: Optional[BootstrapOptions] = None,
    fit_opts: Optional[FitOptions] = None,
    resample_fn: Optional[Callable] = None,
):
    """Bootstrap-corrected statistic LR * q / mean(LR over resamples).

    Resamples are drawn from the fitted null model: beta variates with
    means from the restricted estimate and its precision.  resample_fn
    overrides the generator (signature (mu, phi, rng) -> y), which is how
    tests install the self-resample identity.  Returns (lr_boot,
    boot_mean, boot_failures), deterministic given opts.seed.
    """
    opts = opts or BootstrapOptions()
    fit_opts = fit_opts or FitOptions()
    full = fit_mle(data, link, fit_opts)
    rest = fit_restricted(data, link, restriction, fit_opts)
    lr = lr_statistic(full, rest)
    mean, failures = _bootstrap_mean(
        data,
        link,
        restriction,
        rest.theta_hat,
        opts,
        fit_opts,
        resample_fn or _default_resample,
    )
    return lr * restriction.q / mean, mean, failures


def run_test(
    data: Dataset,
    link: LinkFunction,
    restriction: Restriction,
    methods=_METHODS,
    boot_opts: Optional[BootstrapOptions] = None,
    fit_opts: Optional[FitOptions] = None,
) -> TestReport:
    """Fit both hypotheses once and compute every requested statistic."""
    chosen = tuple(dict.fromkeys(methods))
    for name in chosen:
        if name not in _METHODS:
            raise ValueError(f"unknown method {name!r}; choose from {_METHODS}")
    if not chosen:
        raise ValueError("methods must name at least one statistic")
    fit_opts = fit_opts or FitOptions()
    full = fit_mle(data, link, fit_opts)
    rest = fit_restricted(data, link, restriction, fit_opts)
    lr = lr_statistic(full, rest)
    q = restriction.q

    x = None
    lr_b1 = lr_b2 = lr_b3 = None
    if any(name in chosen for name in ("b1", "b2", "b3")):
        factor = bartlett_factor(data, link, restriction, rest.theta_hat)
        x = (factor.eps_full - factor.eps_nuis) / q
        b1, b2, b3 = bartlett_corrected(lr, x, q)
        lr_b1 = b1 if "b1" in chosen else None
        lr_b2 = b2 if "b2" in chosen else None
        lr_b3 = b3 if "b3" in chosen else None

    lr_boot = boot_mean = None
    boot_failures = 0
    if "boot" in chosen:
        opts = boot_opts or BootstrapOptions()
        boot_mean, boot_failures = _bootstrap_mean(
            data, link, restriction, rest.theta_hat, opts, fit_opts, _default_resample
        )
        lr_boot = lr * q / boot_mean

    p_values = {}
    stats = {"lr": lr, "b1": lr_b1, "b2": lr_b2, "b3": lr_b3, "boot": lr_boot}
    for name in chosen:
        value = stats[name]
        if value is not None and math.isfinite(value):
            p_values[name] = chisq_sf(max(value, 0.0), q)
    return TestReport(
        lr=lr,
        q=q,
        eps_diff_over_q=x,
        lr_b1=lr_b1,
        lr_b2=lr_b2,
        lr_b3=lr_b3,
        lr_boot=lr_boot,
        boot_mean=boot_mean,
        boot_failures=boot_failures,
        p_values=p_values,
        full_fit=full,
    )
