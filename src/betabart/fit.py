"""Maximum likelihood estimation by Newton steps with a scoring fallback.

One scoring loop, _fisher_scoring_batch, fits a stack of response vectors
that share a design: the bootstrap calls it with B rows, and _fit_rows with
one row per dataset, a Monte Carlo block's replications or the one dataset
of fit_mle and fit_restricted.  Each row steps on its observed information
J, which converges quadratically near the optimum; a row whose J cannot be
solved, or whose Newton step does not ascend, takes the Fisher scoring
step on the expected information K instead.  Reported information
matrices are always K.  The loop reports a ScoringStatus per row, from
which _fit_rows records a NonConvergenceError or SingularInformationError
for the row and the one-row fits raise it.  A row's result is bit for bit
the same in any batch.  Restrictions fix selected coefficients at given
values; the restricted problem is solved on the free columns with the
fixed part absorbed into an offset.  Restricted results embed the fixed
values at their positions and report the information matrix on the free
space along with an embedding map.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Optional

import numpy as np

from .model import (
    MU_CLAMP,
    Dataset,
    LinkFunction,
    ParamVector,
    _rows_information,
    _rows_observed_information,
    _rows_score,
    _rows_state,
)

__all__ = [
    "FitError",
    "NonConvergenceError",
    "SingularInformationError",
    "Restriction",
    "FitOptions",
    "FitResult",
    "starting_values",
    "fit_mle",
    "fit_restricted",
]

# Secondary convergence criterion: relative log-likelihood change over the
# last accepted step must fall below this before convergence is declared.
_REL_LOGLIK_TOL = 1e-12


class FitError(RuntimeError):
    """Estimation failure."""


class NonConvergenceError(FitError):
    """Scoring ran out of iterations; carries the log-likelihood trace."""

    def __init__(self, trace, message: str | None = None):
        self.trace = list(trace)
        super().__init__(
            message
            or f"scoring did not converge within {len(self.trace) - 1} iterations"
        )


class SingularInformationError(FitError):
    """Singular or rank-deficient system; carries a condition estimate."""

    def __init__(self, message: str, condition: float = float("inf")):
        self.condition = condition
        super().__init__(message)


def _index(i, what):
    """i as an int; a bool, a float or any other non-integer is an error."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
        raise ValueError(f"{what} must be integers, not {i!r}")
    return int(i)


@dataclass(frozen=True)
class Restriction:
    """Null hypothesis fixing q coefficients at given values.

    indices are 1-based coefficient positions (the usual beta_1..beta_p
    numbering), sorted ascending and distinct; values are the fixed reals.
    At least one coefficient must remain free for fit_restricted.
    """

    indices: tuple
    values: tuple

    def __post_init__(self):
        idx = tuple(_index(i, "restriction indices") for i in self.indices)
        vals = tuple(float(v) for v in self.values)
        if not idx or len(idx) != len(vals):
            raise ValueError("indices and values must be nonempty and equal length")
        if len(set(idx)) != len(idx):
            raise ValueError("restriction indices must be distinct")
        if list(idx) != sorted(idx):
            raise ValueError("restriction indices must be sorted ascending")
        if idx[0] < 1:
            raise ValueError("restriction indices are 1-based coefficient positions")
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("restriction values must be finite")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)

    @property
    def q(self) -> int:
        return len(self.indices)

    def split(self, X):
        """(free columns, fixed columns, offset X_fixed values) of a design X.

        Column numbers are 0-based.  Raises ValueError when an index
        exceeds the columns of X.
        """
        p = X.shape[1]
        if self.indices[-1] > p:
            raise ValueError(
                f"restriction index {self.indices[-1]} exceeds the {p} design columns"
            )
        fixed = np.array(self.indices, dtype=int) - 1
        free = np.delete(np.arange(p), fixed)
        return free, fixed, X[:, fixed] @ np.array(self.values, dtype=float)


@dataclass(frozen=True)
class FitOptions:
    max_iterations: int = 100
    gradient_tolerance: float = 1e-8
    step_halving_max: int = 30

    def __post_init__(self):
        for name in ("max_iterations", "step_halving_max"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise TypeError(f"{name} must be an integer")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not 0.0 < self.gradient_tolerance < np.inf:
            raise ValueError("gradient_tolerance must be positive and finite")
        if self.step_halving_max < 1:
            raise ValueError("step_halving_max must be positive")


@dataclass(frozen=True)
class FitResult:
    """Converged estimation output.

    For restricted fits, theta_hat embeds the fixed values at their
    positions, std_errors are zero there (see fixed_mask), and K / K_inv
    live on the reduced free space; free_indices maps row a of K to
    position free_indices[a] of the full parameter vector.
    """

    theta_hat: ParamVector
    loglik: float
    K: np.ndarray
    K_inv: np.ndarray
    std_errors: np.ndarray
    iterations: int
    converged: bool
    clamp_activated: bool
    fixed_mask: np.ndarray
    free_indices: np.ndarray


def _check_full_rank(data: Dataset):
    if data.rank < data.p:
        raise SingularInformationError(
            f"design matrix is rank deficient (rank {data.rank} of {data.p} columns)"
        )


def _starting_point(y, X, offset, link):
    """Least-squares start on the link scale plus a moment start for phi."""
    z = np.asarray(link.g(y), dtype=float) - offset
    # Full column rank: callers check the design, and X holds some of its columns.
    beta0 = np.linalg.lstsq(X, z, rcond=None)[0]
    resid = z - X @ beta0
    # Guard against an exact fit: zero residual variance would send the
    # moment estimate of phi to infinity.
    resid_var = max(float(resid @ resid) / max(X.shape[0] - X.shape[1], 1), 1e-12)
    mu0 = np.clip(
        np.asarray(link.g_inv(X @ beta0 + offset), dtype=float),
        MU_CLAMP,
        1.0 - MU_CLAMP,
    )
    gprime = np.asarray(link.deriv1(mu0), dtype=float)
    sigma2 = resid_var / (gprime * gprime)
    phi0 = max(1.0, float(np.mean(mu0 * (1.0 - mu0) / sigma2)) - 1.0)
    return np.asarray(beta0, dtype=float), phi0


def starting_values(data: Dataset, link: LinkFunction) -> ParamVector:
    """Starting point for the scoring loop on the unrestricted model."""
    _check_full_rank(data)
    beta0, phi0 = _starting_point(data.y, data.X, np.zeros(data.n), link)
    return ParamVector(beta0, phi0)


class ScoringStatus(IntEnum):
    """How the scoring core left a row.

    CONVERGED: at the start of an iteration the score max-norm was within
    gradient_tolerance and the last accepted step moved l by at most the
    noise slack.  MAX_ITERATIONS: still moving after max_iterations steps.
    SINGULAR: the expected information, which a row steps on when its
    Newton step fails, could not be factorised.  NON_FINITE:
    the log-likelihood at the start is not finite.
    """

    CONVERGED = 0
    MAX_ITERATIONS = 1
    SINGULAR = 2
    NON_FINITE = 3


class _BatchFit(NamedTuple):
    """Per-row output of _fisher_scoring_batch, B rows in every field.

    Beta, Phi and LL are the last accepted iterate; K is the expected
    information there for CONVERGED and SINGULAR rows, zero elsewhere, or
    None when the caller asked for no K.
    clamped flags a mean clamped at the start or at an accepted iterate.
    """

    Beta: np.ndarray
    Phi: np.ndarray
    LL: np.ndarray
    status: np.ndarray
    iterations: np.ndarray
    clamped: np.ndarray
    K: np.ndarray

    @property
    def ok(self) -> np.ndarray:
        return self.status == ScoringStatus.CONVERGED


class _Active:
    """Scoring state of the rows still iterating, packed to those rows."""

    def put(self, at, **fields):
        """Write fields to the rows at (an index array); a slice replaces them whole."""
        for name, value in fields.items():
            if isinstance(at, slice):
                setattr(self, name, value)
            else:
                getattr(self, name)[at] = value


def _solve(K, U):
    """Solve K[i] Z[i] = U[i] for each matrix in the stacks K and U; also
    returns the singular rows' mask, or None.  A singular row's Z is zero."""
    try:
        return np.linalg.solve(K, U), None
    except np.linalg.LinAlgError:
        Z = np.zeros(U.shape)
        singular = np.zeros(len(U), dtype=bool)
        for i in range(len(U)):
            try:
                Z[i] = np.linalg.solve(K[i], U[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return Z, singular


def _inverse_rows(K):
    """Inverse of each matrix of the stack K, and the singular rows' mask or None."""
    return _solve(K, np.broadcast_to(np.eye(K.shape[-1]), K.shape))


def _fisher_scoring_batch(Y, X, offset, link, Beta0, Phi0, opts, keep_K=True):
    """Newton steps, with scoring steps as the fallback, on a stack of
    response vectors; the only scoring loop.

    Y has one response vector per row; X and offset are shared.  Beta0 is
    a single vector broadcast to every row or one row per response; Phi0
    likewise a scalar or per-row vector.  Returns a _BatchFit; with keep_K
    false its K is None and no retiring row's information is built, for
    callers that read only the iterate and the status.

    Each row takes the Newton step J^-1 U on its observed information J,
    or the scoring step K^-1 U on its expected information K where J is
    singular or U . J^-1 U is not positive (not an ascent direction, or
    not finite).  The step is halved until phi stays positive and the
    log-likelihood does not drop by more than the slack
    _REL_LOGLIK_TOL * max(1, |l|): near the optimum the true gain of a full
    step is far below the rounding noise of l, and a strict gate would
    freeze the iterate with the gradient still above tolerance.  A row
    with no acceptable step stays put.  Iteration i (1-based) starts with
    the convergence test.  A row stops CONVERGED, MAX_ITERATIONS, SINGULAR
    or NON_FINITE (see ScoringStatus) after i iterations (0 for NON_FINITE).

    Every field of a row is bit for bit the same whichever rows share its
    batch and in whatever order, a batch of one included, because all
    arithmetic is row-local (see model._rows_state).
    """
    B, n = Y.shape
    p = X.shape[1]
    k = p + 1
    XT = np.ascontiguousarray(X.T)
    out = _BatchFit(
        Beta=np.empty((B, p)),
        Phi=np.empty(B),
        LL=np.empty(B),
        status=np.empty(B, dtype=np.int8),
        iterations=np.empty(B, dtype=int),
        clamped=np.empty(B, dtype=bool),
        K=np.zeros((B, k, k)) if keep_K else None,
    )

    s = _Active()
    s.rows = np.arange(B)
    s.L = np.concatenate((np.log(Y), np.log1p(-Y)), axis=1)
    s.Beta = np.zeros((B, p)) + Beta0
    s.Phi = np.zeros(B) + Phi0
    s.M, s.T, s.Psi, s.Tri, s.LL, s.clamped = _rows_state(
        s.Beta, s.Phi, XT, offset, link, s.L
    )
    # slack is the noise allowance _REL_LOGLIK_TOL * max(1, |l|); settled
    # marks rows whose last accepted step changed l by at most that much.
    s.slack = _REL_LOGLIK_TOL * np.maximum(1.0, np.abs(s.LL))
    s.settled = np.zeros(B, dtype=bool)

    def information(rows):
        """Expected information at the current point of the given rows."""
        return _rows_information(XT, s.Phi[rows], s.M[rows], s.T[rows], s.Tri[rows])

    def retire(mask, status, iterations, K=None):
        """Write the masked rows, with K their expected information, to
        out and drop them from the state."""
        at = s.rows[mask]
        for name in ("Beta", "Phi", "LL", "clamped"):
            getattr(out, name)[at] = getattr(s, name)[mask]
        out.status[at] = status
        out.iterations[at] = iterations
        if keep_K and K is not None:
            out.K[at] = K
        s.put(slice(None), **{name: value[~mask] for name, value in vars(s).items()})

    def accept(at, good, Beta_t, Phi_t, trial):
        """Move the rows at[good] to their trial point; at=None moves every row."""
        rows = slice(None)
        if at is not None:
            rows = at[good]
            Beta_t, Phi_t = Beta_t[good], Phi_t[good]
            trial = [v[good] for v in trial]
        M, T, Psi, Tri, LL, clamped = trial
        slack = _REL_LOGLIK_TOL * np.maximum(1.0, np.abs(LL))
        s.put(
            rows,
            settled=np.abs(LL - s.LL[rows]) <= slack,
            clamped=s.clamped[rows] | clamped,
            Beta=Beta_t, Phi=Phi_t, M=M, T=T, Psi=Psi, Tri=Tri, LL=LL, slack=slack,
        )

    if not np.isfinite(s.LL).all():
        retire(~np.isfinite(s.LL), ScoringStatus.NON_FINITE, 0)
    min_scale = 0.5**opts.step_halving_max
    for iteration in range(1, opts.max_iterations + 1):
        if not len(s.rows):
            break
        U = _rows_score(XT, s.Phi, s.M, s.T, s.Psi, s.L)
        conv = s.settled
        if conv.any():
            conv = conv & (np.abs(U).max(axis=1) <= opts.gradient_tolerance)
        if conv.any():
            K = information(conv) if keep_K else None
            retire(conv, ScoringStatus.CONVERGED, iteration, K)
            if not len(s.rows):
                break
            U = U[~conv]
        J = _rows_observed_information(XT, s.Phi, s.M, s.T, s.Psi, s.Tri, s.L, link)
        Step = _solve(J, U[:, :, None])[0][:, :, 0]
        # A row whose J is singular (zero step) or whose Newton step is not
        # an ascent direction takes the scoring step K^-1 U instead.
        fallback = np.nonzero(~(np.einsum("bk,bk->b", U, Step) > 0.0))[0]
        if fallback.size:
            K = information(fallback)
            Step_K, singular = _solve(K, U[fallback, :, None])
            Step[fallback] = Step_K[:, :, 0]
            if singular is not None:
                mask = np.zeros(len(Step), dtype=bool)
                mask[fallback[singular]] = True
                retire(mask, ScoringStatus.SINGULAR, iteration, K[singular])
                if not len(s.rows):
                    break
                Step = Step[~mask]
        del U, J  # freed before the trial evaluations
        # The full step is tried on every row at once, with no index
        # bookkeeping; only the rows it fails go on to be halved.
        Phi_t = s.Phi + Step[:, p]
        scale = 1.0
        if Phi_t.min() > 0.0:
            Beta_t = s.Beta + Step[:, :p]
            trial = _rows_state(Beta_t, Phi_t, XT, offset, link, s.L)
            good = trial[4] >= s.LL - s.slack
            if good.all():
                accept(None, good, Beta_t, Phi_t, trial)
                continue
            accept(np.arange(len(good)), good, Beta_t, Phi_t, trial)
            pending = ~good
            scale = 0.5
        else:
            pending = np.ones(len(Phi_t), dtype=bool)
        while scale >= min_scale and pending.any():
            idx = np.nonzero(pending)[0]
            Phi_t = s.Phi[idx] + scale * Step[idx, p]
            pos = Phi_t > 0.0
            if pos.any():
                at = idx[pos]
                Beta_t = s.Beta[at] + scale * Step[at, :p]
                trial = _rows_state(Beta_t, Phi_t[pos], XT, offset, link, s.L[at])
                good = trial[4] >= s.LL[at] - s.slack[at]
                accept(at, good, Beta_t, Phi_t[pos], trial)
                pending[at[good]] = False
            scale *= 0.5
        # Rows with no acceptable step stay put; the gradient criterion or
        # the iteration budget decides their fate on a later pass.
        s.settled[pending] = True
    if len(s.rows):
        retire(
            np.ones(len(s.rows), dtype=bool),
            ScoringStatus.MAX_ITERATIONS,
            opts.max_iterations,
        )
    return out


def _singular_error(K):
    cond = float(np.linalg.cond(K))
    return SingularInformationError(
        f"information matrix is singular (condition estimate {cond:.2e})",
        condition=cond,
    )


def _fit_rows(datasets, link, restriction, opts, start=None):
    """(results, failed): datasets that share one design, fitted with the
    coefficients of restriction held fixed (none when it is None) in one
    call to the scoring core.

    start, a full-space ParamVector, seeds every row; by default each row
    starts from its own least-squares point (never a batched one, which
    would move the iterates).  results maps each row that converged with
    an invertible information to its FitResult, embedded in the full
    space; failed maps every other row to its FitError.
    """
    X = datasets[0].X
    n, p = X.shape
    if restriction is None:
        free, fixed, offset, values = np.arange(p), np.arange(0), np.zeros(n), ()
    else:
        free, fixed, offset = restriction.split(X)
        if not free.size:
            raise ValueError("restriction must leave at least one free coefficient")
        X = X[:, free]
        values = restriction.values
    try:
        _check_full_rank(datasets[0])
    except SingularInformationError as exc:
        return {}, dict.fromkeys(range(len(datasets)), exc)
    Y = np.array([data.y for data in datasets])
    if start is None:
        Beta0, Phi0 = np.empty((len(Y), free.size)), np.empty(len(Y))
        for i, y in enumerate(Y):
            Beta0[i], Phi0[i] = _starting_point(y, X, offset, link)
    elif start.beta.size != p:
        raise ValueError("starting point dimension does not match design")
    else:
        Beta0, Phi0 = start.beta[free], start.phi
    fit = _fisher_scoring_batch(Y, X, offset, link, Beta0, Phi0, opts)
    ok = fit.ok
    K_inv = np.zeros_like(fit.K)
    K_inv[ok], singular = _inverse_rows(fit.K[ok])
    if singular is not None:
        ok[np.nonzero(ok)[0][singular]] = False

    k = p + 1
    free_indices = np.append(free, p)
    results, failed = {}, {}
    for i, status in enumerate(fit.status):
        if not ok[i]:
            if status in (ScoringStatus.CONVERGED, ScoringStatus.SINGULAR):
                failed[i] = _singular_error(fit.K[i])
            else:
                failed[i] = NonConvergenceError(
                    [float(fit.LL[i])],
                    "log-likelihood is not finite at the starting point"
                    if status == ScoringStatus.NON_FINITE
                    else "scoring did not converge within "
                    f"{opts.max_iterations} iterations",
                )
            continue
        beta = np.empty(p)
        beta[free] = fit.Beta[i]
        beta[fixed] = values
        std_errors = np.zeros(k)
        std_errors[free_indices] = np.sqrt(np.diag(K_inv[i]))
        fixed_mask = np.zeros(k, dtype=bool)
        fixed_mask[fixed] = True
        results[i] = FitResult(
            theta_hat=ParamVector(beta, float(fit.Phi[i])),
            loglik=float(fit.LL[i]),
            K=fit.K[i],
            K_inv=K_inv[i],
            std_errors=std_errors,
            iterations=int(fit.iterations[i]),
            converged=True,
            clamp_activated=bool(fit.clamped[i]),
            fixed_mask=fixed_mask,
            free_indices=free_indices,
        )
    return results, failed


def _fit(data, link, restriction, opts, start):
    """One-row call into _fit_rows, raising the row's error."""
    results, failed = _fit_rows([data], link, restriction, opts or FitOptions(), start)
    if failed:
        raise failed[0]
    return results[0]


def fit_mle(
    data: Dataset,
    link: LinkFunction,
    opts: Optional[FitOptions] = None,
    start: Optional[ParamVector] = None,
) -> FitResult:
    """Unrestricted maximum likelihood fit (see _fisher_scoring_batch).

    start overrides the default starting point; useful for warm starts in
    resampling loops.
    """
    return _fit(data, link, None, opts, start)


def fit_restricted(
    data: Dataset,
    link: LinkFunction,
    restriction: Restriction,
    opts: Optional[FitOptions] = None,
    start: Optional[ParamVector] = None,
) -> FitResult:
    """Maximum likelihood fit with selected coefficients held fixed.

    The fixed columns contribute an offset to the linear predictor; the
    scoring loop runs on the remaining columns plus phi.  start, if given,
    is a full-space parameter vector whose free components seed the loop.
    """
    return _fit(data, link, restriction, opts, start)
