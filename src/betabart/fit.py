"""Maximum likelihood estimation by Newton steps with a scoring fallback.

One scoring loop, _fisher_scoring_batch, fits a stack of response vectors,
each row on one of a few designs: the bootstrap calls it with B rows on
one design, and _fit_rows with one row per response vector and
hypothesis, so that every test, of run_test's one dataset or of a Monte
Carlo block's replications, fits both hypotheses in one call, and
fit_mle and fit_restricted are one-row calls.  Each row steps on its observed
information J, which converges quadratically near the optimum; a row
whose J cannot be solved, or whose Newton step does not ascend, takes
the Fisher scoring step on the expected information K instead.
Reported information matrices are always K.  The loop reports a
ScoringStatus per row, from which _fit_rows records a NonConvergenceError
or SingularInformationError for the row and the one-row fits raise it.  A
row's result is bit for bit the same in any batch.  Restrictions fix
selected coefficients at given values; the restricted problem is solved on
the free columns with the fixed part absorbed into an offset.  Restricted
results embed the fixed values at their positions and report the
information matrix on the free space along with an embedding map.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Optional

import numpy as np

from .model import (
    Dataset,
    LinkFunction,
    ParamVector,
    _eta_state,
    _means,
    _rows_information,
    _rows_observed_information,
    _rows_score,
)
from .specfun import _integer, _real, _reals, _sequence

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
    """A fit did not reach an optimum.

    Scoring ran out of iterations, or the log-likelihood was not finite at
    the starting point.  trace holds the last accepted log-likelihood, and
    is empty when lr_statistic raises this for a fit that did not converge.
    """

    def __init__(self, trace, message: str):
        self.trace = list(trace)
        super().__init__(message)


class SingularInformationError(FitError):
    """Singular or rank-deficient system; carries a condition estimate."""

    def __init__(self, message: str, condition: float = float("inf")):
        self.condition = condition
        super().__init__(message)


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
        idx = tuple(
            _integer(i, "restriction index", 1)
            for i in _sequence(self.indices, "restriction indices")
        )
        vals = _reals(self.values, "restriction values")
        if not idx or len(idx) != len(vals):
            raise ValueError("indices and values must be nonempty and equal length")
        if len(set(idx)) != len(idx):
            raise ValueError("restriction indices must be distinct")
        if list(idx) != sorted(idx):
            raise ValueError("restriction indices must be sorted ascending")
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
        with np.errstate(over="ignore"):  # a huge value gives an inf offset
            return free, fixed, X[:, fixed] @ np.array(self.values, dtype=float)


@dataclass(frozen=True)
class FitOptions:
    max_iterations: int = 100
    gradient_tolerance: float = 1e-8
    step_halving_max: int = 30

    def __post_init__(self):
        for name in ("max_iterations", "step_halving_max"):
            object.__setattr__(self, name, _integer(getattr(self, name), name, 1))
        tolerance = _real(self.gradient_tolerance, "gradient_tolerance", positive=True)
        object.__setattr__(self, "gradient_tolerance", tolerance)


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


def _starting_point(Y, X, offset, link):
    """(Beta0, Phi0): least-squares starts on the link scale plus moment
    starts for phi, one per row of Y.  Only the solve, X @ beta0 and the
    residual sum of squares run per row, so a row starts as it would alone.
    """
    Z = np.asarray(link.g(Y), dtype=float) - offset
    # Full column rank: callers check the design, and X holds some of its columns.
    Beta0 = np.array([np.linalg.lstsq(X, z, rcond=None)[0] for z in Z])
    Eta = np.array([X @ beta0 for beta0 in Beta0])
    with np.errstate(over="ignore"):  # an inf rss gives the phi start 1.0
        rss = np.array([resid @ resid for resid in Z - Eta])
    # Guard against an exact fit: zero residual variance would send the
    # moment estimate of phi to infinity.
    resid_var = np.maximum(rss / max(X.shape[0] - X.shape[1], 1), 1e-12)
    mu0 = _means(Eta + offset, link)[0][:, : X.shape[0]]
    gprime = np.asarray(link.deriv1(mu0), dtype=float)
    sigma2 = resid_var[:, None] / (gprime * gprime)
    # fmax, like max(1.0, ...), picks 1.0 over a NaN
    Phi0 = np.fmax(np.mean(mu0 * (1.0 - mu0) / sigma2, axis=1) - 1.0, 1.0)
    return Beta0, Phi0


def starting_values(data: Dataset, link: LinkFunction) -> ParamVector:
    """Starting point for the scoring loop on the unrestricted model."""
    _check_full_rank(data)
    Beta0, Phi0 = _starting_point(data.y[None], data.X, np.zeros(data.n), link)
    return ParamVector(Beta0[0], Phi0[0])


class ScoringStatus(IntEnum):
    """How the scoring core left a row.

    CONVERGED: at the start of an iteration the score max-norm was within
    gradient_tolerance and the last accepted step moved l by at most the
    noise slack.  MAX_ITERATIONS: not converged after max_iterations
    steps; this includes a row retired early because no step of any scale
    was acceptable while its score max-norm was above gradient_tolerance:
    its state cannot change again, so it could only have reached the cap.
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
    None when the caller asked for no K.  On designs of several widths
    Beta and K are padded to the widest (see _fisher_scoring_batch), and
    _fit_rows hands _results each design's row slice of every field as is.
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
        if isinstance(at, slice):
            self.__dict__.update(fields)
            return
        for name, value in fields.items():
            getattr(self, name)[at] = value


def _solve(K, U):
    """Solve K[i] Z[i] = U[i] for each matrix in the stacks K and U; also
    returns the boolean mask of the singular rows, whose Z is zero."""
    singular = np.zeros(len(U), dtype=bool)
    try:
        return np.linalg.solve(K, U), singular
    except np.linalg.LinAlgError:
        Z = np.zeros(U.shape)
        for i in range(len(U)):
            try:
                Z[i] = np.linalg.solve(K[i], U[i])
            except np.linalg.LinAlgError:
                singular[i] = True
        return Z, singular


def _inverse_rows(K):
    """Inverse of each matrix of the stack K, and _solve's singular-row mask."""
    return _solve(K, np.broadcast_to(np.eye(K.shape[-1]), K.shape))


def _fisher_scoring_batch(Y, X, offset, link, Beta0, Phi0, opts, keep_K=True):
    """Newton steps, with scoring steps as the fallback, on a stack of
    response vectors; the only scoring loop.

    Y has one response vector per row.  X and offset are a list of designs
    and their linear-predictor offsets, or one design and its offset: the
    rows of Y fall into as many equal blocks, in order, and block d is
    fitted on X[d] with offset[d].  Beta0 is a single vector broadcast to
    every row or one row per response; Phi0 likewise a scalar or per-row
    vector.  Returns a _BatchFit; with keep_K false its K is None and no
    retiring row's information is built, for callers that read only the
    iterate and the status.  Beta0 and the result's Beta and K are as wide
    as the widest design: a row on a design of p columns keeps its
    coefficients in the last p columns (the rest are zero) and its K in
    the trailing (p + 1)-square block.

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
    or NON_FINITE (see ScoringStatus) after i iterations (0 for NON_FINITE,
    max_iterations for MAX_ITERATIONS).

    The linear predictor, the score, the information and the solves run
    per design, each on its block of the active rows; everything else, the
    model evaluation past the linear predictor (model._eta_state) at the
    start and at every trial scale included, runs once over the rows of
    all designs.  When every row starts at one point (a single Beta0
    vector and a scalar Phi0, as in the bootstrap's restricted fits), the
    start is evaluated once per design and repeated over its rows; only
    the log-likelihood, which reads y, is formed per row.  Every field of
    a row is bit for bit the same whichever rows share its batch, on
    whatever designs and in whatever order, a batch of one included, and
    whether its start is shared or its own, because all arithmetic is
    row-local (see model._eta_state).
    """
    if isinstance(X, np.ndarray):
        X, offset = [X], [offset]
    designs = [(np.ascontiguousarray(Xd.T), od) for Xd, od in zip(X, offset)]
    B, n = Y.shape
    if B % len(designs):
        raise ValueError("the rows must split evenly over the designs")
    P = max(len(XT) for XT, _ in designs)
    out = _BatchFit(
        Beta=np.empty((B, P)),
        Phi=np.empty(B),
        LL=np.empty(B),
        status=np.empty(B, dtype=np.int8),
        iterations=np.empty(B, dtype=int),
        clamped=np.empty(B, dtype=bool),
        K=np.zeros((B, P + 1, P + 1)) if keep_K else None,
    )
    N = B // len(designs)  # row i is on design i // N

    def blocks(rows):
        """(XT, offset, part) of each design with rows among the sorted row
        numbers rows, part being the slice of rows on that design."""
        ends = np.searchsorted(rows, np.arange(len(designs) + 1) * N).tolist()
        return [
            (XT, off, slice(lo, hi))
            for (XT, off), lo, hi in zip(designs, ends, ends[1:])
            if lo < hi
        ]

    spans = blocks(np.arange(B))  # of the active rows; changes only when rows retire

    def predictor(Beta, parts):
        """Linear predictors at Beta of the rows of parts, blocks() output."""
        Eta = np.empty((len(Beta), n))
        for XT, off, rows in parts:
            eta = Eta[rows]
            np.einsum("bj,jn->bn", Beta[rows, P - len(XT) :], XT, out=eta)
            eta += off
        return Eta

    def state(Beta, Phi, L, at=None):
        """_eta_state of the active rows, or of those at (sorted positions
        among them), at (Beta, Phi)."""
        parts = spans if at is None else blocks(s.rows[at])
        # no reference is kept here, so _eta_state frees Eta once it is used
        return _eta_state(predictor(Beta, parts), Phi, link, L)

    s = _Active()
    s.rows = np.arange(B)
    s.L = np.concatenate((np.log(Y), np.log1p(-Y)), axis=1)
    s.Beta = np.zeros((B, P)) + Beta0
    s.Phi = np.zeros(B) + Phi0
    if np.ndim(Beta0) == 1 and np.ndim(Phi0) == 0:
        # Every row of a design starts at one point: the model is evaluated
        # there once per design and its state repeated over the design's rows.
        one = blocks(np.arange(len(designs)) * N)
        Eta = predictor(np.zeros((len(one), P)) + Beta0, one)
        start = _eta_state(Eta, np.zeros(len(one)) + Phi0, link, s.L, N)
    else:
        start = state(s.Beta, s.Phi, s.L)
    s.M, s.T, s.Psi, s.Tri, s.LL, s.clamped = start
    del start  # it would keep the start's state alive past the first step
    # slack is the noise allowance _REL_LOGLIK_TOL * max(1, |l|); settled
    # marks rows whose last accepted step changed l by at most that much.
    s.slack = _REL_LOGLIK_TOL * np.maximum(1.0, np.abs(s.LL))
    s.settled = np.zeros(B, dtype=bool)

    def views():
        """Each design's rows of the state, as (XT, rows, Phi, M, T, Psi,
        Tri, L)."""
        return [
            (XT, rows, s.Phi[rows], s.M[rows], s.T[rows], s.Psi[rows], s.Tri[rows],
             s.L[rows])
            for XT, _, rows in spans
        ]

    def retire(mask, status, iterations):
        """Write the masked rows to out, with keep_K the expected information of
        the CONVERGED and SINGULAR ones at their state, one _rows_information call
        per design, and drop them from the state; an empty mask does nothing."""
        if not mask.any():
            return
        at = s.rows[mask]
        for name in ("Beta", "Phi", "LL", "clamped"):
            getattr(out, name)[at] = getattr(s, name)[mask]
        out.status[at] = status
        out.iterations[at] = iterations
        if keep_K and status in (ScoringStatus.CONVERGED, ScoringStatus.SINGULAR):
            live = np.flatnonzero(mask)
            for XT, _, rows in blocks(at):
                i, k = live[rows], len(XT) + 1
                K = _rows_information(XT, s.Phi[i], s.M[i], s.T[i], s.Tri[i])
                out.K[at[rows], -k:, -k:] = K
        keep = np.flatnonzero(~mask)
        s.put(slice(None), **{name: value[keep] for name, value in vars(s).items()})
        spans[:] = blocks(s.rows)

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

    retire(~np.isfinite(s.LL), ScoringStatus.NON_FINITE, 0)
    min_scale = 0.5**opts.step_halving_max
    # stalled marks the rows that found no acceptable step on the last
    # pass; False when every row took a step
    stalled = False
    for iteration in range(1, opts.max_iterations + 1):
        if not len(s.rows):
            break
        parts = views()
        scores = [
            _rows_score(XT, Phi, M, T, Psi, L) for XT, _, Phi, M, T, Psi, _, L in parts
        ]
        done = s.settled
        if done.any():
            small = np.concatenate([np.abs(u).max(axis=1) for u in scores])
            small = small <= opts.gradient_tolerance
            conv = done & small
            # A row that found no acceptable step on the last pass is where
            # it was then.  Unless it converges now, it would repeat that
            # pass every time, so it leaves with the status and count the
            # iteration cap would give it.
            stuck = stalled & ~small
            done = conv | stuck
            retire(conv, ScoringStatus.CONVERGED, iteration)
            retire(stuck[~conv], ScoringStatus.MAX_ITERATIONS, opts.max_iterations)
            if not len(s.rows):
                break
            scores = [u[~done[rows]] for (_, rows, *_), u in zip(parts, scores)]
            scores = [u for u in scores if len(u)]
            parts = views()
        # A row whose J is singular (zero step) or whose Newton step is not
        # an ascent direction takes the scoring step K^-1 U instead.  Step
        # holds each row's beta step in its design's columns, the last
        # before P, and the phi step at column P.
        Step = np.zeros((len(s.rows), P + 1))
        singular = np.zeros(len(s.rows), dtype=bool)
        for (XT, rows, Phi, M, T, Psi, Tri, L), u in zip(parts, scores):
            J = _rows_observed_information(XT, Phi, M, T, Psi, Tri, L, link)
            step = _solve(J, u[:, :, None])[0][:, :, 0]
            fallback = np.nonzero(~(np.einsum("bk,bk->b", u, step) > 0.0))[0]
            if fallback.size:
                K_f = _rows_information(
                    XT, Phi[fallback], M[fallback], T[fallback], Tri[fallback]
                )
                step_K, bad = _solve(K_f, u[fallback, :, None])
                step[fallback] = step_K[:, :, 0]
                singular[rows][fallback[bad]] = True
            Step[rows, P - len(XT) :] = step
        # Freed before the trial evaluations; the views would also keep the
        # replaced state arrays alive after an accept.
        del parts, scores, J, u, Phi, M, T, Psi, Tri, L
        retire(singular, ScoringStatus.SINGULAR, iteration)
        if not len(s.rows):
            break
        Step = Step[~singular]
        # The full step is tried on every row at once, with no index
        # bookkeeping; only the rows it fails go on to be halved.
        Phi_t = s.Phi + Step[:, P]
        scale = 1.0
        if Phi_t.min() > 0.0:
            Beta_t = s.Beta + Step[:, :P]
            trial = state(Beta_t, Phi_t, s.L)
            good = trial[4] >= s.LL - s.slack
            if good.all():
                accept(None, good, Beta_t, Phi_t, trial)
                stalled = False
                continue
            accept(np.arange(len(good)), good, Beta_t, Phi_t, trial)
            stalled = ~good
            scale = 0.5
        else:
            stalled = np.ones(len(Phi_t), dtype=bool)
        while scale >= min_scale and stalled.any():
            idx = np.nonzero(stalled)[0]
            Phi_t = s.Phi[idx] + scale * Step[idx, P]
            pos = Phi_t > 0.0
            if pos.any():
                at = idx[pos]
                Beta_t = s.Beta[at] + scale * Step[at, :P]
                trial = state(Beta_t, Phi_t[pos], s.L[at], at)
                good = trial[4] >= s.LL[at] - s.slack[at]
                accept(at, good, Beta_t, Phi_t[pos], trial)
                stalled[at[good]] = False
            scale *= 0.5
        # Rows with no acceptable step stay put; the gradient criterion
        # decides their fate on the next pass.
        s.settled[stalled] = True
    last = np.ones(len(s.rows), dtype=bool)
    retire(last, ScoringStatus.MAX_ITERATIONS, opts.max_iterations)
    return out


def _singular_error(K):
    cond = float(np.linalg.cond(K))
    return SingularInformationError(
        f"information matrix is singular (condition estimate {cond:.2e})",
        condition=cond,
    )


def _fit_rows(data, Y, link, restrictions, opts, start=None):
    """[(results, failed)], one pair per entry of restrictions: each row of
    the responses Y (rows, n) fitted on the design of the Dataset data,
    whose rank check, cached on data, serves every row, once per entry
    with that entry's coefficients held fixed (none when it is None), all
    in one call to the scoring core.

    start, a full-space ParamVector, seeds every row; by default each row
    starts from its own least-squares point, all rows of a design from
    one _starting_point call that runs only the solve and two reductions
    per row.  results maps each row that converged with
    an invertible information to its FitResult, embedded in the full
    space; failed maps every other row to its FitError.  Each pair is bit
    for bit what a call with its restriction alone returns.
    """
    X = data.X
    n, p = X.shape
    splits = []  # (free, fixed, offset, fixed values, design of the free columns)
    for restriction in restrictions:
        if restriction is None:
            splits.append((np.arange(p), np.arange(0), np.zeros(n), (), X))
            continue
        free, fixed, offset = restriction.split(X)
        if not free.size:
            raise ValueError("restriction must leave at least one free coefficient")
        splits.append((free, fixed, offset, restriction.values, X[:, free]))
    try:
        _check_full_rank(data)
    except SingularInformationError as exc:
        return [({}, dict.fromkeys(range(len(Y)), exc)) for _ in splits]
    if start is not None and start.beta.size != p:
        raise ValueError("starting point dimension does not match design")
    N = len(Y)
    width = max(split[0].size for split in splits)
    Beta0, Phi0 = np.zeros((len(splits) * N, width)), np.empty(len(splits) * N)
    for g, (free, _, offset, _, Xg) in enumerate(splits):
        rows = slice(g * N, (g + 1) * N)
        if start is None:
            Beta0[rows, width - free.size :], Phi0[rows] = _starting_point(
                Y, Xg, offset, link
            )
        else:
            Beta0[rows, width - free.size :] = start.beta[free]
            Phi0[rows] = start.phi
    _, _, offsets, _, designs = zip(*splits)
    fit = _fisher_scoring_batch(
        np.concatenate([Y] * len(splits)),
        designs,
        offsets,
        link,
        Beta0,
        Phi0,
        opts,
    )

    pairs = []
    for g, (free, fixed, _, values, _) in enumerate(splits):
        rows = _BatchFit(*(v[g * N : (g + 1) * N] for v in fit))
        pairs.append(_results(rows, free, fixed, values, opts))
    return pairs


def _results(fit, free, fixed, values, opts):
    """(results, failed) of _fit_rows from the core's padded rows of one design:
    its coefficients are the last free.size columns of Beta, and its K the
    trailing (free.size + 1)-square block, copied contiguous for the FitResults."""
    ok = fit.ok
    K = np.ascontiguousarray(fit.K[:, -free.size - 1 :, -free.size - 1 :])
    K_inv = np.zeros_like(K)
    K_inv[ok], singular = _inverse_rows(K[ok])
    ok[ok] = ~singular

    # every row's embedded estimates, standard errors and mask at once;
    # only the objects are built per row
    rows, p = len(fit.status), free.size + fixed.size
    free_indices = np.append(free, p)
    Beta = np.empty((rows, p))
    Beta[:, free] = fit.Beta[:, -free.size :]
    Beta[:, fixed] = values
    std_errors = np.zeros((rows, p + 1))
    std_errors[:, free_indices] = np.sqrt(np.diagonal(K_inv, axis1=1, axis2=2))
    fixed_mask = np.zeros((rows, p + 1), dtype=bool)
    fixed_mask[:, fixed] = True
    Phi, LL, iterations, clamped = (
        v.tolist() for v in (fit.Phi, fit.LL, fit.iterations, fit.clamped)
    )
    results, failed = {}, {}
    for i, status in enumerate(fit.status):
        if not ok[i]:
            if status in (ScoringStatus.CONVERGED, ScoringStatus.SINGULAR):
                failed[i] = _singular_error(K[i])
            else:
                failed[i] = NonConvergenceError(
                    [LL[i]],
                    "log-likelihood is not finite at the starting point"
                    if status == ScoringStatus.NON_FINITE
                    else "scoring did not converge within "
                    f"{opts.max_iterations} iterations",
                )
            continue
        results[i] = FitResult(
            theta_hat=ParamVector(Beta[i], Phi[i]),
            loglik=LL[i],
            K=K[i],
            K_inv=K_inv[i],
            std_errors=std_errors[i],
            iterations=iterations[i],
            converged=True,
            clamp_activated=clamped[i],
            fixed_mask=fixed_mask[i],
            free_indices=free_indices,
        )
    return results, failed


def _fit(data, link, restriction, opts, start):
    """One-row call into _fit_rows, raising the row's error."""
    opts = opts or FitOptions()
    results, failed = _fit_rows(data, data.y[None], link, [restriction], opts, start)[0]
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
