"""Maximum likelihood estimation by Fisher scoring.

Unrestricted and restricted fits share one scoring loop.  Restrictions fix
selected coefficients at given values; the restricted problem is solved on
the free columns with the fixed part absorbed into an offset, so the same
code path handles both cases.  Restricted results embed the fixed values at
their positions and report the information matrix on the free space along
with an embedding map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    MU_CLAMP,
    Dataset,
    LinkFunction,
    ParamVector,
    _assemble_information,
)
from .specfun import _gamma_trio

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
            or f"Fisher scoring did not converge within {len(self.trace) - 1} iterations"
        )


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
    At least one coefficient must remain free, which is checked against the
    design matrix at fit time.
    """

    indices: tuple
    values: tuple

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
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
        if self.gradient_tolerance <= 0.0:
            raise ValueError("gradient_tolerance must be positive")
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


def _check_full_rank(X):
    rank = int(np.linalg.matrix_rank(X))
    if rank < X.shape[1]:
        raise SingularInformationError(
            f"design matrix is rank deficient (rank {rank} of {X.shape[1]} columns)"
        )


def _starting_point(y, X, offset, link):
    """Least-squares start on the link scale plus a moment start for phi."""
    z = np.asarray(link.g(y), dtype=float) - offset
    beta0, _, rank, _ = np.linalg.lstsq(X, z, rcond=None)
    if rank < X.shape[1]:
        raise SingularInformationError(
            f"auxiliary regression is rank deficient (rank {rank} of {X.shape[1]} columns)"
        )
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
    """Starting point for Fisher scoring on the unrestricted model."""
    _check_full_rank(data.X)
    beta0, phi0 = _starting_point(data.y, data.X, np.zeros(data.n), link)
    return ParamVector(beta0, phi0)


def _fisher_scoring(y, X, offset, link, beta0, phi0, opts):
    """Core scoring loop on a free design X with a fixed offset.

    Returns (beta, phi, mu, t, loglik, iterations, clamped).  Raises
    NonConvergenceError or SingularInformationError on failure.  The
    accepted iterates have non-decreasing log-likelihood up to evaluation
    noise; a step is halved until it both keeps phi positive and does not
    decrease the likelihood by more than the loglik resolution.  The slack
    matters: near the optimum the true gain of a full step is far below
    the rounding noise of the computed log-likelihood, and a strict gate
    would freeze the iterate with the gradient still above tolerance.
    """
    n, p = X.shape
    logy = np.log(y)
    log1my = np.log1p(-y)
    ystar = logy - log1my
    sum_log1my = float(np.sum(log1my))
    K = np.empty((p + 1, p + 1))

    # One special-function pass per trial point covers a = mu phi,
    # b = (1 - mu) phi and phi itself, stacked as (a, b, phi); the digamma
    # and trigamma values of the accepted point carry into the next
    # iteration.

    def evaluate(beta, phi):
        eta = X @ beta + offset
        mu_raw = np.asarray(link.g_inv(eta), dtype=float)
        mu = np.clip(mu_raw, MU_CLAMP, 1.0 - MU_CLAMP)
        clamped = bool(np.any(mu != mu_raw))
        t = 1.0 / np.asarray(link.deriv1(mu), dtype=float)
        abp = np.concatenate((mu, 1.0 - mu, [1.0]))
        abp *= phi
        lg, psi, tri = _gamma_trio(abp)
        ll = (
            n * lg[2 * n]
            - float(np.sum(lg[: 2 * n]))
            + float((abp[:n] - 1.0) @ logy)
            + float((abp[n : 2 * n] - 1.0) @ log1my)
        )
        return mu, t, psi, tri, ll, clamped

    beta = np.array(beta0, dtype=float)
    phi = float(phi0)
    mu, t, psi, tri, ll, clamped = evaluate(beta, phi)
    trace = [ll]
    change = np.inf
    u = np.empty(p + 1)
    for iteration in range(1, opts.max_iterations + 1):
        psi_b = psi[n : 2 * n]
        resid = ystar - psi[:n] + psi_b
        Xt_weighted = X.T * t
        u[:p] = phi * (Xt_weighted @ resid)
        u[p] = (
            float(mu @ resid)
            + sum_log1my
            - float(np.sum(psi_b))
            + n * psi[2 * n]
        )
        if np.max(np.abs(u)) <= opts.gradient_tolerance and change <= _REL_LOGLIK_TOL:
            return beta, phi, mu, t, ll, iteration, clamped
        tri_a = tri[:n]
        tri_b = tri[n : 2 * n]
        one_m = 1.0 - mu
        # Same blocks as _assemble_information, on the shared trigamma pass.
        K[:p, :p] = (Xt_weighted * (phi * phi * (tri_a + tri_b) * t)) @ X
        kbp = Xt_weighted @ (phi * (tri_a * mu - tri_b * one_m))
        K[:p, p] = kbp
        K[p, :p] = kbp
        K[p, p] = float(np.sum(tri_a * mu**2 + tri_b * one_m**2)) - n * tri[2 * n]
        try:
            step = np.linalg.solve(K, u)
        except np.linalg.LinAlgError as exc:
            cond = float(np.linalg.cond(K))
            raise SingularInformationError(
                f"information matrix is singular (condition estimate {cond:.2e})",
                condition=cond,
            ) from exc
        accepted = False
        scale = 1.0
        slack = _REL_LOGLIK_TOL * max(1.0, abs(ll))
        for _ in range(opts.step_halving_max + 1):
            phi_new = phi + scale * step[p]
            if phi_new > 0.0:
                beta_new = beta + scale * step[:p]
                mu2, t2, psi2, tri2, ll2, cl2 = evaluate(beta_new, phi_new)
                if ll2 >= ll - slack:
                    accepted = True
                    break
            scale *= 0.5
        if accepted:
            change = abs(ll2 - ll) / max(1.0, abs(ll2))
            beta, phi, mu, t, psi, tri, ll = (
                beta_new, phi_new, mu2, t2, psi2, tri2, ll2
            )
            clamped = clamped or cl2
        else:
            # No uphill step exists at floating-point resolution; leave the
            # iterate alone and let the gradient criterion decide next pass.
            change = 0.0
        trace.append(ll)
    raise NonConvergenceError(trace)


def _fisher_scoring_batch(Y, X, offset, link, Beta0, Phi0, opts):
    """Row-wise Fisher scoring over a stack of response vectors.

    Y has one response vector per row; X and offset are shared.  Beta0 is
    a single vector broadcast to every row or one row per response; Phi0
    likewise a scalar or per-row vector.  Returns (Beta, Phi, LL, ok):
    per-row estimates, log-likelihoods, and a mask that is False where a
    row failed (non-convergence, singular information, or a NaN iterate).

    Each row follows exactly the serial scoring logic: expected-information
    steps, halving until phi stays positive and the log-likelihood does not
    drop below the noise slack, convergence on gradient max-norm plus
    relative log-likelihood change.

    All arithmetic is row-local, so a row's result (estimates,
    log-likelihood and ok flag) is bit for bit the same whichever rows
    share its batch and in whatever order: the special functions are
    evaluated per element, and the products with X are 2-operand einsums,
    whose per-row reduction order does not depend on the number of rows
    (BLAS matrix products do not keep that promise).
    """
    B, n = Y.shape
    p = X.shape[1]
    k = p + 1
    logy = np.log(Y)
    log1my = np.log1p(-Y)
    ystar = logy - log1my
    sum_log1my = log1my.sum(axis=1)
    XT = np.ascontiguousarray(X.T)
    # Row-wise outer products x_i x_i', one column per (i, j) pair, so the
    # beta block of the information is one 2-operand product per iteration.
    XXT = np.ascontiguousarray((X[:, :, None] * X[:, None, :]).reshape(n, p * p).T)

    Beta = np.broadcast_to(np.asarray(Beta0, dtype=float), (B, p)).copy()
    Phi = np.broadcast_to(np.asarray(Phi0, dtype=float), (B,)).copy()

    def evaluate(rows, Beta_r, Phi_r):
        # One special-function pass per trial point covers a = mu phi,
        # b = (1 - mu) phi and phi itself, stacked as (a, b, phi) columns.
        Eta = np.einsum("bj,jn->bn", Beta_r, XT) + offset
        Mu = np.clip(
            np.asarray(link.g_inv(Eta), dtype=float), MU_CLAMP, 1.0 - MU_CLAMP
        )
        ABP = np.empty((len(rows), 2 * n + 1))
        ABP[:, :n] = Mu
        np.subtract(1.0, Mu, out=ABP[:, n : 2 * n])
        ABP[:, 2 * n] = 1.0
        ABP *= Phi_r[:, None]
        Lg, Psi, Tri = _gamma_trio(ABP)
        LL = (
            n * Lg[:, 2 * n]
            - Lg[:, : 2 * n].sum(axis=1)
            + ((ABP[:, :n] - 1.0) * logy[rows]).sum(axis=1)
            + ((ABP[:, n : 2 * n] - 1.0) * log1my[rows]).sum(axis=1)
        )
        return Mu, Psi, Tri, LL

    # The score and the information live in their own functions, so their
    # (rows, n) temporaries are freed before the trial evaluations.

    def score(rows):
        """Score vectors of the given rows at their current iterates."""
        Mu_r = Mu[rows]
        T_r = 1.0 / np.asarray(link.deriv1(Mu_r), dtype=float)
        psi_b = Psi[rows, n : 2 * n]
        resid = ystar[rows] - Psi[rows, :n] + psi_b
        U = np.empty((len(rows), k))
        U[:, :p] = Phi[rows, None] * np.einsum("bn,jn->bj", T_r * resid, XT)
        U[:, p] = (
            (Mu_r * resid).sum(axis=1)
            + sum_log1my[rows]
            - psi_b.sum(axis=1)
            + n * Psi[rows, 2 * n]
        )
        return U

    def scoring_step(rows, U):
        """Solve K step = U per row; also returns a mask of singular rows."""
        Mu_r = Mu[rows]
        T_r = 1.0 / np.asarray(link.deriv1(Mu_r), dtype=float)
        Phi_r = Phi[rows]
        tri_a = Tri[rows, :n]
        tri_b = Tri[rows, n : 2 * n]
        one_m = 1.0 - Mu_r
        K = np.empty((len(rows), k, k))
        W = (Phi_r * Phi_r)[:, None] * (tri_a + tri_b) * T_r * T_r
        K[:, :p, :p] = np.einsum("bn,jn->bj", W, XXT).reshape(len(rows), p, p)
        kbp = np.einsum(
            "bn,jn->bj", Phi_r[:, None] * (tri_a * Mu_r - tri_b * one_m) * T_r, XT
        )
        K[:, :p, p] = kbp
        K[:, p, :p] = kbp
        tri_phi = Tri[rows, 2 * n]
        K[:, p, p] = (tri_a * Mu_r**2 + tri_b * one_m**2).sum(axis=1) - n * tri_phi
        bad = np.zeros(len(rows), dtype=bool)
        try:
            return np.linalg.solve(K, U[:, :, None])[:, :, 0], bad
        except np.linalg.LinAlgError:
            # At least one row is singular; solve row by row and flag those.
            Step = np.zeros((len(rows), k))
            for i in range(len(rows)):
                try:
                    Step[i] = np.linalg.solve(K[i], U[i])
                except np.linalg.LinAlgError:
                    bad[i] = True
            return Step, bad

    rows = np.arange(B)
    Mu, Psi, Tri, LL = evaluate(rows, Beta, Phi)
    change = np.full(B, np.inf)
    ok = np.zeros(B, dtype=bool)
    fail = ~np.isfinite(LL)

    out_Beta = Beta.copy()
    out_Phi = Phi.copy()
    out_LL = LL.copy()

    active = ~fail
    for _ in range(opts.max_iterations):
        if not active.any():
            break
        rows = np.nonzero(active)[0]
        U = score(rows)
        conv = (np.abs(U).max(axis=1) <= opts.gradient_tolerance) & (
            change[rows] <= _REL_LOGLIK_TOL
        )
        if conv.any():
            done = rows[conv]
            ok[done] = True
            out_Beta[done] = Beta[done]
            out_Phi[done] = Phi[done]
            out_LL[done] = LL[done]
            active[done] = False
            keep = ~conv
            if not keep.any():
                break
            rows = rows[keep]
            U = U[keep]
        Step, bad = scoring_step(rows, U)
        if bad.any():
            dead = rows[bad]
            fail[dead] = True
            active[dead] = False
            rows = rows[~bad]
            if not len(rows):
                continue
            Step = Step[~bad]
        # Vectorized step halving: every pending row keeps halving its own
        # scale until phi stays positive and the loglik gate passes.
        slack = _REL_LOGLIK_TOL * np.maximum(1.0, np.abs(LL[rows]))
        scale = np.ones(len(rows))
        pending = np.ones(len(rows), dtype=bool)
        for _ in range(opts.step_halving_max + 1):
            idx = np.nonzero(pending)[0]
            Phi_t = Phi[rows[idx]] + scale[idx] * Step[idx, p]
            pos = Phi_t > 0.0
            if pos.any():
                sub = idx[pos]
                Beta_t = Beta[rows[sub]] + scale[sub, None] * Step[sub, :p]
                Mu_t, Psi_t, Tri_t, LL_t = evaluate(rows[sub], Beta_t, Phi_t[pos])
                good = LL_t >= LL[rows[sub]] - slack[sub]
                if good.any():
                    hit = rows[sub[good]]
                    change[hit] = np.abs(LL_t[good] - LL[hit]) / np.maximum(
                        1.0, np.abs(LL_t[good])
                    )
                    Beta[hit] = Beta_t[good]
                    Phi[hit] = Phi_t[pos][good]
                    Mu[hit] = Mu_t[good]
                    Psi[hit] = Psi_t[good]
                    Tri[hit] = Tri_t[good]
                    LL[hit] = LL_t[good]
                    pending[sub[good]] = False
            if not pending.any():
                break
            scale[pending] *= 0.5
        # Rows with no acceptable step stay put; the gradient criterion or
        # the iteration budget decides their fate on a later pass.
        change[rows[pending]] = 0.0
    fail |= active  # rows that ran out of iterations
    return out_Beta, out_Phi, out_LL, ok


def _invert_information(K):
    try:
        return np.linalg.inv(K)
    except np.linalg.LinAlgError as exc:
        cond = float(np.linalg.cond(K))
        raise SingularInformationError(
            f"information matrix is singular (condition estimate {cond:.2e})",
            condition=cond,
        ) from exc


def fit_mle(
    data: Dataset,
    link: LinkFunction,
    opts: Optional[FitOptions] = None,
    start: Optional[ParamVector] = None,
) -> FitResult:
    """Unrestricted maximum likelihood fit by Fisher scoring.

    start overrides the default starting point; useful for warm starts in
    resampling loops.
    """
    opts = opts or FitOptions()
    _check_full_rank(data.X)
    offset = np.zeros(data.n)
    if start is None:
        beta0, phi0 = _starting_point(data.y, data.X, offset, link)
    else:
        if start.beta.size != data.p:
            raise ValueError("starting point dimension does not match design")
        beta0, phi0 = np.array(start.beta), start.phi
    beta, phi, mu, t, ll, iterations, clamped = _fisher_scoring(
        data.y, data.X, offset, link, beta0, phi0, opts
    )
    K = _assemble_information(data.X, mu, phi, t)
    K_inv = _invert_information(K)
    k = data.p + 1
    return FitResult(
        theta_hat=ParamVector(beta, phi),
        loglik=ll,
        K=K,
        K_inv=K_inv,
        std_errors=np.sqrt(np.diag(K_inv)),
        iterations=iterations,
        converged=True,
        clamp_activated=clamped,
        fixed_mask=np.zeros(k, dtype=bool),
        free_indices=np.arange(k),
    )


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
    opts = opts or FitOptions()
    p = data.p
    if restriction.indices[-1] > p:
        raise ValueError(
            f"restriction index {restriction.indices[-1]} exceeds the {p} design columns"
        )
    if restriction.q >= p:
        raise ValueError("restriction must leave at least one free coefficient")
    _check_full_rank(data.X)
    fixed_cols = np.array(restriction.indices, dtype=int) - 1
    free_cols = np.array(
        [j for j in range(p) if j + 1 not in restriction.indices], dtype=int
    )
    values = np.array(restriction.values, dtype=float)
    X_free = data.X[:, free_cols]
    offset = data.X[:, fixed_cols] @ values
    if start is None:
        beta0, phi0 = _starting_point(data.y, X_free, offset, link)
    else:
        if start.beta.size != p:
            raise ValueError("starting point dimension does not match design")
        beta0, phi0 = np.array(start.beta[free_cols]), start.phi
    beta_free, phi, mu, t, ll, iterations, clamped = _fisher_scoring(
        data.y, X_free, offset, link, beta0, phi0, opts
    )
    K = _assemble_information(X_free, mu, phi, t)
    K_inv = _invert_information(K)
    k = p + 1
    beta_full = np.empty(p)
    beta_full[free_cols] = beta_free
    beta_full[fixed_cols] = values
    free_indices = np.append(free_cols, p)
    std_errors = np.zeros(k)
    std_errors[free_indices] = np.sqrt(np.diag(K_inv))
    fixed_mask = np.zeros(k, dtype=bool)
    fixed_mask[fixed_cols] = True
    return FitResult(
        theta_hat=ParamVector(beta_full, phi),
        loglik=ll,
        K=K,
        K_inv=K_inv,
        std_errors=std_errors,
        iterations=iterations,
        converged=True,
        clamp_activated=clamped,
        fixed_mask=fixed_mask,
        free_indices=free_indices,
    )
