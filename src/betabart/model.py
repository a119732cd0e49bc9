"""Fixed-dispersion beta regression: density, links, likelihood, score, information.

The response y_i lies strictly inside (0, 1) and follows a beta law
parameterized by its mean mu_i and a common precision phi > 0: the shape
parameters are (mu_i phi, (1 - mu_i) phi), so E(y_i) = mu_i and
var(y_i) = mu_i (1 - mu_i) / (1 + phi).  The mean is tied to covariates
through a strictly increasing link, g(mu_i) = x_i' beta = eta_i.

The full parameter vector is theta = (beta_1..beta_p, phi), dimension
k = p + 1; throughout the package position p (0-based) of any k-sized
object refers to phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .specfun import _gamma_series, _real

__all__ = [
    "MU_CLAMP",
    "Dataset",
    "LinkFunction",
    "ParamVector",
    "ObsState",
    "logit_link",
    "gen_beta_sample",
    "obs_state",
    "log_likelihood",
    "score",
    "fisher_information",
]

# Fitted means are clamped to [MU_CLAMP, 1 - MU_CLAMP] after the inverse
# link; this only matters for extreme linear predictors during line search.
MU_CLAMP = 1e-12


def _in_unit_interval(a):
    """Where a lies strictly inside (0, 1), NaN not: the one rule for
    responses and means, of Dataset, the beta draws and a study's screen."""
    return (a > 0.0) & (a < 1.0)


def _beta_shapes(mu, phi):
    """The shape parameters mu phi and then (1 - mu) phi of beta draws, in
    one vector, after checking that mu is a nonempty vector inside (0, 1)
    and phi > 0."""
    mu = np.asarray(mu, dtype=float)
    if mu.ndim != 1 or mu.size == 0:
        raise ValueError("mu must be a nonempty vector")
    if not np.all(_in_unit_interval(mu)):
        raise ValueError("mu must lie strictly inside (0, 1)")
    phi = _real(phi, "phi", positive=True)
    return np.concatenate((mu, 1.0 - mu)) * phi


def _gamma_ratio(G):
    """Beta draws from gamma variates G (..., 2n) at _beta_shapes: g1 / (g1
    + g2) over G's two halves, clamped away from the interval endpoints.
    Where both variates underflow the draw is NaN, with no warning."""
    n = G.shape[-1] // 2
    Y = G[..., :n] + G[..., n:]
    with np.errstate(invalid="ignore"):
        np.divide(G[..., :n], Y, out=Y)
    return np.clip(Y, MU_CLAMP, 1.0 - MU_CLAMP, out=Y)


def gen_beta_sample(mu: np.ndarray, phi: float, rng: np.random.Generator) -> np.ndarray:
    """Draw independent beta responses with means mu and dispersion phi.

    Each y_i follows a beta law with shape parameters (mu_i phi,
    (1 - mu_i) phi), realised as a ratio of gamma variates and clamped
    away from the interval endpoints.  One standard_gamma call on the
    concatenated shapes draws the same numbers, in the same order, as one
    call on the first shapes and then one on the second.
    """
    return _gamma_ratio(rng.standard_gamma(_beta_shapes(mu, phi)))


def _beta_rows(mu, phi, states) -> np.ndarray:
    """(rows, n): row i is gen_beta_sample(mu, phi, rng) with rng in states[i].

    One generator serves every row, its state set before each row's gamma
    variates are written into one (rows, 2n) array; the shapes, the ratio
    and the clamp are formed once.
    """
    shapes = _beta_shapes(mu, phi)
    G = np.empty((len(states), shapes.size))
    rng = np.random.default_rng(0)  # its state is replaced before every row
    for g, state in zip(G, states):
        rng.bit_generator.state = state
        rng.standard_gamma(shapes, out=g)
    return _gamma_ratio(G)


@dataclass(frozen=True)
class Dataset:
    """Response vector and design matrix, immutable after construction.

    y : (n,) responses, each strictly inside (0, 1); NaN is rejected
    X : (n, p) finite design matrix; include an explicit intercept column if
        the model needs one.  Full column rank is verified at fit time.
    """

    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        y = np.array(self.y, dtype=float)
        X = np.array(self.X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d array")
        if y.ndim != 1 or y.shape[0] != X.shape[0]:
            raise ValueError("y must be a vector with one entry per row of X")
        n, p = X.shape
        if p < 1 or n <= p:
            raise ValueError(f"need n > p >= 1, got n={n}, p={p}")
        if not np.all(_in_unit_interval(y)):
            raise ValueError("responses must lie strictly inside (0, 1)")
        if not np.all(np.isfinite(X)):
            raise ValueError("X must be finite")
        y.setflags(write=False)
        X.setflags(write=False)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @cached_property
    def rank(self) -> int:
        """Numerical rank of X, computed on first use and then kept."""
        return int(np.linalg.matrix_rank(self.X))


@dataclass(frozen=True)
class LinkFunction:
    """Link g, its inverse and its first four derivatives, all required.

    g maps the mean in (0, 1) to the real line and must be strictly
    increasing.  Estimation needs deriv1; the analytic corrections read
    the link through t = 1/g' and its mu-derivatives, so deriv2..deriv4.
    """

    name: str
    g: Callable
    g_inv: Callable
    deriv1: Callable
    deriv2: Callable
    deriv3: Callable
    deriv4: Callable


@dataclass(frozen=True)
class ParamVector:
    """Full parameter theta = (beta_1..beta_p, phi) with phi > 0."""

    beta: np.ndarray
    phi: float

    def __post_init__(self):
        beta = np.array(self.beta, dtype=float)
        if beta.ndim != 1 or beta.size < 1:
            raise ValueError("beta must be a nonempty vector")
        if not np.all(np.isfinite(beta)):
            raise ValueError("beta must be finite")
        phi = _real(self.phi, "phi", positive=True)
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "phi", phi)

    @property
    def k(self) -> int:
        return self.beta.size + 1

    def as_array(self) -> np.ndarray:
        return np.append(self.beta, self.phi)

    @classmethod
    def from_array(cls, theta) -> "ParamVector":
        theta = np.asarray(theta, dtype=float)
        return cls(theta[:-1].copy(), float(theta[-1]))


@dataclass(frozen=True)
class ObsState:
    """Per-observation state at a given parameter value.

    ystar is the observed logit-scale response log(y / (1 - y)); mustar is
    its expectation under the model, psi(mu phi) - psi((1 - mu) phi).
    eta is the linear predictor that gave mu; dmu_deta = 1 / g'(mu).
    """

    eta: np.ndarray
    mu: np.ndarray
    dmu_deta: np.ndarray
    ystar: np.ndarray
    mustar: np.ndarray
    clamped: bool


def _on_open_unit(formula):
    """formula behind the link's domain check: mu is refused unless inside
    (0, 1).  NaN passes, unlike _in_unit_interval, so that a NaN trial
    point rejects a scoring step instead of raising a ValueError, which a
    Monte Carlo block propagates."""

    def checked(mu):
        mu = np.asarray(mu, dtype=float)
        if (mu <= 0.0).any() or (mu >= 1.0).any():
            raise ValueError("argument must lie strictly inside (0, 1)")
        return formula(mu)

    return checked


def _expit(eta):
    """Numerically stable inverse logit, scalar or array.

    1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, both from
    e = e^-|x|, so no exponential overflows.
    """
    arr = np.asarray(eta, dtype=float)
    e = np.exp(-np.abs(arr))
    d = 1.0 + e
    out = np.where(arr >= 0.0, 1.0 / d, e / d)
    return float(out) if out.ndim == 0 else out


def logit_link() -> LinkFunction:
    """Logit link with derivatives up to fourth order."""
    return LinkFunction(
        "logit",
        _on_open_unit(lambda mu: np.log(mu / (1.0 - mu))),
        _expit,
        _on_open_unit(lambda mu: 1.0 / (mu * (1.0 - mu))),
        _on_open_unit(lambda mu: (2.0 * mu - 1.0) / (mu * (1.0 - mu)) ** 2),
        _on_open_unit(
            lambda mu: 2.0 * (1.0 - 4.0 * mu + 6.0 * mu**2 - 3.0 * mu**3)
            / (mu**3 * (1.0 - mu) ** 4)
        ),
        _on_open_unit(lambda mu: 6.0 / (1.0 - mu) ** 4 - 6.0 / mu**4),
    )


def _eta_state(Eta, Phi, link, L, repeats=None):
    """The model at the linear predictors Eta, one row per parameter point.

    Row b evaluates Phi[b] at Eta[b] on responses L[b] = (log y, log(1 - y)).
    Returns (M, T, Psi, Tri, LL, clamped): M holds (mu, 1 - mu, 1) with mu
    clamped to [MU_CLAMP, 1 - MU_CLAMP], T = 1/g'(mu), Psi and Tri are
    digamma and trigamma of (a, b, phi) = M phi from one special-function
    pass, LL is the log-likelihood and clamped flags clamped means.  Rows
    on different designs share this one pass.  With repeats, point i
    serves the next repeats[i] rows of L: the model is evaluated once per
    point and its state repeated over those rows, and only the
    log-likelihood, which reads y, is formed per row.

    Here and in _rows_residuals, _rows_score and _rows_information each row
    is computed on its own, so it gets the bits of its own evaluation:
    special functions act per element, and Eta (on the contiguous transpose
    of the design) and every sum over observations are 2-operand einsums or
    per-row matmuls, whose reduction order does not depend on the number
    of rows (a BLAS product of whole batches does not keep that promise).
    """
    n = Eta.shape[1]
    M, clamped = _means(Eta, link)
    del Eta  # not needed past here; frees its (rows, n) block
    ABP = M * Phi[:, None]
    Lg, Psi, Tri = _gamma_series(ABP, 1)
    LL = n * Lg[:, 2 * n] - Lg[:, : 2 * n].sum(axis=1)
    T = 1.0 / np.asarray(link.deriv1(M[:, :n]), dtype=float)
    state = M, T, Psi, Tri, LL, clamped, ABP[:, : 2 * n] - 1.0
    if repeats is not None:
        state = [np.repeat(v, repeats, axis=0) for v in state]
    M, T, Psi, Tri, LL, clamped, AB1 = state
    LL += np.einsum("bn,bn->b", AB1, L)
    return M, T, Psi, Tri, LL, clamped


def _means(Eta, link):
    """(M, clamped) at the linear predictors Eta, one row per point.

    M holds (mu, 1 - mu, 1) with mu = g^-1(Eta) clamped to [MU_CLAMP,
    1 - MU_CLAMP]; clamped flags the rows where the clamp moved a mean.
    This is the part of _eta_state before the special functions, for
    callers that need only the means.
    """
    n = Eta.shape[1]
    Mu_raw = np.asarray(link.g_inv(Eta), dtype=float)
    M = np.empty((len(Eta), 2 * n + 1))
    Mu = M[:, :n]
    np.minimum(np.maximum(Mu_raw, MU_CLAMP), 1.0 - MU_CLAMP, out=Mu)
    clamped = (Mu != Mu_raw).any(axis=1)
    np.subtract(1.0, Mu, out=M[:, n : 2 * n])
    M[:, 2 * n] = 1.0
    return M, clamped


def _rows_residuals(XT, T, Psi, L):
    """(D, R, XR) at _eta_state output: D = (log y - psi(a), log(1 - y) -
    psi(b)), the residuals R = y* - mu*, the difference of D's halves, and
    XR = X' (T R), one row each per parameter point."""
    n = T.shape[1]
    D = L - Psi[:, : 2 * n]
    R = D[:, :n] - D[:, n:]
    return D, R, np.einsum("bn,jn->bj", T * R, XT)


def _rows_score(XT, Phi, M, T, Psi, L):
    """Score vectors (rows, k) at _eta_state output.

    With D, R and XR of _rows_residuals, the beta block is phi X' T R and
    the phi component is sum (mu, 1 - mu) D + n psi(phi).
    """
    n = T.shape[1]
    D, _, XR = _rows_residuals(XT, T, Psi, L)
    Ub = XR * Phi[:, None]
    Uphi = np.einsum("bn,bn->b", M[:, : 2 * n], D) + n * Psi[:, 2 * n]
    return np.concatenate((Ub, Uphi[:, None]), axis=1)


def _rows_information(XT, Phi, M, T, Tri, R=None, G2=None, XR=None):
    """Expected information matrices (rows, k, k) at _eta_state output.

    K_bb = X' diag(w) X with w = phi^2 [psi'(a) + psi'(b)] T^2, K_bphi =
    phi X' T [psi'(a) mu - psi'(b) (1 - mu)], and K_phiphi sums
    psi'(a) mu^2 + psi'(b) (1 - mu)^2 - psi'(phi) over observations.

    Given the residuals R = y* - mu*, XR = X' (T R) and G2 = g''(mu), it
    returns the observed information instead (see
    _rows_observed_information).
    """
    m, n = T.shape
    p = XT.shape[0]
    TM = Tri[:, : 2 * n] * M[:, : 2 * n]  # (psi'(a) mu, psi'(b) (1 - mu))
    K = np.empty((m, p + 1, p + 1))
    W = (Tri[:, :n] + Tri[:, n : 2 * n]) * (T * T)
    W *= (Phi * Phi)[:, None]
    if R is not None:
        W += Phi[:, None] * R * G2 * T**3
    K[:, :p, :p] = np.matmul(XT * W[:, None, :], XT.T)
    kbp = np.einsum("bn,jn->bj", (TM[:, :n] - TM[:, n:]) * T, XT)
    kbp *= Phi[:, None]
    if R is not None:
        kbp -= XR
    K[:, :p, p] = kbp
    K[:, p, :p] = kbp
    K[:, p, p] = np.einsum("bn,bn->b", TM, M[:, : 2 * n]) - n * Tri[:, 2 * n]
    return K


def _rows_observed_information(XT, Phi, M, T, Psi, Tri, L, link):
    """Observed information matrices J = -d^2 l (rows, k, k) at _eta_state output.

    In eta terms J differs from K in two blocks, through the residuals
    r = y* - mu* of _rows_residuals: J_bb adds X' diag(phi r g''(mu) T^3) X
    and J_bphi subtracts X' (T r).  J_phiphi equals K_phiphi.  E r = 0, so
    J averages to K.
    """
    n = T.shape[1]
    _, R, XR = _rows_residuals(XT, T, Psi, L)
    G2 = np.asarray(link.deriv2(M[:, :n]), dtype=float)
    return _rows_information(XT, Phi, M, T, Tri, R, G2, XR)


def _theta_rows(theta: ParamVector, data: Dataset, link: LinkFunction):
    """(XT, Phi, L, Eta, _eta_state output) for the single point theta.

    XT is laid out as the scoring core lays it out, so that the values
    match the core's bit for bit (einsum and matmul reduce a strided
    transpose in another order).
    """
    if theta.beta.size != data.p:
        raise ValueError("parameter dimension does not match design matrix")
    XT = np.ascontiguousarray(data.X.T)
    Phi = np.array([theta.phi])
    L = np.concatenate((np.log(data.y), np.log1p(-data.y)))[None]
    Eta = np.einsum("bj,jn->bn", theta.beta[None], XT)
    return XT, Phi, L, Eta, _eta_state(Eta, Phi, link, L)


def obs_state(theta: ParamVector, data: Dataset, link: LinkFunction) -> ObsState:
    """Evaluate the per-observation state at theta."""
    _, _, L, Eta, (M, T, Psi, _, _, clamped) = _theta_rows(theta, data, link)
    n = data.n
    return ObsState(
        eta=Eta[0],
        mu=M[0, :n],
        dmu_deta=T[0],
        ystar=L[0, :n] - L[0, n:],
        mustar=Psi[0, :n] - Psi[0, n : 2 * n],
        clamped=bool(clamped[0]),
    )


def log_likelihood(theta: ParamVector, data: Dataset, link: LinkFunction) -> float:
    """Log-likelihood at theta."""
    return float(_theta_rows(theta, data, link)[4][4][0])


def score(theta: ParamVector, data: Dataset, link: LinkFunction) -> np.ndarray:
    """Score vector (gradient of the log-likelihood), length k = p + 1.

    The blocks are written out on _rows_score.
    """
    XT, Phi, L, _, (M, T, Psi, _, _, _) = _theta_rows(theta, data, link)
    return _rows_score(XT, Phi, M, T, Psi, L)[0]


def fisher_information(
    theta: ParamVector, data: Dataset, link: LinkFunction
) -> np.ndarray:
    """Expected (Fisher) information matrix K, shape (k, k), symmetric.

    The blocks are written out on _rows_information.
    """
    XT, Phi, _, _, (M, T, _, Tri, _, _) = _theta_rows(theta, data, link)
    return _rows_information(XT, Phi, M, T, Tri)[0]
