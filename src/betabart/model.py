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
from typing import Callable, Optional

import numpy as np

from .specfun import log_gamma, polygamma

__all__ = [
    "MU_CLAMP",
    "Dataset",
    "LinkFunction",
    "ParamVector",
    "ObsState",
    "logit_link",
    "obs_state",
    "log_density",
    "log_likelihood",
    "score",
    "fisher_information",
]

# Fitted means are clamped to [MU_CLAMP, 1 - MU_CLAMP] after the inverse
# link; this only matters for extreme linear predictors during line search.
MU_CLAMP = 1e-12


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
        if not np.all((y > 0.0) & (y < 1.0)):
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


@dataclass(frozen=True)
class LinkFunction:
    """Link g and its derivatives.

    g maps the mean in (0, 1) to the real line and must be strictly
    increasing.  Estimation needs deriv1; the analytic corrections need
    deriv2 and deriv3; deriv4 is optional and only consumed by the
    fourth-order log-likelihood derivative tensors.
    """

    name: str
    g: Callable
    g_inv: Callable
    deriv1: Callable
    deriv2: Callable
    deriv3: Callable
    deriv4: Optional[Callable] = None


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
        phi = float(self.phi)
        if not np.isfinite(phi) or phi <= 0.0:
            raise ValueError("phi must be a positive real")
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
    dmu_deta = 1 / g'(mu).
    """

    eta: np.ndarray
    mu: np.ndarray
    dmu_deta: np.ndarray
    ystar: np.ndarray
    mustar: np.ndarray
    clamped: bool


def _check_open_unit(mu):
    arr = np.asarray(mu, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("argument must lie strictly inside (0, 1)")
    return arr


def _expit(eta):
    """Numerically stable inverse logit, scalar or array."""
    arr = np.array(np.asarray(eta, dtype=float), ndmin=1)
    out = np.empty_like(arr)
    pos = arr >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-arr[pos]))
    ex = np.exp(arr[~pos])
    out[~pos] = ex / (1.0 + ex)
    out = out.reshape(np.shape(eta))
    return float(out) if out.ndim == 0 else out


def logit_link() -> LinkFunction:
    """Logit link with derivatives up to fourth order."""

    def g(mu):
        mu = _check_open_unit(mu)
        return np.log(mu / (1.0 - mu))

    def deriv1(mu):
        mu = _check_open_unit(mu)
        return 1.0 / (mu * (1.0 - mu))

    def deriv2(mu):
        mu = _check_open_unit(mu)
        return (2.0 * mu - 1.0) / (mu * (1.0 - mu)) ** 2

    def deriv3(mu):
        mu = _check_open_unit(mu)
        return 2.0 * (1.0 - 4.0 * mu + 6.0 * mu**2 - 3.0 * mu**3) / (
            mu**3 * (1.0 - mu) ** 4
        )

    def deriv4(mu):
        mu = _check_open_unit(mu)
        return 6.0 / (1.0 - mu) ** 4 - 6.0 / mu**4

    return LinkFunction(
        name="logit",
        g=g,
        g_inv=_expit,
        deriv1=deriv1,
        deriv2=deriv2,
        deriv3=deriv3,
        deriv4=deriv4,
    )


def obs_state(theta: ParamVector, data: Dataset, link: LinkFunction) -> ObsState:
    """Evaluate the per-observation state at theta."""
    if theta.beta.size != data.p:
        raise ValueError("parameter dimension does not match design matrix")
    eta = data.X @ theta.beta
    mu_raw = np.asarray(link.g_inv(eta), dtype=float)
    mu = np.clip(mu_raw, MU_CLAMP, 1.0 - MU_CLAMP)
    clamped = bool(np.any(mu != mu_raw))
    dmu_deta = 1.0 / np.asarray(link.deriv1(mu), dtype=float)
    ystar = np.log(data.y / (1.0 - data.y))
    mustar = polygamma(0, mu * theta.phi) - polygamma(0, (1.0 - mu) * theta.phi)
    return ObsState(
        eta=eta, mu=mu, dmu_deta=dmu_deta, ystar=ystar, mustar=mustar, clamped=clamped
    )


def log_density(y, mu, phi):
    """Log of the beta density with mean mu and precision phi, elementwise.

    Evaluated entirely through log_gamma so that large precision values
    never overflow.
    """
    y = _check_open_unit(y)
    mu = _check_open_unit(mu)
    phi = float(phi)
    if not np.isfinite(phi) or phi <= 0.0:
        raise ValueError("phi must be a positive real")
    a = mu * phi
    b = (1.0 - mu) * phi
    return (
        log_gamma(phi)
        - log_gamma(a)
        - log_gamma(b)
        + (a - 1.0) * np.log(y)
        + (b - 1.0) * np.log1p(-y)
    )


def log_likelihood(theta: ParamVector, data: Dataset, link: LinkFunction) -> float:
    """Sum of per-observation log densities at theta."""
    state = obs_state(theta, data, link)
    return float(np.sum(log_density(data.y, state.mu, theta.phi)))


def score(theta: ParamVector, data: Dataset, link: LinkFunction) -> np.ndarray:
    """Score vector (gradient of the log-likelihood), length k = p + 1.

    The beta block is phi X' T (ystar - mustar) with T = diag(dmu/deta);
    the phi component sums mu_i (ystar_i - mustar_i) + log(1 - y_i)
    - psi((1 - mu_i) phi) + psi(phi).
    """
    state = obs_state(theta, data, link)
    phi = theta.phi
    resid = state.ystar - state.mustar
    u_beta = phi * (data.X.T @ (state.dmu_deta * resid))
    u_phi = float(
        np.sum(
            state.mu * resid
            + np.log1p(-data.y)
            - polygamma(0, (1.0 - state.mu) * phi)
            + polygamma(0, phi)
        )
    )
    return np.append(u_beta, u_phi)


def _info_weights(mu, phi, t):
    """Per-observation information ingredients (w, c, d).

    w_i = phi [psi'(mu phi) + psi'((1-mu) phi)] t_i^2
    c_i = phi [psi'(mu phi) mu - psi'((1-mu) phi) (1-mu)]
    d_i = psi'(mu phi) mu^2 + psi'((1-mu) phi) (1-mu)^2 - psi'(phi)
    """
    tri_a = polygamma(1, mu * phi)
    tri_b = polygamma(1, (1.0 - mu) * phi)
    w = phi * (tri_a + tri_b) * t * t
    c = phi * (tri_a * mu - tri_b * (1.0 - mu))
    d = tri_a * mu**2 + tri_b * (1.0 - mu) ** 2 - polygamma(1, phi)
    return w, c, d


def _assemble_information(X, mu, phi, t):
    """Expected information K for the design X at the given state."""
    w, c, d = _info_weights(mu, phi, t)
    p = X.shape[1]
    K = np.empty((p + 1, p + 1))
    K[:p, :p] = phi * (X.T * w) @ X
    K[:p, p] = X.T @ (t * c)
    K[p, :p] = K[:p, p]
    K[p, p] = float(np.sum(d))
    return K


def fisher_information(
    theta: ParamVector, data: Dataset, link: LinkFunction
) -> np.ndarray:
    """Expected (Fisher) information matrix K, shape (k, k), symmetric.

    Blocks: K_bb = phi X' W X, K_bphi = X' T c, K_phiphi = tr(D), with the
    per-observation weights documented on _info_weights.
    """
    state = obs_state(theta, data, link)
    return _assemble_information(data.X, state.mu, theta.phi, state.dmu_deta)
