"""Log-likelihood cumulants and the analytic correction factor.

This module carries the machinery behind the corrected likelihood ratio
statistics: per-observation building blocks, higher-order log-likelihood
derivative tensors, expected-derivative (cumulant) tensors and their
parameter derivatives, two independent routes to the order-1/n term
epsilon of the expected likelihood ratio, and the correction factor
c = 1 + (eps_full - eps_nuis) / q.

Parameter indexing matches the rest of the package: positions 0..p-1 of a
k-sized axis are the regression coefficients, position p is the precision
phi, k = p + 1.  Index subsets are 0-based positions into that vector.

Notation used in comments and docstrings below: t = dmu/deta = 1/g'(mu),
t', t'', t''' its mu-derivatives, psi^(m) the polygamma functions, and
resid = ystar - mustar the logit-scale residual.

Cost.  Every tensor block is a moment sum sum_i f_i x_i^(tensor j) with
j <= 4 (Cordeiro 1993, "General matrix formulae for computing Bartlett
corrections"), computed as one matrix product against the row-wise outer
products x_i x_i': O(n p^4) flops, all in BLAS, with an (n, p^2)
intermediate.  epsilon_matrix is a short chain of matrix products, O(k^4).
bartlett_factor builds the dense tensors once and slices both the full and
the nuisance sets from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .fit import FitError, Restriction, _invert_information
from .model import Dataset, LinkFunction, ParamVector, _theta_rows, obs_state
from .specfun import _gamma_series

__all__ = [
    "ObsQuantities",
    "CumulantTensors",
    "BartlettFactor",
    "NonFiniteCumulantError",
    "obs_quantities",
    "loglik_derivative_tensors",
    "cumulant_tensors",
    "epsilon_matrix",
    "epsilon_lawley_direct",
    "bartlett_factor",
]

# epsilon_lawley_direct enumerates six nested indices; past this size the
# matrix route is the only sensible one.
_DIRECT_SUM_MAX = 8


@dataclass(frozen=True)
class ObsQuantities:
    """Per-observation scalars feeding the cumulant tensors.

    With pa = psi'(mu phi), pb = psi'((1-mu) phi) and higher orders
    analogous, the base quantities are

      omega = pa + pb                     (> 0, sum of trigammas)
      m     = psi''(mu phi) - psi''((1-mu) phi)
      a     = 3 t' t^2
      b     = t (t'' t + t'^2)
      c     = phi (pa mu - pb (1-mu)) = phi * mustar_phi
      d     = pa mu^2 + pb (1-mu)^2 - psi'(phi)
      s     = mu^3 psi''(mu phi) + (1-mu)^3 psi''((1-mu) phi) - psi''(phi)
      u     = -phi (2 omega + phi omega_phi)
      r     = (2 mustar_phi + phi mustar_phi2) t
      z     = mustar_phi + phi mustar_phi2

    mustar_phi[j] is the j-th phi-derivative of mustar = psi(mu phi)
    - psi((1-mu) phi); the *_mu / *_phi fields are the corresponding
    partial derivatives of each base quantity.  t3 and b_mu need the
    fourth link derivative and are None when the link lacks one.
    """

    mu: np.ndarray
    t: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    t3: Optional[np.ndarray]
    omega: np.ndarray
    m: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    s: np.ndarray
    u: np.ndarray
    r: np.ndarray
    z: np.ndarray
    mustar_phi: np.ndarray
    mustar_phi2: np.ndarray
    mustar_phi3: np.ndarray
    omega_mu: np.ndarray
    omega_phi: np.ndarray
    omega_phi2: np.ndarray
    m_mu: np.ndarray
    m_phi: np.ndarray
    a_mu: np.ndarray
    b_mu: Optional[np.ndarray]
    c_mu: np.ndarray
    c_phi: np.ndarray
    s_mu: np.ndarray
    s_phi: np.ndarray
    u_mu: np.ndarray
    u_phi: np.ndarray
    r_mu: np.ndarray
    r_phi: np.ndarray
    z_mu: np.ndarray
    z_phi: np.ndarray


@dataclass(frozen=True)
class CumulantTensors:
    """Cumulant material over an index subset S, all in subset coordinates.

    K is the information submatrix (K[a,b] = -kappa_{S[a] S[b]}), P[t] the
    matrix {kappa_rst}, Q[u] the matrix with entry (r, s) equal to
    kappa_{su}^{(r)}, and A[t, u] the matrix with entry (r, s) equal to
    kappa_rstu / 4 - kappa_rst^{(u)} + kappa_rt^{(su)}.
    """

    subset: tuple
    K: np.ndarray
    K_inv: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    A: np.ndarray


class NonFiniteCumulantError(FitError):
    """A cumulant tensor evaluated to inf or NaN at the given parameters."""


@dataclass(frozen=True)
class BartlettFactor:
    """Correction factor c = 1 + (eps_full - eps_nuis) / q."""

    eps_full: float
    eps_nuis: float
    q: int
    c: float


def obs_quantities(
    theta: ParamVector, data: Dataset, link: LinkFunction
) -> ObsQuantities:
    """Evaluate every per-observation quantity at theta."""
    # The model pass gives (mu, 1 - mu, 1); one kernel pass on the stacked
    # (a, b, phi) = (mu, 1 - mu, 1) phi gives the polygammas of orders 1-3,
    # order 1 bit for bit the model pass's trigamma.
    _, _, _, (M, _, _, _, _, _) = _theta_rows(theta, data, link)
    n = data.n
    phi = theta.phi
    mu, one_m = M[0, :n], M[0, n : 2 * n]
    p1, p2, p3 = _gamma_series(M[0] * phi, 3)[2:]
    p1a, p1b, p1_phi = p1[:n], p1[n : 2 * n], p1[2 * n]
    p2a, p2b, p2_phi = p2[:n], p2[n : 2 * n], p2[2 * n]
    p3a, p3b, p3_phi = p3[:n], p3[n : 2 * n], p3[2 * n]

    g1 = np.asarray(link.deriv1(mu), dtype=float)
    g2 = np.asarray(link.deriv2(mu), dtype=float)
    g3 = np.asarray(link.deriv3(mu), dtype=float)
    t = 1.0 / g1
    t1 = -g2 / g1**2
    t2 = (2.0 * g2**2 - g3 * g1) / g1**3
    if link.deriv4 is not None:
        g4 = np.asarray(link.deriv4(mu), dtype=float)
        t3 = (6.0 * g1 * g2 * g3 - g4 * g1**2 - 6.0 * g2**3) / g1**4
    else:
        t3 = None

    omega = p1a + p1b
    m = p2a - p2b
    a = 3.0 * t1 * t**2
    b = t * (t2 * t + t1**2)
    mustar_phi = mu * p1a - one_m * p1b
    mustar_phi2 = mu**2 * p2a - one_m**2 * p2b
    mustar_phi3 = mu**3 * p3a - one_m**3 * p3b
    c = phi * mustar_phi
    d = mu**2 * p1a + one_m**2 * p1b - p1_phi
    s = mu**3 * p2a + one_m**3 * p2b - p2_phi
    omega_phi = mu * p2a + one_m * p2b
    omega_phi2 = mu**2 * p3a + one_m**2 * p3b
    u = -phi * (2.0 * omega + phi * omega_phi)
    r = (2.0 * mustar_phi + phi * mustar_phi2) * t
    z = mustar_phi + phi * mustar_phi2

    omega_mu = phi * m
    m_mu = phi * (p3a + p3b)
    m_phi = mu * p3a - one_m * p3b
    a_mu = 3.0 * t * (t2 * t + 2.0 * t1**2)
    b_mu = t1**3 + t * (t3 * t + 4.0 * t2 * t1) if t3 is not None else None
    c_mu = phi * (omega + phi * omega_phi)
    c_phi = z
    s_mu = 3.0 * mustar_phi2 + phi * mustar_phi3
    s_phi = mu**4 * p3a + one_m**4 * p3b - p3_phi
    u_mu = -(phi**2) * (3.0 * m + phi * m_phi)
    # d/dphi of u = -2 omega - 4 phi omega_phi - phi^2 omega_phi2; the
    # phi^2 on the last term is forced by the product rule applied to
    # phi^2 omega_phi (and by the finite-difference check).
    u_phi = -2.0 * omega - 4.0 * phi * omega_phi - phi**2 * omega_phi2
    r_mu = (2.0 * mustar_phi + phi * mustar_phi2) * t1 + (
        2.0 * omega + 4.0 * phi * omega_phi + phi**2 * omega_phi2
    ) * t
    r_phi = s_mu * t
    z_mu = omega + 3.0 * phi * omega_phi + phi**2 * omega_phi2
    z_phi = 2.0 * mustar_phi2 + phi * mustar_phi3

    return ObsQuantities(
        mu=mu,
        t=t,
        t1=t1,
        t2=t2,
        t3=t3,
        omega=omega,
        m=m,
        a=a,
        b=b,
        c=c,
        d=d,
        s=s,
        u=u,
        r=r,
        z=z,
        mustar_phi=mustar_phi,
        mustar_phi2=mustar_phi2,
        mustar_phi3=mustar_phi3,
        omega_mu=omega_mu,
        omega_phi=omega_phi,
        omega_phi2=omega_phi2,
        m_mu=m_mu,
        m_phi=m_phi,
        a_mu=a_mu,
        b_mu=b_mu,
        c_mu=c_mu,
        c_phi=c_phi,
        s_mu=s_mu,
        s_phi=s_phi,
        u_mu=u_mu,
        u_phi=u_phi,
        r_mu=r_mu,
        r_phi=r_phi,
        z_mu=z_mu,
        z_phi=z_phi,
    )


def _outer_rows(X):
    """Row-wise outer products x_i x_i' flattened to an (n, p^2) array."""
    n, p = X.shape
    return (X[:, :, None] * X[:, None, :]).reshape(n, p * p)


def _moment(f, X, XX, order):
    """Moment sum sum_i f_i x_i^(tensor order) as one matrix product.

    XX is _outer_rows(X); orders 3 and 4 contract it against X or itself,
    so every sum runs in BLAS at O(n p^order).
    """
    p = X.shape[1]
    if order == 0:
        return float(np.sum(f))
    if order == 1:
        return X.T @ f
    if order == 2:
        return (X.T * f) @ X
    if order == 3:
        return ((XX * f[:, None]).T @ X).reshape(p, p, p)
    return ((XX * f[:, None]).T @ XX).reshape(p, p, p, p)


def _tensor(X, XX, blocks):
    """Dense tensor over the k = p + 1 parameter positions, block by block.

    blocks maps space-separated patterns to a per-observation factor f.  A
    pattern has one letter per axis: "b" spans the coefficient positions
    0..p-1 and "p" is the precision position p.  Each listed block is set to
    the moment sum of f over as many x_i factors as the pattern has "b"s;
    that sum is symmetric in its axes, so one block serves every pattern.
    """
    p = X.shape[1]
    order = len(next(iter(blocks)).split()[0])
    T = np.zeros((p + 1,) * order)
    for patterns, f in blocks.items():
        patterns = patterns.split()
        block = _moment(f, X, XX, patterns[0].count("b"))
        for pattern in patterns:
            T[tuple(slice(0, p) if axis == "b" else p for axis in pattern)] = block
    return T


def _sym(X, XX, *factors):
    """Fully symmetric tensor of order len(factors) - 1, in which factors[m]
    feeds every block with m precision axes."""
    patterns = ["".join(axes) for axes in product("bp", repeat=len(factors) - 1)]
    return _tensor(
        X,
        XX,
        {
            " ".join(pat for pat in patterns if pat.count("p") == m): f
            for m, f in enumerate(factors)
        },
    )


def loglik_derivative_tensors(
    theta: ParamVector, data: Dataset, link: LinkFunction, order: int = 4
):
    """Analytic derivative tensors of the log-likelihood at theta.

    Returns (U2, U3, U4): the observed second, third and fourth partial
    derivative tensors over the full parameter vector, each symmetric in
    all indices.  U4 is None unless order >= 4, and requires a link with a
    fourth derivative.  These are the raw, response-dependent derivatives;
    their expectations are the cumulant tensors.
    """
    if order not in (2, 3, 4):
        raise ValueError("order must be 2, 3, or 4")
    state = obs_state(theta, data, link)
    q = obs_quantities(theta, data, link)
    X = data.X
    phi = theta.phi
    t, t1 = q.t, q.t1
    resid = state.ystar - state.mustar
    XX = _outer_rows(X)

    U2 = _sym(
        X,
        XX,
        -(phi**2) * q.omega * t**2 + phi * resid * t1 * t,
        (resid - q.c) * t,
        -q.d,
    )
    if order == 2:
        return U2, None, None
    U3 = _sym(
        X,
        XX,
        -phi * (phi**2 * q.m * t**3 + phi * q.omega * q.a - resid * q.b),
        q.u * t**2 + (resid - q.c) * t1 * t,
        -q.r,
        -q.s,
    )
    if order == 3:
        return U2, U3, None
    if q.t3 is None:
        raise ValueError("fourth-order tensors need a link with a fourth derivative")
    dt3_dmu = 3.0 * t**2 * t1  # d(t^3)/dmu
    U4 = _sym(
        X,
        XX,
        -phi
        * (
            phi**2 * (q.m * dt3_dmu + q.m_mu * t**3)
            + phi * ((q.a_mu + q.b) * q.omega + phi * q.m * q.a)
            - resid * q.b_mu
        )
        * t,
        -phi
        * (
            phi * (3.0 * q.m + phi * q.m_phi) * t**3
            + q.a * (2.0 * q.omega + phi * q.omega_phi)
            + q.b * q.mustar_phi
        )
        + q.b * resid,
        -q.r_mu * t,
        -q.s_mu * t,
        -q.s_phi,
    )
    return U2, U3, U4


def _cumulant_factor_tensors(q: ObsQuantities, X: np.ndarray, phi: float):
    """Dense cumulant tensors over the full parameter vector.

    Returns (K2, T3, T4, D1, D31, D22): the expected derivative tensors
    kappa_rs, kappa_rst, kappa_rstu, and the derivative families
    kappa_rs^{(t)}, kappa_rst^{(u)}, kappa_rs^{(tu)}.  K2 is the second
    cumulant matrix, so the information matrix is -K2.
    """
    t, t1, t2 = q.t, q.t1, q.t2
    dt3_dmu = 3.0 * t**2 * t1

    XX = _outer_rows(X)

    K2 = _sym(X, XX, -(phi**2) * q.omega * t**2, -q.c * t, -q.d)

    T3 = _sym(
        X,
        XX,
        -(phi**2) * (phi * q.m * t**3 + q.omega * q.a),
        q.u * t**2 - q.c * t1 * t,
        -q.r,
        -q.s,
    )

    T4 = _sym(
        X,
        XX,
        -(phi**2)
        * (phi * (q.m * dt3_dmu + q.m_mu * t**3 + q.m * q.a) + q.omega * (q.a_mu + q.b))
        * t,
        -phi
        * (
            phi * (3.0 * q.m + phi * q.m_phi) * t**3
            + q.a * (2.0 * q.omega + phi * q.omega_phi)
            + q.b * q.mustar_phi
        ),
        -q.r_mu * t,
        -q.s_mu * t,
        -q.s_phi,
    )

    # First derivatives of the second cumulants, kappa_rs^{(t)}; symmetric
    # in the cumulant pair only.
    D1 = _tensor(
        X,
        XX,
        {
            "bbb": -(phi**2) * (phi * q.m * t**3 + (2.0 / 3.0) * q.omega * q.a),
            "bbp": q.u * t**2,
            "bpb pbb": -(q.c_mu * t + q.c * t1) * t,
            "bpp pbp": -q.z * t,
            "ppb": -q.r,
            "ppp": -q.s,
        },
    )

    # Derivatives of the third cumulants, kappa_rst^{(u)}; symmetric in the
    # cumulant triple.  The "bbpb" factor multiplies the whole bracket by
    # t = dmu/deta: it is the beta-derivative of the (beta, beta, phi)
    # cumulant, so the chain rule contributes one extra t.
    D31 = _tensor(
        X,
        XX,
        {
            "bbbb": -(phi**2)
            * (phi * (q.m * (dt3_dmu + q.a) + q.m_mu * t**3) + q.omega * q.a_mu)
            * t,
            "bbbp": -phi
            * (
                phi * (3.0 * q.m + phi * q.m_phi) * t**3
                + q.a * (2.0 * q.omega + phi * q.omega_phi)
            ),
            "bbpb bpbb pbbb": (
                q.u_mu * t**2
                + 2.0 * q.u * t * t1
                - q.c_mu * t1 * t
                - q.c * (t2 * t + t1**2)
            )
            * t,
            "bbpp bpbp pbbp": (q.u_phi * t - q.z * t1) * t,
            "bppb pbpb ppbb": -q.r_mu * t,
            "bppp pbpp ppbp": -q.r_phi,
            "pppb": -q.s_mu * t,
            "pppp": -q.s_phi,
        },
    )

    # Second derivatives of the second cumulants, kappa_rs^{(tu)};
    # symmetric within each pair.
    c_mumu = phi**2 * (2.0 * q.m + phi * q.m_phi)
    D22 = _tensor(
        X,
        XX,
        {
            "bbbb": -(phi**2)
            * (
                phi * (q.m * (dt3_dmu + (2.0 / 3.0) * q.a) + q.m_mu * t**3)
                + (2.0 / 3.0) * q.omega * q.a_mu
            )
            * t,
            "bbbp bbpb": (q.u_mu * t + 2.0 * q.u * t1) * t**2,
            "bbpp": q.u_phi * t**2,
            "bpbb pbbb": -(c_mumu * t**2 + 3.0 * q.c_mu * t * t1 + q.c * (t2 * t + t1**2))
            * t,
            "bpbp pbbp bppb pbpb": -(q.z_mu * t + q.z * t1) * t,
            "bppp pbpp": -q.z_phi * t,
            "ppbb": -q.r_mu * t,
            "ppbp pppb": -q.s_mu * t,
            "pppp": -q.s_phi,
        },
    )

    return K2, T3, T4, D1, D31, D22


def cumulant_tensors(
    theta: ParamVector, data: Dataset, link: LinkFunction, subset=None
) -> CumulantTensors:
    """Cumulant tensors over a parameter subset, in subset coordinates.

    subset is a collection of 0-based positions into theta (0..p-1 the
    coefficients, p the precision); None means all of them.
    """
    p = data.p
    k = p + 1
    if subset is None:
        positions = tuple(range(k))
    else:
        positions = tuple(sorted(int(i) for i in subset))
        if not positions:
            raise ValueError("subset must be nonempty")
        if len(set(positions)) != len(positions):
            raise ValueError("subset positions must be distinct")
        if positions[0] < 0 or positions[-1] > p:
            raise ValueError(f"subset positions must lie in 0..{p}")
    q = obs_quantities(theta, data, link)
    dense = _cumulant_factor_tensors(q, data.X, theta.phi)
    return _subset_tensors(dense, positions)


def _subset_tensors(dense, positions) -> CumulantTensors:
    """Slice the dense full-set tensors down to sorted, distinct positions."""
    K2, T3, T4, D1, D31, D22 = dense
    idx = np.array(positions, dtype=int)
    K_S = -K2[np.ix_(idx, idx)]
    K_inv = _invert_information(K_S)
    T3_S = T3[np.ix_(idx, idx, idx)]
    D1_S = D1[np.ix_(idx, idx, idx)]
    T4_S = T4[np.ix_(idx, idx, idx, idx)]
    D31_S = D31[np.ix_(idx, idx, idx, idx)]
    D22_S = D22[np.ix_(idx, idx, idx, idx)]
    P = np.einsum("rst->trs", T3_S)
    # Q[u][r, s] = kappa_su^{(r)}, i.e. the derivative index runs over rows.
    Q = np.einsum("sur->urs", D1_S)
    A = (
        0.25 * np.einsum("rstu->turs", T4_S)
        - np.einsum("rstu->turs", D31_S)
        + np.einsum("rtsu->turs", D22_S)
    )
    for name, arr in (("K", K_S), ("P", P), ("Q", Q), ("A", A)):
        if not np.all(np.isfinite(arr)):
            raise NonFiniteCumulantError(f"cumulant tensor {name} is not finite")
    return CumulantTensors(subset=positions, K=K_S, K_inv=K_inv, P=P, Q=Q, A=A)


def epsilon_matrix(tensors: CumulantTensors) -> float:
    """Order-1/n term of E(LR) via the trace identities.

    Builds L[r,s] = tr(K^-1 A^(rs)), the three M matrices, the three N
    matrices, and returns tr[K^-1 (L - M - N)] with M = -M1/6 + M2 - M3
    and N = -N1/4 + N2 - N3.  With G_P[r] = K^-1 P^(r) and G_Q likewise,
    M1[r,s] = tr(G_P[r] G_P[s]), M3 the same in G_Q, and
    M2[r,s] = tr(G_P[r] K^-1 Q^(s)'), so every term is a matrix product.
    """
    B = tensors.K_inv
    P = tensors.P
    Q = tensors.Q
    k = B.shape[0]
    L = (tensors.A.reshape(k * k, k * k) @ B.T.ravel()).reshape(k, k)
    G_P = B @ P
    G_Q = B @ Q

    def trace_products(G):
        return G.reshape(k, -1) @ G.transpose(0, 2, 1).reshape(k, -1).T

    M1 = trace_products(G_P)
    M2 = (G_P @ B).reshape(k, -1) @ Q.reshape(k, -1).T
    M3 = trace_products(G_Q)
    trPB = np.einsum("rab,ba->r", P, B)
    trQB = np.einsum("rab,ba->r", Q, B)
    M = -M1 / 6.0 + M2 - M3
    N = (
        -np.outer(trPB, trPB) / 4.0
        + np.outer(trPB, trQB)
        - np.outer(trQB, trQB)
    )
    return float(np.sum(B * (L - M - N).T))


def epsilon_lawley_direct(tensors: CumulantTensors) -> float:
    """Order-1/n term of E(LR) by brute-force index summation.

    Independent check of epsilon_matrix: enumerates the quadruple and
    sextuple index sums directly, with kappa^{rs} = -(K^-1)_{rs}.  Guarded
    to small subsets; the enumeration is O(|S|^6).
    """
    size = len(tensors.subset)
    if size > _DIRECT_SUM_MAX:
        raise ValueError(
            f"direct summation is limited to subsets of size {_DIRECT_SUM_MAX}"
        )
    kinv = -tensors.K_inv
    P = tensors.P
    Q = tensors.Q
    A = tensors.A
    rng = range(size)
    total4 = 0.0
    for r in rng:
        for s in rng:
            for t in rng:
                for u in rng:
                    total4 += kinv[r, s] * kinv[t, u] * A[t, u, r, s]
    total6 = 0.0
    for r in rng:
        for s in rng:
            for t in rng:
                for u in rng:
                    prtu = P[u, r, t]
                    drtu = Q[t, u, r]  # kappa_rt^{(u)}
                    for v in rng:
                        prtv = P[v, r, t]
                        drtv = Q[t, v, r]  # kappa_rt^{(v)}
                        for w in rng:
                            term = (
                                prtv * (P[w, s, u] / 6.0 - Q[w, u, s])
                                + prtu * (P[w, s, v] / 4.0 - Q[w, v, s])
                                + drtv * Q[w, u, s]
                                + drtu * Q[w, v, s]
                            )
                            total6 += kinv[r, s] * kinv[t, u] * kinv[v, w] * term
    return total4 - total6


def bartlett_factor(
    data: Dataset,
    link: LinkFunction,
    restriction: Restriction,
    theta_tilde: ParamVector,
) -> BartlettFactor:
    """Correction factor for a restriction, evaluated at the restricted MLE.

    Both epsilon terms are evaluated at theta_tilde: the full-set term over
    all k positions, the nuisance term over the free coefficient positions
    plus the precision, with the inverse of the nuisance sub-information.
    """
    p = data.p
    free, _, _ = restriction.split(data.X)
    q = restriction.q
    dense = _cumulant_factor_tensors(
        obs_quantities(theta_tilde, data, link), data.X, theta_tilde.phi
    )
    full = _subset_tensors(dense, tuple(range(p + 1)))
    nuis = _subset_tensors(dense, (*free.tolist(), p))
    eps_full = epsilon_matrix(full)
    eps_nuis = epsilon_matrix(nuis)
    return BartlettFactor(
        eps_full=eps_full,
        eps_nuis=eps_nuis,
        q=q,
        c=1.0 + (eps_full - eps_nuis) / q,
    )
