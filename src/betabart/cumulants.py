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

Cost.  Each tensor is one table of per-observation factors f, and each
block a moment sum sum_i f_i x_i^(tensor j) (Cordeiro 1993, "General
matrix formulae for computing Bartlett corrections"): one matrix product
against the row-wise outer products x_i x_i', in BLAS.  A permuted tensor
is the same factors under permuted patterns, so the Bartlett pass builds
K and the order-3 tensors P and Q in the layout epsilon reads, with no
permutes, at O(n p^3).  The order-4 tensor A = T4/4 - D31 + D22 enters
epsilon only through L[t,u] = sum_rs A_turs B_sr, B = K^-1, so the pass
never builds it: _order4_L contracts A's 16 per-observation factors with
four pair forms of B and takes L as an order-2 moment, O(n k^2) per
subset, where the dense A costs O(n p^4) flops and k^4 doubles per row.
This L is also the more accurate one: on the food data's full design
(cond K about 3e11) its rounding error in epsilon is 2.6e-14 relative,
against 2.7e-13 through the dense A.  cumulant_tensors still builds the
dense A from the same factors, for the two epsilon routes that read it,
epsilon_matrix and epsilon_lawley_direct.  Both the full and the nuisance
sets are sliced from the one pass, and the order-3 part of epsilon is a
short chain of matrix products, O(k^4).  Every product is stacked over a
leading row axis, one row per parameter point, and a Monte Carlo block
passes its 64 replications at once: at n = 200, k = 13 that peaks at
about 26 MiB of array memory (tracemalloc), most of it the order-3
moment's weighted outer products (14 MiB) and the per-observation
factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from .fit import FitError, Restriction, _inverse_rows, _singular_error
from .model import (
    Dataset,
    LinkFunction,
    ParamVector,
    _means,
    _theta_rows,
)
from .specfun import _gamma_series, _integer, _sequence

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

# The 16 axis patterns of an order-4 tensor, in the order of the factor
# axis of _dense_rows' F: pattern 8t + 4u + 2r + s, with b = 0 and p = 1,
# so that F.reshape(..., 4, 4, n) pairs the pattern of tu with that of rs.
_PATTERNS4 = ["".join(axes) for axes in product("bp", repeat=4)]


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
    partial derivatives of each base quantity.
    """

    mu: np.ndarray
    t: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    t3: np.ndarray
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
    b_mu: np.ndarray
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
    _, _, _, _, (M, _, _, _, _, _) = _theta_rows(theta, data, link)
    return _obs_rows(M[0], theta.phi, link)


def _obs_rows(M, phi, link) -> ObsQuantities:
    """ObsQuantities from the means M = (mu, 1 - mu, 1) of model._means, per row.

    M is (2n + 1,) with a scalar phi, or (rows, 2n + 1) with phi a (rows, 1)
    column; every field then has M's leading shape over n observations.
    One kernel pass on the stacked (a, b, phi) = M phi gives the polygammas
    of orders 1-3, order 1 bit for bit the model pass's trigamma.
    """
    n = M.shape[-1] // 2
    mu, one_m = M[..., :n], M[..., n : 2 * n]
    p1, p2, p3 = _gamma_series(M * phi, 3)[2:]
    p1a, p1b, p1_phi = p1[..., :n], p1[..., n : 2 * n], p1[..., 2 * n :]
    p2a, p2b, p2_phi = p2[..., :n], p2[..., n : 2 * n], p2[..., 2 * n :]
    p3a, p3b, p3_phi = p3[..., :n], p3[..., n : 2 * n], p3[..., 2 * n :]

    g1 = np.asarray(link.deriv1(mu), dtype=float)
    g2 = np.asarray(link.deriv2(mu), dtype=float)
    g3 = np.asarray(link.deriv3(mu), dtype=float)
    g4 = np.asarray(link.deriv4(mu), dtype=float)
    t = 1.0 / g1
    t1 = -g2 / g1**2
    t2 = (2.0 * g2**2 - g3 * g1) / g1**3
    t3 = (6.0 * g1 * g2 * g3 - g4 * g1**2 - 6.0 * g2**3) / g1**4

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
    b_mu = t1**3 + t * (t3 * t + 4.0 * t2 * t1)
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
    """Moment sum sum_i f_i x_i^(tensor order), for each row of f.

    f is (n,) or (rows, n) and XX is _outer_rows(X).  Every order is a
    matrix product, stacked over the rows: orders 3 and 4 contract the
    f-weighted outer products against X or XX, so each sum runs in BLAS at
    O(n p^order) per row, and each row's product is its own.
    """
    p = X.shape[1]
    if order == 0:
        return f.sum(axis=-1)
    if order == 1:
        return (f[..., None, :] @ X)[..., 0, :]
    W = (X if order == 2 else XX).T * f[..., None, :]
    return (W @ (XX if order == 4 else X)).reshape(f.shape[:-1] + (p,) * order)


def _tensor(X, XX, table):
    """Dense tensor over the k = p + 1 parameter positions, from its table.

    A table maps space-separated axis patterns to a per-observation factor
    f, all of one shape, (n,) or (rows, n); the tensor takes f's leading
    shape as its first axes.  A pattern has one letter per axis: "b" spans
    the coefficient positions 0..p-1 and "p" is the precision position p.
    Each key's block is the moment sum of f over as many x_i as a pattern
    has "b"s; that sum is symmetric in its axes, so one block serves every
    pattern of the key.
    """
    p = X.shape[1]
    order = len(next(iter(table)).split()[0])
    lead = np.shape(next(iter(table.values())))[:-1]
    T = np.zeros(lead + (p + 1,) * order)
    for patterns, f in table.items():
        patterns = patterns.split()
        block = _moment(f, X, XX, patterns[0].count("b"))
        for pattern in patterns:
            axes = tuple(slice(0, p) if axis == "b" else p for axis in pattern)
            T[(Ellipsis, *axes)] = block
    return T


def _sym(*factors):
    """Table of a fully symmetric tensor of order len(factors) - 1, in
    which factors[m] feeds every pattern with m precision axes."""
    patterns = ["".join(axes) for axes in product("bp", repeat=len(factors) - 1)]
    return {
        " ".join(pat for pat in patterns if pat.count("p") == m): f
        for m, f in enumerate(factors)
    }


def _permuted(table, source, target):
    """Table of einsum(f"{source}->{target}", T), one pattern per key."""
    pairs = _permutation(tuple(table), source, target)
    return {pattern: table[key] for pattern, key in pairs}


@cache
def _permutation(keys, source, target):
    """(target pattern, source key) pairs of _permuted, built once per table."""
    return tuple(
        ("".join(pattern[source.index(axis)] for axis in target), key)
        for key in keys
        for pattern in key.split()
    )


def loglik_derivative_tensors(
    theta: ParamVector, data: Dataset, link: LinkFunction, order: int = 4
):
    """Analytic derivative tensors of the log-likelihood at theta.

    Returns (U2, U3, U4): the observed second, third and fourth partial
    derivative tensors over the full parameter vector, each symmetric in
    all indices.  U4 is None unless order >= 4.  These are the raw,
    response-dependent derivatives; their expectations are the cumulant
    tensors.  One model pass at theta gives the per-observation quantities
    and the residuals y* - mu*.
    """
    if _integer(order, "order", 2) > 4:
        raise ValueError("order must be 2, 3, or 4")
    _, _, L, _, (M, _, Psi, _, _, _) = _theta_rows(theta, data, link)
    q = _obs_rows(M[0], theta.phi, link)
    n = data.n
    resid = (L[0, :n] - L[0, n:]) - (Psi[0, :n] - Psi[0, n : 2 * n])
    tables = _derivative_tables(q, theta.phi, resid)[: order - 1]
    XX = _outer_rows(data.X)
    return tuple(_tensor(data.X, XX, T) for T in tables) + (None,) * (4 - order)


def _derivative_tables(q, phi, resid):
    """Tables of (U2, U3, U4) at the residuals resid = ystar - mustar.

    The residual enters linearly, so resid = 0 gives their expectations,
    the cumulant tensors kappa_rs, kappa_rst and kappa_rstu.
    """
    t, t1 = q.t, q.t1
    U2 = _sym(
        -(phi**2) * q.omega * t**2 + phi * resid * t1 * t,
        (resid - q.c) * t,
        -q.d,
    )
    U3 = _sym(
        -phi * (phi**2 * q.m * t**3 + phi * q.omega * q.a - resid * q.b),
        q.u * t**2 + (resid - q.c) * t1 * t,
        -q.r,
        -q.s,
    )
    dt3_dmu = 3.0 * t**2 * t1  # d(t^3)/dmu
    U4 = _sym(
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


def _cumulant_tables(q: ObsQuantities, phi):
    """Tables of the cumulant tensors over the full parameter vector.

    Returns (K2, T3, T4, D1, D31, D22): the expected derivative tensors
    kappa_rs, kappa_rst, kappa_rstu, and the derivative families
    kappa_rs^{(t)}, kappa_rst^{(u)}, kappa_rs^{(tu)}.  K2 is the second
    cumulant matrix, so the information matrix is -K2.  With q and phi
    from _obs_rows over rows, each factor has a leading row axis.
    """
    t, t1, t2 = q.t, q.t1, q.t2
    dt3_dmu = 3.0 * t**2 * t1
    K2, T3, T4 = _derivative_tables(q, phi, 0.0)

    # First derivatives of the second cumulants, kappa_rs^{(t)}; symmetric
    # in the cumulant pair only.
    D1 = {
        "bbb": -(phi**2) * (phi * q.m * t**3 + (2.0 / 3.0) * q.omega * q.a),
        "bbp": q.u * t**2,
        "bpb pbb": -(q.c_mu * t + q.c * t1) * t,
        "bpp pbp": -q.z * t,
        "ppb": -q.r,
        "ppp": -q.s,
    }

    # Derivatives of the third cumulants, kappa_rst^{(u)}; symmetric in the
    # cumulant triple.  The "bbpb" factor multiplies the whole bracket by
    # t = dmu/deta: it is the beta-derivative of the (beta, beta, phi)
    # cumulant, so the chain rule contributes one extra t.
    D31 = {
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
    }

    # Second derivatives of the second cumulants, kappa_rs^{(tu)};
    # symmetric within each pair.
    c_mumu = phi**2 * (2.0 * q.m + phi * q.m_phi)
    D22 = {
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
    }

    return K2, T3, T4, D1, D31, D22


def _cumulant_factor_tensors(q: ObsQuantities, X: np.ndarray, phi):
    """The tensors of _cumulant_tables, dense: (K2, T3, T4, D1, D31, D22),
    each with q's leading row axis if it has one."""
    XX = _outer_rows(X)
    return tuple(_tensor(X, XX, table) for table in _cumulant_tables(q, phi))


def _dense_rows(X, link, Beta, Phi):
    """Dense (K2, P, Q) at each row's (Beta[i], Phi[i]), row axis first, and
    the factors F of the order-4 tensor A.

    Only the means are taken from the model (model._means), at X beta in
    the scoring core's layout, so mu is the fit's bit for bit unless a fixed
    value is nonzero: the fit adds it as an offset, which can move eta by an
    ulp.  _obs_rows makes the one special-function pass.  P and Q are in the
    layout of CumulantTensors, from permuted tables; P is T3 itself, whose
    table is fully symmetric.  F is (rows, 16, n): the per-observation
    factors of A = T4/4 - D31 + D22 in the "turs" layout, one per pattern of
    _PATTERNS4.  _order4_L contracts them without building A;
    cumulant_tensors builds the dense A from them.
    """
    if Beta.shape[1] != X.shape[1]:
        raise ValueError("parameter dimension does not match design matrix")
    XT = np.ascontiguousarray(X.T)  # the scoring core's layout (see above)
    M = _means(np.einsum("bj,jn->bn", Beta, XT), link)[0]
    q = _obs_rows(M, Phi[:, None], link)
    K2, T3, T4, D1, D31, D22 = _cumulant_tables(q, Phi[:, None])
    T4 = _permuted(T4, "rstu", "turs")
    D31 = _permuted(D31, "rstu", "turs")
    D22 = _permuted(D22, "rtsu", "turs")
    F = np.stack([0.25 * T4[pat] - D31[pat] + D22[pat] for pat in _PATTERNS4], axis=1)
    XX = _outer_rows(X)
    return (*(_tensor(X, XX, T) for T in (K2, T3, _permuted(D1, "sur", "urs"))), F)


def _subset_tensors(dense, positions):
    """Slice the dense row-stacked (K2, P, Q) to sorted, distinct positions.

    dense is _dense_rows' (K2, P, Q, F).  Returns (K, K_inv, P, Q, failed):
    the subset's tensors, which keep the row axis, and a dict mapping each
    failed row to its error, a singular information or else a non-finite
    K, P, Q or order-4 factor F (named A).  No row raises, and a failed
    row's tensors are left as they came out.  Every subset, the full set
    included, is one np.ix_ slice, so all subsets' tensors share a layout.
    """
    K2, P, Q, F = dense
    idx = np.array(positions, dtype=int)
    K2, P, Q = (T[(slice(None), *np.ix_(*(idx,) * (T.ndim - 1)))] for T in (K2, P, Q))
    K = -K2
    K_inv, singular = _inverse_rows(K)
    failed = {int(i): _singular_error(K[i]) for i in np.flatnonzero(singular)}
    for name, T in (("K", K), ("P", P), ("Q", Q), ("A", F)):
        for i in np.nonzero(~np.isfinite(T).all(axis=tuple(range(1, T.ndim))))[0]:
            failed.setdefault(
                int(i), NonFiniteCumulantError(f"cumulant tensor {name} is not finite")
            )
    return K, K_inv, P, Q, failed


def cumulant_tensors(
    theta: ParamVector, data: Dataset, link: LinkFunction, subset=None
) -> CumulantTensors:
    """Cumulant tensors over a parameter subset, in subset coordinates.

    subset is a collection of 0-based positions into theta (0..p-1 the
    coefficients, p the precision); None means all of them.  A one-row call
    into the batched core.
    """
    p = data.p
    if subset is None:
        positions = tuple(range(p + 1))
    else:
        subset = _sequence(subset, "subset")
        positions = tuple(sorted(_integer(i, "subset position", 0) for i in subset))
        if not positions:
            raise ValueError("subset must be nonempty")
        if len(set(positions)) != len(positions):
            raise ValueError("subset positions must be distinct")
        if positions[-1] > p:
            raise ValueError(f"subset positions must lie in 0..{p}")
    X = data.X
    dense = _dense_rows(X, link, theta.beta[None], np.array([theta.phi]))
    K, K_inv, P, Q, failed = _subset_tensors(dense, positions)
    if failed:
        raise failed[0]
    idx = np.array(positions)
    A = _tensor(X, _outer_rows(X), dict(zip(_PATTERNS4, dense[3][0])))
    A = A[np.ix_(*(idx,) * 4)]
    if not np.isfinite(A).all():  # finite factors, but an x_i^4 overflowed
        raise NonFiniteCumulantError("cumulant tensor A is not finite")
    return CumulantTensors(positions, K[0], K_inv[0], P[0], Q[0], A)


def epsilon_matrix(tensors: CumulantTensors) -> float:
    """Order-1/n term of E(LR) via the trace identities, at the one point
    of cumulant_tensors: L[r,s] = tr(K^-1 A^(rs)) from the dense A, then
    _epsilon(L, ...)."""
    B = tensors.K_inv
    k = len(B)
    L = (tensors.A.reshape(k * k, k * k) @ B.T.reshape(k * k, 1)).reshape(k, k)
    return float(_epsilon(L, B, tensors.P, tensors.Q))


def _epsilon(L, B, P, Q):
    """tr[B (L - M - N)], epsilon from L and the order-3 tensors, per row.

    B is K^-1, and P and Q are in the layout of CumulantTensors, with or
    without a leading row axis.  M = -M1/6 + M2 - M3 and
    N = -N1/4 + N2 - N3.  With G_P[r] = B P^(r) and G_Q likewise,
    M1[r,s] = tr(G_P[r] G_P[s]), M3 the same in G_Q, and
    M2[r,s] = tr(G_P[r] B Q^(s)'), so every term is a matrix product.
    """
    k, lead = B.shape[-1], B.shape[:-2]
    Bt = B.swapaxes(-1, -2)

    def frobenius(F, H):
        """[r, s] -> sum over a, b of F[r, a, b] H[s, a, b]."""
        return F.reshape(*lead, k, k * k) @ H.reshape(*lead, k, k * k).swapaxes(-1, -2)

    G_P = B[..., None, :, :] @ P
    G_Q = B[..., None, :, :] @ Q
    M1 = frobenius(G_P, G_P.swapaxes(-1, -2))
    M2 = frobenius(G_P @ B[..., None, :, :], Q)
    M3 = frobenius(G_Q, G_Q.swapaxes(-1, -2))
    u = np.einsum("...rab,...ba->...r", P, B)[..., None]
    v = np.einsum("...rab,...ba->...r", Q, B)[..., None]
    ut, vt = u.swapaxes(-1, -2), v.swapaxes(-1, -2)
    M = -M1 / 6.0 + M2 - M3
    N = -(u @ ut) / 4.0 + u @ vt - v @ vt
    return np.sum(Bt * (L - M - N), axis=(-2, -1))


def _order4_L(X, F, B, positions):
    """L[t, u] = sum over r, s of A_turs B_sr, per row, without A.

    F is _dense_rows' order-4 factors and B the stacked K^-1 of a subset
    whose last position is the precision p and whose others index the
    coefficient columns Xs of X.  A_turs sums f_i x_i(t) x_i(u) x_i(r)
    x_i(s) over the observations, f_i the factor of the pattern of turs and
    x_i(p) = 1.  So L is the order-2 moment of the weights
    g_i(tu) = sum over the patterns of rs of f_i w_i(rs), with w_i the
    four pair forms of B: x_i' B_bb x_i for "bb", B_pb x_i for "bp",
    B_bp' x_i for "pb" and B_pp for "pp".  O(n |S|^2) per row.
    """
    Xs = X[:, list(positions[:-1])]
    w = np.empty((len(B), 4, X.shape[0]))
    w[:, 0] = np.sum((Xs @ B[:, :-1, :-1]) * Xs, axis=-1)
    w[:, 1] = B[:, -1, :-1] @ Xs.T
    w[:, 2] = B[:, :-1, -1] @ Xs.T
    w[:, 3] = B[:, -1:, -1]
    g = np.einsum("rabn,rbn->arn", F.reshape(len(F), 4, 4, -1), w)
    return _tensor(Xs, None, dict(zip(("bb", "bp", "pb", "pp"), g)))


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


def _bartlett_rows(X, link, free, Beta, Phi):
    """(eps_full, eps_nuis, failed) at each row's (Beta[i], Phi[i]): the
    batched core behind bartlett_factor and the Monte Carlo blocks.

    One dense pass of the order-2 and order-3 tensors and the order-4
    factors gives both terms: the full-set one over all k positions, the
    nuisance one over the free coefficient positions plus the precision.
    Each is _epsilon of the L of _order4_L; no order-4 tensor is built.
    failed is as in _subset_tensors, the full set's error first; a failed
    row's epsilons are NaN, whatever its tensors held, and the
    floating-point warnings they raise on the way are silenced.

    Unlike the scoring core, this pass is not bit for bit independent of
    how rows are grouped: a row's epsilons in a block can differ from a
    one-row call's in the last bits, by up to about 3e-15 relative (seen
    at 64 rows, n = 200, p = 12).  tests/test_simulate.py's
    test_block_values_match_one_row_tests checks a study's block values
    against one-row run_test calls to 1e-12.
    """
    p = X.shape[1]
    dense = _dense_rows(X, link, Beta, Phi)
    subsets = (tuple(range(p + 1)), (*free.tolist(), p))
    sets = [_subset_tensors(dense, positions) for positions in subsets]
    with np.errstate(invalid="ignore", over="ignore"):
        eps = np.array([
            _epsilon(_order4_L(X, dense[3], B, positions), B, P, Q)
            for positions, (_, B, P, Q, _) in zip(subsets, sets)
        ])
    failed = {**sets[1][-1], **sets[0][-1]}
    eps[:, list(failed)] = np.nan
    return eps[0], eps[1], failed


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
    A one-row call into _bartlett_rows.
    """
    free, _, _ = restriction.split(data.X)
    q = restriction.q
    eps_full, eps_nuis, failed = _bartlett_rows(
        data.X, link, free, theta_tilde.beta[None], np.array([theta_tilde.phi])
    )
    if failed:
        raise failed[0]
    eps_full, eps_nuis = float(eps_full[0]), float(eps_nuis[0])
    return BartlettFactor(
        eps_full=eps_full,
        eps_nuis=eps_nuis,
        q=q,
        c=1.0 + (eps_full - eps_nuis) / q,
    )
