"""Self-contained special functions: log-gamma, polygamma, chi-square tail.

Everything downstream (likelihood, information, corrections, p-values) is
built on these three functions.  They are implemented the classical way:
shift the argument upward with the exact recurrence until the asymptotic
(Bernoulli) series is accurate, then evaluate the series.  The chi-square
survival function uses the standard series / continued-fraction split of
the regularized incomplete gamma function.

Log-gamma, digamma and trigamma come from one fused pass, _gamma_trio,
which the Fisher-scoring loops call once per trial point: each element is
shifted by its own count, the three series share one log z and 1/z, and
the input is walked in fixed-size chunks.  Each output element therefore
depends on its own input element alone, bit for bit, which is what makes
the row-batched scoring independent of how rows are grouped.

All functions accept scalars or numpy arrays and preserve the input shape;
scalars come back as plain floats.  Supported polygamma orders are 0..3
(digamma through the third derivative), which is all the model needs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["log_gamma", "polygamma", "chisq_sf"]

# The asymptotic series are applied only after the argument has been pushed
# past this point; the truncation error of the B_14 tail is then below 1e-13
# relative even for the third-order polygamma.
_ASYMPTOTIC_MIN = 10.0

_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# Bernoulli numbers B_2, B_4, ..., B_14.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)

# Stirling coefficients B_2j / (2j (2j - 1)) for the log-gamma tail.
_STIRLING = tuple(
    b / ((2 * j) * (2 * j - 1)) for j, b in enumerate(_BERNOULLI, start=1)
)

# Tail coefficients per polygamma order; see _polygamma_asymptotic.
_PSI_TAIL = (
    tuple(b / (2 * j) for j, b in enumerate(_BERNOULLI, start=1)),
    _BERNOULLI,
    tuple(b * (2 * j + 1) for j, b in enumerate(_BERNOULLI, start=1)),
    tuple(b * (2 * j + 1) * (2 * j + 2) for j, b in enumerate(_BERNOULLI, start=1)),
)

_FACTORIAL = (1.0, 1.0, 2.0, 6.0)

# Horner coefficients of the log-gamma, digamma and trigamma tails, one
# (3, 1) column per power of 1/z^2, highest power first.
_TRIO_HORNER = np.array([_STIRLING, _PSI_TAIL[0], _PSI_TAIL[1]]).T[::-1, :, None]

# _gamma_trio walks its input in blocks of this many elements, so the
# temporaries of one pass stay small whatever the input size.
_CHUNK = 4096


def _prepare(x, name):
    """Validate a positive argument and return (working copy, scalar flag)."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr <= 0.0):
        raise ValueError(f"{name} must be positive")
    return np.array(arr, dtype=float, ndmin=1), arr.ndim == 0, arr.shape


def _trio_chunk(x, lg, psi, tri):
    """Write log-gamma, digamma and trigamma of the 1-D chunk x to lg, psi, tri."""
    small = np.nonzero(x < _ASYMPTOTIC_MIN)[0]
    if small.size:
        # Each entry is shifted by its own count: the masked updates leave
        # entries already past the threshold unchanged, so the shifts
        # applied to an entry never depend on the other entries.
        w = x[small]
        s_lg = np.zeros(w.shape)
        s_psi = np.zeros(w.shape)
        s_tri = np.zeros(w.shape)
        below = w < _ASYMPTOTIC_MIN
        while below.any():
            inv = 1.0 / w
            # Gamma(z) = Gamma(z + 1) / z, so log Gamma picks up -log z,
            # digamma -1/z and trigamma +1/z^2.
            np.subtract(s_lg, np.log(w), out=s_lg, where=below)
            np.subtract(s_psi, inv, out=s_psi, where=below)
            inv *= inv
            np.add(s_tri, inv, out=s_tri, where=below)
            np.add(w, 1.0, out=w, where=below)
            np.less(w, _ASYMPTOTIC_MIN, out=below)
        x = x.copy()
        x[small] = w
    log_x = np.log(x)
    inv = 1.0 / x
    inv_sq = inv * inv
    tails = np.empty((3,) + x.shape)
    tails[:] = _TRIO_HORNER[0]
    for coef in _TRIO_HORNER[1:]:
        tails *= inv_sq
        tails += coef
    tail_lg, tail_psi, tail_tri = tails
    lg[:] = (x - 0.5) * log_x - x + _HALF_LOG_TWO_PI + tail_lg * inv
    psi[:] = log_x - 0.5 * inv - tail_psi * inv_sq
    tri[:] = inv * (1.0 + 0.5 * inv + tail_tri * inv_sq)
    if small.size:
        lg[small] += s_lg
        psi[small] += s_psi
        tri[small] += s_tri


def _gamma_trio(z):
    """log-gamma, digamma and trigamma of a positive float array in one pass.

    Validation-free kernel shared with the fitting hot loop, which feeds it
    arguments that are positive by construction.  Returns three arrays of
    z's shape.  Every output element is a function of its own input element
    alone, bit for bit, whatever the array's size or other entries.
    """
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    lg = np.empty(flat.shape)
    psi = np.empty(flat.shape)
    tri = np.empty(flat.shape)
    for start in range(0, flat.size, _CHUNK):
        part = slice(start, start + _CHUNK)
        _trio_chunk(flat[part], lg[part], psi[part], tri[part])
    return lg.reshape(z.shape), psi.reshape(z.shape), tri.reshape(z.shape)


def log_gamma(x):
    """Natural logarithm of the gamma function for x > 0.

    Relative accuracy is about 1e-14 over [1e-6, 1e6]; values where the
    function crosses zero (x = 1, 2) are accurate absolutely to a few ulp
    of the shifted evaluation.
    """
    z, scalar, shape = _prepare(x, "x")
    out = _gamma_trio(z)[0].reshape(shape)
    return float(out) if scalar else out


def _polygamma_asymptotic(m, z):
    """Asymptotic expansion of psi^(m)(z), valid for z >= _ASYMPTOTIC_MIN."""
    inv = 1.0 / z
    inv_sq = inv * inv
    tail = np.zeros_like(z)
    for coef in reversed(_PSI_TAIL[m]):
        tail = tail * inv_sq + coef
    # psi^(m)(z) = (-1)^(m-1) z^-m [(m-1)! + m!/(2z) + sum_j c_j z^-2j]
    lead = inv**m if m % 2 else -(inv**m)
    return lead * (_FACTORIAL[m - 1] + 0.5 * _FACTORIAL[m] * inv + tail * inv_sq)


def polygamma(m, x):
    """Polygamma function psi^(m)(x) for order m in {0, 1, 2, 3} and x > 0.

    Order 0 is the digamma function, order 1 the trigamma, and so on.
    Relative accuracy is about 1e-13 over [1e-4, 1e6].
    """
    if isinstance(m, bool) or m not in (0, 1, 2, 3):
        raise ValueError("polygamma order must be one of 0, 1, 2, 3")
    z, scalar, shape = _prepare(x, "x")
    if m < 2:
        acc = _gamma_trio(z)[m + 1]
    else:
        acc = np.zeros_like(z)
        sign = -_FACTORIAL[m] if m % 2 else _FACTORIAL[m]
        small = z < _ASYMPTOTIC_MIN
        while small.any():
            # psi^(m)(z) = psi^(m)(z + 1) - (-1)^m m! z^(-m-1)
            acc[small] -= sign * z[small] ** (-m - 1)
            z[small] += 1.0
            small = z < _ASYMPTOTIC_MIN
        acc += _polygamma_asymptotic(m, z)
    acc = acc.reshape(shape)
    return float(acc) if scalar else acc


def _upper_gamma_q(a, s, log_gamma_a):
    """Regularized upper incomplete gamma Q(a, s) for a > 0, s >= 0."""
    if s == 0.0:
        return 1.0
    log_front = a * math.log(s) - s - log_gamma_a
    if s < a + 1.0:
        # Lower series P(a,s) = s^a e^-s / Gamma(a) * sum_n s^n / (a)_{n+1};
        # terms are positive and shrink geometrically for s < a + 1.
        term = 1.0 / a
        total = term
        for n in range(1, 1000):
            term *= s / (a + n)
            total += term
            if term < total * 1e-17:
                break
        return max(0.0, 1.0 - math.exp(log_front) * total)
    # Upper continued fraction, modified Lentz iteration.
    tiny = 1e-300
    b = s + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return min(1.0, math.exp(log_front) * h)


def chisq_sf(x, df):
    """Chi-square survival function P(X > x) with df degrees of freedom.

    df must be a positive integer; x may be a scalar or an array of
    nonnegative reals.  Absolute accuracy is well below 1e-12.
    """
    if isinstance(df, bool) or not isinstance(df, (int, np.integer)):
        raise ValueError("df must be a positive integer")
    if df < 1:
        raise ValueError("df must be a positive integer")
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    if np.any(arr < 0.0):
        raise ValueError("x must be nonnegative")
    a = 0.5 * float(df)
    log_gamma_a = log_gamma(a)
    flat = np.array(arr, dtype=float, ndmin=1).ravel()
    out = np.empty_like(flat)
    for i, val in enumerate(flat):
        out[i] = _upper_gamma_q(a, 0.5 * val, log_gamma_a)
    out = out.reshape(arr.shape)
    return float(out) if arr.ndim == 0 else out
