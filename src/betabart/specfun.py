"""Self-contained special functions: log-gamma, polygamma, chi-square tail.

Everything downstream (likelihood, information, corrections, p-values) is
built on these three functions.  Log-gamma and psi^(0)..psi^(top), top <= 3,
come from one pass of one kernel, _gamma_series: shift each small argument
upward with the exact recurrence until the asymptotic (Bernoulli) series is
accurate, then evaluate the series.  The shifts are a (steps, entries)
block with x + k in row k, so each recurrence term is one ufunc call and
the terms are summed step by step in step order; all the tails share one
Horner pass, one log z and one 1/z, written in place into the output and
per-call scratch vectors with no operation reordered.  Each output
element depends on its own input element alone, bit for bit, which is
what makes the row-batched scoring independent of how rows are grouped,
and an order's values do not depend on top.  The chi-square survival
function, whose df is always an integer, is the closed-form finite sum of
its upper tail; its only other special function is the standard library's
math.erfc.

All functions accept scalars or numpy arrays and preserve the input shape;
scalars come back as plain floats.  Supported polygamma orders are 0..3
(digamma through the third derivative), which is all the model needs.
"""

from __future__ import annotations

import math
import numbers

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

# Tail coefficients c_j of psi^(m), m = 0..3; see the series in _gamma_series.
_PSI_TAIL = (
    tuple(b / (2 * j) for j, b in enumerate(_BERNOULLI, start=1)),
    _BERNOULLI,
    tuple(b * (2 * j + 1) for j, b in enumerate(_BERNOULLI, start=1)),
    tuple(b * (2 * j + 1) * (2 * j + 2) for j, b in enumerate(_BERNOULLI, start=1)),
)

_FACTORIAL = (1.0, 1.0, 2.0, 6.0)

# Horner coefficients of the log-gamma tail and the four polygamma tails,
# one (5, 1) column per power of 1/z^2, highest power first.
_HORNER = np.array((_STIRLING,) + _PSI_TAIL).T[::-1, :, None]

# One recurrence step takes log Gamma(z) to log Gamma(z + 1) - log z and
# psi^(m)(z) to psi^(m)(z + 1) + (-1)^(m+1) m! / z^(m+1); these are the
# factors of log z and z^-(m+1).
_STEP_SCALE = np.array([-1.0, -1.0, 1.0, -2.0, 6.0])[:, None]

# _gamma_series walks its input in blocks of this many elements, so its
# scratch vectors stay cache-sized whatever the input size.  The README
# `betabart test` with boot (B = 500, whose bootstrap calls hold 38 500
# elements) ran 11 % slower with 4096, 6 % slower with 16384 and 15 %
# slower unchunked than with 8192 (30 interleaved in-process runs each,
# 2-core x86-64 VM, 1 BLAS thread).
_CHUNK = 8192


def _prepare(x, name):
    """Validate a finite, positive argument; return it as a float array.

    No copy is made: the kernel only reads its argument.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr <= 0.0):
        raise ValueError(f"{name} must be positive")
    return arr


# The package's input rules, one definition each; every public entry point
# checks its integer, number and sequence inputs through these.


def _integer(value, name, low):
    """value as an int of at least low: a Python or numpy integer, never a
    bool; anything else is a ValueError naming the input."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < low:
        bound = "nonnegative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {bound}, not {value}")
    return int(value)


def _real(value, name, positive=False):
    """value as a finite float, positive if asked: any real number, but
    never a bool or a string; anything else is a ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, not {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an int beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite")
    if positive and value <= 0.0:
        raise ValueError(f"{name} must be positive")
    return value


def _sequence(values, name):
    """values as a tuple: any iterable except a string, which would be
    taken letter by letter."""
    if isinstance(values, (str, bytes)):
        raise ValueError(f"{name} must be a sequence, not a string")
    try:
        return tuple(values)
    except TypeError:
        raise ValueError(f"{name} must be a sequence, not {values!r}") from None


def _reals(values, name):
    """values as a tuple of finite floats, each checked by _real."""
    return tuple(_real(v, name) for v in _sequence(values, name))


def _gamma_series(z, top):
    """log Gamma and psi^(0)..psi^(top) of a positive float array in one pass.

    Validation-free kernel shared with the fitting hot loop, which feeds it
    arguments that are positive by construction; top is 0..3.  Returns a
    (top + 2,) + z.shape array, log Gamma first.  Every output element is a
    function of its own input element alone, bit for bit, whatever the
    array's size or other entries, and a row's values do not depend on top.

    The series is written in place: log z goes straight into the digamma
    row, each output row is built in its own slot of the result, and the
    shifted arguments, 1/z, 1/z^2 and the Horner tails live in top + 6
    scratch vectors of min(_CHUNK, size) elements, allocated once here and
    reused by every chunk.  No operation is reordered: each in-place step
    has the operands and the order of the expression in the comment above
    it, so the bits are the expression's.  The scratch belongs to the call,
    not the module, so threads may call the kernel concurrently.

    The upward recurrence, most of the kernel's time although only the
    entries below _ASYMPTOTIC_MIN take it, keeps its terms step-major,
    (steps, rows, entries), so each step's addition reads one contiguous
    slab, and adds each output row's shift back with a 1-D scatter.  The
    k-order of every sum is the plain one, step 0 first.
    """
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    rows = top + 2
    out = np.empty((rows, flat.size))
    # The Horner tails, then the shifted copy of x, 1/x, 1/x^2 and one spare.
    scratch = np.empty((rows + 4, min(_CHUNK, flat.size)))
    for start in range(0, flat.size, _CHUNK):
        x = flat[start : start + _CHUNK]
        res = out[:, start : start + _CHUNK]
        if x.size < scratch.shape[1]:  # the short last chunk
            scratch = scratch[:, : x.size]
        tails = scratch[:rows]
        shifted, inv, inv_sq, spare = scratch[rows:]
        small = np.nonzero(x < _ASYMPTOTIC_MIN)[0]
        if small.size:
            # Row k of the block is w + k.  Rows past an entry's threshold
            # are zeroed, so each entry takes exactly its own steps, and
            # the steps are added one by one: a sum over the block axis may
            # regroup the additions depending on the block's width.  log
            # Gamma's shift stays a sum of logs; the log of the product
            # misses log_gamma(1) = 0 by 1.8e-15.
            w = x[small]
            depth = int(_ASYMPTOTIC_MIN - w.min()) + 1
            block = w + np.arange(depth, dtype=float)[:, None]
            live = block < _ASYMPTOTIC_MIN
            terms = np.empty((depth, rows, small.size))
            np.log(block, out=terms[:, 0])
            step = np.divide(1.0, block, out=terms[:, 1])
            for j in range(2, rows):
                np.multiply(terms[:, j - 1], step, out=terms[:, j])
            terms *= live[:, None]
            shift = np.zeros((rows, small.size))
            for term in terms:
                shift += term
            shift *= _STEP_SCALE[:rows]
            np.copyto(shifted, x)
            x = shifted
            x[small] = w + live.sum(axis=0)
        # log x waits in the digamma row until the log-gamma row has used it.
        log_x = np.log(x, out=res[1])
        np.divide(1.0, x, out=inv)
        np.multiply(inv, inv, out=inv_sq)
        np.multiply(_HORNER[0, :rows], inv_sq, out=tails)
        tails += _HORNER[1, :rows]
        for coef in _HORNER[2:, :rows]:
            tails *= inv_sq
            tails += coef
        # log Gamma = (x - 0.5) * log_x - x + _HALF_LOG_TWO_PI + tails[0] * inv
        r0 = np.subtract(x, 0.5, out=res[0])
        r0 *= log_x
        r0 -= x
        r0 += _HALF_LOG_TWO_PI
        tails[0] *= inv
        r0 += tails[0]
        # psi = log_x - 0.5 * inv - tails[1] * inv_sq; the polygamma rows
        # below take tails[m + 1] * inv_sq too.
        tails[1:] *= inv_sq
        log_x -= np.multiply(inv, 0.5, out=spare)
        log_x -= tails[1]
        # psi^(m)(z) = (-1)^(m+1) z^-m [(m-1)! + m!/(2z) + sum_j c_j z^-2j],
        # as lead * ((m-1)! + 0.5 m! * inv + tails[m + 1] * inv_sq) with
        # lead = inv at m = 1 and -lead * inv at each further m.
        lead = inv
        for m in range(1, rows - 1):
            if m > 1:
                lead = np.negative(lead, out=spare)
                lead *= inv
            rm = np.multiply(inv, 0.5 * _FACTORIAL[m], out=res[m + 1])
            rm += _FACTORIAL[m - 1]
            rm += tails[m + 1]
            rm *= lead
        if small.size:
            # one 1-D scatter per output row is cheaper than a 2-D one
            for r, sh in zip(res, shift):
                r[small] += sh
    return out.reshape((rows,) + z.shape)


def log_gamma(x):
    """Natural logarithm of the gamma function for x > 0.

    Relative accuracy is about 1e-14 over [1e-6, 1e6]; values where the
    function crosses zero (x = 1, 2) are accurate absolutely to a few ulp
    of the shifted evaluation.
    """
    z = _prepare(x, "x")
    out = _gamma_series(z, 0)[0]
    return float(out) if z.ndim == 0 else out


def polygamma(m, x):
    """Polygamma function psi^(m)(x) for order m in {0, 1, 2, 3} and x > 0.

    Order 0 is the digamma function, order 1 the trigamma, and so on.
    Relative accuracy is about 1e-13 over [1e-4, 1e6].
    """
    m = _integer(m, "polygamma order", 0)
    if m > 3:
        raise ValueError("polygamma order must be one of 0, 1, 2, 3")
    z = _prepare(x, "x")
    out = _gamma_series(z, m)[m + 1]
    return float(out) if z.ndim == 0 else out


_erfc = np.frompyfunc(math.erfc, 1, 1)


def chisq_sf(x, df):
    """Chi-square survival function P(X > x) with df degrees of freedom.

    df must be a positive integer; x may be a scalar or an array of
    nonnegative reals.  For integer df the tail is a finite sum
    (Abramowitz & Stegun 26.4.4-5): with s = x/2 and h = 0 for even df,
    1/2 for odd, P(X > x) = [erfc(sqrt(s)) if df is odd] plus the terms
    e^-s s^(j+h) / Gamma(j+h+1), j < df // 2.  Each term is the one before
    times s/(j+h); the terms are accumulated as logs and exponentiated
    once, so none underflows before its value does.  Every part is
    positive, so the result is accurate relatively, to about 1e-12 over the
    whole tail that does not underflow, and is exactly 1.0 at x = 0.
    """
    df = _integer(df, "df", 1)
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("x must be finite")
    if np.any(arr < 0.0):
        raise ValueError("x must be nonnegative")
    s = 0.5 * arr
    h = 0.5 * (df % 2)
    out = np.asarray(_erfc(np.sqrt(s)), dtype=float) if h else np.zeros_like(s)
    if df > 1:
        with np.errstate(divide="ignore"):
            log_s = np.log(s)[..., None]
        # log(term j) + s: log(s^h / Gamma(h + 1)) at j = 0, + log(s / (j + h)) after.
        steps = np.empty(s.shape + (df // 2,))
        steps[..., :1] = h * log_s - math.lgamma(h + 1.0) if h else 0.0
        steps[..., 1:] = log_s - np.log(np.arange(1.0, df // 2) + h)
        out += np.exp(np.cumsum(steps, axis=-1) - s[..., None]).sum(axis=-1)
    out = np.minimum(out, 1.0)
    return float(out) if arr.ndim == 0 else out
