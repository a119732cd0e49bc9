"""The log-gamma/polygamma kernel behind the scoring loops and the cumulants."""

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from betabart.specfun import (
    _ASYMPTOTIC_MIN,
    _CHUNK,
    _FACTORIAL,
    _HALF_LOG_TWO_PI,
    _HORNER,
    _STEP_SCALE,
    _gamma_series,
)
from test_specfun import GRID

# The kernel's two callers: the scoring loops need orders up to 1, the
# cumulants up to 3.
TOPS = (1, 3)


def test_trio_matches_scipy():
    for top in TOPS:
        series = _gamma_series(GRID, top)
        assert series.shape == (top + 2,) + GRID.shape
        want = scipy.special.gammaln(GRID)
        assert np.max(np.abs(series[0] - want) / np.maximum(np.abs(want), 1.0)) < 1e-13
        for m in range(top + 1):
            want = scipy.special.polygamma(m, GRID)
            scale = np.maximum(np.abs(want), 1e-300)
            assert np.max(np.abs(series[m + 1] - want) / scale) < 5e-12


def _mixed_sample(rng):
    # Longer than two chunks, with entries on both sides of the shift
    # threshold and exactly on it.
    z = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 2 * _CHUNK + 123))
    z[::97] = _ASYMPTOTIC_MIN
    assert (z < _ASYMPTOTIC_MIN).any() and (z > _ASYMPTOTIC_MIN).any()
    return z


def test_trio_is_elementwise():
    # Every element's outputs must equal those it gets when evaluated
    # alone, in another order or in another shape.
    rng = np.random.default_rng(11)
    z = _mixed_sample(rng)
    perm = rng.permutation(z.size)
    for top in TOPS:
        batch = _gamma_series(z, top)
        alone = np.concatenate([_gamma_series(z[i : i + 1], top) for i in range(z.size)], 1)
        permuted = _gamma_series(z[perm], top)
        stacked = _gamma_series(z[: 3 * 1000].reshape(3, 1000), top)
        assert np.array_equal(batch, alone)
        assert np.array_equal(permuted, batch[:, perm])
        assert np.array_equal(stacked.reshape(top + 2, -1), batch[:, : 3 * 1000])


def test_low_orders_do_not_depend_on_top():
    # The cumulants take psi' from a top = 3 pass and the scoring loop from
    # a top = 1 pass: both must see the same bits.
    z = _mixed_sample(np.random.default_rng(5))
    full = _gamma_series(z, 3)
    for top in (0, 1, 2):
        assert np.array_equal(_gamma_series(z, top), full[: top + 2])


def test_scalar_and_empty_shapes():
    assert _gamma_series(np.float64(2.5), 3).shape == (5,)
    assert _gamma_series(np.empty((0, 4)), 1).shape == (3, 0, 4)


# The kernel as it was before it wrote its series in place, kept verbatim
# (with its 4096-element chunk) as the oracle the in-place kernel must
# equal bit for bit.
_REFERENCE_CHUNK = 4096


def _reference_series(z, top):
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    rows = top + 2
    out = np.empty((rows, flat.size))
    for start in range(0, flat.size, _REFERENCE_CHUNK):
        x = flat[start : start + _REFERENCE_CHUNK]
        res = out[:, start : start + _REFERENCE_CHUNK]
        small = np.nonzero(x < _ASYMPTOTIC_MIN)[0]
        if small.size:
            # Row k of the block is w + k.  Rows past an entry's threshold
            # are zeroed, so each entry takes exactly its own steps, and
            # the rows are added one by one: a sum over the block axis may
            # regroup the additions depending on the block's width.  log
            # Gamma's shift stays a sum of logs; the log of the product
            # misses log_gamma(1) = 0 by 1.8e-15.
            w = x[small]
            depth = int(_ASYMPTOTIC_MIN - w.min()) + 1
            block = w + np.arange(depth, dtype=float)[:, None]
            live = block < _ASYMPTOTIC_MIN
            terms = np.empty((rows,) + block.shape)
            np.log(block, out=terms[0])
            inv = np.divide(1.0, block, out=terms[1])
            for j in range(2, rows):
                np.multiply(terms[j - 1], inv, out=terms[j])
            terms *= live
            shift = np.zeros((rows, small.size))
            for k in range(depth):
                shift += terms[:, k]
            shift *= _STEP_SCALE[:rows]
            x = x.copy()
            x[small] = w + live.sum(axis=0)
        log_x = np.log(x)
        inv = 1.0 / x
        inv_sq = inv * inv
        tails = np.empty((rows,) + x.shape)
        tails[:] = _HORNER[0, :rows]
        for coef in _HORNER[1:, :rows]:
            tails *= inv_sq
            tails += coef
        res[0] = (x - 0.5) * log_x - x + _HALF_LOG_TWO_PI + tails[0] * inv
        res[1] = log_x - 0.5 * inv - tails[1] * inv_sq
        # psi^(m)(z) = (-1)^(m+1) z^-m [(m-1)! + m!/(2z) + sum_j c_j z^-2j]
        lead = inv
        for m in range(1, rows - 1):
            res[m + 1] = lead * (
                _FACTORIAL[m - 1] + 0.5 * _FACTORIAL[m] * inv + tails[m + 1] * inv_sq
            )
            lead = -lead * inv
        if small.size:
            res[:, small] += shift
    return out.reshape((rows,) + z.shape)


# The shift threshold, the float just below it, and two zeros of log Gamma;
# then 10 - k for k = 1..9, where the recurrence takes k steps (k + 1 just
# below), with the floats on either side of each.
_EDGES = (_ASYMPTOTIC_MIN, np.nextafter(_ASYMPTOTIC_MIN, 0.0), 1.0, 2.0) + tuple(
    np.nextafter(_ASYMPTOTIC_MIN - k, toward)
    for k in range(1, 10)
    for toward in (-np.inf, _ASYMPTOTIC_MIN - k, np.inf)
)
# A bootstrap call's shape-parameter array: 500 resamples of the 38 food
# observations, (a, b, phi) per row.
_FOOD_SHAPE = (500, 77)
_SIZES = (0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 123, _FOOD_SHAPE)


def _food_like(rng):
    """(a, b, phi) rows of beta shapes like a bootstrap call's, with phi
    rising tenfold down the rows, so that the kernel's chunks have
    different minima and so take different numbers of steps."""
    rows, n = _FOOD_SHAPE[0], _FOOD_SHAPE[1] // 2
    mu = rng.uniform(0.05, 0.6, (rows, n))
    phi = rng.uniform(1.0, 40.0) * 10.0 ** np.linspace(0.0, 1.0, rows)[:, None]
    z = np.concatenate((mu * phi, (1.0 - mu) * phi, phi), axis=1)
    chunks = np.split(z.ravel(), range(_CHUNK, z.size, _CHUNK))
    minima = [chunk.min() for chunk in chunks]
    assert len(set(minima)) == len(minima) > 1
    return z


@st.composite
def kernel_values(draw, size):
    """size values, log-uniform over [1e-4, 1e6], with every edge value
    (where the size allows) and a few drawn values at drawn positions; the
    food shape instead of a size gives _food_like values, with no edge
    values, which would even out the chunks' minima."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if size == _FOOD_SHAPE:
        return _food_like(rng)
    z = np.exp(rng.uniform(np.log(1e-4), np.log(1e6), size))
    if size:
        spots = rng.choice(size, min(size, 4 * len(_EDGES)), replace=False)
        z[spots] = np.resize(_EDGES, spots.size)
        spot = st.tuples(st.integers(0, size - 1), st.floats(1e-4, 1e6))
        for i, v in draw(st.lists(spot, max_size=4)):
            z[i] = v
    return z


def _two_dimensional(size):
    """A (rows, n) shape of size elements with more than one row when the
    size has a divisor for it."""
    if size == 0:
        return (3, 0)
    rows = max(d for d in range(1, 65) if size % d == 0)
    return (rows, size // rows) if rows > 1 else (size, 1)


@pytest.mark.parametrize("flat", [True, False], ids=["flat", "rows"])
@pytest.mark.parametrize(
    "size", _SIZES, ids=lambda size: "food" if size == _FOOD_SHAPE else str(size)
)
@settings(max_examples=8)
@given(data=st.data())
def test_kernel_equals_reference(size, flat, data):
    z = data.draw(kernel_values(size))
    if flat:
        z = z.ravel()
    elif z.ndim == 1:
        z = z.reshape(_two_dimensional(size))
    for top in range(4):
        assert np.array_equal(_gamma_series(z, top), _reference_series(z, top))
