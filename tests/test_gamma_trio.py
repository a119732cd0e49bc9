"""The log-gamma/polygamma kernel behind the scoring loops and the cumulants."""

import numpy as np
import scipy.special

from betabart.specfun import _ASYMPTOTIC_MIN, _CHUNK, _gamma_series
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
