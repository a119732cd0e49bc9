"""The fused log-gamma/digamma/trigamma kernel behind the scoring loops."""

import numpy as np
import scipy.special

from betabart.specfun import _ASYMPTOTIC_MIN, _CHUNK, _gamma_trio
from test_specfun import GRID


def test_trio_matches_scipy():
    lg, psi, tri = _gamma_trio(GRID)
    want = scipy.special.gammaln(GRID)
    assert np.max(np.abs(lg - want) / np.maximum(np.abs(want), 1.0)) < 1e-13
    for m, got in ((0, psi), (1, tri)):
        want = scipy.special.polygamma(m, GRID)
        scale = np.maximum(np.abs(want), 1e-300)
        assert np.max(np.abs(got - want) / scale) < 5e-12


def test_trio_is_elementwise():
    # Longer than two chunks, with entries on both sides of the shift
    # threshold: every element's three values must equal those it gets
    # when evaluated alone, in another order or in another shape.
    rng = np.random.default_rng(11)
    z = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 2 * _CHUNK + 123))
    z[::97] = _ASYMPTOTIC_MIN
    assert (z < _ASYMPTOTIC_MIN).any() and (z > _ASYMPTOTIC_MIN).any()
    batch = _gamma_trio(z)
    alone = np.array(
        [[out[0] for out in _gamma_trio(z[i : i + 1])] for i in range(z.size)]
    )
    perm = rng.permutation(z.size)
    permuted = _gamma_trio(z[perm])
    stacked = _gamma_trio(z[: 3 * 1000].reshape(3, 1000))
    for j in range(3):
        assert np.array_equal(batch[j], alone[:, j])
        assert np.array_equal(permuted[j], batch[j][perm])
        assert np.array_equal(stacked[j].ravel(), batch[j][: 3 * 1000])
