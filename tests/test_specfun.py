"""Special functions against scipy oracles and exact identities."""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from betabart.specfun import chisq_sf, log_gamma, polygamma

GRID = np.concatenate(
    [
        np.linspace(0.01, 0.99, 23),
        np.linspace(1.0, 9.99, 41),
        np.array([9.999999, 10.0, 10.000001]),
        np.linspace(10.5, 200.0, 37),
        np.array([1e3, 1e6, 1e12]),
    ]
)


def test_log_gamma_matches_scipy():
    got = log_gamma(GRID)
    want = scipy.special.gammaln(GRID)
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1.0)) < 1e-13


def test_log_gamma_exact_values():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-15)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.nan])
def test_log_gamma_domain(bad):
    with pytest.raises(ValueError):
        log_gamma(bad)


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_polygamma_matches_scipy(m):
    got = polygamma(m, GRID)
    want = scipy.special.polygamma(m, GRID)
    scale = np.maximum(np.abs(want), 1e-300)
    assert np.max(np.abs(got - want) / scale) < 5e-12


def test_polygamma_exact_values():
    euler_gamma = 0.5772156649015328606
    assert polygamma(0, 1.0) == pytest.approx(-euler_gamma, rel=1e-14)
    assert polygamma(1, 1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
    assert polygamma(1, 0.5) == pytest.approx(math.pi**2 / 2.0, rel=1e-14)
    # psi(2) = 1 - gamma by the recurrence psi(x+1) = psi(x) + 1/x
    assert polygamma(0, 2.0) == pytest.approx(1.0 - euler_gamma, rel=1e-14)


@pytest.mark.parametrize("m", [-1, 4, 1.5, True])
def test_polygamma_order_validation(m):
    with pytest.raises(ValueError):
        polygamma(m, 1.0)


def test_polygamma_domain():
    with pytest.raises(ValueError):
        polygamma(1, 0.0)
    with pytest.raises(ValueError):
        polygamma(0, -3.0)


def test_shapes_preserved():
    x = np.array([[0.5, 1.5], [2.5, 30.0]])
    assert log_gamma(x).shape == x.shape
    assert polygamma(1, x).shape == x.shape
    assert isinstance(log_gamma(2.5), float)
    assert isinstance(polygamma(0, 2.5), float)
    assert isinstance(chisq_sf(1.0, 2), float)
    assert chisq_sf(np.array([1.0, 2.0, 3.0]), 2).shape == (3,)


@pytest.mark.parametrize("df", [1, 2, 3, 4, 7, 10, 25])
def test_chisq_sf_matches_scipy(df):
    x = np.linspace(0.0, 80.0, 161)
    got = chisq_sf(x, df)
    want = scipy.special.chdtrc(df, x)
    assert np.max(np.abs(got - want)) < 1e-13


@pytest.mark.parametrize("df", range(1, 31))
def test_chisq_sf_relative_accuracy_in_the_tail(df):
    # An absolute check passes a tail that underflows to 0 early; this one
    # holds the relative error wherever the true value exceeds 1e-290.
    x = np.linspace(0.0, 3000.0, 6001)
    want = scipy.stats.chi2.sf(x, df)
    keep = want > 1e-290
    got = chisq_sf(x[keep], df)
    assert np.max(np.abs(got - want[keep]) / want[keep]) < 1e-12
    assert chisq_sf(0.0, df) == 1.0


def test_chisq_sf_gives_the_normal_tail():
    # P(Z > z) = P(chi2_1 > z^2) / 2 for z >= 0, out to where it underflows.
    z = np.linspace(0.0, 37.0, 741)
    want = scipy.stats.norm.sf(z)
    assert np.max(np.abs(0.5 * chisq_sf(z * z, 1) - want) / want) < 1e-12


def test_chisq_sf_exact_values():
    # df = 2 is an exponential: P(X > x) = exp(-x/2)
    assert chisq_sf(3.0, 2) == pytest.approx(math.exp(-1.5), abs=1e-15)
    assert chisq_sf(0.0, 5) == 1.0
    assert chisq_sf(5.9914645471, 2) == pytest.approx(0.05, abs=1e-9)
    assert chisq_sf(500.0, 1) < 1e-100


@pytest.mark.parametrize("df", [0, -2, 2.5, True])
def test_chisq_sf_df_validation(df):
    with pytest.raises(ValueError):
        chisq_sf(1.0, df)


def test_chisq_sf_x_validation():
    with pytest.raises(ValueError):
        chisq_sf(-0.5, 2)
    with pytest.raises(ValueError):
        chisq_sf(math.inf, 2)


def test_chisq_sf_monotone_in_x():
    x = np.linspace(0.0, 40.0, 400)
    values = chisq_sf(x, 3)
    assert np.all(np.diff(values) < 0.0)
    assert values[0] == 1.0
