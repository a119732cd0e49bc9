"""Model primitives: data container, link, likelihood, score, information."""

import math

import numpy as np
import pytest
import scipy.stats

from betabart.cumulants import loglik_derivative_tensors
from betabart.fit import Restriction, fit_mle, fit_restricted
from betabart.model import (
    MU_CLAMP,
    Dataset,
    LinkFunction,
    ParamVector,
    _beta_rows,
    _eta_state,
    _means,
    _rows_information,
    _rows_observed_information,
    fisher_information,
    log_likelihood,
    logit_link,
    obs_state,
    gen_beta_sample,
    score,
)
from betabart.inference import _pcg64_states
from conftest import central_diff, food_dataset, random_instance, rel_err


class TestDataset:
    def test_accessors(self):
        data = Dataset([0.2, 0.5, 0.7], [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        assert data.n == 3 and data.p == 2
        assert data.y.dtype == float

    def test_arrays_frozen(self):
        data = Dataset([0.2, 0.5, 0.7], [[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
        with pytest.raises(ValueError):
            data.y[0] = 0.4
        with pytest.raises(ValueError):
            data.X[0, 0] = 2.0

    @pytest.mark.parametrize(
        "y, X",
        [
            ([0.2, 0.5], [[1.0], [1.0], [1.0]]),  # length mismatch
            ([0.2, 0.5, 0.7], [1.0, 1.0, 1.0]),  # X not 2-d
            ([0.0, 0.5, 0.7], [[1.0], [1.0], [1.0]]),  # boundary response
            ([0.2, 1.0, 0.7], [[1.0], [1.0], [1.0]]),  # boundary response
            ([0.2, 0.5], [[1.0, 0.0], [1.0, 1.0]]),  # n <= p
            ([0.2, np.nan, 0.7], [[1.0], [1.0], [1.0]]),  # NaN response
            ([0.2, 0.5, 0.7], [[1.0], [np.nan], [1.0]]),  # NaN covariate
            ([0.2, 0.5, 0.7], [[1.0], [np.inf], [1.0]]),  # infinite covariate
        ],
    )
    def test_validation(self, y, X):
        with pytest.raises(ValueError):
            Dataset(y, X)

    def test_rank_is_computed_once(self, monkeypatch):
        X = [[1.0, 0.0, 0.0], [1.0, 1.0, 2.0], [1.0, 2.0, 4.0], [1.0, 3.0, 6.0]]
        data = Dataset([0.2, 0.5, 0.7, 0.4], X)
        calls = []
        matrix_rank = np.linalg.matrix_rank

        def counted(*args, **kwargs):
            calls.append(args)
            return matrix_rank(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "matrix_rank", counted)
        assert data.rank == 2 and data.rank == 2
        assert len(calls) == 1


class TestParamVector:
    def test_round_trip(self):
        theta = ParamVector([0.5, -1.0], 7.5)
        assert theta.k == 3
        back = ParamVector.from_array(theta.as_array())
        assert np.array_equal(back.beta, theta.beta) and back.phi == theta.phi

    @pytest.mark.parametrize("phi", [0.0, -1.0, math.inf, math.nan])
    def test_phi_validation(self, phi):
        with pytest.raises(ValueError):
            ParamVector([1.0], phi)

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            ParamVector([], 2.0)
        with pytest.raises(ValueError):
            ParamVector([1.0, math.nan], 2.0)


class TestLogitLink:
    def test_round_trip(self, link):
        mu = np.linspace(0.01, 0.99, 25)
        assert np.allclose(link.g_inv(link.g(mu)), mu, rtol=1e-12)
        eta = np.linspace(-12.0, 12.0, 25)
        assert np.allclose(link.g(link.g_inv(eta)), eta, rtol=1e-9)

    def test_moderate_eta_stays_inside(self, link):
        mu = link.g_inv(np.array([-30.0, 30.0]))
        assert 0.0 < mu[0] < mu[1] < 1.0

    def test_saturated_eta_is_clamped(self, link):
        # g_inv saturates in floating point around |eta| ~ 37; obs_state
        # is responsible for pulling means back into the open interval.
        data = Dataset([0.3, 0.6, 0.5], [[1.0, -500.0], [1.0, 500.0], [1.0, 0.0]])
        theta = ParamVector([0.0, 1.0], 4.0)
        state = obs_state(theta, data, link)
        assert state.clamped
        assert np.all(state.mu > 0.0) and np.all(state.mu < 1.0)
        assert np.all(np.isfinite(state.mustar))

    def test_derivative_ladder(self, link):
        # each deriv is the mu-derivative of the previous one
        mu = np.linspace(0.08, 0.92, 15)
        pairs = [
            (link.g, link.deriv1),
            (link.deriv1, link.deriv2),
            (link.deriv2, link.deriv3),
            (link.deriv3, link.deriv4),
        ]
        for lower, upper in pairs:
            fd = central_diff(lambda v: lower(v), mu, 1e-6)
            assert rel_err(upper(mu), fd) < 1e-6

    def test_deriv1_positive(self, link):
        mu = np.linspace(0.001, 0.999, 50)
        assert np.all(link.deriv1(mu) > 0.0)

    @pytest.mark.parametrize("name", ["g", "deriv1", "deriv2", "deriv3", "deriv4"])
    def test_endpoints_raise_and_nan_passes(self, link, name):
        # A NaN trial mean must reach the scoring core's step rejection, so
        # only the interval's endpoints are refused.
        f = getattr(link, name)
        for edge in (0.0, 1.0):
            with pytest.raises(ValueError, match="strictly inside"):
                f(edge)
        assert np.isnan(f(np.nan))
        out = f(np.array([0.25, np.nan]))
        assert np.isfinite(out[0]) and np.isnan(out[1])

    def test_every_derivative_is_required(self, link):
        # The corrections read the link through t = 1/g' and its three
        # mu-derivatives, so a link without deriv4 cannot be built.
        with pytest.raises(TypeError):
            LinkFunction(
                "logit", link.g, link.g_inv, link.deriv1, link.deriv2, link.deriv3
            )


def test_obs_state_fields(link):
    rng = np.random.default_rng(5)
    data, theta, _ = random_instance(rng, n=20, p=3, phi=12.0)
    state = obs_state(theta, data, link)
    assert np.allclose(state.eta, data.X @ theta.beta, rtol=1e-14)
    assert np.allclose(state.mu, link.g_inv(state.eta), rtol=1e-14)
    assert np.allclose(state.ystar, np.log(data.y / (1.0 - data.y)), rtol=1e-14)
    assert np.allclose(state.dmu_deta, 1.0 / link.deriv1(state.mu), rtol=1e-13)
    assert not state.clamped


def test_obs_state_eta_gives_its_mu(link):
    # eta is the predictor the state's means came from, bit for bit
    rng = np.random.default_rng(0)
    for _ in range(100):
        data, theta, _ = random_instance(rng)
        state = obs_state(theta, data, link)
        mu = _means(state.eta[None], link)[0][0, : data.n]
        assert np.array_equal(mu, state.mu)


def test_log_likelihood_matches_scipy(link):
    rng = np.random.default_rng(11)
    data, theta, _ = random_instance(rng, n=25, p=4, phi=40.0)
    mu = link.g_inv(data.X @ theta.beta)
    want = float(
        np.sum(scipy.stats.beta.logpdf(data.y, mu * theta.phi, (1.0 - mu) * theta.phi))
    )
    assert log_likelihood(theta, data, link) == pytest.approx(want, rel=1e-12)


def test_score_matches_finite_difference(link):
    rng = np.random.default_rng(23)
    data, theta, _ = random_instance(rng, n=30, p=3, phi=15.0)
    analytic = score(theta, data, link)
    vec = theta.as_array()
    fd = np.empty_like(vec)
    for i in range(vec.size):
        h = 1e-6 * max(1.0, abs(vec[i]))

        def ll_at(v, i=i):
            shifted = vec.copy()
            shifted[i] = v
            return log_likelihood(ParamVector.from_array(shifted), data, link)

        fd[i] = central_diff(ll_at, vec[i], h)
    assert rel_err(analytic, fd) < 1e-6


def test_information_closed_form(link):
    # mu = 1/2, phi = 2 makes both beta shapes 1: the weights reduce to
    # w = pi^2/24, c = 0, d = 1 - pi^2/12.  Two identical rows double K.
    data = Dataset([0.3, 0.6], [[1.0], [1.0]])
    theta = ParamVector([0.0], 2.0)
    K = fisher_information(theta, data, link)
    want = 2.0 * np.diag([math.pi**2 / 12.0, 1.0 - math.pi**2 / 12.0])
    assert np.allclose(K, want, rtol=1e-13, atol=1e-15)


def test_information_symmetric_positive_definite(link):
    rng = np.random.default_rng(37)
    for _ in range(10):
        data, theta, _ = random_instance(rng)
        K = fisher_information(theta, data, link)
        assert np.allclose(K, K.T, rtol=1e-12)
        eigenvalues = np.linalg.eigvalsh(K)
        assert np.all(eigenvalues > 0.0)


def test_score_zero_mean_monte_carlo(link):
    # E U(theta) = 0 at the data-generating parameter
    rng = np.random.default_rng(101)
    n, phi = 10, 20.0
    X = np.column_stack([np.ones(n), rng.uniform(-0.5, 0.5, n)])
    beta = np.array([0.4, 1.1])
    theta = ParamVector(beta, phi)
    mu = link.g_inv(X @ beta)
    draws = 4000
    g1 = rng.standard_gamma(mu * phi, size=(draws, n))
    g2 = rng.standard_gamma((1.0 - mu) * phi, size=(draws, n))
    Y = g1 / (g1 + g2)
    scores = np.array(
        [score(theta, Dataset(Y[b], X), link) for b in range(draws)]
    )
    mean = scores.mean(axis=0)
    se = scores.std(axis=0, ddof=1) / math.sqrt(draws)
    assert np.all(np.abs(mean) < 4.0 * se + 1e-12)


def test_beta_ratio_is_the_two_call_draw():
    # gen_beta_sample's one standard_gamma call on the concatenated shapes
    # draws what a call on a and then one on b draw, shapes below 1
    # included, and leaves the generator where the two calls leave it; the
    # draw is the clamped ratio of the two.
    rng = np.random.default_rng(29)
    for n, phi in ((1, 0.3), (15, 100.0), (38, 7.5), (200, 2.0e4)):
        mu = rng.uniform(0.01, 0.99, n)
        a, b = mu * phi, (1.0 - mu) * phi
        one, two = np.random.default_rng(n), np.random.default_rng(n)
        g1 = two.standard_gamma(a)
        g2 = two.standard_gamma(b)
        want = np.clip(g1 / (g1 + g2), MU_CLAMP, 1.0 - MU_CLAMP)
        assert np.array_equal(gen_beta_sample(mu, phi, one), want)
        assert one.bit_generator.state == two.bit_generator.state


@pytest.mark.parametrize("rows", [1, 7, 64])
def test_beta_rows_are_gen_beta_sample_per_state(rows):
    # Row i of the drawer is gen_beta_sample from a generator in states[i],
    # bit for bit, whatever the number of rows; phi = 0.05 puts shapes far
    # below 1, where draws reach the clamp.
    rng = np.random.default_rng(rows)
    for n, phi in ((1, 0.05), (15, 100.0), (40, 3.0e3)):
        mu = rng.uniform(0.01, 0.99, n)
        states = _pcg64_states(rows + n, (np.arange(rows, dtype=np.uint64), 0))
        Y = _beta_rows(mu, phi, states)
        assert Y.shape == (rows, n)
        for y, state in zip(Y, states):
            own = np.random.default_rng(0)
            own.bit_generator.state = state
            assert np.array_equal(y, gen_beta_sample(mu, phi, own))


def _one_row(beta, phi, X, offset, link, L):
    """(XT, Phi, _eta_state output) for one point on the design X."""
    XT = np.ascontiguousarray(X.T)
    Phi = np.array([phi])
    Eta = np.einsum("bj,jn->bn", np.asarray(beta)[None], XT) + offset
    return XT, Phi, _eta_state(Eta, Phi, link, L)


def _observed(beta, phi, X, offset, link, y):
    L = np.concatenate((np.log(y), np.log1p(-y)))[None]
    XT, Phi, (M, T, Psi, Tri, _, _) = _one_row(beta, phi, X, offset, link, L)
    return _rows_observed_information(XT, Phi, M, T, Psi, Tri, L, link)[0]


class TestObservedInformation:
    # The scoring core steps on J = -d^2 l; loglik_derivative_tensors
    # builds the same matrix independently, from the cumulant machinery.

    @staticmethod
    def _points(data, link, restriction):
        full = fit_mle(data, link).theta_hat
        tilde = fit_restricted(data, link, restriction).theta_hat
        off = ParamVector(full.beta * np.resize([1.1, 0.9], data.p), full.phi * 0.6)
        return {"hat": full, "tilde": tilde, "off": off}

    @pytest.mark.parametrize("kind", ["reduced", "five", "full"])
    def test_matches_second_derivative_tensor(self, kind, link):
        data = food_dataset(kind)
        restriction = Restriction((data.p,), (0.0,))
        for name, theta in self._points(data, link, restriction).items():
            J = _observed(
                theta.beta, theta.phi, data.X, np.zeros(data.n), link, data.y
            )
            want = -loglik_derivative_tensors(theta, data, link, order=2)[0]
            assert rel_err(J, want) < 1e-10, name

    @pytest.mark.parametrize("kind", ["five", "full"])
    def test_restricted_free_columns_with_offset(self, kind, link):
        # On the free columns with the fixed part in the offset, J is the
        # free-index block of the full-space J at the embedded point.
        data = food_dataset(kind)
        restriction = Restriction((2, data.p), (-0.01, 0.002))
        free, _, offset = restriction.split(data.X)
        keep = np.append(free, data.p)
        for name, theta in self._points(data, link, restriction).items():
            beta = theta.beta.copy()
            beta[np.array(restriction.indices) - 1] = restriction.values
            embedded = ParamVector(beta, theta.phi)
            J = _observed(
                beta[free], theta.phi, data.X[:, free], offset, link, data.y
            )
            want = -loglik_derivative_tensors(embedded, data, link, order=2)[0]
            assert rel_err(J, want[np.ix_(keep, keep)]) < 1e-10, name

    @pytest.mark.parametrize("kind", ["reduced", "full"])
    def test_expected_log_responses_give_expected_information(self, kind, link):
        # With E log y = psi(a) - psi(phi) and E log(1 - y) = psi(b) -
        # psi(phi) in place of the data, the residuals vanish and J = K.
        data = food_dataset(kind)
        theta = fit_mle(data, link).theta_hat
        n = data.n
        placeholder = np.zeros((1, 2 * n))
        XT, Phi, (M, T, Psi, Tri, _, _) = _one_row(
            theta.beta, theta.phi, data.X, 0.0, link, placeholder
        )
        L = Psi[:, : 2 * n] - Psi[:, 2 * n :]
        J = _rows_observed_information(XT, Phi, M, T, Psi, Tri, L, link)[0]
        K = _rows_information(XT, Phi, M, T, Tri)[0]
        assert rel_err(J, K) < 1e-12
