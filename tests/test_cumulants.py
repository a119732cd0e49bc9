"""Derivative tensors, expected-cumulant tensors, and the epsilon term.

The per-observation quantities and every tensor are validated two ways:
finite differences ladder each analytic level against the one below it,
and the matrix-form epsilon is checked against brute-force index sums.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betabart.cumulants as cumulants
from betabart.cumulants import (
    NonFiniteCumulantError,
    _bartlett_rows,
    _cumulant_factor_tensors,
    bartlett_factor,
    cumulant_tensors,
    epsilon_lawley_direct,
    epsilon_matrix,
    loglik_derivative_tensors,
    obs_quantities,
)
from betabart.fit import (
    FitError,
    Restriction,
    SingularInformationError,
    fit_mle,
    fit_restricted,
)
from betabart.model import (
    Dataset,
    ParamVector,
    fisher_information,
    logit_link,
    obs_state,
    score,
)
from conftest import random_instance, rel_err


@pytest.fixture(scope="module")
def small_instance():
    rng = np.random.default_rng(91)
    return random_instance(rng, n=12, p=2, phi=9.0)


# (field, field_mu): each *_mu field is the partial derivative of its base
# quantity with respect to mu, checked through the beta_2 chain below.
MU_PAIRS = [
    ("t", "t1"),
    ("t1", "t2"),
    ("t2", "t3"),
    ("omega", "omega_mu"),
    ("m", "m_mu"),
    ("a", "a_mu"),
    ("b", "b_mu"),
    ("c", "c_mu"),
    ("s", "s_mu"),
    ("u", "u_mu"),
    ("r", "r_mu"),
    ("z", "z_mu"),
]

PHI_PAIRS = [
    ("omega", "omega_phi"),
    ("omega_phi", "omega_phi2"),
    ("m", "m_phi"),
    ("c", "c_phi"),
    ("s", "s_phi"),
    ("u", "u_phi"),
    ("r", "r_phi"),
    ("z", "z_phi"),
    ("mustar_phi", "mustar_phi2"),
    ("mustar_phi2", "mustar_phi3"),
]


class TestObsQuantities:
    @pytest.mark.parametrize("base, deriv", MU_PAIRS)
    def test_mu_derivative(self, small_instance, base, deriv):
        # perturbing beta_2 moves mu_i by t_i x_i2 per unit, so the chain
        # gives d(field_i)/d(beta_2) = field_mu,i * t_i * x_i2
        data, theta, link = small_instance
        h = 1e-6
        q0 = obs_quantities(theta, data, link)

        def field_at(delta):
            beta = theta.beta.copy()
            beta[1] += delta
            return getattr(obs_quantities(ParamVector(beta, theta.phi), data, link), base)

        fd = (field_at(h) - field_at(-h)) / (2.0 * h)
        want = getattr(q0, deriv) * q0.t * data.X[:, 1]
        # atol absorbs cancellation noise when the true derivative is zero
        # (t3 vanishes identically for the logit link)
        assert np.allclose(fd, want, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("base, deriv", PHI_PAIRS)
    def test_phi_derivative(self, small_instance, base, deriv):
        data, theta, link = small_instance
        h = 1e-6 * theta.phi
        q0 = obs_quantities(theta, data, link)

        def field_at(delta):
            return getattr(
                obs_quantities(ParamVector(theta.beta, theta.phi + delta), data, link),
                base,
            )

        fd = (field_at(h) - field_at(-h)) / (2.0 * h)
        assert rel_err(fd, getattr(q0, deriv)) < 1e-5

    def test_mustar_phi_is_phi_derivative_of_mustar(self, small_instance):
        data, theta, link = small_instance
        h = 1e-6 * theta.phi
        q0 = obs_quantities(theta, data, link)

        def mustar_at(delta):
            return obs_state(
                ParamVector(theta.beta, theta.phi + delta), data, link
            ).mustar

        fd = (mustar_at(h) - mustar_at(-h)) / (2.0 * h)
        assert rel_err(fd, q0.mustar_phi) < 1e-5

    def test_algebraic_identities(self, small_instance):
        data, theta, link = small_instance
        q = obs_quantities(theta, data, link)
        phi = theta.phi
        assert rel_err(q.a, 3.0 * q.t1 * q.t**2) < 1e-12
        assert rel_err(q.b, q.t * (q.t2 * q.t + q.t1**2)) < 1e-12
        assert rel_err(q.c, phi * q.mustar_phi) < 1e-12
        assert rel_err(q.r, (2.0 * q.mustar_phi + phi * q.mustar_phi2) * q.t) < 1e-12
        assert rel_err(q.z, q.mustar_phi + phi * q.mustar_phi2) < 1e-12
        assert rel_err(q.u, -phi * (2.0 * q.omega + phi * q.omega_phi)) < 1e-12
        assert rel_err(q.omega_mu, phi * q.m) < 1e-12

    def test_symmetric_point_closed_form(self, link):
        # mu = 1/2, phi = 2: both polygamma arguments are 1, so
        # omega = 2 psi'(1) = pi^2/3 and m = 0 by symmetry
        data = Dataset([0.3, 0.6], [[1.0], [1.0]])
        q = obs_quantities(ParamVector([0.0], 2.0), data, link)
        assert np.allclose(q.omega, math.pi**2 / 3.0, rtol=1e-13)
        assert np.allclose(q.m, 0.0, atol=1e-13)
        assert np.allclose(q.mustar_phi, 0.0, atol=1e-13)


def _theta_shift(theta, i, delta):
    vec = theta.as_array()
    vec[i] += delta
    return ParamVector.from_array(vec)


class TestDerivativeTensors:
    def test_u2_matches_score_differences(self, small_instance):
        data, theta, link = small_instance
        U2, _, _ = loglik_derivative_tensors(theta, data, link, order=2)
        k = theta.k
        assert U2.shape == (k, k)
        fd = np.empty((k, k))
        for j in range(k):
            h = 1e-6 * max(1.0, abs(theta.as_array()[j]))
            upper = score(_theta_shift(theta, j, h), data, link)
            lower = score(_theta_shift(theta, j, -h), data, link)
            fd[:, j] = (upper - lower) / (2.0 * h)
        assert rel_err(U2, fd) < 1e-6

    def test_u3_matches_u2_differences(self, small_instance):
        data, theta, link = small_instance
        _, U3, _ = loglik_derivative_tensors(theta, data, link, order=3)
        k = theta.k
        fd = np.empty((k, k, k))
        for j in range(k):
            h = 1e-5 * max(1.0, abs(theta.as_array()[j]))
            upper, _, _ = loglik_derivative_tensors(
                _theta_shift(theta, j, h), data, link, order=2
            )
            lower, _, _ = loglik_derivative_tensors(
                _theta_shift(theta, j, -h), data, link, order=2
            )
            fd[:, :, j] = (upper - lower) / (2.0 * h)
        assert rel_err(U3, fd) < 1e-5

    def test_u4_matches_u3_differences(self, small_instance):
        data, theta, link = small_instance
        _, _, U4 = loglik_derivative_tensors(theta, data, link, order=4)
        k = theta.k
        fd = np.empty((k, k, k, k))
        for j in range(k):
            h = 1e-5 * max(1.0, abs(theta.as_array()[j]))
            _, upper, _ = loglik_derivative_tensors(
                _theta_shift(theta, j, h), data, link, order=3
            )
            _, lower, _ = loglik_derivative_tensors(
                _theta_shift(theta, j, -h), data, link, order=3
            )
            fd[:, :, :, j] = (upper - lower) / (2.0 * h)
        assert rel_err(U4, fd) < 1e-5

    def test_tensor_symmetry(self, small_instance):
        data, theta, link = small_instance
        U2, U3, U4 = loglik_derivative_tensors(theta, data, link, order=4)
        assert np.allclose(U2, U2.T, rtol=1e-12)
        for axes in [(1, 0, 2), (0, 2, 1), (2, 1, 0)]:
            assert np.allclose(U3, np.transpose(U3, axes), rtol=1e-12)
        for axes in [(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2), (3, 1, 2, 0)]:
            assert np.allclose(U4, np.transpose(U4, axes), rtol=1e-12)

    def test_order_validation(self, small_instance):
        data, theta, link = small_instance
        with pytest.raises(ValueError):
            loglik_derivative_tensors(theta, data, link, order=5)

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_one_pass_equals_the_two_pass_tables(self, order, food_full, link):
        # The tensors read the residuals y* - mu* off the model pass that
        # gives the per-observation quantities; the same tables built from
        # obs_quantities and obs_state, two passes at the point, give the
        # same bits.
        rng = np.random.default_rng(2023)
        cases = [(food_full, fit_mle(food_full, link).theta_hat, link)]
        cases += [random_instance(rng) for _ in range(3)]
        for data, theta, link in cases:
            q = obs_quantities(theta, data, link)
            state = obs_state(theta, data, link)
            resid = state.ystar - state.mustar
            tables = cumulants._derivative_tables(q, theta.phi, resid)
            XX = cumulants._outer_rows(data.X)
            got = loglik_derivative_tensors(theta, data, link, order)
            for U, table in zip(got, tables[: order - 1]):
                assert np.array_equal(U, cumulants._tensor(data.X, XX, table))
            assert all(U is None for U in got[order - 1 :])


@pytest.mark.parametrize("width", ["short", "long"])
@pytest.mark.parametrize(
    "evaluate",
    [obs_state, score, obs_quantities, loglik_derivative_tensors, cumulant_tensors],
    ids=lambda f: f.__name__,
)
def test_parameter_dimension_must_match_the_design(evaluate, width, small_instance):
    data, theta, link = small_instance
    beta = theta.beta[:-1] if width == "short" else np.append(theta.beta, 0.5)
    with pytest.raises(ValueError, match="parameter dimension does not match"):
        evaluate(ParamVector(beta, theta.phi), data, link)


class TestCumulantFactorTensors:
    def test_expected_u2_is_minus_information(self, small_instance):
        data, theta, link = small_instance
        q = obs_quantities(theta, data, link)
        K2, *_ = _cumulant_factor_tensors(q, data.X, theta.phi)
        assert rel_err(-K2, fisher_information(theta, data, link)) < 1e-10

    def _tensors_at(self, data, link, theta):
        q = obs_quantities(theta, data, link)
        return _cumulant_factor_tensors(q, data.X, theta.phi)

    def test_d1_matches_k2_differences(self, small_instance):
        data, theta, link = small_instance
        _, _, _, D1, _, _ = self._tensors_at(data, link, theta)
        k = theta.k
        fd = np.empty((k, k, k))
        for j in range(k):
            h = 1e-6 * max(1.0, abs(theta.as_array()[j]))
            upper = self._tensors_at(data, link, _theta_shift(theta, j, h))[0]
            lower = self._tensors_at(data, link, _theta_shift(theta, j, -h))[0]
            fd[:, :, j] = (upper - lower) / (2.0 * h)
        assert rel_err(D1, fd) < 1e-5

    def test_d31_matches_t3_differences(self, small_instance):
        data, theta, link = small_instance
        _, _, _, _, D31, _ = self._tensors_at(data, link, theta)
        k = theta.k
        fd = np.empty((k, k, k, k))
        for j in range(k):
            h = 1e-5 * max(1.0, abs(theta.as_array()[j]))
            upper = self._tensors_at(data, link, _theta_shift(theta, j, h))[1]
            lower = self._tensors_at(data, link, _theta_shift(theta, j, -h))[1]
            fd[:, :, :, j] = (upper - lower) / (2.0 * h)
        assert rel_err(D31, fd) < 1e-5

    def test_d22_matches_d1_differences(self, small_instance):
        data, theta, link = small_instance
        _, _, _, _, _, D22 = self._tensors_at(data, link, theta)
        k = theta.k
        fd = np.empty((k, k, k, k))
        for j in range(k):
            h = 1e-5 * max(1.0, abs(theta.as_array()[j]))
            upper = self._tensors_at(data, link, _theta_shift(theta, j, h))[3]
            lower = self._tensors_at(data, link, _theta_shift(theta, j, -h))[3]
            fd[:, :, :, j] = (upper - lower) / (2.0 * h)
        assert rel_err(D22, fd) < 1e-5


class TestEpsilon:
    def test_matrix_equals_direct_summation(self):
        rng = np.random.default_rng(313)
        for _ in range(10):
            data, theta, link = random_instance(rng)
            tensors = cumulant_tensors(theta, data, link)
            got = epsilon_matrix(tensors)
            want = epsilon_lawley_direct(tensors)
            assert rel_err(got, want) < 1e-10

    def test_matrix_equals_direct_on_subsets(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            data, theta, link = random_instance(rng, p=4)
            k = theta.k
            size = int(rng.integers(2, k + 1))
            subset = sorted(rng.choice(k, size=size, replace=False).tolist())
            tensors = cumulant_tensors(theta, data, link, subset=subset)
            assert tensors.subset == tuple(subset)
            got = epsilon_matrix(tensors)
            want = epsilon_lawley_direct(tensors)
            assert rel_err(got, want) < 1e-10

    def test_duplicating_data_halves_epsilon(self):
        rng = np.random.default_rng(55)
        data, theta, link = random_instance(rng, n=20, p=3, phi=25.0)
        doubled = Dataset(
            np.concatenate([data.y, data.y]), np.vstack([data.X, data.X])
        )
        eps1 = epsilon_matrix(cumulant_tensors(theta, data, link))
        eps2 = epsilon_matrix(cumulant_tensors(theta, doubled, link))
        assert eps2 == pytest.approx(eps1 / 2.0, rel=1e-10)

    @pytest.mark.parametrize("subset", [[], [0, 0, 1], [0, 99], [-1, 0], [0.5, 1]])
    def test_subset_validation(self, small_instance, subset):
        data, theta, link = small_instance
        with pytest.raises(ValueError):
            cumulant_tensors(theta, data, link, subset=subset)

    def test_direct_summation_size_guard(self, link):
        rng = np.random.default_rng(9)
        n, p = 14, 9
        X = np.column_stack([np.ones(n), rng.uniform(-0.5, 0.5, size=(n, p - 1))])
        y = rng.uniform(0.2, 0.8, n)
        theta = ParamVector(np.concatenate([[0.3], np.zeros(p - 1)]), 10.0)
        tensors = cumulant_tensors(theta, Dataset(y, X), link)
        assert np.isfinite(epsilon_matrix(tensors))
        with pytest.raises(ValueError, match="direct summation"):
            epsilon_lawley_direct(tensors)

    def test_singular_information_raises(self, link):
        rng = np.random.default_rng(21)
        x = rng.uniform(-0.5, 0.5, 10)
        X = np.column_stack([np.ones(10), x, x])
        y = rng.uniform(0.2, 0.8, 10)
        theta = ParamVector([0.3, 0.5, 0.5], 8.0)
        with pytest.raises((SingularInformationError, ValueError)):
            tensors = cumulant_tensors(theta, Dataset(y, X), link)
            epsilon_matrix(tensors)

    def test_non_finite_tensor_is_a_fit_error(self, link):
        # x^4 overflows while the information matrix stays finite
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(12), rng.uniform(-1.0, 1.0, 12) * 1e90])
        data = Dataset(rng.uniform(0.2, 0.8, 12), X)
        theta = ParamVector([0.2, 1e-90], 10.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteCumulantError, match="not finite") as info:
                cumulant_tensors(theta, data, link)
        assert isinstance(info.value, FitError)
        assert not isinstance(info.value, ValueError)


class TestBartlettRows:
    """The batched core gives each row what a one-row bartlett_factor call
    gives, and a failed row is recorded instead of raised."""

    def _rows(self):
        rng = np.random.default_rng(77)
        data, theta, link = random_instance(rng, n=30, p=4, phi=20.0)
        restriction = Restriction((3, 4), (0.0, 0.0))
        Beta = theta.beta + rng.uniform(-0.3, 0.3, (12, 4))
        Beta[:, 2:] = 0.0
        Phi = rng.uniform(5.0, 80.0, 12)
        return data, link, restriction, Beta, Phi

    def test_rows_match_one_row_calls(self):
        data, link, restriction, Beta, Phi = self._rows()
        free = restriction.split(data.X)[0]
        eps_full, eps_nuis, failed = _bartlett_rows(data.X, link, free, Beta, Phi)
        assert failed == {}
        for i in range(len(Phi)):
            factor = bartlett_factor(data, link, restriction, ParamVector(Beta[i], Phi[i]))
            assert eps_full[i] == pytest.approx(factor.eps_full, rel=1e-12)
            assert eps_nuis[i] == pytest.approx(factor.eps_nuis, rel=1e-12)

    def test_non_finite_row_is_masked(self):
        data, link, restriction, Beta, Phi = self._rows()
        free = restriction.split(data.X)[0]
        ref_full, ref_nuis, _ = _bartlett_rows(data.X, link, free, Beta, Phi)
        Phi[5] = 1e200  # phi^2 overflows in every tensor of row 5
        with np.errstate(over="ignore", invalid="ignore"):
            eps_full, eps_nuis, failed = _bartlett_rows(data.X, link, free, Beta, Phi)
        assert list(failed) == [5]
        assert isinstance(failed[5], NonFiniteCumulantError)
        assert np.isnan(eps_full[5]) and np.isnan(eps_nuis[5])
        rest = np.arange(12) != 5
        assert np.array_equal(eps_full[rest], ref_full[rest])
        assert np.array_equal(eps_nuis[rest], ref_nuis[rest])

    def test_full_set_failure_leaves_dense_intact(self):
        # The full set's P and Q are the dense tensors themselves.  A row
        # that fails there must leave the dense K2, P, Q and the order-4
        # factors, which the nuisance set reads next, as they were, and
        # move no other row's epsilon.
        data, link, restriction, Beta, Phi = self._rows()
        dense = cumulants._dense_rows(data.X, link, Beta, Phi)
        full = tuple(range(data.p + 1))

        def epsilons(tensors):
            _, B, P, Q = tensors
            L = cumulants._order4_L(data.X, dense[3], B, full)
            return cumulants._epsilon(L, B, P, Q)

        eps_ref = epsilons(cumulants._subset_tensors(dense, full)[:4])
        dense[0][4] = 0.0  # row 4's information is singular
        saved = [T.copy() for T in dense]
        *tensors, failed = cumulants._subset_tensors(dense, full)
        assert list(failed) == [4]
        assert isinstance(failed[4], SingularInformationError)
        for T, before in zip(dense, saved):
            assert np.array_equal(T, before)
        rest = np.arange(12) != 4
        assert np.array_equal(epsilons(tensors)[rest], eps_ref[rest])

    def test_batched_pass_memory(self):
        # One 64-row block at n = 200, k = 13.  No dense order-4 tensor is
        # built: the order-4 term is contracted per observation, and the
        # block peaked at 25.8 MiB, most of it the order-3 moment's
        # weighted outer products (14 MiB).  A dense A (14 MiB) and its
        # moment product (24 MiB) would cross the bound.  tracemalloc
        # counts every numpy array, so the peak is deterministic.
        rng = np.random.default_rng(6)
        data, theta, link = random_instance(rng, n=200, p=12, phi=50.0)
        free = Restriction((8, 9, 10, 11, 12), (0.0,) * 5).split(data.X)[0]
        Beta = np.tile(theta.beta, (64, 1))
        Phi = np.full(64, theta.phi)
        tracemalloc.start()
        try:
            _bartlett_rows(data.X, link, free, Beta, Phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


@st.composite
def _bartlett_batches(draw):
    """A random_instance design with p from 1 to 12, a batch of 1 or 12
    evaluation points and a restriction of any size, all of beta included
    (the precision-only nuisance set)."""
    p = draw(st.integers(1, 12))
    rows = draw(st.sampled_from([1, 12]))
    fixed = draw(st.lists(st.integers(1, p), min_size=1, max_size=p, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data, theta, link = random_instance(rng, n=p + int(rng.integers(15, 41)), p=p)
    Beta = theta.beta + rng.uniform(-0.3, 0.3, (rows, p))
    Phi = rng.uniform(5.0, 100.0, rows)
    return data, link, Restriction(tuple(sorted(fixed)), (0.0,) * len(fixed)), Beta, Phi


class TestOrder4Contraction:
    """_bartlett_rows contracts the order-4 factors per observation and
    never builds A; both epsilon routes that read the dense A of
    cumulant_tensors are its oracles."""

    @staticmethod
    def _compare(data, link, restriction, Beta, Phi, direct_rows=0):
        p = data.p
        free = restriction.split(data.X)[0]
        eps_full, eps_nuis, failed = _bartlett_rows(data.X, link, free, Beta, Phi)
        assert failed == {}
        for i in range(len(Phi)):
            theta = ParamVector(Beta[i], Phi[i])
            for subset, got in ((None, eps_full[i]), ([*free, p], eps_nuis[i])):
                tensors = cumulant_tensors(theta, data, link, subset=subset)
                assert got == pytest.approx(epsilon_matrix(tensors), rel=1e-13)
                if i < direct_rows and len(tensors.subset) <= 8:
                    want = epsilon_lawley_direct(tensors)
                    assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("rows", [1, 12])
    @pytest.mark.parametrize("p", range(1, 13))
    def test_matches_both_dense_routes(self, p, rows):
        # every p from 1 to 12; at p = 1, 4, 7 and 10 the restriction fixes
        # all of beta and the nuisance set is the precision alone
        rng = np.random.default_rng(100 * rows + p)
        data, theta, link = random_instance(rng, n=p + 20, p=p)
        q = p if p % 3 == 1 else int(rng.integers(1, p))
        restriction = Restriction(tuple(range(p - q + 1, p + 1)), (0.0,) * q)
        Beta = theta.beta + rng.uniform(-0.3, 0.3, (rows, p))
        Phi = rng.uniform(5.0, 100.0, rows)
        self._compare(data, link, restriction, Beta, Phi, direct_rows=1)

    @settings(max_examples=25)
    @given(_bartlett_batches())
    def test_matches_epsilon_matrix(self, batch):
        self._compare(*batch)

    def test_no_order4_array(self):
        # At n = 20, k = 13 the pass's whole traced peak stays below the
        # size of one array with k^4 entries per row (it measured half of
        # it), so no such array is ever allocated.
        rng = np.random.default_rng(8)
        data, theta, link = random_instance(rng, n=20, p=12)
        free = Restriction((10, 11, 12), (0.0,) * 3).split(data.X)[0]
        k, rows = data.p + 1, 16
        Beta = np.tile(theta.beta, (rows, 1))
        Phi = np.full(rows, theta.phi)
        tracemalloc.start()
        try:
            _bartlett_rows(data.X, link, free, Beta, Phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows * k**4 * 8


class TestBartlettFactor:
    def test_factor_identity_and_terms(self, food_five, link):
        restriction = Restriction((4, 5), (0.0, 0.0))
        restricted = fit_restricted(food_five, link, restriction)
        factor = bartlett_factor(food_five, link, restriction, restricted.theta_hat)
        assert factor.q == 2
        assert factor.c == pytest.approx(
            1.0 + (factor.eps_full - factor.eps_nuis) / 2.0, rel=1e-14
        )
        full = cumulant_tensors(restricted.theta_hat, food_five, link)
        nuis = cumulant_tensors(
            restricted.theta_hat, food_five, link, subset=[0, 1, 2, 5]
        )
        assert factor.eps_full == pytest.approx(epsilon_matrix(full), rel=1e-14)
        assert factor.eps_nuis == pytest.approx(epsilon_matrix(nuis), rel=1e-14)
        assert factor.c > 1.0  # small-sample inflation for this design

    def test_taken_at_the_fitted_mean(self, monkeypatch, food_full, link):
        # The dense pass lays out X' as the scoring core does, so the factor
        # is evaluated at the restricted fit's mu bit for bit.
        restriction = Restriction((4, 5, 6), (0.0, 0.0, 0.0))
        theta = fit_restricted(food_full, link, restriction).theta_hat
        seen = []

        def recording(*args):
            state = means(*args)
            seen.append(state[0][0, : food_full.n].copy())
            return state

        means = cumulants._means
        monkeypatch.setattr(cumulants, "_means", recording)
        bartlett_factor(food_full, link, restriction, theta)
        assert len(seen) == 1
        assert np.array_equal(seen[0], obs_state(theta, food_full, link).mu)

    @pytest.mark.parametrize(
        "tensor, error", [(0, SingularInformationError), (3, NonFiniteCumulantError)]
    )
    def test_failed_row_raises(self, monkeypatch, food_five, link, tensor, error):
        # A singular information (K2 zeroed) or one infinite order-4 factor
        # (the per-observation factors that stand in for the order-4 tensor
        # A) fails the one row, and bartlett_factor raises that row's error;
        # the infinity, which makes inf - inf in the order-4 contraction,
        # raises no warning on the way.
        restriction = Restriction((4, 5), (0.0, 0.0))
        theta = fit_restricted(food_five, link, restriction).theta_hat
        dense_rows = cumulants._dense_rows

        def spoiled(*args):
            dense = dense_rows(*args)
            if tensor == 0:
                dense[0][0] = 0.0
            else:
                dense[3][0, 5, 7] = np.inf
            return dense

        monkeypatch.setattr(cumulants, "_dense_rows", spoiled)
        message = "singular" if tensor == 0 else "cumulant tensor A is not finite"
        with pytest.raises(error, match=message):
            bartlett_factor(food_five, link, restriction, theta)

    def test_dense_order4_overflow_is_no_failure(self, link):
        # The design of test_non_finite_tensor_is_a_fit_error: x^4 overflows,
        # so cumulant_tensors cannot return A.  The Bartlett pass never forms
        # x^4, and its factor is the one of the design scaled back by 1e90.
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 1.0, 12)
        y = rng.uniform(0.2, 0.8, 12)
        restriction = Restriction((2,), (0.0,))
        huge = Dataset(y, np.column_stack([np.ones(12), x * 1e90]))
        tame = Dataset(y, np.column_stack([np.ones(12), x]))
        got = bartlett_factor(huge, link, restriction, ParamVector([0.2, 1e-90], 10.0))
        want = bartlett_factor(tame, link, restriction, ParamVector([0.2, 1.0], 10.0))
        assert got.eps_full == pytest.approx(want.eps_full, rel=1e-12)
        assert got.eps_nuis == pytest.approx(want.eps_nuis, rel=1e-12)

    def test_restriction_index_out_of_range(self, food_reduced, link):
        theta = ParamVector([0.0, 0.0, 0.0], 10.0)
        with pytest.raises(ValueError, match="exceeds"):
            bartlett_factor(food_reduced, link, Restriction((4,), (0.0,)), theta)

    def test_restriction_of_every_coefficient(self, food_reduced, link):
        # fixing all of beta leaves phi as the only nuisance parameter
        theta = ParamVector([0.0, 0.0, 0.0], 10.0)
        restriction = Restriction((1, 2, 3), (0.0, 0.0, 0.0))
        factor = bartlett_factor(food_reduced, link, restriction, theta)
        nuis = cumulant_tensors(theta, food_reduced, link, subset=[3])
        assert factor.q == 3
        assert factor.eps_nuis == pytest.approx(epsilon_matrix(nuis), rel=1e-14)


# The moment sums as one plain einsum each, block by block: the reference
# for the matrix-product kernel in _cumulant_factor_tensors.


def _ref_sym2(X, f_bb, f_bp, f_pp):
    """Symmetric (k, k) matrix from per-observation pair factors."""
    p = X.shape[1]
    M = np.empty((p + 1, p + 1))
    M[:p, :p] = (X.T * f_bb) @ X
    v = X.T @ f_bp
    M[:p, p] = v
    M[p, :p] = v
    M[p, p] = float(np.sum(f_pp))
    return M


def _ref_sym3(X, f_bbb, f_bbp, f_bpp, f_ppp):
    """Fully symmetric (k, k, k) tensor from per-observation factors."""
    p = X.shape[1]
    k = p + 1
    T = np.zeros((k, k, k))
    T[:p, :p, :p] = np.einsum("i,ir,is,it->rst", f_bbb, X, X, X)
    M = np.einsum("i,ir,is->rs", f_bbp, X, X)
    T[:p, :p, p] = M
    T[:p, p, :p] = M
    T[p, :p, :p] = M
    v = X.T @ f_bpp
    T[:p, p, p] = v
    T[p, :p, p] = v
    T[p, p, :p] = v
    T[p, p, p] = float(np.sum(f_ppp))
    return T


def _ref_sym4(X, f4, f3, f2, f1, f0):
    """Fully symmetric (k, k, k, k) tensor from per-observation factors."""
    p = X.shape[1]
    k = p + 1
    T = np.zeros((k, k, k, k))
    T[:p, :p, :p, :p] = np.einsum("i,ir,is,it,iu->rstu", f4, X, X, X, X)
    M3 = np.einsum("i,ir,is,it->rst", f3, X, X, X)
    T[:p, :p, :p, p] = M3
    T[:p, :p, p, :p] = M3
    T[:p, p, :p, :p] = M3
    T[p, :p, :p, :p] = M3
    M2 = np.einsum("i,ir,is->rs", f2, X, X)
    T[:p, :p, p, p] = M2
    T[:p, p, :p, p] = M2
    T[:p, p, p, :p] = M2
    T[p, :p, :p, p] = M2
    T[p, :p, p, :p] = M2
    T[p, p, :p, :p] = M2
    v = X.T @ f1
    T[:p, p, p, p] = v
    T[p, :p, p, p] = v
    T[p, p, :p, p] = v
    T[p, p, p, :p] = v
    T[p, p, p, p] = float(np.sum(f0))
    return T


def reference_factor_tensors(q, X, phi):
    """_cumulant_factor_tensors written with one plain einsum per moment
    sum, block by block; the reference for the matrix-product kernel."""
    p = X.shape[1]
    k = p + 1
    t, t1, t2 = q.t, q.t1, q.t2
    dt3_dmu = 3.0 * t**2 * t1

    K2 = _ref_sym2(X, -(phi**2) * q.omega * t**2, -q.c * t, -q.d)

    T3 = _ref_sym3(
        X,
        -(phi**2) * (phi * q.m * t**3 + q.omega * q.a),
        q.u * t**2 - q.c * t1 * t,
        -q.r,
        -q.s,
    )

    T4 = _ref_sym4(
        X,
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
    D1 = np.zeros((k, k, k))
    D1[:p, :p, :p] = np.einsum(
        "i,ir,is,it->rst",
        -(phi**2) * (phi * q.m * t**3 + (2.0 / 3.0) * q.omega * q.a),
        X,
        X,
        X,
    )
    D1[:p, :p, p] = np.einsum("i,ir,is->rs", q.u * t**2, X, X)
    M = np.einsum("i,ir,is->rs", -(q.c_mu * t + q.c * t1) * t, X, X)
    D1[:p, p, :p] = M
    D1[p, :p, :p] = M
    v = X.T @ (-q.z * t)
    D1[:p, p, p] = v
    D1[p, :p, p] = v
    D1[p, p, :p] = X.T @ (-q.r)
    D1[p, p, p] = float(np.sum(-q.s))

    # Derivatives of the third cumulants, kappa_rst^{(u)}; symmetric in the
    # cumulant triple.
    D31 = np.zeros((k, k, k, k))
    D31[:p, :p, :p, :p] = np.einsum(
        "i,ir,is,it,iu->rstu",
        -(phi**2)
        * (phi * (q.m * (dt3_dmu + q.a) + q.m_mu * t**3) + q.omega * q.a_mu)
        * t,
        X,
        X,
        X,
        X,
    )
    D31[:p, :p, :p, p] = np.einsum(
        "i,ir,is,it->rst",
        -phi
        * (
            phi * (3.0 * q.m + phi * q.m_phi) * t**3
            + q.a * (2.0 * q.omega + phi * q.omega_phi)
        ),
        X,
        X,
        X,
    )
    # The mixed factor below multiplies the whole bracket by t = dmu/deta:
    # it is the beta-derivative of the (beta, beta, phi) cumulant, so the
    # chain rule contributes one extra t.
    M3 = np.einsum(
        "i,ir,is,iu->rsu",
        (q.u_mu * t**2 + 2.0 * q.u * t * t1 - q.c_mu * t1 * t - q.c * (t2 * t + t1**2))
        * t,
        X,
        X,
        X,
    )
    D31[:p, :p, p, :p] = M3
    D31[:p, p, :p, :p] = M3
    D31[p, :p, :p, :p] = M3
    M2 = np.einsum("i,ir,is->rs", (q.u_phi * t - q.z * t1) * t, X, X)
    D31[:p, :p, p, p] = M2
    D31[:p, p, :p, p] = M2
    D31[p, :p, :p, p] = M2
    M2 = np.einsum("i,ir,iu->ru", -q.r_mu * t, X, X)
    D31[:p, p, p, :p] = M2
    D31[p, :p, p, :p] = M2
    D31[p, p, :p, :p] = M2
    v = X.T @ (-q.r_phi)
    D31[:p, p, p, p] = v
    D31[p, :p, p, p] = v
    D31[p, p, :p, p] = v
    D31[p, p, p, :p] = X.T @ (-q.s_mu * t)
    D31[p, p, p, p] = float(np.sum(-q.s_phi))

    # Second derivatives of the second cumulants, kappa_rs^{(tu)};
    # symmetric within each pair.
    D22 = np.zeros((k, k, k, k))
    D22[:p, :p, :p, :p] = np.einsum(
        "i,ir,is,it,iu->rstu",
        -(phi**2)
        * (
            phi * (q.m * (dt3_dmu + (2.0 / 3.0) * q.a) + q.m_mu * t**3)
            + (2.0 / 3.0) * q.omega * q.a_mu
        )
        * t,
        X,
        X,
        X,
        X,
    )
    M3 = np.einsum("i,ir,is,it->rst", (q.u_mu * t + 2.0 * q.u * t1) * t**2, X, X, X)
    D22[:p, :p, :p, p] = M3
    D22[:p, :p, p, :p] = M3
    D22[:p, :p, p, p] = np.einsum("i,ir,is->rs", q.u_phi * t**2, X, X)
    c_mumu = phi**2 * (2.0 * q.m + phi * q.m_phi)
    M3 = np.einsum(
        "i,ir,it,iu->rtu",
        -(c_mumu * t**2 + 3.0 * q.c_mu * t * t1 + q.c * (t2 * t + t1**2)) * t,
        X,
        X,
        X,
    )
    D22[:p, p, :p, :p] = M3
    D22[p, :p, :p, :p] = M3
    M2 = np.einsum("i,ir,it->rt", -(q.z_mu * t + q.z * t1) * t, X, X)
    D22[:p, p, :p, p] = M2
    D22[p, :p, :p, p] = M2
    D22[:p, p, p, :p] = M2
    D22[p, :p, p, :p] = M2
    v = X.T @ (-q.z_phi * t)
    D22[:p, p, p, p] = v
    D22[p, :p, p, p] = v
    D22[p, p, :p, :p] = np.einsum("i,it,iu->tu", -q.r_mu * t, X, X)
    v = X.T @ (-q.s_mu * t)
    D22[p, p, :p, p] = v
    D22[p, p, p, :p] = v
    D22[p, p, p, p] = float(np.sum(-q.s_phi))

    return K2, T3, T4, D1, D31, D22


def _kernel_cases():
    rng = np.random.default_rng(1234)  # the criterion 3 instances
    cases = [random_instance(rng) for _ in range(50)]
    # the criterion 4 instance, a single-column design, and a wide design
    cases.append(random_instance(np.random.default_rng(91), n=12, p=2, phi=9.0))
    cases.append(random_instance(np.random.default_rng(5), n=10, p=1))
    cases.append(random_instance(np.random.default_rng(6), n=200, p=12, phi=50.0))
    return cases


class TestMatrixKernel:
    def test_factor_tensors_match_einsum_reference(self):
        for data, theta, link in _kernel_cases():
            q = obs_quantities(theta, data, link)
            got = _cumulant_factor_tensors(q, data.X, theta.phi)
            want = reference_factor_tensors(q, data.X, theta.phi)
            for name, g, w in zip(("K2", "T3", "T4", "D1", "D31", "D22"), got, want):
                assert g.shape == w.shape, name
                assert rel_err(g, w) < 1e-12, (name, data.n, data.p)

    def test_bartlett_factor_equals_two_call_route(self):
        for data, theta, link in _kernel_cases()[::5]:
            p = data.p
            if p < 2:
                continue
            restriction = Restriction((p,), (0.0,))
            factor = bartlett_factor(data, link, restriction, theta)
            full = cumulant_tensors(theta, data, link)
            nuis = cumulant_tensors(theta, data, link, subset=list(range(p - 1)) + [p])
            assert factor.eps_full == pytest.approx(epsilon_matrix(full), rel=1e-14)
            assert factor.eps_nuis == pytest.approx(epsilon_matrix(nuis), rel=1e-14)

    def test_layout_matches_permuted_definitions(self):
        # P, Q and A are built in epsilon's layout from permuted factor
        # tables; the permutes of the dense definitions are the reference.
        for data, theta, link in _kernel_cases():
            q = obs_quantities(theta, data, link)
            K2, T3, T4, D1, D31, D22 = _cumulant_factor_tensors(q, data.X, theta.phi)
            want = dict(
                P=np.einsum("rst->trs", T3),
                Q=np.einsum("sur->urs", D1),
                A=0.25 * np.einsum("rstu->turs", T4)
                - np.einsum("rstu->turs", D31)
                + np.einsum("rtsu->turs", D22),
            )
            for subset in (None, list(range(1, data.p + 1))):
                got = cumulant_tensors(theta, data, link, subset=subset)
                idx = np.array(got.subset)
                for name, w in want.items():
                    w = w[np.ix_(*(idx,) * w.ndim)]
                    assert rel_err(getattr(got, name), w) < 1e-12, (name, data.p, subset)
