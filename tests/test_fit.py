"""Maximum-likelihood fitting, restricted fitting, and error paths."""

import dataclasses

import numpy as np
import pytest

from betabart.fit import (
    FitOptions,
    NonConvergenceError,
    Restriction,
    SingularInformationError,
    _fisher_scoring_batch,
    fit_mle,
    fit_restricted,
)
from betabart.model import Dataset, ParamVector, log_likelihood, score
from betabart.simulate import design_matrix, gen_beta_sample
from conftest import rel_err


class TestRestriction:
    def test_basic(self):
        r = Restriction((2, 4), (0.0, 1.5))
        assert r.q == 2
        assert r.indices == (2, 4) and r.values == (0.0, 1.5)

    @pytest.mark.parametrize(
        "indices, values",
        [
            ((), ()),  # empty
            ((1, 2), (0.0,)),  # length mismatch
            ((2, 2), (0.0, 0.0)),  # duplicate
            ((4, 2), (0.0, 0.0)),  # unsorted
            ((0,), (0.0,)),  # indices are 1-based
            ((1,), (np.nan,)),  # non-finite value
        ],
    )
    def test_validation(self, indices, values):
        with pytest.raises(ValueError):
            Restriction(indices, values)


class TestFitOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"max_iterations": 2.5},
            {"gradient_tolerance": 0.0},
            {"gradient_tolerance": -1e-8},
            {"step_halving_max": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises((ValueError, TypeError)):
            FitOptions(**kwargs)


class TestFitMle:
    def test_food_reduced_golden(self, food_reduced, link):
        result = fit_mle(food_reduced, link)
        assert result.converged and result.iterations <= 30
        assert not result.clamp_activated
        beta_hat = result.theta_hat.beta
        assert beta_hat[0] == pytest.approx(-0.62255, abs=5e-5)
        assert beta_hat[1] == pytest.approx(-0.01230, abs=5e-6)
        assert beta_hat[2] == pytest.approx(0.11846, abs=5e-5)
        assert result.theta_hat.phi == pytest.approx(35.60975, abs=5e-3)

    def test_food_reduced_standard_errors(self, food_reduced, link):
        result = fit_mle(food_reduced, link)
        assert result.std_errors[0] == pytest.approx(0.22385, abs=5e-4)
        assert result.std_errors[1] == pytest.approx(0.00304, abs=5e-5)
        assert result.std_errors[2] == pytest.approx(0.03534, abs=5e-4)
        assert result.std_errors[3] == pytest.approx(8.0796, abs=5e-2)
        assert np.allclose(
            result.std_errors, np.sqrt(np.diag(result.K_inv)), rtol=1e-12
        )

    def test_score_vanishes_at_mle(self, food_reduced, link):
        result = fit_mle(food_reduced, link)
        assert np.max(np.abs(score(result.theta_hat, food_reduced, link))) < 1e-6

    def test_loglik_field_consistent(self, food_reduced, link):
        result = fit_mle(food_reduced, link)
        assert result.loglik == pytest.approx(
            log_likelihood(result.theta_hat, food_reduced, link), rel=1e-12
        )

    def test_warm_start(self, food_reduced, link):
        cold = fit_mle(food_reduced, link)
        warm = fit_mle(food_reduced, link, start=cold.theta_hat)
        assert warm.iterations <= 3
        assert rel_err(warm.theta_hat.as_array(), cold.theta_hat.as_array()) < 1e-10

    def test_start_dimension_mismatch(self, food_reduced, link):
        with pytest.raises(ValueError):
            fit_mle(food_reduced, link, start=ParamVector([0.0, 0.0], 5.0))

    def test_rank_deficient_design(self, link):
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.5, 0.5, 12)
        X = np.column_stack([np.ones(12), x, 2.0 * x])
        y = rng.uniform(0.2, 0.8, 12)
        with pytest.raises(SingularInformationError, match="rank deficient"):
            fit_mle(Dataset(y, X), link)

    def test_iteration_cap(self, food_reduced, link):
        with pytest.raises(NonConvergenceError) as info:
            fit_mle(food_reduced, link, FitOptions(max_iterations=1))
        assert len(info.value.trace) >= 1


class TestFitRestricted:
    def test_values_embedded(self, food_five, link):
        restriction = Restriction((4, 5), (0.0, 0.0))
        result = fit_restricted(food_five, link, restriction)
        assert result.converged
        assert result.theta_hat.beta[3] == 0.0 and result.theta_hat.beta[4] == 0.0
        assert result.std_errors[3] == 0.0 and result.std_errors[4] == 0.0
        assert result.fixed_mask[3] and result.fixed_mask[4]
        assert tuple(result.free_indices) == (0, 1, 2, 5)

    def test_nonzero_restriction_value(self, food_five, link):
        restriction = Restriction((3,), (0.1,))
        result = fit_restricted(food_five, link, restriction)
        assert result.converged
        assert result.theta_hat.beta[2] == 0.1

    def test_loglik_below_full(self, food_five, link):
        full = fit_mle(food_five, link)
        restricted = fit_restricted(food_five, link, Restriction((4, 5), (0.0, 0.0)))
        assert restricted.loglik <= full.loglik + 1e-10

    def test_profile_score_zero_on_free_axes(self, food_five, link):
        restriction = Restriction((2,), (0.0,))
        result = fit_restricted(food_five, link, restriction)
        u = score(result.theta_hat, food_five, link)
        free = [i for i in range(food_five.p) if i != 1] + [food_five.p]
        assert np.max(np.abs(u[free])) < 1e-6

    def test_information_on_free_space(self, food_five, link):
        restriction = Restriction((2, 3), (0.0, 0.0))
        result = fit_restricted(food_five, link, restriction)
        assert result.K.shape == (4, 4)
        assert result.K_inv.shape == (4, 4)

    def test_restriction_out_of_range(self, food_five, link):
        with pytest.raises(ValueError):
            fit_restricted(food_five, link, Restriction((6,), (0.0,)))

    def test_restrict_everything_rejected(self, food_reduced, link):
        restriction = Restriction((1, 2, 3), (0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            fit_restricted(food_reduced, link, restriction)

    def test_agrees_with_direct_fit_on_subdesign(self, food_full, food_reduced, link):
        # dropping columns and fitting equals restricting them to zero
        restriction = Restriction((4, 5, 6), (0.0, 0.0, 0.0))
        via_restriction = fit_restricted(food_full, link, restriction)
        direct = fit_mle(food_reduced, link)
        kept = [0, 1, 2]
        assert rel_err(
            via_restriction.theta_hat.beta[kept], direct.theta_hat.beta
        ) < 1e-8
        assert via_restriction.theta_hat.phi == pytest.approx(
            direct.theta_hat.phi, rel=1e-8
        )
        assert via_restriction.loglik == pytest.approx(direct.loglik, rel=1e-12)


def test_batch_matches_scalar_path(food_reduced, link):
    rng = np.random.default_rng(17)
    n = food_reduced.n
    variants = np.vstack(
        [
            food_reduced.y,
            np.clip(food_reduced.y + rng.normal(0.0, 0.01, n), 0.01, 0.99),
            np.clip(food_reduced.y[::-1] + rng.normal(0.0, 0.005, n), 0.01, 0.99),
        ]
    )
    start = fit_mle(food_reduced, link)
    opts = FitOptions()
    Beta0 = np.tile(start.theta_hat.beta, (3, 1))
    Phi0 = np.full(3, start.theta_hat.phi)
    Beta, Phi, LL, ok = _fisher_scoring_batch(
        variants, food_reduced.X, np.zeros(n), link, Beta0, Phi0, opts
    )
    assert ok.all()
    for b in range(3):
        single = fit_mle(Dataset(variants[b], food_reduced.X), link)
        assert rel_err(Beta[b], single.theta_hat.beta) < 1e-10
        assert Phi[b] == pytest.approx(single.theta_hat.phi, rel=1e-10)
        assert LL[b] == pytest.approx(single.loglik, rel=1e-12)


@pytest.mark.parametrize("restricted", [False, True])
def test_batch_rows_are_independent(restricted, link):
    # The bootstrap may group resamples in any way; each row's result must
    # be bit for bit the one it gets alone or in any other batch.
    X = design_matrix(38, 6, 5)
    beta = np.array([0.5, 1.0, -1.0, 0.8, 0.0, 0.0])
    phi = 30.0
    mu = link.g_inv(X @ beta)
    Y = np.vstack(
        [gen_beta_sample(mu, phi, np.random.default_rng(b)) for b in range(40)]
    )
    if restricted:
        offset = X[:, 4:] @ beta[4:]
        X = X[:, :4]
        beta = beta[:4]
    else:
        offset = np.zeros(38)
    opts = FitOptions()

    def fit(rows):
        return _fisher_scoring_batch(Y[rows], X, offset, link, beta, phi, opts)

    everything = np.arange(len(Y))
    batch = fit(everything)
    perm = np.random.default_rng(7).permutation(len(Y))
    groups = [everything[b : b + 1] for b in everything]
    groups += [everything[5:17], everything[::3], perm]
    for rows in groups:
        for got, want in zip(fit(rows), batch):
            assert np.array_equal(got, want[rows])


def test_fit_result_frozen(food_reduced, link):
    result = fit_mle(food_reduced, link)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.loglik = 0.0
