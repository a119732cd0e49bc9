"""Maximum-likelihood fitting, restricted fitting, and error paths."""

import dataclasses
import math

import numpy as np
import pytest

import betabart.fit as fit_module
from betabart.fit import (
    FitOptions,
    NonConvergenceError,
    Restriction,
    ScoringStatus,
    SingularInformationError,
    _fisher_scoring_batch,
    fit_mle,
    fit_restricted,
    starting_values,
)
from betabart.model import (
    Dataset,
    ParamVector,
    _eta_state,
    _rows_observed_information,
    _rows_score,
    fisher_information,
    log_likelihood,
    score,
)
from betabart.simulate import design_matrix, gen_beta_sample
from conftest import food_dataset, rel_err


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
            ((2.5,), (0.0,)),  # indices are integers
            ((True,), (0.0,)),
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
            {"gradient_tolerance": math.nan},
            {"gradient_tolerance": math.inf},
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
        assert "within 1 iterations" in str(info.value)
        assert np.isfinite(info.value.trace[-1])


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

    @pytest.mark.parametrize(
        "kind, indices, values",
        [
            ("reduced", (2,), (0.01,)),
            ("reduced", (2, 3), (-0.01, 0.1)),
            ("five", (4, 5), (0.0, 0.002)),
            ("full", (1, 4), (-0.5, 0.0)),
        ],
    )
    def test_restricted_information_is_the_expected_one(
        self, link, kind, indices, values
    ):
        # K is the expected information on the free block at the restricted
        # estimate, for a one-row fit and for the restricted half of a
        # two-design call, whose rows the scoring core pads to the full width.
        data = food_dataset(kind)
        restriction = Restriction(indices, values)
        noise = np.random.default_rng(3).normal(0.0, 0.02, (2, data.n))
        Y = np.vstack([data.y, np.clip(data.y + noise, 0.01, 0.99)])
        pairs = fit_module._fit_rows(data, Y, link, (None, restriction), FitOptions())
        results = [fit_restricted(data, link, restriction), *pairs[1][0].values()]
        assert len(results) == 4
        for result in results:
            free = result.free_indices
            expected = fisher_information(result.theta_hat, data, link)
            expected = expected[np.ix_(free, free)]
            assert np.abs(result.K - expected).max() <= 1e-12 * np.abs(expected).max()

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
    # fit_mle is a one-row call into the batch core: from the same start,
    # each batched row gives its one-row fit bit for bit, including the
    # status, the iteration count and the clamp flag.
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
    batch = _fisher_scoring_batch(
        variants, food_reduced.X, np.zeros(n), link, Beta0, Phi0, opts
    )
    assert batch.ok.all()
    assert (batch.status == ScoringStatus.CONVERGED).all()
    for b in range(3):
        single = fit_mle(
            Dataset(variants[b], food_reduced.X),
            link,
            start=ParamVector(Beta0[b], Phi0[b]),
        )
        assert np.array_equal(batch.Beta[b], single.theta_hat.beta)
        assert batch.Phi[b] == single.theta_hat.phi
        assert batch.LL[b] == single.loglik
        assert np.array_equal(batch.K[b], single.K)
        assert batch.iterations[b] == single.iterations
        assert batch.clamped[b] == single.clamp_activated
        # and the default start reaches the same optimum
        fresh = fit_mle(Dataset(variants[b], food_reduced.X), link)
        assert rel_err(batch.Beta[b], fresh.theta_hat.beta) < 1e-10
        assert batch.Phi[b] == pytest.approx(fresh.theta_hat.phi, rel=1e-10)
        assert batch.LL[b] == pytest.approx(fresh.loglik, rel=1e-12)


def test_batch_iteration_cap_is_a_row_status(food_reduced, link):
    # The batch core reports running out of iterations per row instead of
    # raising; fit_mle turns the same status into NonConvergenceError.
    Y = np.vstack([food_reduced.y, food_reduced.y[::-1]])
    start = starting_values(food_reduced, link)
    batch = _fisher_scoring_batch(
        Y,
        food_reduced.X,
        np.zeros(food_reduced.n),
        link,
        start.beta,
        start.phi,
        FitOptions(max_iterations=1),
    )
    assert (batch.status == ScoringStatus.MAX_ITERATIONS).all()
    assert not batch.ok.any()
    assert (batch.iterations == 1).all()
    assert np.isfinite(batch.LL).all()


@pytest.mark.parametrize("max_iterations", [100, 3])
def test_batch_without_information(food_reduced, link, max_iterations):
    # keep_K=False, for callers that read no information, returns K None
    # and every other field bit for bit, for CONVERGED and MAX_ITERATIONS
    # rows alike.
    rng = np.random.default_rng(23)
    n = food_reduced.n
    Y = np.clip(food_reduced.y + rng.normal(0.0, 0.01, (6, n)), 0.01, 0.99)
    start = starting_values(food_reduced, link)
    args = (Y, food_reduced.X, np.zeros(n), link, start.beta, start.phi)
    opts = FitOptions(max_iterations=max_iterations)
    with_K = _fisher_scoring_batch(*args, opts)
    without = _fisher_scoring_batch(*args, opts, keep_K=False)
    assert without.K is None
    for name in ("Beta", "Phi", "LL", "status", "iterations", "clamped"):
        assert np.array_equal(getattr(without, name), getattr(with_K, name))
    capped = max_iterations < 100
    expected = ScoringStatus.MAX_ITERATIONS if capped else ScoringStatus.CONVERGED
    assert (with_K.status == expected).all()


def _newton_ascent(Y, X, offset, link, Beta, Phi):
    """U . J^-1 U per row at (Beta, Phi): positive when the Newton step ascends."""
    XT = np.ascontiguousarray(X.T)
    L = np.concatenate((np.log(Y), np.log1p(-Y)), axis=1)
    Eta = np.einsum("bj,jn->bn", Beta, XT) + offset
    M, T, Psi, Tri, _, _ = _eta_state(Eta, Phi, link, L)
    U = _rows_score(XT, Phi, M, T, Psi, L)
    J = _rows_observed_information(XT, Phi, M, T, Psi, Tri, L, link)
    return np.einsum("bk,bk->b", U, np.linalg.solve(J, U[:, :, None])[:, :, 0])


@pytest.mark.parametrize("restricted", [False, True])
def test_batch_rows_are_independent(restricted, link, monkeypatch):
    # The bootstrap may group resamples in any way; each row's result must
    # be bit for bit the one it gets alone or in any other batch.  Row 3
    # starts far off, where its Newton step is not an ascent direction, so
    # it takes scoring steps there; row 5's J is made singular throughout,
    # so it takes scoring steps only.  Neither may move its neighbours.
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
    Beta0 = np.tile(beta, (len(Y), 1))
    Phi0 = np.full(len(Y), phi)
    Phi0[3] = 1000.0
    assert _newton_ascent(Y[3:4], X, offset, link, Beta0[3:4], Phi0[3:4])[0] < 0.0

    observed = fit_module._rows_observed_information
    marker = np.log(Y[5, 0])

    def singular_for_row_5(XT, Phi, M, T, Psi, Tri, L, link):
        J = observed(XT, Phi, M, T, Psi, Tri, L, link)
        J[L[:, 0] == marker] = 0.0
        return J

    def fit(rows, starts=(Beta0, Phi0)):
        Beta, Phi = starts
        return _fisher_scoring_batch(
            Y[rows], X, offset, link, Beta[rows], Phi[rows], opts
        )

    everything = np.arange(len(Y))
    plain = fit(everything)
    near = fit(everything, (np.tile(beta, (len(Y), 1)), np.full(len(Y), phi)))
    monkeypatch.setattr(fit_module, "_rows_observed_information", singular_for_row_5)
    batch = fit(everything)
    assert batch.ok.all()
    perm = np.random.default_rng(7).permutation(len(Y))
    groups = [everything[b : b + 1] for b in everything]
    groups += [everything[5:17], everything[::3], perm]
    for rows in groups:
        for got, want in zip(fit(rows), batch):
            assert np.array_equal(got, want[rows])
    assert batch.iterations[5] > plain.iterations[5]  # scoring is slower
    for row, reference in ((5, plain), (3, near)):
        others = np.delete(everything, row)
        for got, want in zip(batch if row == 5 else plain, reference):
            assert np.array_equal(got[others], want[others])
    # Both rows reach the optimum that Newton steps reach from the truth.
    # Scoring alone stops once |U| <= 1e-8, which pins beta only to about
    # 1e-8 over the smallest eigenvalue of K, hence row 5's looser bound.
    for row, tol in ((3, 1e-10), (5, 1e-9)):
        assert rel_err(batch.Beta[row], near.Beta[row]) < tol
        assert batch.LL[row] == pytest.approx(near.LL[row], rel=1e-12)


def test_infinite_newton_step_is_a_rejected_step(link, monkeypatch):
    # Row 2's Newton step is infinite in every coefficient, so its trial
    # linear predictors and means are NaN.  The link's argument check lets
    # NaN through (model._on_open_unit), the NaN log-likelihood rejects
    # every scale, and the row ends MAX_ITERATIONS without an exception,
    # while every other row keeps its bits.
    X = design_matrix(38, 4, 5)
    beta = np.array([0.5, 1.0, -1.0, 0.8])
    mu = link.g_inv(X @ beta)
    Y = np.vstack([gen_beta_sample(mu, 30.0, np.random.default_rng(b)) for b in range(6)])
    Beta0, Phi0 = np.tile(beta, (len(Y), 1)), np.full(len(Y), 30.0)
    opts = FitOptions()
    plain = _fisher_scoring_batch(Y, X, np.zeros(38), link, Beta0, Phi0, opts)
    observed, solve = fit_module._rows_observed_information, fit_module._solve
    marker = np.log(Y[2, 0])
    marked = []  # row 2's mask among the rows of the last J, until its solve

    def marking(XT, Phi, M, T, Psi, Tri, L, link):
        marked[:] = [L[:, 0] == marker]
        return observed(XT, Phi, M, T, Psi, Tri, L, link)

    def infinite(K, U):
        Z, singular = solve(K, U)
        if marked:
            hit = marked.pop()
            Z[hit, :-1] = np.where(U[hit, :-1] >= 0.0, np.inf, -np.inf)
            Z[hit, -1] = 0.0
        return Z, singular

    monkeypatch.setattr(fit_module, "_rows_observed_information", marking)
    monkeypatch.setattr(fit_module, "_solve", infinite)
    batch = _fisher_scoring_batch(Y, X, np.zeros(38), link, Beta0, Phi0, opts)
    assert batch.status[2] == ScoringStatus.MAX_ITERATIONS
    assert batch.iterations[2] == opts.max_iterations
    assert np.array_equal(batch.Beta[2], Beta0[2])  # no step was accepted
    others = np.arange(len(Y)) != 2
    assert (batch.status[others] == ScoringStatus.CONVERGED).all()
    for got, want in zip(batch, plain):
        assert np.array_equal(got[others], want[others])


def test_solve_masks_exactly_the_singular_rows():
    # _solve and _inverse_rows return a boolean mask over the stack: all
    # False when no matrix is singular, True exactly at the singular ones,
    # whose solution is zero; every other row is solved on its own.
    rng = np.random.default_rng(4)
    A = rng.normal(size=(5, 3, 3))
    K = A @ A.transpose(0, 2, 1) + 3.0 * np.eye(3)
    U = rng.normal(size=(5, 3, 1))
    for Z, singular in (fit_module._solve(K, U), fit_module._inverse_rows(K)):
        assert singular.dtype == bool and singular.shape == (5,)
        assert not singular.any()
    K[1] = 0.0
    K[3, 2] = 0.0
    expect = np.array([False, True, False, True, False])
    Z, singular = fit_module._solve(K, U)
    K_inv, singular_inv = fit_module._inverse_rows(K)
    assert np.array_equal(singular, expect) and np.array_equal(singular_inv, expect)
    assert not Z[expect].any() and not K_inv[expect].any()
    for i in np.flatnonzero(~expect):
        assert np.array_equal(Z[i], np.linalg.solve(K[i], U[i]))
        assert np.array_equal(K_inv[i], np.linalg.inv(K[i]))


def test_converged_row_with_singular_information_fails(food_reduced, link, monkeypatch):
    # A row that converges but whose expected information at the optimum
    # cannot be inverted fails with SingularInformationError; the other
    # rows keep their results.
    noise = np.random.default_rng(2).normal(0.0, 0.02, (3, food_reduced.n))
    Y = np.clip(food_reduced.y + noise, 0.01, 0.99)
    opts = FitOptions()
    (reference, failed), = fit_module._fit_rows(food_reduced, Y, link, [None], opts)
    assert not failed and len(reference) == 3
    final_phi = reference[1].theta_hat.phi
    expected = fit_module._rows_information

    def singular_at_row_1(XT, Phi, M, T, Tri):
        K = expected(XT, Phi, M, T, Tri)
        K[Phi == final_phi] = 0.0  # row 1's information where it converges
        return K

    core, fits = fit_module._fisher_scoring_batch, []

    def recording(*args, **kwargs):
        fits.append(core(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(fit_module, "_rows_information", singular_at_row_1)
    monkeypatch.setattr(fit_module, "_fisher_scoring_batch", recording)
    (results, failed), = fit_module._fit_rows(food_reduced, Y, link, [None], opts)
    assert fits[0].ok.all() and not fits[0].K[1].any()
    assert list(failed) == [1] and isinstance(failed[1], SingularInformationError)
    assert sorted(results) == [0, 2]
    for i in (0, 2):
        for name in ("loglik", "K", "K_inv", "std_errors", "iterations"):
            assert np.array_equal(getattr(results[i], name), getattr(reference[i], name))
        assert np.array_equal(
            results[i].theta_hat.as_array(), reference[i].theta_hat.as_array()
        )


def test_fit_information_is_the_expected_one(food_full, link):
    # Steps use the observed information, but FitResult.K is the expected
    # information at the returned point, to the bit.
    result = fit_mle(food_full, link)
    expected = fisher_information(result.theta_hat, food_full, link)
    assert np.array_equal(result.K, expected)


def test_fit_result_frozen(food_reduced, link):
    result = fit_mle(food_reduced, link)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.loglik = 0.0
