"""Likelihood ratio testing: statistics, corrections, bootstrap, errors."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betabart.inference as inference
from betabart.cumulants import bartlett_factor
from betabart.fit import (
    FitOptions,
    FitResult,
    NonConvergenceError,
    Restriction,
    fit_mle,
    fit_restricted,
)
from betabart.inference import (
    BootstrapFailureError,
    BootstrapOptions,
    NestingError,
    bartlett_corrected,
    lr_statistic,
    run_test,
)
from betabart.inference import TestReport as Report  # alias: not a test class
from betabart.model import MU_CLAMP, Dataset, ParamVector
from betabart.simulate import SimConfig
from betabart.specfun import chisq_sf
from conftest import random_instance


def _stub_fit(loglik, fixed_positions=(), k=4, converged=True):
    """Hand-built FitResult for exercising the nesting checks."""
    mask = np.zeros(k, dtype=bool)
    for i in fixed_positions:
        mask[i] = True
    free = np.nonzero(~mask)[0]
    m = len(free)
    return FitResult(
        theta_hat=ParamVector(np.zeros(k - 1), 10.0),
        loglik=loglik,
        K=np.eye(m),
        K_inv=np.eye(m),
        std_errors=np.ones(k),
        iterations=5,
        converged=converged,
        clamp_activated=False,
        fixed_mask=mask,
        free_indices=free,
    )


class TestLrStatistic:
    def test_floor_at_zero(self, food_reduced, link):
        # restricting a coefficient at its own MLE value keeps the optimum
        full = fit_mle(food_reduced, link)
        pinned = Restriction((3,), (float(full.theta_hat.beta[2]),))
        restricted = fit_restricted(food_reduced, link, pinned)
        lr = lr_statistic(full, restricted)
        assert 0.0 <= lr < 1e-6

    def test_positive_on_real_restriction(self, food_five, link):
        full = fit_mle(food_five, link)
        restricted = fit_restricted(food_five, link, Restriction((4, 5), (0.0, 0.0)))
        assert lr_statistic(full, restricted) > 0.1

    def test_full_fit_must_be_unrestricted(self):
        with pytest.raises(NestingError, match="fixed"):
            lr_statistic(_stub_fit(-10.0, fixed_positions=(1,)), _stub_fit(-12.0, (1,)))

    def test_restricted_fit_must_be_restricted(self):
        with pytest.raises(NestingError, match="no fixed"):
            lr_statistic(_stub_fit(-10.0), _stub_fit(-12.0))

    def test_dimension_mismatch(self):
        with pytest.raises(NestingError, match="dimensions"):
            lr_statistic(_stub_fit(-10.0, k=4), _stub_fit(-12.0, (1,), k=5))

    def test_restricted_cannot_beat_full(self):
        with pytest.raises(NestingError, match="not nested"):
            lr_statistic(_stub_fit(-12.0), _stub_fit(-10.0, (1,)))

    def test_roundoff_deficit_is_floored(self):
        lr = lr_statistic(_stub_fit(-10.0 - 1e-12), _stub_fit(-10.0, (1,)))
        assert lr == 0.0

    def test_non_convergence_rejected(self):
        with pytest.raises(NonConvergenceError):
            lr_statistic(_stub_fit(-10.0, converged=False), _stub_fit(-12.0, (1,)))
        with pytest.raises(NonConvergenceError):
            lr_statistic(_stub_fit(-10.0), _stub_fit(-12.0, (1,), converged=False))


class TestBartlettCorrected:
    def test_zero_correction_is_identity(self):
        assert bartlett_corrected(5.0, 0.0, 2) == (5.0, 5.0, 5.0)

    def test_ordering_for_positive_x(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            lr = float(rng.uniform(0.0, 30.0))
            x = float(rng.uniform(0.0, 1.5))
            b1, b2, b3 = bartlett_corrected(lr, x, 1)
            assert b1 >= b2 >= b3
            # b2 and b3 agree to second order in x
            assert abs(b2 - b3) <= lr * x**2 / 2.0 + 1e-12

    def test_degenerate_division_gives_nan(self):
        b1, b2, b3 = bartlett_corrected(4.0, -1.5, 1)
        assert math.isnan(b1)
        assert math.isfinite(b2) and math.isfinite(b3)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            bartlett_corrected(-1.0, 0.1, 1)
        with pytest.raises(ValueError):
            bartlett_corrected(1.0, 0.1, 0)


class TestReportValidation:
    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            Report(
                q=1, statistics={"lr": -1.0}, eps_diff_over_q=None,
                boot_mean=None, boot_failures=0,
            )

    def test_bad_p_value_rejected(self):
        with pytest.raises(ValueError):
            Report(
                q=1, statistics={"lr": 1.0}, eps_diff_over_q=None,
                boot_mean=None, boot_failures=0, p_values={"lr": 1.5},
            )

    def test_df_property(self):
        report = Report(
            q=3, statistics={"lr": 1.0}, eps_diff_over_q=None,
            boot_mean=None, boot_failures=0,
        )
        assert report.df == 3


class TestBootstrapOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"B": 0},
            {"B": -5},
            {"B": 2.5},
            {"max_failure_fraction": 1.0},
            {"max_failure_fraction": -0.1},
            {"B": True},
            {"seed": -1},
            {"seed": 2.0},
            {"seed": True},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            BootstrapOptions(**kwargs)

    def test_numpy_integer_accepted(self):
        opts = BootstrapOptions(B=np.int64(7), seed=np.int64(3))
        assert opts.B == 7
        assert opts.seed == 3 and type(opts.seed) is int


def _boot(data, link, restriction, opts):
    """(lr_boot, boot_mean, boot_failures) of the bootstrap statistic alone."""
    report = run_test(data, link, restriction, methods=("boot",), boot_opts=opts)
    return report.lr_boot, report.boot_mean, report.boot_failures


def _first_draw_fails(monkeypatch):
    """Make the first resample of the next bootstrap unfittable."""
    draws = inference._beta_rows

    def first_bad(mu, phi, states):
        Y = draws(mu, phi, states)
        Y[0] = np.nan
        return Y

    monkeypatch.setattr(inference, "_beta_rows", first_bad)


class TestBootstrapBartlett:
    def test_self_resample_identity(self, food_five, link, monkeypatch):
        # when every resample is the observed data, mean(LR*) = LR and
        # the corrected statistic collapses to the reference mean q
        restriction = Restriction((4, 5), (0.0, 0.0))
        monkeypatch.setattr(
            inference,
            "_beta_rows",
            lambda mu, phi, states: np.tile(food_five.y, (len(states), 1)),
        )
        lr_boot, boot_mean, failures = _boot(
            food_five, link, restriction, BootstrapOptions(B=1, seed=0)
        )
        assert failures == 0
        assert lr_boot == pytest.approx(restriction.q, rel=1e-10)

    def test_seed_determinism(self, food_five, link):
        restriction = Restriction((4,), (0.0,))
        first = _boot(food_five, link, restriction, BootstrapOptions(B=25, seed=11))
        second = _boot(food_five, link, restriction, BootstrapOptions(B=25, seed=11))
        third = _boot(food_five, link, restriction, BootstrapOptions(B=25, seed=12))
        assert first == second
        assert first[0] != third[0]

    def test_failure_budget_enforced(self, food_five, link, monkeypatch):
        _first_draw_fails(monkeypatch)
        with pytest.raises(BootstrapFailureError, match="over the budget"):
            _boot(
                food_five,
                link,
                Restriction((4,), (0.0,)),
                BootstrapOptions(B=20, seed=3, max_failure_fraction=0.0),
            )

    def test_failures_within_budget_are_counted(self, food_five, link, monkeypatch):
        _first_draw_fails(monkeypatch)
        lr_boot, boot_mean, failures = _boot(
            food_five,
            link,
            Restriction((4,), (0.0,)),
            BootstrapOptions(B=20, seed=3, max_failure_fraction=0.10),
        )
        assert failures == 1
        assert math.isfinite(lr_boot) and lr_boot > 0.0

    def test_non_nested_resample_fails(self, food_five, link, monkeypatch):
        # A resample whose full fit ends below its restricted one by more
        # than round-off is not nested.  As lr_statistic fails such a test,
        # the bootstrap counts it as a failed resample, not as an LR of 0.
        restriction = Restriction((4,), (0.0,))
        opts = BootstrapOptions(B=20, seed=3, max_failure_fraction=0.10)
        core = inference._fisher_scoring_batch
        calls = []

        def recording(Y, X, *args, **kwargs):
            calls.append(core(Y, X, *args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(inference, "_fisher_scoring_batch", recording)
        _, reference, failures = _boot(food_five, link, restriction, opts)
        rest, full = calls
        assert failures == 0 and rest.ok.all() and full.ok.all()
        lr = 2.0 * (full.LL - rest.LL)
        assert reference == float(np.mean(np.maximum(lr, 0.0)))

        def lowered(Y, X, *args, **kwargs):
            fit = core(Y, X, *args, **kwargs)
            if kwargs.get("keep_K") is False and X.shape[1] == food_five.p:
                fit.LL[0] = rest.LL[0] - 1.0  # resample 0's full fit
            return fit

        monkeypatch.setattr(inference, "_fisher_scoring_batch", lowered)
        _, mean, failures = _boot(food_five, link, restriction, opts)
        assert failures == 1
        assert mean == float(np.mean(np.maximum(lr[1:], 0.0)))

    def test_zero_resample_mean_fails(self, food_five, link, monkeypatch):
        # Every resample's full fit ends at its restricted log-likelihood:
        # each LR is 0, so the mean cannot rescale LR.
        core = inference._fisher_scoring_batch
        calls = []

        def tied(Y, X, *args, **kwargs):
            fit = core(Y, X, *args, **kwargs)
            if calls:
                fit.LL[:] = calls[0].LL[calls[0].ok]
            calls.append(fit)
            return fit

        monkeypatch.setattr(inference, "_fisher_scoring_batch", tied)
        with pytest.raises(BootstrapFailureError, match="not positive"):
            _boot(food_five, link, Restriction((4,), (0.0,)), BootstrapOptions(B=10))
        assert len(calls) == 2 and calls[1].ok.all()

    def test_mean_stabilizes_in_b(self, food_reduced, link):
        restriction = Restriction((3,), (0.0,))
        _, mean_small, _ = _boot(
            food_reduced, link, restriction, BootstrapOptions(B=200, seed=1)
        )
        _, mean_large, _ = _boot(
            food_reduced, link, restriction, BootstrapOptions(B=2000, seed=1)
        )
        assert abs(mean_small - mean_large) < 0.5


# One-word, two-word and multi-word seeds: 2**128 - 1 is the widest that fits
# the four-word pool, and the wider ones run past it.
_STREAM_SEEDS = (
    0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 - 1, 2**128 + 5, 2**160, 2**200 + 12345
)


class TestResampleStreams:
    """Resample b draws from default_rng(SeedSequence(seed, spawn_key=(b,))),
    bit for bit, though no such generator is built."""

    @pytest.mark.parametrize("B", [1, 2, 500, 1100])
    @pytest.mark.parametrize("seed", _STREAM_SEEDS)
    def test_states_are_the_spawned_generators(self, seed, B):
        states = inference._pcg64_states(seed, (np.arange(B, dtype=np.uint64),))
        assert len(states) == B
        rng = np.random.default_rng(0)
        for b in sorted({0, min(1, B - 1), B - 1}):
            sequence = np.random.SeedSequence(seed, spawn_key=(b,))
            spawned = np.random.default_rng(sequence)
            assert states[b] == spawned.bit_generator.state
            rng.bit_generator.state = states[b]
            shapes = np.array([0.4, 3.0, 250.0])
            drawn = rng.standard_gamma(shapes)
            assert np.array_equal(drawn, spawned.standard_gamma(shapes))
            assert rng.random(4).tolist() == spawned.random(4).tolist()

    # more than four entropy words from 2**130 on
    @pytest.mark.parametrize("seed", [0, 2**32, 2**70, 2**130])
    def test_replication_streams_are_the_spawned_sequences(self, seed):
        # A Monte Carlo replication j draws on the spawn key (j, 0) and
        # bootstraps with a seed from (j, 1); the key's words are an array
        # of replication indices or ints.
        js = [0, 63, 2**32 - 1]
        states = inference._pcg64_states(seed, (np.array(js, dtype=np.uint64), 0))
        (boot,) = inference._spawn_state(seed, (np.array(js, dtype=np.uint64), 1), 1)
        assert len(states) == len(boot) == len(js)
        for j, state, boot_seed in zip(js, states, boot.tolist()):
            draws = np.random.SeedSequence(seed, spawn_key=(j, 0))
            assert state == np.random.default_rng(draws).bit_generator.state
            sequence = np.random.SeedSequence(seed, spawn_key=(j, 1))
            assert boot_seed == sequence.generate_state(1, np.uint64)[0]
            assert inference._spawn_state(seed, (j, 1), 3) == (
                sequence.generate_state(3, np.uint64).tolist()
            )

    @pytest.mark.parametrize(
        "key",
        [(2**32, 0), (5, 2**32), (np.array([0, 2**32], dtype=np.uint64), 1), (2**70,)],
    )
    def test_spawn_key_words_must_fit_32_bits(self, key):
        # numpy spreads a key entry of 2**32 or more over two words
        with pytest.raises(ValueError, match="2\\*\\*32"):
            inference._spawn_state(0, key, 1)

    @pytest.mark.parametrize("seed", [3, 2**70 + 1, 2**200 + 12345])
    def test_mean_matches_one_generator_per_resample(
        self, food_five, link, monkeypatch, seed
    ):
        # The reference builds each resample's generator and draws the two
        # gamma vectors with two calls.  Six iterations fail some resamples
        # (8 or 9 of 40 at these seeds), so the failure count is compared
        # too.
        restriction = Restriction((4,), (0.0,))
        theta = fit_restricted(food_five, link, restriction).theta_hat
        opts = BootstrapOptions(B=40, seed=seed, max_failure_fraction=0.9)
        fit_opts = FitOptions(max_iterations=6)
        args = (food_five, link, restriction, theta, opts, fit_opts)
        got = inference._bootstrap_mean(*args)
        resamples = iter(range(opts.B))

        def own_generators(mu, phi, states):
            Y = np.empty((len(states), len(mu)))
            for y in Y:
                sequence = np.random.SeedSequence(seed, spawn_key=(next(resamples),))
                own = np.random.default_rng(sequence)
                g1 = own.standard_gamma(mu * phi)
                g2 = own.standard_gamma((1.0 - mu) * phi)
                y[:] = np.clip(g1 / (g1 + g2), MU_CLAMP, 1.0 - MU_CLAMP)
            return Y

        monkeypatch.setattr(inference, "_beta_rows", own_generators)
        assert got == inference._bootstrap_mean(*args)
        assert next(resamples, None) is None
        assert got[1] > 0


class TestRunTest:
    def test_all_methods(self, food_five, link):
        report = run_test(
            food_five,
            link,
            Restriction((4, 5), (0.0, 0.0)),
            boot_opts=BootstrapOptions(B=50, seed=2),
        )
        assert report.q == 2
        assert report.lr > 0.0
        assert report.lr_b1 >= report.lr_b2 >= report.lr_b3
        assert report.lr_boot is not None and report.boot_mean is not None
        assert set(report.p_values) == {"lr", "b1", "b2", "b3", "boot"}

    def test_agrees_with_component_calls(self, food_five, link):
        restriction = Restriction((4, 5), (0.0, 0.0))
        report = run_test(
            food_five, link, restriction, methods=("lr", "b1", "b2", "b3")
        )
        full = fit_mle(food_five, link)
        restricted = fit_restricted(food_five, link, restriction)
        lr = lr_statistic(full, restricted)
        assert report.lr == pytest.approx(lr, rel=1e-12)
        b1, b2, b3 = bartlett_corrected(lr, report.eps_diff_over_q, 2)
        assert report.lr_b1 == pytest.approx(b1, rel=1e-12)
        assert report.lr_b2 == pytest.approx(b2, rel=1e-12)
        assert report.lr_b3 == pytest.approx(b3, rel=1e-12)

    def test_boot_agrees_with_bootstrap_bartlett(self, food_five, link):
        # the bootstrap statistic does not depend on what else is requested
        restriction = Restriction((4,), (0.0,))
        opts = BootstrapOptions(B=40, seed=7)
        report = run_test(
            food_five, link, restriction, methods=("lr", "boot"), boot_opts=opts
        )
        lr_boot, boot_mean, failures = _boot(food_five, link, restriction, opts)
        assert report.lr_boot == lr_boot
        assert report.boot_mean == boot_mean
        assert report.boot_failures == failures

    def test_lr_only(self, food_five, link):
        report = run_test(food_five, link, Restriction((4,), (0.0,)), methods=("lr",))
        assert report.lr_b1 is None and report.lr_b2 is None and report.lr_b3 is None
        assert report.lr_boot is None and report.boot_mean is None
        assert report.eps_diff_over_q is None
        assert set(report.p_values) == {"lr"}

    def test_b3_only(self, food_five, link):
        report = run_test(food_five, link, Restriction((4,), (0.0,)), methods=("b3",))
        assert report.lr > 0.0  # the raw statistic is always computed
        assert report.eps_diff_over_q is not None
        assert report.lr_b1 is None and report.lr_b2 is None
        assert report.lr_b3 is not None
        assert set(report.p_values) == {"b3"}

    def test_duplicate_methods_deduped(self, food_five, link):
        report = run_test(
            food_five, link, Restriction((4,), (0.0,)), methods=("lr", "lr", "b3")
        )
        assert set(report.p_values) == {"lr", "b3"}

    def test_unknown_method(self, food_five, link):
        with pytest.raises(ValueError, match="unknown method"):
            run_test(food_five, link, Restriction((4,), (0.0,)), methods=("wald",))
        with pytest.raises(ValueError, match="at least one"):
            run_test(food_five, link, Restriction((4,), (0.0,)), methods=())

    def test_bare_string_methods_rejected(self, food_five, link):
        # a string is a sequence of letters, never a list of method names
        with pytest.raises(ValueError, match="string"):
            run_test(food_five, link, Restriction((4,), (0.0,)), methods="lr")
        with pytest.raises(ValueError, match="string"):
            SimConfig(
                n=20,
                p=3,
                phi_true=40.0,
                beta_true=(0.8, 0.0, 1.0),
                restriction=Restriction((2,), (0.0,)),
                methods="lr",
            )

    @pytest.mark.parametrize(
        "methods",
        [("lr",), ("b3",), ("b1", "boot"), ("lr", "b1", "b2", "b3", "boot")]
        + [(name,) for name in inference._METHODS],
    )
    def test_statistics_are_lr_and_the_requested(self, food_five, link, methods):
        report = run_test(
            food_five,
            link,
            Restriction((4,), (0.0,)),
            methods=methods,
            boot_opts=BootstrapOptions(B=10, seed=5),
        )
        assert set(report.statistics) == {"lr", *methods}
        assert report.statistics["lr"] == report.lr
        attrs = {"b1": "lr_b1", "b2": "lr_b2", "b3": "lr_b3", "boot": "lr_boot"}
        for name in methods:
            if name != "lr":
                assert report.statistics[name] == getattr(report, attrs[name])

    def test_statistics_in_table_order(self, food_five, link):
        report = run_test(
            food_five,
            link,
            Restriction((4,), (0.0,)),
            methods=("boot", "b3", "lr"),
            boot_opts=BootstrapOptions(B=10, seed=5),
        )
        assert list(report.statistics) == ["lr", "b3", "boot"]
        assert list(report.p_values) == ["lr", "b3", "boot"]

    def test_p_values_are_chisq_tails(self, food_five, link):
        # one p-value call on an array gives each statistic's scalar tail
        # bit for bit; odd q goes through erfc
        for indices in ((5,), (4, 5), (3, 4, 5)):
            q = len(indices)
            report = run_test(
                food_five,
                link,
                Restriction(indices, (0.0,) * q),
                boot_opts=BootstrapOptions(B=20, seed=5),
            )
            assert list(report.p_values) == list(inference._METHODS)
            for name, value in report.statistics.items():
                assert report.p_values[name] == chisq_sf(max(value, 0.0), q)

    def test_nan_statistic_has_no_p_value(self, monkeypatch, food_five, link):
        restriction = Restriction((4, 5), (0.0, 0.0))
        methods = ("lr", "b1", "b2", "b3")
        reference = run_test(food_five, link, restriction, methods=methods)
        bartlett_rows = inference._bartlett_rows

        def below_zero(*args):
            # eps_nuis = eps_full + 2q puts x at -2, so c = 1 + x = -1
            eps_full, _, failed = bartlett_rows(*args)
            return eps_full, eps_full + 2.0 * restriction.q, failed

        monkeypatch.setattr(inference, "_bartlett_rows", below_zero)
        report = run_test(food_five, link, restriction, methods=methods)
        assert math.isnan(report.lr_b1)
        assert list(report.p_values) == ["lr", "b2", "b3"]
        assert report.p_values["lr"] == reference.p_values["lr"]
        for name in ("b2", "b3"):
            assert report.p_values[name] == chisq_sf(report.statistics[name], 2)

    def test_report_is_frozen(self, food_five, link):
        report = run_test(food_five, link, Restriction((4,), (0.0,)), methods=("lr",))
        with pytest.raises(dataclasses.FrozenInstanceError):
            report.lr = 0.0


@st.composite
def _tested_designs(draw):
    """A random instance whose last q coefficients are tested at zero."""
    p = draw(st.integers(2, 5))
    q = draw(st.integers(1, p - 1))
    n = draw(st.integers(p + 15, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    data, _, link = random_instance(rng, n=n, p=p)
    restriction = Restriction(tuple(range(p - q + 1, p + 1)), (0.0,) * q)
    return data, link, restriction, rng


class TestTestRows:
    """Failure branches of the batched test path: a failed row leaves
    every other row's report as it was."""

    restriction = Restriction((4, 5), (0.0, 0.0))

    def run(self, data, link):
        """(reports, failed) of _test_rows on data.y and three responses
        near it, with every statistic."""
        noise = np.random.default_rng(8).normal(0.0, 0.02, (3, data.n))
        Y = np.vstack([data.y, np.clip(data.y + noise, 0.01, 0.99)])
        boot = [BootstrapOptions(B=20, seed=i) for i in range(len(Y))]
        return inference._test_rows(
            data, Y, link, self.restriction, tuple(inference._METHODS), boot, FitOptions()
        )

    def test_non_nested_row_fails_alone(self, food_five, link, monkeypatch):
        reference, failed = self.run(food_five, link)
        assert not failed and len(reference) == 4
        fit_rows = inference._fit_rows

        def non_nested(*args):
            (full, full_failed), (rest, rest_failed) = fit_rows(*args)
            # row 2's restricted fit beats its full fit by 1
            rest[2] = dataclasses.replace(rest[2], loglik=full[2].loglik + 1.0)
            return [(full, full_failed), (rest, rest_failed)]

        monkeypatch.setattr(inference, "_fit_rows", non_nested)
        reports, failed = self.run(food_five, link)
        assert list(failed) == [2] and isinstance(failed[2], NestingError)
        assert reports == {i: reference[i] for i in (0, 1, 3)}


def _lr_and_c(data, link, restriction):
    report = run_test(data, link, restriction, methods=("lr", "b1"))
    return report.lr, 1.0 + report.eps_diff_over_q


class TestInvariance:
    """LR and the factor c do not depend on how observations are ordered
    or on a linear reparameterisation of the free columns (Lawley 1956)."""

    @settings(max_examples=25)
    @given(_tested_designs())
    def test_row_permutation(self, design):
        data, link, restriction, rng = design
        lr, c = _lr_and_c(data, link, restriction)
        order = rng.permutation(data.n)
        lr_p, c_p = _lr_and_c(Dataset(data.y[order], data.X[order]), link, restriction)
        assert lr_p == pytest.approx(lr, rel=1e-8, abs=1e-10)
        assert c_p == pytest.approx(c, rel=1e-10)

    @settings(max_examples=25)
    @given(_tested_designs())
    def test_free_column_reparameterisation(self, design):
        data, link, restriction, rng = design
        lr, c = _lr_and_c(data, link, restriction)
        free = data.p - restriction.q
        # ||A - I||_2 <= 1/2, so A is nonsingular with condition number <= 3
        A = np.eye(free) + rng.uniform(-0.5, 0.5, (free, free)) / free
        X = np.column_stack([data.X[:, :free] @ A, data.X[:, free:]])
        lr_a, c_a = _lr_and_c(Dataset(data.y, X), link, restriction)
        assert lr_a == pytest.approx(lr, rel=1e-8, abs=1e-10)
        assert c_a == pytest.approx(c, rel=1e-10)

    @settings(max_examples=25)
    @given(_tested_designs())
    def test_column_scaling(self, design):
        # X -> X diag(s) with beta -> beta / s leaves eta, and so c, unchanged,
        # with scales spanning twelve decades
        data, link, restriction, rng = design
        theta = fit_restricted(data, link, restriction).theta_hat
        s = 10.0 ** rng.uniform(-6.0, 6.0, data.p)
        scaled = Dataset(data.y, data.X * s)
        c = bartlett_factor(data, link, restriction, theta).c
        c_s = bartlett_factor(
            scaled, link, restriction, ParamVector(theta.beta / s, theta.phi)
        ).c
        assert c_s == pytest.approx(c, rel=1e-10)
