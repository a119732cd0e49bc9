"""Monte Carlo harness: generators, studies, reproducibility, summaries."""

import math

import numpy as np
import pytest
import scipy.stats

import betabart.cumulants as cumulants
import betabart.inference as inference
import betabart.simulate as simulate
from betabart.cumulants import NonFiniteCumulantError
from betabart.fit import Restriction
from betabart.inference import run_test
from betabart.model import Dataset, logit_link
from betabart.simulate import (
    MomentTable,
    SimConfig,
    SimResult,
    SimulationError,
    design_matrix,
    gen_beta_sample,
    null_moments,
    power_study,
    size_study,
    write_archive_csv,
    write_rates_csv,
)
from betabart.specfun import chisq_sf


def small_config(**overrides):
    base = dict(
        n=20,
        p=3,
        phi_true=40.0,
        beta_true=(0.8, 0.0, 1.0),
        restriction=Restriction((2,), (0.0,)),
        reps=30,
        methods=("lr", "b3"),
        alpha_levels=(0.10, 0.05),
        base_seed=4,
        covariate_seed=4,
    )
    base.update(overrides)
    return SimConfig(**base)


def spoil_draws(monkeypatch, replications, bad):
    """Put bad into one response of each of the replications, rows of the
    block drawer's calls counted in call order: in a serial study, the
    replication indices."""
    draw = simulate._beta_rows
    seen = [0]

    def spoiled(mu, phi, states):
        Y = draw(mu, phi, states)
        for j in replications:
            if 0 <= j - seen[0] < len(Y):
                Y[j - seen[0], 3] = bad
        seen[0] += len(Y)
        return Y

    monkeypatch.setattr(simulate, "_beta_rows", spoiled)


@pytest.fixture(autouse=True)
def serial_mode(monkeypatch):
    """Keep study tests single-process unless a test overrides it."""
    monkeypatch.setenv("BETABART_THREADS", "1")


class TestSimConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"n": True},
            {"n": 4},  # below p + 2
            {"p": 0},
            {"reps": 0},
            # replication indices are one 32-bit spawn-key word each
            {"reps": 2**32 + 1},
            {"boot_B": 0},
            {"phi_true": 0.0},
            {"phi_true": math.inf},
            {"delta": math.nan},
            {"beta_true": (0.8, 0.0)},  # wrong length
            {"beta_true": (0.8, 0.0, math.nan)},
            {"beta_true": (40.0, 0.0, 1.0)},  # every generating mean is 1
            {"delta": 1e3},  # some generating means are 1
            {"restriction": (2,)},  # not a Restriction
            {"restriction": Restriction((4,), (0.0,))},  # index beyond p
            {"alpha_levels": ()},
            {"alpha_levels": (0.0,)},
            {"alpha_levels": (0.1, 0.1)},
            {"base_seed": -1},
            {"base_seed": True},
            {"methods": ()},
            {"methods": ("lr", "lr")},
            {"methods": ("wald",)},
        ],
    )
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            small_config(**overrides)

    def test_restriction_must_leave_a_free_coefficient(self):
        every = Restriction((1, 2, 3), (0.8, 0.0, 1.0))
        with pytest.raises(ValueError, match="at least one free coefficient"):
            small_config(restriction=every)

    def test_reps_up_to_2_to_the_32(self):
        assert small_config(reps=2**32).reps == 2**32

    def test_coercions(self):
        config = small_config(phi_true=40, alpha_levels=[0.1], beta_true=[0.8, 0, 1])
        assert config.phi_true == 40.0 and isinstance(config.phi_true, float)
        assert config.alpha_levels == (0.1,)
        assert config.beta_true == (0.8, 0.0, 1.0)

    def test_numpy_integer_seeds_stored_as_int(self):
        config = small_config(base_seed=np.int64(4), covariate_seed=np.uint32(4))
        assert type(config.base_seed) is int and type(config.covariate_seed) is int
        assert config == small_config()


class TestGenBetaSample:
    def test_moments(self):
        rng = np.random.default_rng(60)
        mu = np.full(100_000, 0.3)
        y = gen_beta_sample(mu, 50.0, rng)
        assert y.mean() == pytest.approx(0.3, abs=1e-3)
        assert y.var() == pytest.approx(0.3 * 0.7 / 51.0, rel=0.05)

    def test_uniform_special_case(self):
        # mu = 1/2, phi = 2 makes both shapes 1, i.e. Uniform(0, 1)
        rng = np.random.default_rng(61)
        y = gen_beta_sample(np.full(10_000, 0.5), 2.0, rng)
        assert scipy.stats.kstest(y, "uniform").pvalue > 0.01

    def test_stream_replay(self):
        mu = np.linspace(0.2, 0.8, 50)
        first = gen_beta_sample(mu, 25.0, np.random.default_rng(7))
        second = gen_beta_sample(mu, 25.0, np.random.default_rng(7))
        assert np.array_equal(first, second)

    def test_stays_inside_open_interval(self):
        rng = np.random.default_rng(62)
        y = gen_beta_sample(np.full(5000, 0.995), 0.5, rng)
        assert np.all(y > 0.0) and np.all(y < 1.0)

    @pytest.mark.parametrize(
        "mu, phi",
        [
            (np.array([0.0, 0.5]), 10.0),
            (np.array([0.5, 1.0]), 10.0),
            (np.array([]), 10.0),
            (np.array([[0.5]]), 10.0),
            (np.array([0.5]), 0.0),
            (np.array([0.5]), math.inf),
        ],
    )
    def test_validation(self, mu, phi):
        with pytest.raises(ValueError):
            gen_beta_sample(mu, phi, np.random.default_rng(0))


class TestDesignMatrix:
    def test_shape_and_intercept(self):
        X = design_matrix(17, 4, 9)
        assert X.shape == (17, 4)
        assert np.all(X[:, 0] == 1.0)
        assert np.all(np.abs(X[:, 1:]) <= 0.5)

    def test_frozen_by_seed(self):
        assert np.array_equal(design_matrix(10, 3, 5), design_matrix(10, 3, 5))
        assert not np.array_equal(design_matrix(10, 3, 5), design_matrix(10, 3, 6))

    @pytest.mark.parametrize("n, p, seed", [(0, 2, 0), (5, 0, 0), (5, 2, -1), (True, 2, 0)])
    def test_validation(self, n, p, seed):
        with pytest.raises(ValueError):
            design_matrix(n, p, seed)


class TestStudies:
    def test_single_replication(self):
        result = size_study(small_config(reps=1, methods=("lr",)))
        assert result.failures == 0
        assert result.archive_reps == (0,)
        assert result.statistic_archive["lr"].shape == (1,)
        rate = result.rejection_rates[("lr", 0.10)]
        assert rate in (0.0, 1.0)
        assert math.isnan(result.moments["lr"].variance)

    def test_rates_match_archive(self):
        config = small_config()
        result = size_study(config)
        q = config.restriction.q
        for m in config.methods:
            pvals = np.array(
                [chisq_sf(max(v, 0.0), q) for v in result.statistic_archive[m]]
            )
            for alpha in config.alpha_levels:
                assert result.rejection_rates[(m, alpha)] == float(
                    np.mean(pvals <= alpha)
                )

    def test_size_study_requires_null(self):
        with pytest.raises(ValueError, match="delta"):
            size_study(small_config(delta=0.5))
        with pytest.raises(ValueError, match="beta_true"):
            size_study(small_config(beta_true=(0.8, 0.3, 1.0)))

    def test_power_study_requires_consistent_null_values(self):
        with pytest.raises(ValueError, match="beta_true"):
            power_study(small_config(beta_true=(0.8, 0.3, 1.0), delta=1.0))

    def test_power_at_zero_delta_is_size(self):
        config = small_config()
        via_power = power_study(config)
        via_size = size_study(config)
        assert via_power.rejection_rates == via_size.rejection_rates
        assert via_power.archive_reps == via_size.archive_reps
        assert via_power.failures == via_size.failures
        for m in config.methods:
            assert np.array_equal(
                via_power.statistic_archive[m], via_size.statistic_archive[m]
            )
        assert via_power.moments == via_size.moments
        assert via_power.quantiles == via_size.quantiles

    def test_power_increases_with_delta(self):
        base = dict(
            n=25,
            p=3,
            phi_true=30.0,
            beta_true=(0.8, 0.0, 1.0),
            restriction=Restriction((2,), (0.0,)),
            reps=150,
            methods=("b3",),
            alpha_levels=(0.10,),
            base_seed=5,
            covariate_seed=5,
        )
        rates = [
            power_study(SimConfig(delta=delta, **base)).rejection_rates[("b3", 0.10)]
            for delta in (0.0, 1.5, 3.0)
        ]
        assert rates[0] < rates[1] <= rates[2]
        assert rates[2] > rates[0] + 0.5

    def test_corrected_statistic_dominates_raw(self):
        # small n with many covariates: the raw LR over-rejects badly,
        # the corrected statistic sits near the nominal level
        config = SimConfig(
            n=15,
            p=5,
            phi_true=100.0,
            beta_true=(1.0, 0.0, 1.0, 5.0, -4.0),
            restriction=Restriction((2,), (0.0,)),
            reps=300,
            methods=("lr", "b3"),
            alpha_levels=(0.10,),
            base_seed=0,
            covariate_seed=0,
        )
        result = size_study(config)
        lr_rate = result.rejection_rates[("lr", 0.10)]
        b3_rate = result.rejection_rates[("b3", 0.10)]
        assert abs(b3_rate - 0.10) < abs(lr_rate - 0.10)

    def test_rerun_is_bit_identical(self):
        config = small_config(reps=20)
        first = size_study(config)
        second = size_study(config)
        assert first.rejection_rates == second.rejection_rates
        for m in config.methods:
            assert np.array_equal(
                first.statistic_archive[m], second.statistic_archive[m]
            )

    def test_failure_budget(self, monkeypatch):
        config = small_config(reps=100, methods=("lr",))

        # two failures out of 100 exceed the 1% budget
        spoil_draws(monkeypatch, (0, 1), math.nan)
        with pytest.raises(SimulationError, match="budget"):
            size_study(config)

        # one failure is tolerated, recorded, and dropped from the archive
        spoil_draws(monkeypatch, (0,), math.nan)
        result = size_study(config)
        assert result.failures == 1
        assert 0 not in result.archive_reps
        assert len(result.archive_reps) == 99

    # the batched Bartlett core is what the test path of a block calls; the
    # block drawer raising a ValueError is a defect too, not a void draw
    @pytest.mark.parametrize(
        "module, name, error",
        [
            pytest.param(inference, "_bartlett_rows", TypeError, id="TypeError"),
            pytest.param(inference, "_bartlett_rows", ValueError, id="ValueError"),
            pytest.param(simulate, "_beta_rows", ValueError, id="drawer-ValueError"),
        ],
    )
    def test_defects_propagate_instead_of_counting_as_failures(
        self, monkeypatch, module, name, error
    ):
        def broken(*args, **kwargs):
            raise error("synthetic defect")

        monkeypatch.setattr(module, name, broken)
        with pytest.raises(error, match="synthetic defect"):
            power_study(small_config(reps=5))

    def test_worker_count_env_validation(self, monkeypatch):
        monkeypatch.setenv("BETABART_THREADS", "abc")
        with pytest.raises(ValueError, match="BETABART_THREADS"):
            size_study(small_config(reps=2))
        monkeypatch.setenv("BETABART_THREADS", "-2")
        with pytest.raises(ValueError, match="nonnegative"):
            size_study(small_config(reps=2))


class TestBlocks:
    """A study runs its replications in fixed blocks of _BLOCK, batched."""

    def config(self):
        return small_config(reps=2 * simulate._BLOCK + 9, methods=("lr", "b1", "b2", "b3"))

    def spy_draws(self, monkeypatch):
        """The responses of every row the block drawer draws, in call order."""
        draws = []
        draw = simulate._beta_rows

        def spy(mu, phi, states):
            Y = draw(mu, phi, states)
            draws.extend(Y.copy())
            return Y

        monkeypatch.setattr(simulate, "_beta_rows", spy)
        return draws

    def spy_derivations(self, monkeypatch):
        """The arguments of every _spawn_state call of a block."""
        calls = []
        derive = simulate._spawn_state

        def spy(*args):
            calls.append(args)
            return derive(*args)

        monkeypatch.setattr(simulate, "_spawn_state", spy)
        return calls

    def test_block_draws_are_the_per_replication_streams(self, monkeypatch):
        # Each block derives its generator states in one pass and draws
        # through one generator, in one drawer call; every draw is the
        # (base_seed, (j, 0)) sequence's, and with no boot among the
        # methods no bootstrap seed is derived.
        config = small_config(reps=simulate._BLOCK + 9, methods=("lr", "b3"))
        draws = self.spy_draws(monkeypatch)
        derivations = self.spy_derivations(monkeypatch)
        assert size_study(config).failures == 0
        assert not derivations
        assert len(draws) == config.reps
        _, mu = simulate._generating_means(config)
        for j, y in enumerate(draws):
            sequence = np.random.SeedSequence(config.base_seed, spawn_key=(j, 0))
            want = gen_beta_sample(mu, config.phi_true, np.random.default_rng(sequence))
            assert np.array_equal(y, want)

    def test_block_boot_seeds_are_the_per_replication_seeds(self, monkeypatch):
        # With boot, each block derives its (base_seed, (j, 1)) bootstrap
        # seeds in one pass, for the replications whose draw stood.  The
        # test battery is replaced by a recorder: only the seeds matter.
        config = small_config(reps=simulate._BLOCK + 9, methods=("lr", "boot"))
        draws = self.spy_draws(monkeypatch)
        derivations = self.spy_derivations(monkeypatch)
        boot_opts = []

        def recorder(data, Y, link, restriction, chosen, opts, fit_opts):
            boot_opts.extend(opts)
            return {}, {}

        monkeypatch.setattr(simulate, "_test_rows", recorder)
        for start in range(0, config.reps, simulate._BLOCK):
            stop = min(start + simulate._BLOCK, config.reps)
            simulate._replication_block(config, range(start, stop))
        assert len(derivations) == 2 and len(draws) == config.reps
        for j, opts in enumerate(boot_opts):
            sequence = np.random.SeedSequence(config.base_seed, spawn_key=(j, 1))
            assert opts.seed == sequence.generate_state(1, np.uint64)[0]
            assert opts.B == config.boot_B
        assert len(boot_opts) == config.reps

    def test_block_values_match_one_row_tests(self):
        config = self.config()
        result = size_study(config)
        assert result.failures == 0
        X = design_matrix(config.n, config.p, config.covariate_seed)
        link = logit_link()
        mu = link.g_inv(X @ np.array(config.beta_true))
        for i, j in enumerate(result.archive_reps):
            rng = np.random.default_rng(
                np.random.SeedSequence(config.base_seed, spawn_key=(j, 0))
            )
            data = Dataset(gen_beta_sample(mu, config.phi_true, rng), X)
            report = run_test(data, link, config.restriction, methods=config.methods)
            for m in config.methods:
                want = report.statistics[m]
                assert result.statistic_archive[m][i] == pytest.approx(want, rel=1e-12)

    # NaN is what the generator returns when both gamma variates underflow
    @pytest.mark.parametrize("bad", [math.nan, 1.0])
    def test_response_outside_unit_interval_voids_only_its_replication(
        self, monkeypatch, bad
    ):
        config = self.config()
        reference = size_study(config)
        spoil_draws(monkeypatch, (70,), bad)  # inside the second block
        result = size_study(config)
        assert result.failures == 1
        assert result.archive_reps == tuple(j for j in reference.archive_reps if j != 70)
        keep = np.array(reference.archive_reps) != 70
        for m in config.methods:
            assert np.array_equal(
                result.statistic_archive[m], reference.statistic_archive[m][keep]
            )

    def test_all_void_block_skips_the_test_battery(self, monkeypatch):
        def void(mu, phi, states):
            return np.full((len(states), len(mu)), np.nan)

        def unreachable(*args):
            raise AssertionError("a block with no draw ran the test battery")

        monkeypatch.setattr(simulate, "_beta_rows", void)
        monkeypatch.setattr(simulate, "_test_rows", unreachable)
        outcomes = simulate._replication_block(self.config(), range(3, 10))
        assert outcomes == dict.fromkeys(range(3, 10))

    def test_underflowed_draws_void_their_replications_without_warning(self):
        # At phi_true = 1e-300 both gamma variates of every response
        # underflow to zero, so every draw is NaN and voids its replication;
        # the 0 / 0 behind it warns nothing (an error under the test
        # settings), through the real drawer.
        phi = 1e-300
        config = small_config(reps=7, methods=("lr", "b1", "b2", "b3"), phi_true=phi)
        mu = logit_link().g_inv(design_matrix(20, 3, 4) @ np.array(config.beta_true))
        assert np.isnan(gen_beta_sample(mu, phi, np.random.default_rng(0))).all()
        outcomes = simulate._replication_block(config, range(3, 10))
        assert outcomes == dict.fromkeys(range(3, 10))

    def test_bartlett_failure_fails_only_its_replication(self, monkeypatch):
        # Row 3 of the first block's Bartlett pass gets one infinite
        # order-4 factor: _test_rows reports it failed and skips it, with no
        # warning from its epsilon, and its replication fails; every other
        # replication keeps its values.
        config = self.config()
        reference = size_study(config)
        assert reference.failures == 0
        dense_rows, test_rows = cumulants._dense_rows, simulate._test_rows
        passes, seen = [], []

        def poisoned(*args):
            dense = dense_rows(*args)
            if not passes:
                dense[3][3, 5, 7] = np.inf
            passes.append(args)
            return dense

        def recording(*args):
            seen.append(test_rows(*args))
            return seen[-1]

        monkeypatch.setattr(cumulants, "_dense_rows", poisoned)
        monkeypatch.setattr(simulate, "_test_rows", recording)
        result = size_study(config)
        reports, failed = seen[0]
        assert list(failed) == [3] and isinstance(failed[3], NonFiniteCumulantError)
        assert sorted(reports) == [i for i in range(simulate._BLOCK) if i != 3]
        assert result.failures == 1
        keep = np.array(reference.archive_reps) != 3
        assert result.archive_reps == tuple(j for j in reference.archive_reps if j != 3)
        for m in config.methods:
            assert np.array_equal(
                result.statistic_archive[m], reference.statistic_archive[m][keep]
            )

    def test_a_replication_fails_exactly_when_its_one_row_test_does(self):
        # a small, steep design on which some fits do not converge: the
        # block's rows must fail where run_test raises, and agree elsewhere
        config = SimConfig(
            n=8,
            p=5,
            phi_true=3.0,
            beta_true=(1.0, 0.0, 0.0, 5.0, -4.0),
            restriction=Restriction((2, 3), (0.0, 0.0)),
            reps=simulate._BLOCK,
            methods=("lr", "b1", "b3"),
            base_seed=5,
            covariate_seed=1,
        )
        X = design_matrix(config.n, config.p, config.covariate_seed)
        link = logit_link()
        mu = link.g_inv(X @ np.array(config.beta_true))
        with np.errstate(all="ignore"):
            outcomes = simulate._replication_block(config, range(config.reps))
            failed = 0
            for j, values in outcomes.items():
                rng = np.random.default_rng(
                    np.random.SeedSequence(config.base_seed, spawn_key=(j, 0))
                )
                data = Dataset(gen_beta_sample(mu, config.phi_true, rng), X)
                try:
                    report = run_test(data, link, config.restriction, config.methods)
                except inference._TEST_FAILURES:
                    report = None
                if report is None or not all(
                    math.isfinite(v) for v in report.statistics.values()
                ):
                    failed += 1
                    assert values is None
                else:
                    assert values == pytest.approx(report.statistics, rel=1e-12)
        assert 0 < failed < config.reps

    def test_bit_identical_at_one_two_and_three_workers(self, monkeypatch):
        config = self.config()
        results = []
        for threads in ("1", "2", "3"):
            monkeypatch.setenv("BETABART_THREADS", threads)
            results.append(size_study(config))
        for other in results[1:]:
            assert other.archive_reps == results[0].archive_reps
            for m in config.methods:
                assert np.array_equal(
                    other.statistic_archive[m], results[0].statistic_archive[m]
                )

    @pytest.mark.parametrize(
        "threads, reps, pool_size",
        [("8", 16, None), ("1", 137, None), ("2", 137, 2), ("8", 137, 3)],
    )
    def test_no_more_workers_than_blocks(self, monkeypatch, threads, reps, pool_size):
        started = []

        class FakePool:
            """Records its size and runs the blocks in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(simulate, "ProcessPoolExecutor", FakePool)
        monkeypatch.setenv("BETABART_THREADS", threads)
        result = size_study(small_config(reps=reps, methods=("lr",)))
        assert len(result.archive_reps) + result.failures == reps
        assert started == ([] if pool_size is None else [pool_size])


class TestThreadIndependence:
    def test_results_identical_across_worker_counts(self, monkeypatch):
        config = small_config(
            reps=12, methods=("lr", "b3", "boot"), boot_B=16, base_seed=9
        )
        results = []
        for threads in ("1", "2"):
            monkeypatch.setenv("BETABART_THREADS", threads)
            results.append(size_study(config))
        one, two = results
        assert one.rejection_rates == two.rejection_rates
        assert one.archive_reps == two.archive_reps
        assert one.failures == two.failures
        for m in config.methods:
            assert np.array_equal(one.statistic_archive[m], two.statistic_archive[m])
        assert one.moments == two.moments
        assert one.quantiles == two.quantiles


class TestSummaries:
    def test_summary_calibration_on_chisq_draws(self):
        values = np.random.default_rng(12).chisquare(2.0, 20_000)
        moments, quantiles = simulate._summarize(values)
        assert moments.mean == pytest.approx(2.0, abs=0.05)
        assert moments.variance == pytest.approx(4.0, abs=0.25)
        assert moments.skewness == pytest.approx(2.0, abs=0.3)
        assert moments.kurtosis == pytest.approx(9.0, abs=1.5)
        assert quantiles.p95 == pytest.approx(5.9915, abs=0.15)

    def test_null_moments_reference_row(self):
        config = small_config(
            n=20,
            p=3,
            beta_true=(0.8, 0.0, 0.0),
            restriction=Restriction((2, 3), (0.0, 0.0)),
            reps=25,
            methods=("lr",),
        )
        table = null_moments(config)
        assert isinstance(table, MomentTable)
        chisq = table.moments["chisq"]
        assert chisq.mean == 2.0
        assert chisq.variance == 4.0
        assert chisq.skewness == pytest.approx(2.0, rel=1e-12)
        assert chisq.kurtosis == pytest.approx(9.0, rel=1e-12)
        assert table.quantiles["chisq"].p95 == pytest.approx(5.99146, abs=1e-3)
        assert "lr" in table.moments

    def test_null_moments_requires_null(self):
        with pytest.raises(ValueError):
            null_moments(small_config(delta=1.0))


class TestCsvOutput:
    def test_rates_csv(self, tmp_path):
        config = small_config(reps=10)
        result = size_study(config)
        path = tmp_path / "rates.csv"
        write_rates_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "statistic,alpha,rate"
        assert len(lines) == 1 + len(config.methods) * len(config.alpha_levels)
        first = lines[1].split(",")
        assert first[0] == "lr"
        assert float(first[2]) == 100.0 * result.rejection_rates[("lr", 0.10)]

    def test_archive_csv_round_trip(self, tmp_path):
        config = small_config(reps=10)
        result = size_study(config)
        path = tmp_path / "archive.csv"
        write_archive_csv(result, path)
        table = np.genfromtxt(path, delimiter=",", names=True)
        assert list(table.dtype.names) == ["rep"] + list(config.methods)
        assert np.array_equal(table["rep"], np.array(result.archive_reps, dtype=float))
        for m in config.methods:
            assert np.array_equal(table[m], result.statistic_archive[m])

    def test_written_files_are_byte_identical_across_runs(self, tmp_path):
        config = small_config(reps=10)
        for tag in ("a", "b"):
            result = size_study(config)
            write_rates_csv(result, tmp_path / f"rates_{tag}.csv")
            write_archive_csv(result, tmp_path / f"archive_{tag}.csv")
        assert (tmp_path / "rates_a.csv").read_bytes() == (
            tmp_path / "rates_b.csv"
        ).read_bytes()
        assert (tmp_path / "archive_a.csv").read_bytes() == (
            tmp_path / "archive_b.csv"
        ).read_bytes()
