"""Several hypotheses fitted in one scoring loop, and rows that cannot move."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betabart.fit as fit_module
import betabart.simulate as simulate
from betabart.fit import (
    FitOptions,
    Restriction,
    ScoringStatus,
    _fisher_scoring_batch,
    _fit_rows,
    fit_mle,
    starting_values,
)
from betabart.inference import BootstrapOptions, run_test
from betabart.model import MU_CLAMP, Dataset, ParamVector, logit_link
from betabart.simulate import SimConfig, design_matrix, gen_beta_sample

_FIELDS = (
    "loglik",
    "iterations",
    "converged",
    "clamp_activated",
    "K",
    "K_inv",
    "std_errors",
    "fixed_mask",
    "free_indices",
)


def assert_same_fits(got, want):
    """Two _fit_rows pairs are equal bit for bit, errors included."""
    (results, failed), (results_ref, failed_ref) = got, want
    assert results.keys() == results_ref.keys()
    assert failed.keys() == failed_ref.keys()
    for i, fit in results.items():
        ref = results_ref[i]
        assert np.array_equal(fit.theta_hat.beta, ref.theta_hat.beta)
        assert fit.theta_hat.phi == ref.theta_hat.phi
        for name in _FIELDS:
            assert np.array_equal(getattr(fit, name), getattr(ref, name)), name
    for i, error in failed.items():
        ref = failed_ref[i]
        assert type(error) is type(ref)
        assert str(error) == str(ref)
        for name in ("trace", "condition"):
            assert np.array_equal(
                getattr(error, name, ()), getattr(ref, name, ()), equal_nan=True
            )


@st.composite
def grouped_problems(draw):
    """A response stack on one design, restrictions with nonzero values, and
    options that make some rows end NON_FINITE, SINGULAR or MAX_ITERATIONS."""
    p = draw(st.integers(2, 5))
    n = draw(st.integers(p + 3, 30))
    X = design_matrix(n, p, draw(st.integers(0, 50)))
    beta = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=p, max_size=p)))
    phi = draw(st.floats(3.0, 200.0))
    rows = draw(st.sampled_from([3, 1, 4, 2]))
    seed = draw(st.integers(0, 2**20))
    mu = logit_link().g_inv(X @ beta)
    rng = np.random.default_rng(seed)
    Y = np.array([gen_beta_sample(mu, phi, rng) for _ in range(rows)])
    restrictions = [None]
    for _ in range(draw(st.integers(1, 3))):
        indices = draw(
            st.lists(st.integers(1, p), min_size=1, max_size=p - 1, unique=True)
        )
        values = draw(
            st.lists(
                st.floats(-2.0, 2.0), min_size=len(indices), max_size=len(indices)
            )
        )
        restrictions.append(Restriction(tuple(sorted(indices)), tuple(values)))
    order = draw(st.permutations(range(len(restrictions))))
    restrictions = [restrictions[g] for g in order]
    opts = FitOptions(max_iterations=draw(st.sampled_from([100, 4, 2, 1])))
    start = None
    if draw(st.booleans()):
        # a huge phi makes the log-likelihood overflow: NON_FINITE rows
        start_phi = draw(st.sampled_from([40.0, 1.0, 1e306]))
        start = ParamVector(np.zeros(p), start_phi)
    singular_row = draw(st.sampled_from([None, *range(rows)]))
    return Dataset(Y[0], X), Y, restrictions, opts, start, singular_row


def _make_row_singular(monkeypatch, Y, row):
    """Zero J and the fallback K of every fit of response row, so that each
    of its fits ends SINGULAR at its first iteration."""
    marker = np.log(Y[row, 0])
    observed = fit_module._rows_observed_information
    expected = fit_module._rows_information
    # phi of the marked rows at the last J; the fallback K that follows
    # it, on the same design's rows, reads and clears it
    marked = []

    def observed_marked(XT, Phi, M, T, Psi, Tri, L, link):
        J = observed(XT, Phi, M, T, Psi, Tri, L, link)
        hit = L[:, 0] == marker
        J[hit] = 0.0
        marked[:] = Phi[hit]
        return J

    def expected_marked(XT, Phi, M, T, Tri):
        K = expected(XT, Phi, M, T, Tri)
        K[np.isin(Phi, marked)] = 0.0
        marked.clear()
        return K

    monkeypatch.setattr(fit_module, "_rows_observed_information", observed_marked)
    monkeypatch.setattr(fit_module, "_rows_information", expected_marked)


def _check_one_call(data, Y, restrictions, opts, start, singular_row):
    """Fit every restriction in one call and each alone; compare them all.
    Returns the statuses the merged call ended with."""
    link = logit_link()
    statuses = set()
    core = fit_module._fisher_scoring_batch

    def recording(*args, **kwargs):
        fit = core(*args, **kwargs)
        statuses.update(ScoringStatus(s) for s in fit.status)
        return fit

    # the starts that make rows NON_FINITE overflow on purpose
    with pytest.MonkeyPatch.context() as monkeypatch, np.errstate(
        over="ignore", invalid="ignore"
    ):
        if singular_row is not None:
            _make_row_singular(monkeypatch, Y, singular_row)
        monkeypatch.setattr(fit_module, "_fisher_scoring_batch", recording)
        merged = _fit_rows(data, Y, link, restrictions, opts, start)
        merged_statuses = set(statuses)
        separate = [
            _fit_rows(data, Y, link, [restriction], opts, start)[0]
            for restriction in restrictions
        ]
    assert len(merged) == len(restrictions)
    for got, want in zip(merged, separate):
        assert_same_fits(got, want)
    return merged_statuses


@settings(max_examples=60)
@given(grouped_problems())
def test_one_call_equals_separate_calls(problem):
    # Every restriction fitted in one scoring call gives, for every row,
    # the FitResult or the error of a call with that restriction alone.
    _check_one_call(*problem)


def _problem(seed, rows=3):
    X = design_matrix(22, 4, 3)
    mu = logit_link().g_inv(X @ np.array([0.8, -1.0, 0.6, 1.2]))
    rng = np.random.default_rng(seed)
    Y = np.array([gen_beta_sample(mu, 25.0, rng) for _ in range(rows)])
    restrictions = [None, Restriction((2, 4), (-0.9, 1.1)), Restriction((3,), (0.5,))]
    return Dataset(Y[0], X), Y, restrictions


@pytest.mark.parametrize(
    "status, opts, start, singular_row, rows",
    [
        (ScoringStatus.CONVERGED, FitOptions(), None, None, 1),
        (ScoringStatus.MAX_ITERATIONS, FitOptions(max_iterations=2), None, None, 3),
        (ScoringStatus.SINGULAR, FitOptions(), None, 1, 3),
        (
            ScoringStatus.NON_FINITE,
            FitOptions(),
            ParamVector(np.zeros(4), 1e306),
            None,
            2,
        ),
    ],
)
def test_one_call_equals_separate_calls_per_status(
    status, opts, start, singular_row, rows
):
    # Each way a row can end, in a one-row batch and in larger ones.
    data, Y, restrictions = _problem(5, rows)
    statuses = _check_one_call(data, Y, restrictions, opts, start, singular_row)
    assert status in statuses


def test_run_test_raises_the_full_fit_error_first():
    # Both fits fail; the error raised is the full fit's.
    data, Y, restrictions = _problem(9, 1)
    opts = FitOptions(max_iterations=1)
    link = logit_link()
    (_, failed), (_, rest_failed) = _fit_rows(data, Y, link, restrictions[:2], opts)
    assert failed[0].trace != rest_failed[0].trace
    with pytest.raises(fit_module.NonConvergenceError) as caught:
        run_test(data, link, restrictions[1], ("lr",), fit_opts=opts)
    assert caught.value.trace == failed[0].trace


@pytest.mark.parametrize("designs", [1, 2])
def test_stuck_rows_retire_at_once(food_reduced, link, monkeypatch, designs):
    # A row none of whose trials is accepted keeps its state, so with its
    # gradient above tolerance it would repeat the same rejected trials up
    # to the cap.  It leaves after one iteration, with the fields the cap
    # gives it; a row at its optimum still converges on the next pass.
    fitted = fit_mle(food_reduced, link)
    start = starting_values(food_reduced, link)
    X, n = food_reduced.X, food_reduced.n
    Y = np.vstack([food_reduced.y, food_reduced.y[::-1], food_reduced.y])
    Beta0 = np.vstack([start.beta, start.beta, fitted.theta_hat.beta])
    Phi0 = np.array([start.phi, start.phi, fitted.theta_hat.phi])
    stuck, optimum = [0, 1], 2
    designs_args = (X, np.zeros(n))
    if designs == 2:
        # the reversed responses and a copy of the first go last, on the
        # first two columns with the third coefficient fixed at 0.1; their
        # coefficients sit in the last two columns
        order = [0, 2, 1, 0]
        Y, Beta0, Phi0 = Y[order], Beta0[order], Phi0[order]
        Beta0[2:] = np.c_[np.zeros(2), Beta0[2:, :2]]
        stuck, optimum = [0, 2, 3], 1
        designs_args = ([X, X[:, :2]], [np.zeros(n), 0.1 * X[:, 2]])
    calls = []

    def rejecting(evaluate):
        def evaluated(*args):
            state = evaluate(*args)
            calls.append(state)
            if len(calls) > 1:
                state[4][:] = -np.inf  # every trial point is rejected
            return state

        return evaluated

    monkeypatch.setattr(fit_module, "_eta_state", rejecting(fit_module._eta_state))
    opts = FitOptions()
    fit = _fisher_scoring_batch(Y, *designs_args, link, Beta0, Phi0, opts)
    # the start, then one full step and step_halving_max halvings
    assert len(calls) == 2 + opts.step_halving_max
    first = calls[0]
    assert np.array_equal(fit.Beta[stuck], Beta0[stuck])
    assert np.array_equal(fit.Phi[stuck], Phi0[stuck])
    assert np.array_equal(fit.LL[stuck], first[4][stuck])
    assert np.array_equal(fit.clamped[stuck], first[5][stuck])
    assert (fit.status[stuck] == ScoringStatus.MAX_ITERATIONS).all()
    assert (fit.iterations[stuck] == opts.max_iterations).all()
    assert not fit.K[stuck].any()
    assert fit.status[optimum] == ScoringStatus.CONVERGED
    assert fit.iterations[optimum] == 2
    assert np.array_equal(fit.Beta[optimum], fitted.theta_hat.beta)
    assert np.array_equal(fit.K[optimum], fitted.K)


@pytest.mark.parametrize("designs", [1, 2])
def test_empty_batch(food_reduced, link, designs):
    # No rows, as when every restricted bootstrap fit failed, gives empty
    # fields as wide as the widest design.
    X, n = food_reduced.X, food_reduced.n
    args = (X, np.zeros(n)) if designs == 1 else ([X, X[:, :2]], [0.0, X[:, 2]])
    fit = _fisher_scoring_batch(
        np.empty((0, n)), *args, link, np.zeros(3), 1.0, FitOptions()
    )
    assert fit.Beta.shape == (0, 3) and fit.K.shape == (0, 4, 4)
    assert all(len(field) == 0 for field in fit)


def test_rows_split_evenly_over_designs(food_reduced, link):
    X, n = food_reduced.X, food_reduced.n
    Y = np.vstack([food_reduced.y] * 3)
    with pytest.raises(ValueError, match="evenly"):
        _fisher_scoring_batch(
            Y, [X, X[:, :2]], [0.0, X[:, 2]], link, np.zeros(3), 10.0, FitOptions()
        )


def _perturbed(data, rows, seed):
    """rows response vectors near data.y, kept inside (0, 1)."""
    noise = np.random.default_rng(seed).normal(0.0, 0.02, (rows, data.n))
    return np.clip(data.y + noise, 0.01, 0.99)


@pytest.mark.parametrize("designs", [1, 2])
@pytest.mark.parametrize("start", ["fitted", "least-squares", "clamped"])
def test_shared_start_equals_tiled_start(
    food_reduced, link, monkeypatch, designs, start
):
    # Rows that all start at one point (one Beta0 vector, a scalar Phi0)
    # have the model evaluated there once per design; every field must
    # equal that of the same call with the start tiled per row, which
    # evaluates it row by row.  At the clamped start mu clamps on every row.
    X, n = food_reduced.X, food_reduced.n
    Y = _perturbed(food_reduced, 12, 3)
    point = {
        "fitted": fit_mle(food_reduced, link).theta_hat,
        "least-squares": starting_values(food_reduced, link),
        "clamped": ParamVector(np.array([40.0, 40.0, 0.0]), 30.0),
    }[start]
    args = (X, np.zeros(n)) if designs == 1 else ([X, X[:, :2]], [0.0, 0.1 * X[:, 2]])
    repeats = []
    state = fit_module._eta_state

    def recording(Eta, Phi, link, L, repeats_=None):
        repeats.append(repeats_)
        return state(Eta, Phi, link, L, repeats_)

    monkeypatch.setattr(fit_module, "_eta_state", recording)
    shared = _fisher_scoring_batch(Y, *args, link, point.beta, point.phi, FitOptions())
    assert repeats[0] == len(Y) // designs  # the shared evaluation ran
    assert all(r is None for r in repeats[1:])
    Beta0, Phi0 = np.tile(point.beta, (len(Y), 1)), np.full(len(Y), point.phi)
    tiled = _fisher_scoring_batch(Y, *args, link, Beta0, Phi0, FitOptions())
    assert repeats[-1] is None
    for name, got, want in zip(shared._fields, shared, tiled):
        assert np.array_equal(got, want), name
    if start == "clamped":
        assert shared.clamped.all()
    else:
        assert shared.ok.all()


def test_information_is_built_only_for_rows_still_iterating(
    food_reduced, link, monkeypatch
):
    # The core scores every active row, then builds the observed
    # information only for the rows that stay after the convergence test:
    # once a row has retired, some J runs on fewer rows than the score
    # before it.
    X = food_reduced.X
    Y = _perturbed(food_reduced, 16, 5)
    start = starting_values(food_reduced, link)
    # rows that converge at different iterations, on two designs
    Beta0 = np.tile(start.beta, (len(Y), 1)) * np.linspace(0.5, 1.5, len(Y))[:, None]
    Beta0[len(Y) // 2 :, 0] = 0.0
    Phi0 = np.full(len(Y), start.phi)
    score, observed = fit_module._rows_score, fit_module._rows_observed_information
    rows = {"score": [], "J": []}

    def recording_score(XT, Phi, M, T, Psi, L):
        rows["score"].append(len(Phi))
        return score(XT, Phi, M, T, Psi, L)

    def recording_J(XT, Phi, M, T, Psi, Tri, L, link):
        rows["J"].append(len(Phi))
        return observed(XT, Phi, M, T, Psi, Tri, L, link)

    monkeypatch.setattr(fit_module, "_rows_score", recording_score)
    monkeypatch.setattr(fit_module, "_rows_observed_information", recording_J)
    fit = _fisher_scoring_batch(
        Y, [X, X[:, :2]], [0.0, 0.1 * X[:, 2]], link, Beta0, Phi0, FitOptions()
    )
    assert fit.ok.all() and len(set(fit.iterations.tolist())) > 1
    assert any(j < u for j, u in zip(rows["J"], rows["score"]))


@pytest.mark.parametrize("caller", ["_replication_block", "run_test"])
def test_replication_block_fits_both_hypotheses_in_one_call(
    monkeypatch, food_reduced, link, caller
):
    # One scoring call per block, or per run_test, covers the full and the
    # restricted fits of every dataset: two designs, one row per dataset
    # each.  The bootstrap's own calls go through inference's name for the
    # core and are not counted.
    calls = []
    core = fit_module._fisher_scoring_batch

    def counted(Y, X, offset, *args, **kwargs):
        calls.append((len(Y), len(X)))
        return core(Y, X, offset, *args, **kwargs)

    monkeypatch.setattr(fit_module, "_fisher_scoring_batch", counted)
    methods = ("lr", "b3", "boot")
    if caller == "run_test":
        boot_opts = BootstrapOptions(B=20, seed=3)
        report = run_test(
            food_reduced, link, Restriction((2,), (0.0,)), methods, boot_opts
        )
        assert calls == [(2, 2)]
        assert report.lr_boot is not None
        return
    config = SimConfig(
        n=20,
        p=4,
        phi_true=30.0,
        beta_true=(1.0, 0.0, 0.5, -0.5),
        restriction=Restriction((2,), (0.0,)),
        reps=10,
        methods=methods,
        boot_B=20,
    )
    outcomes = simulate._replication_block(config, range(10))
    assert calls == [(20, 2)]
    assert all(values is not None for values in outcomes.values())


def _starting_point_per_row(y, X, offset, link):
    """The one-row start, as _starting_point computed it before it took a
    stack of responses: the reference its rows must equal bit for bit."""
    z = np.asarray(link.g(y), dtype=float) - offset
    beta0 = np.linalg.lstsq(X, z, rcond=None)[0]
    resid = z - X @ beta0
    resid_var = max(float(resid @ resid) / max(X.shape[0] - X.shape[1], 1), 1e-12)
    mu0 = np.clip(
        np.asarray(link.g_inv(X @ beta0 + offset), dtype=float),
        MU_CLAMP,
        1.0 - MU_CLAMP,
    )
    gprime = np.asarray(link.deriv1(mu0), dtype=float)
    sigma2 = resid_var / (gprime * gprime)
    phi0 = max(1.0, float(np.mean(mu0 * (1.0 - mu0) / sigma2)) - 1.0)
    return np.asarray(beta0, dtype=float), phi0


@st.composite
def start_problems(draw):
    """A response stack of 1 to 64 rows on one design, and the free columns
    and offset of the full model or of a restriction with nonzero values."""
    p = draw(st.integers(1, 6))
    n = draw(st.integers(p + 2, 40))
    X = design_matrix(n, p, draw(st.integers(0, 50)))
    beta = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=p, max_size=p)))
    phi = draw(st.floats(0.5, 1e4))
    rows = draw(st.sampled_from([1, 2, 7, 64]))
    mu = logit_link().g_inv(X @ beta)
    rng = np.random.default_rng(draw(st.integers(0, 2**20)))
    Y = np.array([gen_beta_sample(mu, phi, rng) for _ in range(rows)])
    if p == 1 or draw(st.booleans()):
        return Y, X, np.zeros(n)
    indices = draw(
        st.lists(st.integers(1, p), min_size=1, max_size=p - 1, unique=True)
    )
    values = draw(
        st.lists(
            st.floats(-2.0, 2.0).filter(lambda v: v != 0.0),
            min_size=len(indices),
            max_size=len(indices),
        )
    )
    free, _, offset = Restriction(tuple(sorted(indices)), tuple(values)).split(X)
    return Y, X[:, free], offset


@settings(max_examples=80)
@given(start_problems())
def test_batched_starts_equal_per_row_starts(problem):
    # The link, the clip and the moment start run once over the stack; each
    # row's start is bit for bit the one-row computation's.
    Y, X, offset = problem
    link = logit_link()
    Beta0, Phi0 = fit_module._starting_point(Y, X, offset, link)
    assert Beta0.shape == (len(Y), X.shape[1]) and Phi0.shape == (len(Y),)
    for i, y in enumerate(Y):
        beta0, phi0 = _starting_point_per_row(y, X, offset, link)
        assert np.array_equal(Beta0[i], beta0)
        assert Phi0[i] == phi0


def test_starting_values_is_the_one_row_start(food_reduced, link):
    start = starting_values(food_reduced, link)
    beta0, phi0 = _starting_point_per_row(
        food_reduced.y, food_reduced.X, np.zeros(food_reduced.n), link
    )
    assert np.array_equal(start.beta, beta0)
    assert start.phi == phi0
