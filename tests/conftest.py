"""Shared fixtures: the bundled dataset and randomized model instances."""

import numpy as np
import pytest
from hypothesis import settings

from betabart import food_data_path
from betabart.model import Dataset, ParamVector, logit_link

# Property tests replay the same examples on every run, and the time an
# example takes is not a failure: run times on a shared host drift widely.
settings.register_profile("betabart", derandomize=True, deadline=None, database=None)
settings.load_profile("betabart")


def load_food_columns():
    table = np.genfromtxt(food_data_path(), delimiter=",", names=True)
    return (
        np.asarray(table["y"], dtype=float),
        np.asarray(table["income"], dtype=float),
        np.asarray(table["persons"], dtype=float),
    )


def food_dataset(kind):
    """The three nested designs used throughout: reduced, five, full."""
    y, income, persons = load_food_columns()
    ones = np.ones_like(y)
    if kind == "reduced":
        X = np.column_stack([ones, income, persons])
    elif kind == "five":
        X = np.column_stack([ones, income, persons, income**2, persons**2])
    elif kind == "full":
        X = np.column_stack(
            [ones, income, persons, income * persons, income**2, persons**2]
        )
    else:
        raise ValueError(kind)
    return Dataset(y, X)


def random_instance(rng, n=None, p=None, phi=None):
    """Dataset plus an evaluation point, drawn small enough to stay tame."""
    n = int(rng.integers(15, 41)) if n is None else n
    p = int(rng.integers(2, 6)) if p is None else p
    phi = float(rng.uniform(5.0, 100.0)) if phi is None else phi
    X = np.column_stack([np.ones(n), rng.uniform(-0.5, 0.5, size=(n, p - 1))])
    beta = np.concatenate([[rng.uniform(0.3, 1.2)], rng.uniform(-2.0, 2.0, size=p - 1)])
    link = logit_link()
    mu = link.g_inv(X @ beta)
    g1 = rng.standard_gamma(mu * phi)
    g2 = rng.standard_gamma((1.0 - mu) * phi)
    y = np.clip(g1 / (g1 + g2), 1e-10, 1.0 - 1e-10)
    theta = ParamVector(beta, phi)
    return Dataset(y, X), theta, link


def central_diff(f, x, h):
    """Central difference of a scalar-or-array valued function of a scalar."""
    upper = f(x + h)
    lower = f(x - h)
    return (np.asarray(upper) - np.asarray(lower)) / (2.0 * h)


def rel_err(got, want):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    scale = max(float(np.max(np.abs(want))), 1e-8)
    return float(np.max(np.abs(got - want))) / scale


@pytest.fixture(scope="session")
def food_reduced():
    return food_dataset("reduced")


@pytest.fixture(scope="session")
def food_five():
    return food_dataset("five")


@pytest.fixture(scope="session")
def food_full():
    return food_dataset("full")


@pytest.fixture()
def link():
    return logit_link()
