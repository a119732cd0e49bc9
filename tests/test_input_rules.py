"""One rule per input kind, at every public entry point.

Integers may be Python or numpy integers and are stored as int; a bool, a
float or a string is never an integer.  Numbers may be any real, but never
a bool or a string, and must be finite (and positive where stated).  A
sequence field never takes a string.  Each rejection is a ValueError whose
message starts with the name of the input.
"""

import math
import re

import numpy as np
import pytest

from betabart.cumulants import cumulant_tensors
from betabart.fit import FitOptions, Restriction
from betabart.inference import BootstrapOptions
from betabart.model import Dataset, ParamVector, gen_beta_sample, logit_link
from betabart.simulate import SimConfig, design_matrix
from betabart.specfun import chisq_sf, polygamma

SIM = dict(
    n=20,
    p=3,
    phi_true=40.0,
    beta_true=(0.8, 0.0, 1.0),
    restriction=Restriction((2,), (0.0,)),
    reps=10,
    methods=("lr",),
)


def sim(**overrides):
    return SimConfig(**{**SIM, **overrides})


def _subset(i):
    X = design_matrix(12, 3, 0)
    data = Dataset(np.linspace(0.2, 0.8, 12), X)
    theta = ParamVector([0.1, 0.2, -0.3], 30.0)
    return cumulant_tensors(theta, data, logit_link(), subset=(i, 3)).subset[0]


# input: (message name, a valid value, the value as the entry point keeps it)
INTEGERS = {
    "Restriction.indices": (
        "restriction index", 2, lambda v: Restriction((v,), (0.0,)).indices[0]
    ),
    "cumulant_tensors.subset": ("subset position", 1, _subset),
    "FitOptions.max_iterations": (
        "max_iterations", 50, lambda v: FitOptions(max_iterations=v).max_iterations
    ),
    "FitOptions.step_halving_max": (
        "step_halving_max", 9, lambda v: FitOptions(step_halving_max=v).step_halving_max
    ),
    "BootstrapOptions.B": ("B", 7, lambda v: BootstrapOptions(B=v).B),
    "BootstrapOptions.seed": ("seed", 3, lambda v: BootstrapOptions(seed=v).seed),
    "SimConfig.n": ("n", 20, lambda v: sim(n=v).n),
    "SimConfig.p": ("p", 3, lambda v: sim(p=v).p),
    "SimConfig.reps": ("reps", 10, lambda v: sim(reps=v).reps),
    "SimConfig.boot_B": ("boot_B", 5, lambda v: sim(boot_B=v).boot_B),
    "SimConfig.base_seed": ("base_seed", 4, lambda v: sim(base_seed=v).base_seed),
    "SimConfig.covariate_seed": (
        "covariate_seed", 4, lambda v: sim(covariate_seed=v).covariate_seed
    ),
    "design_matrix.n": ("n", 6, lambda v: design_matrix(v, 2, 0).shape[0]),
    "design_matrix.p": ("p", 2, lambda v: design_matrix(6, v, 0).shape[1]),
    "design_matrix.covariate_seed": (
        "covariate_seed", 5, lambda v: float(design_matrix(6, 2, v)[0, 1])
    ),
    "chisq_sf.df": ("df", 3, lambda v: chisq_sf(2.5, v)),
    "polygamma.order": ("polygamma order", 2, lambda v: polygamma(v, 1.5)),
}


@pytest.mark.parametrize("kind", [int, np.int64, np.uint16])
@pytest.mark.parametrize("entry", INTEGERS)
def test_integer_accepted_as_int(entry, kind):
    _, good, keep = INTEGERS[entry]
    kept, want = keep(kind(good)), keep(good)
    # a stored field comes back as the int it was given as a Python int
    assert kept == want and type(kept) is type(want)


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
@pytest.mark.parametrize("entry", INTEGERS)
def test_integer_rejects_non_integers(entry, bad):
    name, _, keep = INTEGERS[entry]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer"):
        keep(bad)


# input: (message name, a valid value exact in float32, positive only, the
# value as kept)
NUMBERS = {
    "ParamVector.phi": ("phi", 40.0, True, lambda v: ParamVector([0.1], v).phi),
    "gen_beta_sample.phi": (
        "phi",
        40.0,
        True,
        lambda v: float(gen_beta_sample(np.array([0.5]), v, np.random.default_rng(0))[0]),
    ),
    "SimConfig.phi_true": ("phi_true", 40.0, True, lambda v: sim(phi_true=v).phi_true),
    "SimConfig.delta": ("delta", 0.5, False, lambda v: sim(delta=v).delta),
    "SimConfig.beta_true": (
        "beta_true", 0.75, False, lambda v: sim(beta_true=(v, 0.0, 1.0)).beta_true[0]
    ),
    "SimConfig.alpha_levels": (
        "alpha_levels", 0.25, False, lambda v: sim(alpha_levels=(v,)).alpha_levels[0]
    ),
    "Restriction.values": (
        "restriction values", 0.5, False, lambda v: Restriction((2,), (v,)).values[0]
    ),
    "FitOptions.gradient_tolerance": (
        "gradient_tolerance",
        2.0**-20,
        True,
        lambda v: FitOptions(gradient_tolerance=v).gradient_tolerance,
    ),
    "BootstrapOptions.max_failure_fraction": (
        "max_failure_fraction",
        0.125,
        False,
        lambda v: BootstrapOptions(max_failure_fraction=v).max_failure_fraction,
    ),
}


@pytest.mark.parametrize("kind", [float, np.float64, np.float32])
@pytest.mark.parametrize("entry", NUMBERS)
def test_number_accepted_as_float(entry, kind):
    _, good, _, keep = NUMBERS[entry]
    kept = keep(kind(good))
    assert kept == keep(good) and type(kept) is float


@pytest.mark.parametrize("bad", [True, "40", math.nan, math.inf, -math.inf, 10**400])
@pytest.mark.parametrize("entry", NUMBERS)
def test_number_rejects_non_numbers(entry, bad):
    name, _, _, keep = NUMBERS[entry]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be"):
        keep(bad)


@pytest.mark.parametrize("bad", [0.0, -1.0])
@pytest.mark.parametrize(
    "entry", [entry for entry, rule in NUMBERS.items() if rule[2]]
)
def test_positive_number_rejects_nonpositive(entry, bad):
    name, _, _, keep = NUMBERS[entry]
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be positive"):
        keep(bad)


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: sim(beta_true="10"), "beta_true"),
        (lambda: sim(alpha_levels="0.1"), "alpha_levels"),
        (lambda: sim(methods="lr"), "methods"),
        (lambda: Restriction((2,), "0"), "restriction values"),
        (lambda: Restriction("2", (0.0,)), "restriction indices"),
        (lambda: sim(beta_true=5), "beta_true"),
        (lambda: Restriction(2, (0.0,)), "restriction indices"),
    ],
)
def test_sequence_field_rejects_strings_and_scalars(build, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be a sequence"):
        build()


def test_sim_config_checks_the_null_design():
    with pytest.raises(ValueError, match="beta_true must equal the restriction"):
        sim(beta_true=(0.8, 0.3, 1.0))
    assert sim(beta_true=(0.8, 0.5, 1.0), restriction=Restriction((2,), (0.5,)))
