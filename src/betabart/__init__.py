"""Beta regression with small-sample corrections for likelihood-ratio tests."""

from importlib.resources import files

from .cumulants import (
    BartlettFactor,
    CumulantTensors,
    NonFiniteCumulantError,
    ObsQuantities,
    bartlett_factor,
    cumulant_tensors,
    epsilon_lawley_direct,
    epsilon_matrix,
    loglik_derivative_tensors,
    obs_quantities,
)
from .fit import (
    FitError,
    FitOptions,
    FitResult,
    NonConvergenceError,
    Restriction,
    SingularInformationError,
    fit_mle,
    fit_restricted,
)
from .inference import (
    BootstrapFailureError,
    BootstrapOptions,
    NestingError,
    TestReport,
    bartlett_corrected,
    lr_statistic,
    run_test,
)
from .model import Dataset, LinkFunction, ParamVector, logit_link
from .simulate import (
    MomentTable,
    SimConfig,
    SimResult,
    SimulationError,
    StatMoments,
    StatQuantiles,
    design_matrix,
    gen_beta_sample,
    null_moments,
    power_study,
    size_study,
    write_archive_csv,
    write_rates_csv,
)
from .specfun import chisq_sf, log_gamma, polygamma

__version__ = "0.1.0"


def food_data_path() -> str:
    """Path to the bundled food expenditure dataset (38 households)."""
    return str(files("betabart") / "data" / "food.csv")


__all__ = [
    "BartlettFactor",
    "BootstrapFailureError",
    "BootstrapOptions",
    "CumulantTensors",
    "Dataset",
    "FitError",
    "FitOptions",
    "FitResult",
    "LinkFunction",
    "MomentTable",
    "NestingError",
    "NonConvergenceError",
    "NonFiniteCumulantError",
    "ObsQuantities",
    "ParamVector",
    "Restriction",
    "SimConfig",
    "SimResult",
    "SimulationError",
    "SingularInformationError",
    "StatMoments",
    "StatQuantiles",
    "TestReport",
    "bartlett_corrected",
    "bartlett_factor",
    "chisq_sf",
    "cumulant_tensors",
    "design_matrix",
    "epsilon_lawley_direct",
    "epsilon_matrix",
    "fit_mle",
    "fit_restricted",
    "food_data_path",
    "gen_beta_sample",
    "log_gamma",
    "logit_link",
    "loglik_derivative_tensors",
    "lr_statistic",
    "null_moments",
    "obs_quantities",
    "polygamma",
    "power_study",
    "run_test",
    "size_study",
    "write_archive_csv",
    "write_rates_csv",
    "__version__",
]
