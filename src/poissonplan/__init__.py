"""Rigorous sample sizes for estimating a Poisson mean.

Plans the number of i.i.d. samples needed so the empirical mean lands
within an absolute OR relative tolerance of the truth with probability
1 - delta, for every possible true mean; verifies the guarantee by exact
Poisson computation and by seeded Monte Carlo.
"""

__version__ = "0.1.0"

from .bounds import (
    chernoff_log_bound,
    chernoff_lower_tail,
    chernoff_upper_tail,
    g_exponent,
    tail_bound_abs,
    tail_bound_rel,
)
from .budget import CaseLabel, ErrorBudget, case_of
from .errors import ParameterError, ResourceLimitError
from .exact import (
    CoveragePoint,
    coverage_window,
    exact_coverage,
    exact_tail,
    poisson_cdf,
    poisson_pmf,
)
from .plan import (
    PlanResult,
    critical_exponent,
    default_lambda_grid,
    formula_sample_size,
    is_sufficient,
    lambda_grid,
    min_sample_size_exact,
    normal_approx_sample_size,
    normal_quantile,
    scan_coverage,
)
from .simulate import (
    GENERATOR_ID,
    TRIALS_CAP,
    SimConfig,
    SimResult,
    simulate_coverage,
)

__all__ = [
    "CaseLabel",
    "CoveragePoint",
    "ErrorBudget",
    "GENERATOR_ID",
    "ParameterError",
    "PlanResult",
    "ResourceLimitError",
    "SimConfig",
    "SimResult",
    "TRIALS_CAP",
    "case_of",
    "chernoff_log_bound",
    "chernoff_lower_tail",
    "chernoff_upper_tail",
    "coverage_window",
    "critical_exponent",
    "default_lambda_grid",
    "exact_coverage",
    "exact_tail",
    "formula_sample_size",
    "g_exponent",
    "is_sufficient",
    "lambda_grid",
    "min_sample_size_exact",
    "normal_approx_sample_size",
    "normal_quantile",
    "poisson_cdf",
    "poisson_pmf",
    "scan_coverage",
    "simulate_coverage",
    "tail_bound_abs",
    "tail_bound_rel",
]
