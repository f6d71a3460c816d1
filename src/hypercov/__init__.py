"""Coverage statistics for Latin hypercube and orthogonal sampling designs.

Exact rational expectations, closed-form laws with error bounds, pinned
reproducible samplers, Monte Carlo estimation, brute-force oracles, and
threshold sweeps, with a CSV-first command line.
"""

__version__ = "0.1.0"

from .design import DesignSpec, Units
from .exact import (
    IntersectionKind,
    KindParams,
    expected_coverage_multiset,
    expected_intersection,
    kind_params,
)
from .errors import (
    CapExceededError,
    GuardExceededError,
    HypercovError,
    InvalidModeError,
    StructuralError,
    UnsupportedSpecError,
)
from .laws import (
    BracketReport,
    ErrorBounds,
    asymptotic_coverage,
    bracket_exact_vs_asymptotic,
    error_bounds,
    iid_coverage,
    lambda_for,
    lambda_fraction,
    projection_lambda,
)
from .oracle import (
    CheckResult,
    EnumeratedTrialSet,
    default_verification_suite,
    enumerate_trials,
    occurrence_counts,
    oracle_expected_coverage,
    oracle_expected_intersection,
)
from .sampling import SampleKind, SamplerConfig, gen_trials
from .simulate import (
    CoverageReport,
    SimPlan,
    coverage_curve,
    simulate_coverage,
    summarize,
)
from .sweep import (
    FitResult,
    SweepMode,
    SweepResult,
    find_k_for_target,
    fit_slope,
    run_sweep,
)
