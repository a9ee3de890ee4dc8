"""Distribution-derived Orlicz norms and two-sided bounds for expectations
of k-th order statistics of weighted i.i.d. sequences, with Monte Carlo and
exact oracles for every inequality involved."""

from .bounds import (
    C0_GAUSSIAN,
    C1_LOWER,
    KMAX_UPPER_C_DEFAULT,
    KMIN_UPPER_FACTOR,
    MAX1_C_HIGH_DEFAULT,
    MAX1_C_LOW_DEFAULT,
    BoundConstants,
    BoundReport,
    kth_max_bounds,
    kth_min_bounds,
    kth_min_bounds_gaussian,
    kth_min_moment_lower,
    max_bounds,
    min_moment_upper,
)
from .distributions import (
    DistributionModel,
    Gaussian,
    SymExponential,
    TabulatedSurvival,
    check_tail_integral_bound,
    parse_distribution,
)
from .errors import (
    DomainError,
    InfeasibleError,
    NonConvexError,
    NumericError,
    OrliczBoundsError,
    PartitionError,
    PreconditionError,
    RangeError,
    TabulationError,
    UnboundedNormError,
)
from .montecarlo import (
    MonteCarloEstimate,
    check_kmax_split,
    check_kth_min_tail,
    check_min_survival_product,
    check_subset_product_chain,
    check_symmetric_tail_bound,
    elementary_symmetric,
    estimate_order_stats,
    kth_min_tail_threshold,
)
from .orlicz import (
    OrliczFunction,
    expected_overshoot_function,
    gaussian_comparison_function,
    linear_function,
    neg_log_survival_function,
    orlicz_norm,
    power_function,
    reciprocal_survival_function,
    young_conjugate,
)
from .partition import PartitionResult, build_partition, verify_partition
from .reporting import CheckResult

__version__ = "0.1.0"
