"""Parabolic PDE solver on metric graphs with randomized batch decomposition."""

from .decomposition import (
    A1Report,
    BatchFamily,
    BatchView,
    SubgraphPartition,
    batch_family,
    batch_option_one,
    batch_option_two,
    batch_view,
    check_assumption_A1,
    demo_partition,
    load_batches,
    verify_unbiased,
    zeta_weights,
)
from .engine import (
    ErrorSummary,
    RbmConfig,
    RbmTrajectory,
    SampledSchedule,
    estimate_errors,
    run_full,
    run_rbm,
    sample_schedule,
)
from .errors import SolverError
from .fem import (
    CoefficientSet,
    DofMap,
    Mesh,
    SeparableSource,
    assemble,
    interpolate,
)
from .graph import Edge, MetricGraph, build_graph, demo_graph, load_graph
from .harness import (
    ExperimentRecord,
    ExperimentSpec,
    emit_csv,
    fit_slope,
    read_csv,
    run_study,
)
from .manufactured import (
    ManufacturedSolution,
    build_solution,
    demo_solution,
    derive_data,
    lambda_profile,
    manufactured_problem,
    solve_lower_coefficients,
)
from .timestep import (
    CRANK_NICOLSON,
    IMPLICIT_EULER,
    SEMI_IMPLICIT,
    SchemeKind,
    theta_method,
)

__version__ = "0.1.0"
