"""Pareto-optimal protection levels for online allocation with convex demand advice."""

from .bounds import (
    BoundContext,
    band_gap,
    bound_context,
    g_corridor,
    l_bound,
    l_raw,
    l_tilde,
    no_advice_level,
    policy_floor,
    rho,
    u_bound,
    u_ceiling,
    u_raw,
)
from .consistency import (
    CStarResult,
    consistent_pl,
    cstar_bisection,
    cstar_enumeration,
    feasible,
)
from .engine import (
    Arrival,
    EngineState,
    offer,
    ordered_sequence,
    performance_ratio,
    run_sequence,
    unit_chunks,
)
from .errors import (
    InfeasibleTarget,
    InternalError,
    InvalidInput,
    NegativeCoordinate,
    NoSolution,
    NotPSD,
    OutOfDomain,
    PlparetoError,
    TargetOutOfRange,
    TooManyChunks,
)
from .advice import box_advice, ellipse_advice, point_advice
from .harness import (
    DemandModel,
    EvalReport,
    ExperimentConfig,
    evaluate,
    run_experiment,
    sample_demand,
)
from .pareto import ParetoSolution, solve_pareto, tradeoff_curve
from .plfunction import PLFunction, constant_pl
from .ratios import (
    DemandPoint,
    Rewards,
    balance_point,
    cp,
    cp_over_raw,
    cp_under_raw,
    hindsight_denominator,
)
from .region import (
    KeyPoints,
    MLRegion,
    build_polygon,
    contains,
    envelope,
    key_points,
    polygonize_ellipse,
    x_vertices,
)

__version__ = "0.1.0"
