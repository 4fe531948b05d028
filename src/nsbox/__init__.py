"""Exact-rational toolkit for two-input no-signaling boxes.

Builds the box polytope's constraint systems, generates its closed-form
extremal boxes, and computes exact optima of Hardy-type paradox arguments
over no-signaling and local-realistic models, all in ``fractions.Fraction``
arithmetic with zero numerical error.
"""

from .rationals import coerce_rational, format_rational, parse_rational
from .lp import (
    LinearProgram,
    LpResult,
    LpStatus,
    LpValidationError,
    exact_rank,
    solve_max,
)
from .boxes import (
    ConstraintSystem,
    JointBox,
    LinearCondition,
    Scenario,
    ValidationReport,
    box_from_json,
    box_from_json_dict,
    box_to_json,
    box_to_json_dict,
    build_normalization,
    build_nosignaling,
    build_positivity,
    is_valid_box,
    marginal,
    polytope_dimension,
    polytope_system,
    uniform_box,
)
from .vertices import (
    LocalLabel,
    NonlocalLabel,
    convex_decomposition,
    deterministic_box,
    deterministic_strategies,
    embed,
    enumerate_vertices,
    is_local,
    local_vertex,
    nonlocal_vertex,
)
from .hardy import (
    HARDY_QUANTUM_OPTIMUM,
    KIND_CONVENTIONAL,
    KIND_RELAXED,
    MAX_LHV_STRATEGIES,
    MAX_PERMUTATION_FAMILY,
    REGIME_LHV,
    REGIME_NS,
    ArgumentEvents,
    ArgumentNotSatisfied,
    HardyArgument,
    OptimizationReport,
    PnResult,
    Relabeling,
    SearchBudgetExceeded,
    argument_events,
    attaining_nonlocal_vertex,
    best_argument_with_pn,
    best_satisfied_argument,
    build_argument,
    compute_pn,
    evaluate_pp,
    format_event,
    max_success_lhv,
    max_success_ns,
    ns_program,
    permutation_family_size,
    ppc,
)

__version__ = "0.1.0"
