"""Composite-DNA coding toolkit.

Composite symbols encode information in per-position base mixtures across
a pool of strands. This package provides the symbol algebra, counting and
redundancy bounds for run-length-limited composite sequences, a marker
code that positions fragments of singly broken strands, and an end-to-end
strand-break channel simulator.
"""

from types import ModuleType as _ModuleType

from .symbols import (
    AlphabetParams,
    CompositeMatrix,
    CompositeSymbol,
    alphabet_size,
    enumerate_symbols,
    largest_remainder_apportion,
    rank_symbol,
    restricted_symbol_count,
    unrank_symbol,
)
from .rll import (
    BoundReport,
    RllParams,
    RllUpperBounds,
    bound_report,
    count_rll_brute,
    count_rll_exact,
    forbidden_block_count,
    is_run_length_limited,
    lll_premises_hold,
    redundancy_exact,
    redundancy_lower_bound,
    redundancy_trivial_bound,
    redundancy_upper_bounds,
    sweep_csv_rows,
    verify_summation_identities,
    window_count_closed_form,
)
from .marker import (
    CodewordCheck,
    FragmentClass,
    InvalidCodewordError,
    LayoutMap,
    MarkerCodeParams,
    OptimalMarkerLength,
    asymptotic_optimal_ell,
    classify_fragment,
    code_redundancy_formula,
    construct_codeword,
    continuous_redundancy,
    decode_matrix,
    is_valid_codeword,
    layout,
    measured_code_redundancy,
    message_radices,
    optimal_marker_length,
)
from .channel import (
    AlignmentResult,
    AtMostT,
    BreakModel,
    ChannelConfig,
    ExactlyT,
    ExperimentReport,
    PerBond,
    TraceStats,
    ZeroCoverageError,
    align_and_count,
    apply_breaks_traced,
    estimate_matrix,
    random_message,
    run_experiment,
    run_experiment_traced,
    sample_fragments,
    substream,
    synthesize,
)

# The public names are exactly those imported above.
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
