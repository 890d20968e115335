"""The package's public names."""

import compodna

PUBLIC_NAMES = {
    # symbols
    "AlphabetParams", "CompositeMatrix", "CompositeSymbol", "alphabet_size", "enumerate_symbols",
    "largest_remainder_apportion", "rank_symbol", "restricted_symbol_count", "unrank_symbol",
    # rll
    "BoundReport", "RllParams", "RllUpperBounds", "bound_report", "count_rll_brute", "count_rll_exact",
    "forbidden_block_count", "is_run_length_limited", "lll_premises_hold", "redundancy_exact",
    "redundancy_lower_bound", "redundancy_trivial_bound", "redundancy_upper_bounds", "sweep_csv_rows",
    "verify_summation_identities", "window_count_closed_form",
    # marker
    "CodewordCheck", "FragmentClass", "InvalidCodewordError", "LayoutMap", "MarkerCodeParams",
    "OptimalMarkerLength", "asymptotic_optimal_ell", "classify_fragment", "code_redundancy_formula",
    "construct_codeword", "continuous_redundancy", "decode_matrix", "is_valid_codeword", "layout",
    "measured_code_redundancy", "message_radices", "optimal_marker_length",
    # channel
    "AlignmentResult", "AtMostT", "BreakModel", "ChannelConfig", "ExactlyT", "ExperimentReport", "PerBond",
    "TraceStats", "ZeroCoverageError", "align_and_count", "apply_breaks_traced", "estimate_matrix",
    "random_message", "run_experiment", "run_experiment_traced", "sample_fragments", "substream", "synthesize",
}


def test_all_is_the_pinned_public_set():
    assert len(PUBLIC_NAMES) == 60
    assert set(compodna.__all__) == PUBLIC_NAMES
    assert len(compodna.__all__) == len(PUBLIC_NAMES)

