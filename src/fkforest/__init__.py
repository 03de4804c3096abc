"""Exact combinatorics of interacting-particle genealogies and finite
ensemble-size expansions of their moment measures.

The package splits into a combinatorial layer (colored forests, of which
plain leveled forests are the white-topped case, orbit counts,
generating-function censuses), an exact linear
algebra layer over finite-state weighted Markov models (signed measures
and tensor functions with rational entries), the expansion engines that
tie the two together, and two independent ground truths: a sampling-free
configuration dynamic program and a seeded Monte Carlo simulator.

`import fkforest` loads no submodule: each public name below loads its
module the first time it is read (PEP 562).  `import fkforest.cli` loads
what `count`, `expand` and `oracle` run: `cli`, `combinatorics`,
`config`, `errors`, `expansion`, `fk_core`, `genfunc`, `jsontext`,
`models` and `particle`, and no tree type.  The cross-check routes load
on first use: `selfcheck` (the `verify` checks), `montecarlo`,
`fluctuation` (block law, Wick pairing, centered moments), `classsum`
(class listing and class sum, on the trees of `colored_forest`) and
`series` (truncated series censuses).  No module but `cli` imports `cli`.
"""

__version__ = "0.1.0"

# public name -> the module that defines it
_HOMES = {name: module for module, names in (
    ("combinatorics", "bell_number compositions falling_factorial "
     "set_partitions stirling_first stirling_second"),
    ("config", "Caps DEFAULT_CAPS"),
    ("errors", "CapExceeded IdentityMismatch InvalidParameter ToolkitError "
     "ValidationError"),
    ("colored_forest", "ColoredForest ColoredMapSeq ColoredTree black "
     "black_chain white white_topped_chain"),
    ("classsum", "brute_force_colored_orbit_count build_wick_forest "
     "closed_form_low_orders colored_forest_of colored_planar_mapseq "
     "count_colored_jungles delta_colored enumerate_colored_forests "
     "enumerate_colored_orbits first_order_path_forest wick_colored_tree"),
    ("genfunc", "count_forests flat_blocks flat_pairs normalize_path_profile "
     "path_profile_bar"),
    ("series", "SparseSeries coalescence_series hilbert_series "
     "marginalize_coalescence"),
    ("fk_core", "FKModel Flow SignedMeasure TensorFunction center_function "
     "constant_function eta_tensor fiber_count flow format_scalar "
     "function_from_vector gamma_tensor is_centered measure_from_vector "
     "partition_sums q_operator tensor_minus_dot_tv"),
    ("particle", "config_count exact_config_distribution exact_EN_oracle "
     "exact_eta_tensor_oracle exact_PN_oracle exact_QN_dot_oracle "
     "exact_QN_oracle"),
    ("montecarlo", "estimators mc_gamma_mean simulate"),
    ("expansion", "ExpansionReport exact_QN expansion_report_Q "
     "expansion_report_path_Q path_exact_QN path_max_order"),
    ("fluctuation", "centered_moment_expansion derivative_P "
     "expansion_report_P first_order_P gaussian_covariance "
     "gaussian_product_moment gbar_vector pair_partitions path_derivative_Q "
     "path_wick_Q"),
    ("models", "DOCUMENTED_FLOW bundled_model bundled_names "
     "check_documented_flow load_model model_sha256 random_rational_model"),
) for name in names.split()}

__all__ = sorted(_HOMES)


def __getattr__(name: str) -> object:
    if name not in _HOMES:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    from importlib import import_module
    return getattr(import_module("." + _HOMES[name], __name__), name)


def __dir__() -> list:
    return sorted(set(globals()) | set(_HOMES))
