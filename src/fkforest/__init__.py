"""Exact combinatorics of interacting-particle genealogies and finite
ensemble-size expansions of their moment measures.

The package splits into a combinatorial layer (colored forests, of which
plain leveled forests are the white-topped case, orbit counts,
generating-function censuses), an exact linear
algebra layer over finite-state weighted Markov models (signed measures
and tensor functions with rational entries), the expansion engines that
tie the two together, and two independent ground truths: a sampling-free
configuration dynamic program and a seeded Monte Carlo simulator.
"""

from .combinatorics import (
    bell_number,
    compositions,
    falling_factorial,
    set_partitions,
    stirling_first,
    stirling_second,
)
from .config import Caps, DEFAULT_CAPS
from .errors import (
    CapExceeded,
    IdentityMismatch,
    InvalidParameter,
    ToolkitError,
    ValidationError,
)
from .colored_forest import (
    ColoredForest,
    ColoredMapSeq,
    ColoredTree,
    black,
    black_chain,
    brute_force_colored_orbit_count,
    build_wick_forest,
    colored_forest_of,
    colored_planar_mapseq,
    count_colored_jungles,
    enumerate_colored_forests,
    enumerate_colored_orbits,
    first_order_path_forest,
    flat_blocks,
    flat_pairs,
    normalize_path_profile,
    path_profile_bar,
    white,
    white_topped_chain,
    wick_colored_tree,
)
from .genfunc import (
    SparseSeries,
    coalescence_series,
    count_forests,
    hilbert_series,
    marginalize_coalescence,
)
from .fk_core import (
    FKModel,
    Flow,
    SignedMeasure,
    TensorFunction,
    center_function,
    constant_function,
    delta_colored,
    eta_tensor,
    fiber_count,
    flow,
    format_scalar,
    function_from_vector,
    gamma_tensor,
    is_centered,
    measure_from_vector,
    partition_sums,
    q_operator,
    tensor_minus_dot_tv,
)
from .particle import (
    config_count,
    estimators,
    exact_config_distribution,
    exact_EN_oracle,
    exact_eta_tensor_oracle,
    exact_PN_oracle,
    exact_QN_dot_oracle,
    exact_QN_oracle,
    mc_gamma_mean,
    simulate,
)
from .expansion import (
    ExpansionReport,
    centered_moment_expansion,
    closed_form_low_orders,
    derivative_P,
    exact_QN,
    expansion_report_P,
    expansion_report_Q,
    expansion_report_path_Q,
    first_order_P,
    gaussian_covariance,
    gaussian_product_moment,
    gbar_vector,
    pair_partitions,
    path_derivative_Q,
    path_exact_QN,
    path_max_order,
    path_wick_Q,
)
from .models import (
    DOCUMENTED_FLOW,
    bundled_model,
    bundled_names,
    check_documented_flow,
    load_model,
    model_sha256,
    random_rational_model,
)

__version__ = "0.1.0"
