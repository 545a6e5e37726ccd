"""Flip processes on dense graphs: exact rule-equivalence certificates,
uniqueness classification with witnesses, graphon trajectory integration,
and Monte Carlo simulation of the finite process.
"""

from .codes import (
    CapExceeded,
    GraphCode,
    OrbitClass,
    RootedPairGraph,
    apply_perm,
    apply_perm_graph,
    canonical_class,
    enumerate_classes,
    num_pairs,
    pair_index,
    pair_list,
)
from .rooted import (
    RootedGraph,
    blowup,
    count_rrr_maps,
    density_formula_check,
    is_twinfree,
    rooted_density,
    rooted_version,
    twin_classes,
    vstar,
)
from .rules import (
    Rule,
    RuleValidationError,
    ignorant_edge_count,
    is_deterministic,
    is_symmetric,
    load_rule,
    make_named,
    parse_rule_json,
    rule_from_json_obj,
    rule_problems,
    rule_to_json,
    rule_to_json_obj,
    save_rule,
    validate,
)
from .equivalence import (
    K1_BANNER,
    CoeffVector,
    EquivalenceVerdict,
    UniquenessVerdict,
    check_k1,
    classify_unique,
    coeff_vector,
    compare,
    dilation_factor,
    lift,
    symmetrize,
)
from .dynamics import (
    IntegrationError,
    StepKernel,
    Trajectory,
    constant_kernel,
    integrate,
    kernel_from_json,
    kernel_to_json,
    lipschitz_constant,
    load_kernel,
    max_block_dev,
    velocity,
)
from .simulate import (
    SimConfig,
    SimResult,
    block_densities,
    part_sizes,
    result_to_csv,
    run,
    run_seed,
    sample_graph,
    transference_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
