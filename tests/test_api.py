"""The public API, pinned: adding or removing a name changes this test."""

import flipproc


def test_public_names():
    assert sorted(flipproc.__all__) == [
        "CapExceeded", "CoeffVector", "EquivalenceVerdict", "GraphCode",
        "IntegrationError", "K1_BANNER", "OrbitClass", "RootedGraph",
        "RootedPairGraph", "Rule", "RuleValidationError", "SimConfig",
        "SimResult", "StepKernel", "Trajectory", "UniquenessVerdict",
        "apply_perm", "apply_perm_graph", "block_densities", "blowup",
        "canonical_class", "check_k1", "classify_unique", "codes",
        "coeff_vector", "compare", "constant_kernel", "count_rrr_maps",
        "density_formula_check", "dilation_factor", "dynamics",
        "enumerate_classes", "equivalence",
        "ignorant_edge_count", "integrate", "is_deterministic", "is_symmetric",
        "is_twinfree", "kernel_from_json", "kernel_to_json", "lift",
        "lipschitz_constant", "load_kernel", "load_rule", "make_named",
        "max_block_dev", "num_pairs", "pair_index", "pair_list",
        "parse_rule_json", "part_sizes", "result_to_csv", "rooted",
        "rooted_density", "rooted_version", "rule_from_json_obj",
        "rule_problems", "rule_to_json", "rule_to_json_obj", "rules", "run",
        "run_seed", "sample_graph", "save_rule", "simulate", "symmetrize",
        "transference_check", "twin_classes", "validate", "velocity", "vstar",
    ]
