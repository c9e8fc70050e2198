import types

import wmgraph

# The public surface: a name added or removed here is a change to it, to be
# justified where the change is recorded.
PUBLIC = [
    "AssembledGraph", "CadlagStepPath", "CodedSpace", "ComponentView",
    "EdgeCompareReport", "ExcursionDecomposition", "GridPath",
    "GwForestStats", "IdentityReport", "LifoTrace", "LimitParams",
    "MarkovTrace", "PinchSetup", "PsiReport", "RegimeReport",
    "ScalingTriple", "StepFunction", "WeightSeq", "aldous_limic_params",
    "assemble_graph", "assign_pinches", "check_regime", "chi_square_gof",
    "coded_metric", "color_blue_red", "connected_components", "continuum",
    "decompose_with_masses", "default_truncation", "direct_graph",
    "edge_marginal_compare", "edge_probability", "er_limit_params",
    "excursions", "excursions_above_zero", "extinction_profile",
    "gen_er_triple", "gen_powerlaw_triple", "ghp_upper_bound",
    "graph_distances", "gw_forest_stats", "gw_generation_sizes",
    "height_of_path", "ks_two_sample", "largest_root", "lifo_coder",
    "limit_masses", "markov_coder", "modulus_of_continuity", "mu_w_pmf",
    "paths", "pinched_matrix", "powerlaw_alpha0", "psi_eval", "psi_report",
    "sample_direct", "sample_offspring_counts", "sample_pinches", "scaling",
    "sigma_r", "simulate_lifo", "simulate_limit_Y", "simulate_markov",
    "stat_harness", "tree_distance", "verify_embedding", "weights",
    "write_matrix_csv",
]
SUBMODULES = ["coded_metric", "continuum", "direct_graph", "excursions",
              "lifo_coder", "markov_coder", "paths", "scaling",
              "stat_harness", "weights"]


def test_public_surface_is_pinned():
    assert sorted(wmgraph.__all__) == PUBLIC
    assert len(PUBLIC) == 68
    assert [n for n in PUBLIC
            if isinstance(getattr(wmgraph, n), types.ModuleType)] == SUBMODULES
