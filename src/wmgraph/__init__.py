"""Simulation laboratory for weight-multiplicative random graphs.

The package builds the same random graph two ways, via independent edge
coins and via a LIFO queue encoding, and provides the Markovian queue
embedding, excursion decomposition, pinched coded metric spaces,
scaling-regime diagnostics, and a continuum limit-path simulator used
to certify that the constructions agree.
"""

from .coded_metric import (CodedSpace, ghp_upper_bound, pinched_matrix,
                           tree_distance, write_matrix_csv)
from .continuum import GridPath, default_truncation, limit_masses, simulate_limit_Y
from .direct_graph import (
    AssembledGraph,
    ComponentView,
    connected_components,
    edge_probability,
    graph_distances,
    sample_direct,
)
from .excursions import (
    ExcursionDecomposition,
    assign_pinches,
    decompose_with_masses,
    excursions_above_zero,
)
from .lifo_coder import (
    LifoTrace,
    PinchSetup,
    assemble_graph,
    sample_pinches,
    simulate_lifo,
)
from .markov_coder import (
    GwForestStats,
    IdentityReport,
    MarkovTrace,
    color_blue_red,
    gw_forest_stats,
    gw_generation_sizes,
    mu_w_pmf,
    sample_offspring_counts,
    simulate_markov,
    verify_embedding,
)
from .paths import CadlagStepPath, StepFunction, height_of_path, modulus_of_continuity
from .scaling import (
    PsiReport,
    RegimeReport,
    check_regime,
    extinction_profile,
    largest_root,
    psi_eval,
    psi_report,
)
from .stat_harness import EdgeCompareReport, chi_square_gof, edge_marginal_compare, ks_two_sample
from .weights import (
    LimitParams,
    ScalingTriple,
    WeightSeq,
    er_limit_params,
    gen_er_triple,
    gen_powerlaw_triple,
    powerlaw_alpha0,
    sigma_r,
)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
