"""Incomplete multi-view clustering via graph-regularized sparse matrix
factorization, plus the evaluation pipeline around it."""

__version__ = "0.1.0"

from .dataset import (
    MaskSpec,
    MultiViewDataset,
    ViewMatrix,
    apply_mask,
    apply_paired_sample_mask,
    apply_random_missing_mask,
    load_dataset,
    normalize_views,
    save_dataset,
)
from .graph import (
    FusedGraph,
    build_fused_graphs,
    gaussian_knn_graph,
)
from .solver import (
    SolverConfig,
    SolverState,
    fit,
    initialize,
    load_state,
    objective,
    save_state,
    update_basis,
    update_codes,
    update_consensus,
    update_weights,
    view_costs,
    write_trace,
)
from .metrics import (
    ClusteringResult,
    accuracy,
    evaluate_clustering,
    kmeans,
    nmi,
    purity,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    run_ablation,
    run_experiment,
    write_results,
    write_traces,
)

__all__ = [
    "MaskSpec",
    "MultiViewDataset",
    "ViewMatrix",
    "apply_mask",
    "apply_paired_sample_mask",
    "apply_random_missing_mask",
    "load_dataset",
    "normalize_views",
    "save_dataset",
    "FusedGraph",
    "build_fused_graphs",
    "gaussian_knn_graph",
    "SolverConfig",
    "SolverState",
    "fit",
    "initialize",
    "load_state",
    "objective",
    "save_state",
    "update_basis",
    "update_codes",
    "update_consensus",
    "update_weights",
    "view_costs",
    "write_trace",
    "ClusteringResult",
    "accuracy",
    "evaluate_clustering",
    "kmeans",
    "nmi",
    "purity",
    "ExperimentConfig",
    "RunRecord",
    "run_ablation",
    "run_experiment",
    "write_results",
    "write_traces",
]
