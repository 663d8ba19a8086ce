"""Incomplete multi-view clustering via graph-regularized sparse matrix
factorization, plus the evaluation pipeline around it."""

__version__ = "0.1.0"

from .dataset import (
    MaskSpec,
    MultiViewDataset,
    ViewMatrix,
    apply_mask,
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
)
from .metrics import (
    ClusteringResult,
    accuracy,
    evaluate_clustering,
    nmi,
    purity,
)
from .harness import (
    ExperimentConfig,
    RunRecord,
    run_experiment,
    write_results,
    write_trace,
    write_traces,
)

__all__ = [
    "MaskSpec",
    "MultiViewDataset",
    "ViewMatrix",
    "apply_mask",
    "load_dataset",
    "normalize_views",
    "save_dataset",
    "FusedGraph",
    "build_fused_graphs",
    "gaussian_knn_graph",
    "SolverConfig",
    "SolverState",
    "fit",
    "ClusteringResult",
    "accuracy",
    "evaluate_clustering",
    "nmi",
    "purity",
    "ExperimentConfig",
    "RunRecord",
    "run_experiment",
    "write_results",
    "write_trace",
    "write_traces",
]
