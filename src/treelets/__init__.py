"""Hierarchical clustering by treelet decomposition of kernel matrices.

Build a symmetric positive semi-definite similarity matrix with a kernel,
peel it apart with greedy plane rotations into a multiscale basis and merge
tree, cut the tree at any level for flat clusters, and extend labels from a
subsample to the rest of the data by kernel-distance nearest neighbors.
"""

__version__ = "0.1.0"

from .baseline import kmeans, zscore_normalize
from .core import (
    RotationRecord,
    TreeletDecomposition,
    apply_basis,
    compress,
    decompose,
    select_pair,
)
from .datagen import Aniso, Blobs, Circles, Moons, Uniform, Varied, generate
from .extend import KtConfig, KtResult, fit_predict, kernel_distance, knn_extend, sample_indices
from .hierarchy import ClusterLabels, Dendrogram, cut, cut_at_score, merge_tree
from .kernels import (
    Dataset,
    Graph,
    GraphKernel,
    KernelSpec,
    LinearKernel,
    MissingRbfKernel,
    PolynomialKernel,
    RbfKernel,
    check_spsd,
    eval_kernel,
    gram,
    graph_kernel_for,
)
from .metrics import MatchingMatrix, RocCurve, auc, matching_matrix, roc_from_hierarchy
from .rng import SplitMix64
from .symmat import RotationCoeffs, SymMatrix, apply_rotation, jacobi_coeffs

__all__ = [
    "__version__",
    "Aniso",
    "Blobs",
    "Circles",
    "ClusterLabels",
    "Dataset",
    "Dendrogram",
    "Graph",
    "GraphKernel",
    "KernelSpec",
    "KtConfig",
    "KtResult",
    "LinearKernel",
    "MatchingMatrix",
    "MissingRbfKernel",
    "Moons",
    "PolynomialKernel",
    "RbfKernel",
    "RocCurve",
    "RotationCoeffs",
    "RotationRecord",
    "SplitMix64",
    "SymMatrix",
    "TreeletDecomposition",
    "Uniform",
    "Varied",
    "apply_basis",
    "apply_rotation",
    "auc",
    "check_spsd",
    "compress",
    "cut",
    "cut_at_score",
    "decompose",
    "eval_kernel",
    "fit_predict",
    "generate",
    "gram",
    "graph_kernel_for",
    "jacobi_coeffs",
    "kernel_distance",
    "kmeans",
    "knn_extend",
    "matching_matrix",
    "merge_tree",
    "roc_from_hierarchy",
    "sample_indices",
    "select_pair",
    "zscore_normalize",
]
