"""Hierarchical clustering by treelet decomposition of kernel matrices.

Build a symmetric positive semi-definite similarity matrix with a kernel,
peel it apart with greedy plane rotations into a multiscale basis and merge
tree, cut the tree at any level for flat clusters, and extend labels from a
subsample to the rest of the data by kernel-distance nearest neighbors.
"""

__version__ = "0.1.0"

from .baseline import kmeans, zscore_normalize
from .core import (
    RotationCoeffs,
    RotationRecord,
    TreeletDecomposition,
    apply_basis,
    compress,
    decompose,
    jacobi_coeffs,
)
from .datagen import Aniso, Blobs, Circles, Moons, Uniform, Varied, generate
from .extend import KtConfig, KtResult, fit_predict, knn_extend, sample_indices
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
    SymMatrix,
    check_spsd,
    gram,
    graph_kernel_for,
)
from .metrics import MatchingMatrix, RocCurve, auc, matching_matrix, roc_from_hierarchy
from .rng import SplitMix64

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
    "auc",
    "check_spsd",
    "compress",
    "cut",
    "cut_at_score",
    "decompose",
    "fit_predict",
    "generate",
    "gram",
    "graph_kernel_for",
    "jacobi_coeffs",
    "kmeans",
    "knn_extend",
    "matching_matrix",
    "merge_tree",
    "roc_from_hierarchy",
    "sample_indices",
    "zscore_normalize",
]
