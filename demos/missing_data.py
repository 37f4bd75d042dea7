"""Clustering observations with missing attributes, versus a kmeans sweep.

The similarity of two rows is an RBF over only the attributes both rows
observed (mean squared difference over the shared index set, sharpened by
gamma=32), so no imputation enters the clustering itself.  Columns are
z-scored over their present entries first.  The kmeans baseline cannot take
masked data, so for it the missing entries are explicitly mean-imputed
(zero after z-scoring) -- that choice is visible here, not buried.

Both methods are scored by pairwise ROC against the class labels: the
hierarchy contributes one point per cut level, the baseline one point per
swept cluster count k = 1..40.

Uses the public protein-expression CSV when present (argv[1] or
data/Data_Cortex_Nuclear.csv); otherwise synthesizes data with the same
shape: repeated measurements of grouped subjects, some attribute bands
missing.
"""

import sys
import time
from pathlib import Path

import numpy as np

from treelets import (
    Dataset,
    MissingRbfKernel,
    auc,
    decompose,
    gram,
    kmeans,
    merge_tree,
    roc_from_hierarchy,
    zscore_normalize,
)
from treelets.io import _csv_rows
from treelets.metrics import roc_from_partitions

KMEANS_SWEEP = range(1, 41)


def load_protein_csv(path):
    """77 numeric protein columns + the class column of the UCI export."""
    rows = list(_csv_rows(path))
    header = [h.strip().lower() for h in rows[0]]
    meta = {"mouseid", "genotype", "treatment", "behavior", "class"}
    numeric_cols = [i for i, h in enumerate(header) if h not in meta]
    class_col = header.index("class")
    values = np.zeros((len(rows) - 1, len(numeric_cols)))
    present = np.zeros_like(values, dtype=bool)
    classes = []
    for r, row in enumerate(rows[1:]):
        classes.append(row[class_col].strip())
        for c, col in enumerate(numeric_cols):
            token = row[col].strip()
            if token not in ("", "NA", "NaN"):
                values[r, c] = float(token)
                present[r, c] = True
    return Dataset(values, present), np.array(classes)


def synthetic_grouped_data(n=1080, p=77, n_classes=8, seed=3):
    """Classes as elongated 1-D manifolds: chainable for a hierarchy, but not
    coverable by spherical centroid cells, so the comparison has teeth."""
    rng = np.random.default_rng(seed)
    classes = np.repeat(np.arange(n_classes), n // n_classes)
    directions = rng.normal(0.0, 1.0, (n_classes, p))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    offsets = rng.normal(0.0, 1.0, (n_classes, p)) * 0.5
    t = rng.uniform(-6.0, 6.0, n)
    values = offsets[classes] + t[:, None] * directions[classes] + rng.normal(0.0, 0.12, (n, p))
    present = np.ones(values.shape, dtype=bool)
    for r in range(0, n, 7):  # drop an attribute band now and then
        c0 = int(rng.integers(0, p - 10))
        present[r, c0 : c0 + 9] = False
    return Dataset(np.where(present, values, 0.0), present), classes.astype(str)


def main():
    if len(sys.argv) > 1:
        path = Path(sys.argv[1])
    else:
        path = Path(__file__).resolve().parent.parent / "data" / "Data_Cortex_Nuclear.csv"
    if path.exists():
        data, classes = load_protein_csv(path)
        print(f"loaded {path.name}: {data.n} rows, {data.p} attributes, "
              f"{(~data.present).sum()} missing cells")
    else:
        data, classes = synthetic_grouped_data()
        print(f"no CSV found; synthetic grouped data: {data.n} rows, {data.p} attributes, "
              f"{(~data.present).sum()} missing cells")

    normalized = zscore_normalize(data)

    t0 = time.perf_counter()
    a0 = gram(MissingRbfKernel(gamma=32.0), normalized, range(normalized.n))
    d = decompose(a0.data)
    tree = merge_tree(d)
    kt_auc = auc(roc_from_hierarchy(tree, classes))
    print(f"hierarchy: {d.stop_level} merges of {normalized.n - 1} possible "
          f"({time.perf_counter() - t0:.1f}s), AUC {kt_auc:.6f}")

    t0 = time.perf_counter()
    imputed = Dataset(np.where(normalized.present, normalized.values, 0.0))
    partitions = [kmeans(imputed, k, seed=0) for k in KMEANS_SWEEP]
    km_auc = auc(roc_from_partitions(partitions, classes))
    print(f"kmeans sweep k=1..{KMEANS_SWEEP.stop - 1} on mean-imputed data "
          f"({time.perf_counter() - t0:.1f}s), AUC {km_auc:.6f}")

    verdict = "beats" if kt_auc > km_auc else "does not beat"
    print(f"masked-kernel hierarchy {verdict} the imputing baseline")


if __name__ == "__main__":
    main()
