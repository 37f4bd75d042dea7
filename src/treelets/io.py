"""File ingestion and result emission.

CSV cells matching a missing token become masked-out entries; everything
else must parse as a finite number.  Edge lists are whitespace-separated
vertex id pairs, one per line; '#'-prefixed comment lines are skipped.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .hierarchy import ClusterLabels
from .kernels import (
    Dataset,
    Graph,
    GraphKernel,
    KernelSpec,
    LinearKernel,
    MissingRbfKernel,
    PolynomialKernel,
    RbfKernel,
)
from .metrics import RocCurve

DEFAULT_MISSING_TOKENS = frozenset({"", "NA", "NaN"})

# guard against typo'd huge vertex ids blowing up the dense representation
MAX_VERTEX_ID = 1 << 20


def _csv_rows(path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh)]


def _is_header(row, missing_tokens, classes_last: bool) -> bool:
    """A first row is a header when a cell is 'label' or a tested cell is neither a
    missing token nor a number.  With classes_last the last cell, a class name,
    is not tested.
    """
    tokens = [cell.strip() for cell in row]
    if "label" in tokens:
        return True
    for token in tokens[:-1] if classes_last else tokens:
        if token in missing_tokens:
            continue
        try:
            float(token)
        except ValueError:
            return True
    return False


def _csv_body(path, has_header, missing_tokens, classes_last=False) -> tuple[list[list[str]], int, int | None]:
    """Data rows, the file row number of the first, and the header's 'label' column or None.

    has_header=None sniffs the first row with the given missing tokens.
    """
    rows = _csv_rows(path)
    if has_header is None:
        has_header = bool(rows) and _is_header(rows[0], missing_tokens, classes_last)
    if not (has_header and rows):
        return rows, 1, None
    header = [h.strip() for h in rows[0]]
    return rows[1:], 2, header.index("label") if "label" in header else None


def read_csv_numeric(path, has_header: bool | None = False, missing_tokens=DEFAULT_MISSING_TOKENS) -> Dataset:
    """Parse a rectangular numeric CSV with explicit missing-value tokens.

    has_header=None sniffs the first row with the same missing tokens.  The
    first header column named 'label' is dropped unparsed, so it may hold
    class names of any kind.
    """
    rows, offset, label = _csv_body(path, has_header, missing_tokens)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    width = len(rows[0])
    cols = [c for c in range(width) if c != label]
    values = np.zeros((len(rows), len(cols)))
    present = np.zeros((len(rows), len(cols)), dtype=bool)
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ValueError(f"{path}: row {r + offset} has {len(row)} cells, expected {width}")
        for j, c in enumerate(cols):
            token = row[c].strip()
            if token in missing_tokens:
                continue
            try:
                x = float(token)
            except ValueError:
                raise ValueError(
                    f"{path}: row {r + offset} column {c + 1}: cannot parse {row[c]!r}"
                ) from None
            if not np.isfinite(x):
                raise ValueError(f"{path}: row {r + offset} column {c + 1}: non-finite value")
            values[r, j] = x
            present[r, j] = True
        if not present[r].any():
            raise ValueError(f"{path}: row {r + offset} has no observed values")
    return Dataset(values, present)


def write_csv_numeric(path, data: Dataset) -> None:
    """Emit a Dataset as CSV, missing cells empty; floats use repr so a read round-trips exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for r in range(data.n):
            cells = [
                repr(float(data.values[r, c])) if data.present[r, c] else ""
                for c in range(data.p)
            ]
            fh.write(",".join(cells) + "\n")


def read_edge_list(path) -> Graph:
    """Undirected graph from 'u v' lines; ids become vertices 0..max_id."""
    edges = []
    max_id = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2 or not all(p.isdigit() for p in parts):
                raise ValueError(f"{path}: line {lineno}: malformed edge {line!r}")
            u, v = int(parts[0]), int(parts[1])
            if u == v:
                raise ValueError(f"{path}: line {lineno}: self-loop at vertex {u}")
            if max(u, v) > MAX_VERTEX_ID:
                raise ValueError(f"{path}: line {lineno}: vertex id {max(u, v)} too large")
            edges.append((u, v))
            max_id = max(max_id, u, v)
    return Graph(max_id + 1, edges)


def read_class_labels(path, has_header: bool | None = False) -> np.ndarray:
    """Reference class per row from a CSV.

    Uses the column named 'label' when a header provides one, otherwise the
    last column.  Values stay categorical; no numeric parse is attempted.
    has_header=None sniffs the first row with the default missing tokens but
    never tests the last cell, which may be a class name: a one-column file
    reads as headerless unless its first cell is 'label'.
    """
    rows, _, label = _csv_body(path, has_header, DEFAULT_MISSING_TOKENS, classes_last=True)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array([row[-1 if label is None else label].strip() for row in rows])


def kernel_to_dict(spec: KernelSpec) -> dict:
    if isinstance(spec, RbfKernel):
        return {"kind": "rbf", "sigma": spec.sigma}
    if isinstance(spec, LinearKernel):
        return {"kind": "linear"}
    if isinstance(spec, PolynomialKernel):
        return {"kind": "polynomial", "alpha": spec.alpha, "c0": spec.c0, "degree": spec.degree}
    if isinstance(spec, MissingRbfKernel):
        return {"kind": "missing-rbf", "gamma": spec.gamma}
    if isinstance(spec, GraphKernel):
        return {"kind": "graph", "diag": spec.diag}
    raise TypeError(f"unknown kernel spec {spec!r}")


def write_labels_json(path, labels: ClusterLabels, seed: int, kernel: KernelSpec | None) -> None:
    payload = {
        "n": labels.n,
        "n_clusters": labels.n_clusters,
        "labels": [int(x) for x in labels.assignments],
        "seed": seed,
        "kernel": kernel_to_dict(kernel) if kernel is not None else None,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")


def read_labels_json(path) -> ClusterLabels:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return ClusterLabels(
        assignments=np.array(payload["labels"], dtype=np.int64),
        n_clusters=int(payload["n_clusters"]),
    )


def write_roc_csv(path, curve: RocCurve) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("fpr,tpr\n")
        for fpr, tpr in curve.points:
            fh.write(f"{fpr:.10g},{tpr:.10g}\n")
