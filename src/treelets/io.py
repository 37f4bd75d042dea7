"""File ingestion and result emission.

CSV cells matching a missing token become masked-out entries; everything
else must parse as a finite number.  Edge lists are whitespace-separated
ASCII-digit vertex id pairs, one per line; '#'-prefixed comment lines are skipped.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

from .hierarchy import ClusterLabels
from .kernels import Dataset, Graph, KernelSpec, kernel_to_dict
from .metrics import RocCurve

DEFAULT_MISSING_TOKENS = frozenset({"", "NA", "NaN"})

# guard against typo'd huge vertex ids blowing up the dense representation
MAX_VERTEX_ID = 1 << 20

# an edge-list line: blank, a '#' comment or two ASCII-digit ids, where [^\S\n]
# is str.strip()'s whitespace less the newline; bad lines are searched for one
# at a time (a whole-text match grew an 11 MB backtracking stack on 15k lines)
_EDGE_LINE = r"[^\S\n]*(?:#.*|[0-9]+[^\S\n]+[0-9]+[^\S\n]*)?"
_BAD_EDGE_LINE = re.compile(rf"^(?!{_EDGE_LINE}$)", re.MULTILINE)
_COMMENT = re.compile(r"^[^\S\n]*#.*", re.MULTILINE)


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
    class names of any kind.  On a fault the cells are walked again to name the first.
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
            break
        tokens = [row[c].strip() for c in cols]
        present[r] = observed = [token not in missing_tokens for token in tokens]
        try:
            values[r] = [float(t) if seen else 0.0 for t, seen in zip(tokens, observed)]
        except ValueError:
            break
    else:
        if np.isfinite(values).all() and present.any(axis=1).all():
            return Dataset(values, present)
    raise _first_bad_cell(path, rows, offset, cols, missing_tokens)


def _first_bad_cell(path, rows, offset: int, cols, missing_tokens) -> ValueError:
    """The fault a cell-by-cell read meets first: a row of the wrong width, a bad cell, or a row with none observed."""
    for r, row in enumerate(rows, start=offset):
        if len(row) != len(rows[0]):
            return ValueError(f"{path}: row {r} has {len(row)} cells, expected {len(rows[0])}")
        for c in cols:
            try:
                if row[c].strip() not in missing_tokens and not np.isfinite(float(row[c].strip())):
                    return ValueError(f"{path}: row {r} column {c + 1}: non-finite value")
            except ValueError:
                return ValueError(f"{path}: row {r} column {c + 1}: cannot parse {row[c]!r}")
        if all(row[c].strip() in missing_tokens for c in cols):
            return ValueError(f"{path}: row {r} has no observed values")


def write_csv_numeric(path, data: Dataset) -> None:
    """Emit a Dataset as CSV, missing cells empty; floats use repr so a read round-trips exactly."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for values, present in zip(data.values, data.present):
            fh.write(",".join(repr(float(x)) if seen else "" for x, seen in zip(values, present)) + "\n")


def read_edge_list(path) -> Graph:
    """Undirected graph from 'u v' lines of ASCII digits; ids become vertices 0..max_id."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not _BAD_EDGE_LINE.search(text):
        tokens = (_COMMENT.sub("", text) if "#" in text else text).split()
        # floats hold every id up to 2**53 exactly and round the rest above MAX_VERTEX_ID
        ids = np.array(tokens, dtype=float).reshape(-1, 2)
        if not ((ids[:, 0] == ids[:, 1]).any() or (ids > MAX_VERTEX_ID).any()):
            return Graph(int(ids.max(initial=-1)) + 1, ids.astype(np.int64))
    raise _first_bad_line(path, text)


def _first_bad_line(path, text: str) -> ValueError:
    """The fault a line-by-line read meets first; the whole-text checks only tell that there is one."""
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
            return ValueError(f"{path}: line {lineno}: malformed edge {line.strip()!r}")
        # ids compared as digit strings: int() refuses more than 4300 digits
        u, v = (p.lstrip("0") or "0" for p in parts)
        if u == v:
            return ValueError(f"{path}: line {lineno}: self-loop at vertex {_id_text(u)}")
        big = max(u, v, key=lambda t: (len(t), t))
        if len(big) > len(str(MAX_VERTEX_ID)) or int(big) > MAX_VERTEX_ID:
            return ValueError(f"{path}: line {lineno}: vertex id {_id_text(big)} too large")


def _id_text(digits: str) -> str:
    """A vertex id for an error message, cut short when it would not fit on a line."""
    return digits if len(digits) <= 20 else f"{digits[:20]}... ({len(digits)} digits)"


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
