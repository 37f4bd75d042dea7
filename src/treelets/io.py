"""File ingestion and result emission.

CSV text is read a block of lines at a time: a quote-free block is split on
its line ends and commas, as csv.reader would split it, and from the first
line holding a quote (or over the field limit) on, csv.reader reads the
rest.  Cells matching a missing token become masked-out entries; everything
else must parse as a finite number.  Edge lists are whitespace-separated
ASCII-digit vertex id pairs, one per line; '#'-prefixed comment lines are skipped.
"""

from __future__ import annotations

import csv
import itertools
import json
from io import StringIO
from pathlib import Path

import numpy as np

from .hierarchy import ClusterLabels
from .kernels import Dataset, Graph, KernelSpec, kernel_to_dict
from .metrics import RocCurve

DEFAULT_MISSING_TOKENS = frozenset({"", "NA", "NaN"})

# guard against typo'd huge vertex ids blowing up the dense representation
MAX_VERTEX_ID = 1 << 20

# an id of more than 7 digits (leading zeros or above MAX_VERTEX_ID) goes to the line walker
_ID_DIGITS = len(str(MAX_VERTEX_ID))
_POW10 = 10 ** np.arange(_ID_DIGITS, dtype=np.int64)

# cells of one CSV block, read as 16 characters a cell.  On the 12000 x 3 and
# 1080 x 78 bench CSVs (2 vCPUs, 20 alternating calls) 1 << 10 to 1 << 14 parse
# equally fast, 12.5-12.9 and 38-40 ms at best; a cluster job on either after
# a warm-up job peaks at 47.3 and 53.5 MB with 1 << 10 or 1 << 11, 47.9 and
# 53.8 with 1 << 12, 48.8 and 54.7 with 1 << 13
_CHUNK_CELLS = 1 << 11


def _csv_blocks(path):
    """The rows of a CSV file as csv.reader gives them, streamed in blocks of about _CHUNK_CELLS cells.

    The file is read 16 * _CHUNK_CELLS characters at a time, each read cut
    after its last line end.  Opened with newline="", it ends lines where
    csv does: at a line feed, a CRLF or a lone carriage return.  A block with
    no '"' and no line longer than csv.field_size_limit() is the list of its
    lines, line ends dropped, each of which csv.reader would split on its
    commas (_row).  From the first line that is not, the rest of the file
    goes to one csv.reader, whose blocks are lists of rows.  A malformed row
    (say, a cell over the limit) raises ValueError naming the file line the
    reader had reached, once the rows before it are yielded.
    """
    limit = csv.field_size_limit()
    done, tail = 0, ""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        while True:
            chunk = fh.read(16 * _CHUNK_CELLS)
            text = tail + chunk
            # a carriage return that ends the text may be the first half of a CRLF
            cut = max(text.rfind("\n"), text.rfind("\r", 0, -1)) + 1 if chunk else len(text)
            text, tail = text[:cut], text[cut:]
            lines = (text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text).split("\n")
            if not lines[-1]:
                lines.pop()
            # a line already over the limit goes to csv.reader without waiting for its end
            if '"' in text or len(tail) > limit or max(map(len, lines), default=0) > limit:
                break
            if lines:
                done += len(lines)
                yield lines
            if not chunk:
                return
        plain = next((i for i, line in enumerate(lines) if '"' in line or len(line) > limit), len(lines))
        if plain:
            done += plain
            yield lines[:plain]
        rest = list(StringIO(text, newline=""))[plain:]
        reader = csv.reader(itertools.chain(rest, StringIO(tail + fh.readline(), newline=""), fh))
        rows, cells, fault = [], 0, None
        try:
            for row in reader:
                rows.append(row)
                cells += len(row)
                if cells >= _CHUNK_CELLS:
                    yield rows
                    rows, cells = [], 0
        except csv.Error as exc:
            fault = ValueError(f"{path}: line {done + reader.line_num}: {exc}")
        if rows:
            yield rows
        if fault:
            raise fault


def _csv_rows(path):
    """The rows of a CSV file as csv.reader gives them, one at a time: the items of _csv_blocks' blocks as rows."""
    return map(_row, itertools.chain.from_iterable(_csv_blocks(path)))


def _row(item) -> list:
    """An item of a block as a row: a csv.reader row as it is, a line split on its commas (a blank line is [])."""
    if type(item) is list:
        return item
    return item.split(",") if item else []


def _fits(lines, width: int) -> bool:
    """Whether each of a plain block's lines splits into width cells: width - 1 commas and, as one cell, not blank."""
    return set(map(str.count, lines, itertools.repeat(","))) == {width - 1} and (width > 1 or all(lines))


def _cells(lines, width: int):
    """A plain block's cells, line after line, or None unless each line splits into width cells.

    The lines are split as one string, with a line-feed cell, which no line
    holds, between each two: each line has width cells (a blank line has
    none) when those len(lines) - 1 cells are every (width + 1)-th.
    """
    flat = ",\n,".join(lines).split(",")
    if len(flat) != len(lines) * (width + 1) - 1 or flat[width :: width + 1].count("\n") != len(lines) - 1:
        return None
    if width == 1 and not all(lines):
        return None
    del flat[width :: width + 1]
    return flat


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


def _csv_body(path, has_header, missing_tokens, classes_last=False):
    """The first data row (None if there is none), the stream of blocks from it on,
    its file row number, and the header's 'label' column or None.

    has_header=None sniffs the first row with the given missing tokens.
    """
    blocks = _csv_blocks(path)
    block = next(blocks, None)
    if has_header is None:
        has_header = block is not None and _is_header(_row(block[0]), missing_tokens, classes_last)
    offset, label = 2 if has_header else 1, None
    if block is not None and has_header:
        header = [h.strip() for h in _row(block[0])]
        label = header.index("label") if "label" in header else None
        block = block[1:] or next(blocks, None)
    if block is None:
        return None, blocks, offset, label
    return _row(block[0]), itertools.chain([block], blocks), offset, label


def read_csv_numeric(path, has_header: bool | None = False, missing_tokens=DEFAULT_MISSING_TOKENS) -> Dataset:
    """Parse a rectangular numeric CSV with explicit missing-value tokens.

    has_header=None sniffs the first row with the same missing tokens.  The
    first header column named 'label' is dropped unparsed, so it may hold
    class names of any kind.  Each block of _csv_blocks is one flat list of
    cells, masked and parsed as a whole; on a fault the file is walked again
    cell by cell to name the first.
    """
    first, blocks, _, label = _csv_body(path, has_header, missing_tokens)
    if first is None:
        raise ValueError(f"{path}: no data rows")
    width = len(first)
    if label not in range(width):  # a header wider than the rows
        label = None
    n_cols = width - (label is not None)
    values, present = [], []
    for block in blocks:
        if type(block[0]) is str:
            flat = _cells(block, width)
        elif all(len(row) == width for row in block):
            flat = list(itertools.chain.from_iterable(block))
        else:
            flat = None
        if flat is None:
            break
        if label is not None:
            del flat[label::width]
        tokens = list(map(str.strip, flat))
        seen = ~np.fromiter(map(missing_tokens.__contains__, tokens), bool, len(tokens))
        cells = np.zeros(len(tokens))
        try:
            cells[seen] = list(map(float, itertools.compress(tokens, seen.tolist())))
        except ValueError:
            break
        values.append(cells.reshape(len(block), n_cols))
        present.append(seen.reshape(len(block), n_cols))
    else:
        values, present = np.concatenate(values), np.concatenate(present)
        if np.isfinite(values).all() and present.any(axis=1).all():
            return Dataset(values, present)
    raise _first_bad_cell(path, has_header, missing_tokens)


def _first_bad_cell(path, has_header, missing_tokens) -> ValueError:
    """The fault a cell-by-cell read meets first: a row of the wrong width, a bad cell, or a row with none observed."""
    first, blocks, offset, label = _csv_body(path, has_header, missing_tokens)
    cols = [c for c in range(len(first)) if c != label]
    for r, row in enumerate(map(_row, itertools.chain.from_iterable(blocks)), start=offset):
        if len(row) != len(first):
            return ValueError(f"{path}: row {r} has {len(row)} cells, expected {len(first)}")
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
    """Undirected graph from 'u v' lines of ASCII digits; ids become vertices 0..max_id.

    A plain file is parsed from the array of its bytes (_plain_edges); any
    other text, and every fault, goes to the line walker, which names the
    first bad line.
    """
    data = Path(path).read_bytes()
    pairs = _plain_edges(data)
    if pairs is None:
        pairs = _walk_edge_lines(path)
    return Graph(int(pairs.max(initial=-1)) + 1, pairs)


def _plain_edges(data: bytes):
    """The (edges, 2) int64 ids of a plain edge list, or None where the line walker must read it.

    Plain is ASCII digits, spaces, tabs and newlines, and '#' lines: lines
    whose first byte other than a space or tab is '#', of any ASCII but a
    carriage return, which a text-mode read would end a line at.  Every
    other line holds 0 or 2 ids of at most _ID_DIGITS digits, none above
    MAX_VERTEX_ID and no pair a self-loop.
    """
    if not data.isascii() or b"\r" in data:
        return None
    b = np.frombuffer(data, np.uint8)
    newlines = np.flatnonzero(b == 10)
    if b"#" in data:
        b = _blank_comments(b, newlines)
    digit = b - np.uint8(48)
    is_digit = digit < 10
    if np.count_nonzero(is_digit) + np.count_nonzero(b == 32) + np.count_nonzero(b == 9) + len(newlines) != len(b):
        return None
    flips = np.flatnonzero(np.diff(is_digit, prepend=False, append=False))
    starts, ends = flips[0::2], flips[1::2]
    lengths = ends - starts
    per_line = np.diff(np.searchsorted(starts, newlines), prepend=0, append=len(starts))
    if ((per_line != 0) & (per_line != 2)).any() or lengths.max(initial=0) > _ID_DIGITS:
        return None
    # each id's digits from its last, the j-th before it where the id is longer than j
    ids = digit[ends - 1].astype(np.int64)
    for j in range(1, lengths.max(initial=0)):
        ids += np.where(lengths > j, digit[ends - 1 - j], 0) * _POW10[j]
    pairs = ids.reshape(-1, 2)
    if (pairs[:, 0] == pairs[:, 1]).any() or (pairs > MAX_VERTEX_ID).any():
        return None
    return pairs


def _blank_comments(b: np.ndarray, newlines: np.ndarray) -> np.ndarray:
    """b with the bytes of its '#' lines, from the '#' to the line's end, set to spaces."""
    hashes = np.flatnonzero(b == 35)
    ends = np.append(newlines, len(b))[np.searchsorted(newlines, hashes)]
    first = np.flatnonzero((b != 32) & (b != 9))
    # a '#' opens a comment when it is the first byte of its line other than a space or tab
    opens = first[np.searchsorted(first, np.append(0, newlines + 1)[np.searchsorted(newlines, hashes)])] == hashes
    mark = np.zeros(len(b) + 1, np.int8)
    mark[hashes[opens]] = 1
    mark[ends[opens]] = -1
    return np.where(np.cumsum(mark[:-1], dtype=np.int8).view(bool), np.uint8(32), b)


def _walk_edge_lines(path) -> np.ndarray:
    """The (edges, 2) int64 ids of a line-by-line read of a text-mode file, or the ValueError naming its first fault."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    edges = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if len(parts) != 2 or not all(p.isascii() and p.isdigit() for p in parts):
            raise ValueError(f"{path}: line {lineno}: malformed edge {line.strip()!r}")
        # ids compared as digit strings: int() refuses more than 4300 digits
        u, v = (p.lstrip("0") or "0" for p in parts)
        if u == v:
            raise ValueError(f"{path}: line {lineno}: self-loop at vertex {_id_text(u)}")
        big = max(u, v, key=lambda t: (len(t), t))
        if len(big) > _ID_DIGITS or int(big) > MAX_VERTEX_ID:
            raise ValueError(f"{path}: line {lineno}: vertex id {_id_text(big)} too large")
        edges.append((int(u), int(v)))
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


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
    first, blocks, offset, label = _csv_body(path, has_header, DEFAULT_MISSING_TOKENS, classes_last=True)
    if first is None:
        raise ValueError(f"{path}: no data rows")
    width = len(first)
    column = width - 1 if label is None else label
    if column not in range(width):
        raise ValueError(f"{path}: row {offset} has {width} cells, none in the class column")
    classes = []
    for block in blocks:
        if type(block[0]) is str and _fits(block, width):
            if column == width - 1:
                classes += [line.rpartition(",")[2] for line in block]
            else:
                classes += [line.split(",", column + 1)[column] for line in block]
            continue
        for row in map(_row, block):
            if len(row) != width:
                raise ValueError(f"{path}: row {offset + len(classes)} has {len(row)} cells, expected {width}")
            classes.append(row[column])
    return np.array(list(map(str.strip, classes)))


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
    """Parse a labels file: checked as Dendrogram.from_json checks a tree, not converted.

    It must be a JSON object whose 'labels' is a list of JSON integers and
    whose 'n_clusters' is a JSON integer between 1 and the number of labels.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError(f"{path}: labels file is nested too deeply") from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: labels file is not a JSON object")
    labels, n_clusters = payload.get("labels"), payload.get("n_clusters")
    if not isinstance(labels, list) or not all(type(x) is int for x in labels):
        raise ValueError(f"{path}: 'labels' is not a list of JSON integers")
    # bounded before any conversion, so no value can overflow an int64
    if type(n_clusters) is not int or not 1 <= n_clusters <= len(labels):
        raise ValueError(f"{path}: 'n_clusters' is not a JSON integer between 1 and the number of labels")
    if not all(0 <= x < n_clusters for x in labels):
        raise ValueError(f"{path}: 'labels' holds a cluster id outside 0..{n_clusters - 1}")
    return ClusterLabels(assignments=np.array(labels, dtype=np.int64), n_clusters=n_clusters)


def write_roc_csv(path, curve: RocCurve) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("fpr,tpr\n")
        for fpr, tpr in curve.points:
            fh.write(f"{fpr:.10g},{tpr:.10g}\n")
