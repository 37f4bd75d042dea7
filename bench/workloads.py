"""Seeded inputs for the benchmark workloads.

Every input is a pure function of the seed: the generators draw from the
package's SplitMix64 stream (and, for the circles, the package's own shape
generator), so the same seed writes the same bytes on every platform.  The
program under test sees only the files written here.

`graph-ego` and `missing-mpe` are speed-only stand-ins shaped like the SNAP
Facebook ego graph and the mouse protein-expression CSV.  They are not those
data sets and their results do not reproduce acceptance criteria 8 or 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from treelets.datagen import Circles, generate
from treelets.extend import sample_indices
from treelets.rng import SplitMix64

# degrees of the ten egos of the SNAP Facebook graph; community sizes are
# proportional to them, so at full size the largest hub has ~1000 neighbours
EGO_DEGREES = (347, 1045, 227, 159, 170, 66, 792, 755, 547, 59)

# the SNAP graph has 4039 vertices and 88234 edges; a cluster job on a graph
# that size takes ~34 s on a 2-CPU box, too long to repeat often enough in
# one run for a steady median, so the benchmark scales it down at the same
# mean degree
FACEBOOK_VERTICES, FACEBOOK_EDGES = 4039, 88234
GRAPH_VERTICES = 700
GRAPH_EDGES = round(GRAPH_VERTICES * FACEBOOK_EDGES / FACEBOOK_VERTICES)

# class sizes of the protein-expression set (8 classes, 1080 rows)
MPE_CLASS_SIZES = (150, 150, 135, 135, 135, 135, 135, 105)


@dataclass(frozen=True)
class Inputs:
    """Files of one workload and the two jobs that run on them."""

    cluster_argv: list
    roc_argv: list
    outputs: dict  # role ("labels", "tree", "roc") -> path the jobs write
    size: dict = field(default_factory=dict)  # input sizes, for the record


def _apportion(total: int, weights) -> list:
    """Integer parts of `total` proportional to `weights` (largest remainder)."""
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    parts = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)), key=lambda i: (parts[i] - exact[i], i))
    for i in by_remainder[: total - sum(parts)]:
        parts[i] += 1
    return parts


def _add_distinct(edges: set, count: int, pick) -> None:
    """Add `count` new undirected edges drawn by `pick`, skipping loops and repeats."""
    added = 0
    while added < count:
        u, v = pick()
        if u == v:
            continue
        edge = (u, v) if u < v else (v, u)
        if edge not in edges:
            edges.add(edge)
            added += 1


def ego_graph(seed: int, n_vertices: int = FACEBOOK_VERTICES,
              n_edges: int = FACEBOOK_EDGES) -> list:
    """Sorted edge list of a synthetic ego-community graph.

    Ten communities, each an ego joined to all its members.  The edges left
    over are 90 % within a community (spread in proportion to its member
    pairs, so every community has the same density) and 10 % between members
    of different communities.
    """
    rng = SplitMix64(seed)
    sizes = _apportion(n_vertices - len(EGO_DEGREES), EGO_DEGREES)
    edges: set = set()
    starts = []
    vertex = 0
    for size in sizes:
        ego, first = vertex, vertex + 1
        edges.update((ego, m) for m in range(first, first + size))
        starts.append(first)
        vertex = first + size
    rest = n_edges - len(edges)
    intra = rest * 9 // 10
    pairs = [s * (s - 1) // 2 for s in sizes]
    if rest < 0 or intra > sum(pairs):
        raise ValueError(f"{n_edges} edges do not fit {n_vertices} vertices")

    for first, size, count in zip(starts, sizes, _apportion(intra, pairs)):
        _add_distinct(edges, count,
                      lambda f=first, n=size: (f + rng.below(n), f + rng.below(n)))

    members = [m for first, size in zip(starts, sizes) for m in range(first, first + size)]
    community = {m: c for c, (first, size) in enumerate(zip(starts, sizes))
                 for m in range(first, first + size)}

    def pick_between():
        u = members[rng.below(len(members))]
        v = members[rng.below(len(members))]
        # a pair inside one community comes back as a loop, which is redrawn
        return (u, u) if community[u] == community[v] else (u, v)

    _add_distinct(edges, rest - intra, pick_between)
    return sorted(edges)


def protein_like(seed: int, class_sizes=MPE_CLASS_SIZES, n_cols: int = 77):
    """Rows x columns values, presence mask and class labels, z-scored.

    Each class is a noisy 1-D segment in column space, so its rows chain
    together under a sharp kernel while distinct classes stay apart and the
    decomposition stops with one tree per class.  Cells go missing
    completely at random: 1 % in most columns, 18 % in every 16th.
    """
    rng = SplitMix64(seed)
    n_classes = len(class_sizes)
    offsets = 0.6 * np.array(rng.normals(n_classes * n_cols)).reshape(n_classes, n_cols)
    directions = np.array(rng.normals(n_classes * n_cols)).reshape(n_classes, n_cols)
    directions /= np.array([[math.sqrt(math.fsum(d * d))] for d in directions])
    labels = np.repeat(np.arange(n_classes), class_sizes)
    n_rows = len(labels)
    t = 12.0 * np.array([rng.uniform() for _ in range(n_rows)]) - 6.0
    noise = 0.06 * np.array(rng.normals(n_rows * n_cols)).reshape(n_rows, n_cols)
    values = offsets[labels] + t[:, None] * directions[labels] + noise

    missing_rate = np.where(np.arange(n_cols) % 16 == 0, 0.18, 0.01)
    draws = np.array([rng.uniform() for _ in range(n_rows * n_cols)]).reshape(n_rows, n_cols)
    present = draws >= missing_rate
    present[~present.any(axis=1), 1] = True  # every row keeps an observed cell

    # correctly rounded sums keep the bytes independent of numpy's and BLAS's
    # summation order on this CPU
    for c in range(n_cols):
        col = values[present[:, c], c]
        mean = math.fsum(col) / len(col)
        std = math.sqrt(math.fsum((col - mean) ** 2) / len(col))
        values[:, c] = (values[:, c] - mean) / std
    return values, present, labels


def _write_csv(path: Path, header, rows) -> int:
    text = ",".join(header) + "\n" + "".join(",".join(r) + "\n" for r in rows)
    path.write_text(text, encoding="utf-8")
    return len(text.encode())


def _jobs(workdir: Path, seed: int, data: Path, reference: Path, kernel: str,
          sample: str, clusters: int) -> Inputs:
    out = {"labels": workdir / "labels.json", "tree": workdir / "tree.json",
           "roc": workdir / "roc.csv"}
    cluster = ["cluster", "--input", str(data), "--kernel", kernel, "--sample-size", sample,
               "--clusters", str(clusters), "--seed", str(seed), "--threads", "1",
               "-o", str(out["labels"]), "--tree", str(out["tree"])]
    roc = ["roc", "--tree", str(out["tree"]), "--reference", str(reference),
           "-o", str(out["roc"])]
    return Inputs(cluster, roc, out)


def make_graph_ego(workdir: Path, seed: int, tiny: bool = False) -> Inputs:
    n_vertices, n_edges = (200, 1200) if tiny else (GRAPH_VERTICES, GRAPH_EDGES)
    edges = ego_graph(seed, n_vertices, n_edges)
    path = workdir / "graph.edges"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges), encoding="utf-8")
    inputs = _jobs(workdir, seed, path, path, "graph:diag=auto", "full", 10)
    inputs.size.update(vertices=n_vertices, edges=len(edges), bytes=path.stat().st_size)
    return inputs


def make_rbf_extend(workdir: Path, seed: int, tiny: bool = False) -> Inputs:
    n, n_sample = (300, 100) if tiny else (12000, 1000)
    data, truth = generate(Circles(factor=0.5, noise=0.05), n, seed)
    path = workdir / "circles.csv"
    size = _write_csv(path, ["x", "y", "label"],
                      ([repr(float(x)), repr(float(y)), str(int(lab))]
                       for (x, y), lab in zip(data.values, truth.assignments)))
    # the tree covers only the sampled rows, so the reference holds their
    # labels in the order the program sorts the sample
    rows = sorted(sample_indices(n, n_sample, seed))
    reference = workdir / "sample_labels.csv"
    _write_csv(reference, ["label"], ([str(int(truth.assignments[r]))] for r in rows))
    inputs = _jobs(workdir, seed, path, reference, "rbf:sigma=0.1", str(n_sample), 2)
    inputs.size.update(rows=n, cols=2, sample=n_sample, bytes=size)
    return inputs


def make_missing_mpe(workdir: Path, seed: int, tiny: bool = False) -> Inputs:
    class_sizes = (24,) * 8 if tiny else MPE_CLASS_SIZES
    values, present, labels = protein_like(seed, class_sizes)
    n_cols = values.shape[1]
    header = [f"protein_{c:02d}" for c in range(n_cols)] + ["label"]
    path = workdir / "proteins.csv"
    size = _write_csv(path, header, (
        [repr(float(v)) if ok else "" for v, ok in zip(vals, mask)] + [str(int(lab))]
        for vals, mask, lab in zip(values, present, labels)))
    inputs = _jobs(workdir, seed, path, path, "missing-rbf:gamma=32", "full", 8)
    inputs.size.update(rows=len(labels), cols=n_cols, missing_cells=int((~present).sum()),
                       bytes=size)
    return inputs


WORKLOADS = {
    "graph-ego": make_graph_ego,
    "rbf-extend": make_rbf_extend,
    "missing-mpe": make_missing_mpe,
}
