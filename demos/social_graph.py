"""Multiscale clustering of a friendship graph, scored by ROC over all levels.

The kernel is adjacency-based: the diagonal is the maximum vertex degree
(which makes the similarity matrix diagonally dominant, hence PSD), friends
score 1, strangers 0.  Every cut of the merge tree yields one
(false-positive-rate, true-positive-rate) point against the edge relation;
the area under that curve summarizes how faithfully the whole hierarchy
tracks the network.

Uses the public SNAP facebook_combined.txt edge list when present (pass its
path as argv[1] or place it at data/facebook_combined.txt); otherwise falls
back to a synthetic planted-community graph with the same flavor.
"""

import sys
import time
from pathlib import Path

from treelets import Graph, auc, decompose, graph_kernel_for, gram, merge_tree, roc_from_hierarchy
from treelets.io import read_edge_list, write_roc_csv
from treelets.rng import SplitMix64


def synthetic_community_graph(n=600, n_blocks=6, n_edges=6000, seed=0) -> Graph:
    rng = SplitMix64(seed)
    block = [i * n_blocks // n for i in range(n)]
    members = [[v for v in range(n) if block[v] == b] for b in range(n_blocks)]
    edges = set()
    while len(edges) < n_edges:
        u = rng.below(n)
        if rng.uniform() < 0.9:
            v = members[block[u]][rng.below(len(members[block[u]]))]
        else:
            v = rng.below(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


def main():
    if len(sys.argv) > 1:
        path = Path(sys.argv[1])
    else:
        path = Path(__file__).resolve().parent.parent / "data" / "facebook_combined.txt"
    if path.exists():
        graph = read_edge_list(path)
        print(f"loaded {path.name}: {graph.n_vertices} vertices, {graph.n_edges} edges")
    else:
        graph = synthetic_community_graph()
        print(f"no edge file found; synthetic communities: "
              f"{graph.n_vertices} vertices, {graph.n_edges} edges")

    kernel = graph_kernel_for(graph)
    print(f"kernel diagonal = max degree = {kernel.diag:.0f}")

    t0 = time.perf_counter()
    a0 = gram(kernel, graph, range(graph.n_vertices))
    tree = merge_tree(decompose(a0.data))
    curve = roc_from_hierarchy(tree, graph)
    elapsed = time.perf_counter() - t0

    out = Path("graph_roc.csv")
    write_roc_csv(out, curve)
    print(f"hierarchy of {len(tree.merges)} merges in {elapsed:.1f}s")
    print(f"ROC written to {out} ({len(curve.points)} points)")
    print(f"AUC {auc(curve):.6f}")


if __name__ == "__main__":
    main()
