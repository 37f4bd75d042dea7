import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forests
from oracles import roc_brute_force
from treelets import ClusterLabels, Dendrogram, Graph, auc, matching_matrix, roc_from_hierarchy
from treelets.hierarchy import Merge, cut
from treelets.metrics import MatchingMatrix, RocCurve, roc_from_partitions


def random_tree(rng: np.random.Generator, n: int, n_merges=None) -> Dendrogram:
    if n_merges is None:
        n_merges = int(rng.integers(0, n))
    live = list(range(n))
    merges = []
    for step in range(1, n_merges + 1):
        a, b = rng.choice(len(live), size=2, replace=False)
        removed, kept = live[int(a)], live[int(b)]
        merges.append(Merge(step, removed, kept, float(rng.uniform())))
        live.remove(removed)
    return Dendrogram(n_leaves=n, merges=tuple(merges))


class TestMatchingMatrix:
    def test_three_item_example(self):
        pred = ClusterLabels(assignments=[0, 0, 1], n_clusters=2)
        mm = matching_matrix(pred, ["a", "a", "b"])
        assert (mm.tp, mm.tn, mm.fp, mm.fn) == (1, 2, 0, 0)
        assert mm.tpr == 1.0 and mm.fpr == 0.0

    def test_everything_one_cluster(self):
        pred = ClusterLabels(assignments=[0, 0, 0, 0], n_clusters=1)
        mm = matching_matrix(pred, ["a", "a", "b", "b"])
        assert mm.fn == 0 and mm.tn == 0
        assert mm.tpr == 1.0 and mm.fpr == 1.0

    def test_all_singletons(self):
        pred = ClusterLabels(assignments=[0, 1, 2], n_clusters=3)
        mm = matching_matrix(pred, ["a", "a", "b"])
        assert mm.tp == 0 and mm.fp == 0
        assert mm.tpr == 0.0 and mm.fpr == 0.0

    def test_counts_sum_to_all_pairs(self, np_rng):
        for _ in range(50):
            n = int(np_rng.integers(2, 40))
            k = int(np_rng.integers(1, n + 1))
            raw = np_rng.integers(0, k, size=n)
            raw[np_rng.permutation(n)[:k]] = np.arange(k)  # force every id used
            pred = ClusterLabels(assignments=raw, n_clusters=k)
            ref = np_rng.integers(0, 3, size=n)
            mm = matching_matrix(pred, ref)
            assert mm.total == n * (n - 1) // 2
            assert min(mm.tp, mm.fp, mm.tn, mm.fn) >= 0

    def test_graph_reference(self):
        g = Graph(4, [(0, 1), (2, 3), (1, 2)])
        pred = ClusterLabels(assignments=[0, 0, 1, 1], n_clusters=2)
        mm = matching_matrix(pred, g)
        # co-clustered: (0,1) and (2,3) are edges -> tp=2; (1,2) edge separated -> fn=1
        assert (mm.tp, mm.fn, mm.fp, mm.tn) == (2, 1, 0, 3)

    def test_size_mismatch(self):
        pred = ClusterLabels(assignments=[0, 1], n_clusters=2)
        with pytest.raises(ValueError):
            matching_matrix(pred, ["a"])
        with pytest.raises(ValueError):
            matching_matrix(pred, Graph(3, [(0, 1)]))

    def test_pair_oracle(self, np_rng):
        """Contingency shortcut equals literal enumeration of all pairs."""
        for _ in range(20):
            n = int(np_rng.integers(2, 25))
            pred_raw = np_rng.integers(0, 4, size=n)
            _, pred_ids = np.unique(pred_raw, return_inverse=True)
            pred = ClusterLabels(assignments=pred_ids, n_clusters=int(pred_ids.max()) + 1)
            ref = np_rng.integers(0, 3, size=n)
            mm = matching_matrix(pred, ref)
            tp = fp = tn = fn = 0
            for i in range(n):
                for j in range(i + 1, n):
                    same_pred = pred_ids[i] == pred_ids[j]
                    same_ref = ref[i] == ref[j]
                    tp += same_pred and same_ref
                    fp += same_pred and not same_ref
                    fn += (not same_pred) and same_ref
                    tn += (not same_pred) and not same_ref
            assert (mm.tp, mm.fp, mm.tn, mm.fn) == (tp, fp, tn, fn)


class TestRocFromHierarchy:
    def test_three_leaf_example(self):
        tree = Dendrogram(n_leaves=3, merges=(Merge(1, 0, 1, 0.9), Merge(2, 2, 1, 0.1)))
        curve = roc_from_hierarchy(tree, ["a", "a", "b"])
        assert curve.points == ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0))
        assert auc(curve) == 1.0

    def test_anchors_always_present(self, np_rng):
        tree = random_tree(np_rng, 6, n_merges=2)
        curve = roc_from_hierarchy(tree, np_rng.integers(0, 2, size=6))
        assert (0.0, 0.0) in curve.points
        assert (1.0, 1.0) in curve.points

    def test_matches_brute_force_class_reference(self, np_rng):
        for _ in range(60):
            n = int(np_rng.integers(2, 50))
            tree = random_tree(np_rng, n)
            ref = np_rng.integers(0, 4, size=n)
            assert roc_from_hierarchy(tree, ref) == roc_brute_force(tree, ref)

    def test_matches_brute_force_graph_reference(self, np_rng):
        for _ in range(40):
            n = int(np_rng.integers(2, 30))
            edges = set()
            for _ in range(int(np_rng.integers(0, 2 * n))):
                u, v = np_rng.choice(n, size=2, replace=False)
                edges.add((int(u), int(v)))
            g = Graph(n, edges)
            tree = random_tree(np_rng, n)
            assert roc_from_hierarchy(tree, g) == roc_brute_force(tree, g)

    def test_monotone(self, np_rng):
        tree = random_tree(np_rng, 30, n_merges=29)
        pts = roc_from_hierarchy(tree, np_rng.integers(0, 3, size=30)).points
        for (f0, t0), (f1, t1) in zip(pts, pts[1:]):
            assert f1 >= f0 and t1 >= t0


@st.composite
def forest_and_reference(draw, max_leaves: int = 12):
    """A forest with class labels (strings that sort unlike numbers) or an undirected graph on its leaves."""
    tree = draw(forests(max_leaves))
    n = tree.n_leaves
    if draw(st.booleans()):
        return tree, draw(st.lists(st.sampled_from(["0", "1", "10", "2"]), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return tree, Graph(n, edges)


@settings(max_examples=200, deadline=None)
@given(forest_and_reference())
def test_matching_matrix_counts_pairs_by_brute_force(case):
    tree, reference = case
    labels = cut(tree, tree.n_roots)
    a, n = labels.assignments, labels.n
    if isinstance(reference, Graph):
        positive = [[v in reference.neighbors(u).tolist() for v in range(n)] for u in range(n)]
    else:
        positive = [[reference[u] == reference[v] for v in range(n)] for u in range(n)]
    counts = {"tp": 0, "fp": 0, "tn": 0, "fn": 0}
    for u in range(n):
        for v in range(u + 1, n):
            co = a[u] == a[v]
            counts[("t" if co == positive[u][v] else "f") + ("p" if co else "n")] += 1
    assert matching_matrix(labels, reference) == MatchingMatrix(**counts)


@settings(max_examples=200, deadline=None)
@given(forest_and_reference(max_leaves=40))
def test_incremental_roc_equals_brute_force(case):
    tree, reference = case
    assert roc_from_hierarchy(tree, reference) == roc_brute_force(tree, reference)


class TestAuc:
    def test_diagonal(self):
        assert auc(RocCurve.from_points([(0, 0), (1, 1)])) == 0.5

    def test_perfect_corner(self):
        assert auc(RocCurve.from_points([(0, 0), (0, 1), (1, 1)])) == 1.0

    def test_hand_trapezoid(self):
        assert auc(RocCurve.from_points([(0, 0), (0.2, 0.8), (1, 1)])) == pytest.approx(
            0.8, abs=1e-15
        )

    def test_random_single_interior_point(self, np_rng):
        for _ in range(100):
            f = float(np_rng.uniform())
            t = float(np_rng.uniform())
            got = auc(RocCurve.from_points([(f, t)]))
            expected = f * t / 2.0 + (1.0 - f) * (t + 1.0) / 2.0
            assert got == pytest.approx(expected, abs=1e-12)


class TestRocFromPartitions:
    def test_sweep_of_flat_clusterings(self, np_rng):
        ref = np.array([0, 0, 1, 1, 2, 2])
        parts = [
            ClusterLabels(assignments=[0, 0, 1, 1, 2, 2], n_clusters=3),
            ClusterLabels(assignments=[0] * 6, n_clusters=1),
        ]
        curve = roc_from_partitions(parts, ref)
        assert (0.0, 1.0) in curve.points  # the perfect partition
        assert auc(curve) == 1.0


@st.composite
def shaped_forest_and_graph(draw):
    """A forest of up to 64 leaves, often n = 0, 1 or 2: a chain, balanced rounds of merges or random merges, stalled
    at any step or run to one tree; and an edgeless, complete or random graph on its leaves."""
    n = draw(st.one_of(st.integers(0, 2), st.integers(3, 64)))
    live = draw(st.permutations(range(n)))
    shape = draw(st.sampled_from(["chain", "balanced", "random"]))
    n_merges = max(n - 1, 0) if draw(st.booleans()) else draw(st.integers(0, max(n - 1, 0)))
    merges = []
    while len(merges) < n_merges:
        if shape == "chain":  # the first component takes the next leaf
            a, b = 0, 1
        elif shape == "balanced":  # neighbours pair off, round after round
            a, b = (0, 1) if len(live) == 2 else (len(live) - 2, len(live) - 1)
        else:
            a, b = draw(st.lists(st.integers(0, len(live) - 1), min_size=2, max_size=2, unique=True))
        if draw(st.booleans()):
            a, b = b, a
        merges.append(Merge(len(merges) + 1, live[a], live[b], 0.5))
        kept = live[b]
        del live[a]
        if shape == "balanced":  # the new component goes to the back of the round
            live.remove(kept)
            live.insert(0, kept)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    kind = draw(st.sampled_from(["edgeless", "complete", "random"]))
    edges = set() if kind == "edgeless" or not pairs else set(pairs) if kind == "complete" else draw(
        st.sets(st.sampled_from(pairs), max_size=3 * n))
    return Dendrogram(n_leaves=n, merges=tuple(merges)), Graph(n, edges)


@settings(max_examples=150, deadline=None)
@given(shaped_forest_and_graph())
def test_graph_roc_equals_brute_force_on_shaped_forests(case):
    """Ranges up to 63 leaves long read every level of the sweep's range-maximum table up to 5.  No leaves have no
    cut for the brute force to take: the curve is its two anchors."""
    tree, graph = case
    want = roc_brute_force(tree, graph) if tree.n_leaves else RocCurve.from_points([])
    assert roc_from_hierarchy(tree, graph) == want
