import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import forests, random_spsd
from oracles import union_find_labels
from treelets import ClusterLabels, Dendrogram, cut, cut_at_score, decompose, merge_tree
from treelets.hierarchy import Merge

BLOCK4 = [
    [1.0, 0.9, 0.0, 0.0],
    [0.9, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.8],
    [0.0, 0.0, 0.8, 1.0],
]


def groups(labels: ClusterLabels):
    return {frozenset(np.nonzero(labels.assignments == c)[0]) for c in range(labels.n_clusters)}


class TestClusterLabels:
    def test_every_id_must_be_used(self):
        with pytest.raises(ValueError):
            ClusterLabels(assignments=[0, 0, 2], n_clusters=3)
        ClusterLabels(assignments=[0, 1, 2], n_clusters=3)


class TestMergeTree:
    def test_no_merges_all_roots(self):
        d = decompose(np.eye(4))
        tree = merge_tree(d)
        assert tree.n_roots == tree.n_leaves == 4
        assert tree.merges == ()

    def test_block_example(self):
        tree = merge_tree(decompose(BLOCK4))
        assert tree.n_leaves == 4
        assert [(m.step, tuple(sorted((m.removed, m.kept)))) for m in tree.merges] == [
            (1, (0, 1)),
            (2, (2, 3)),
        ]
        assert tree.n_roots == 2

    def test_full_run_single_root(self, np_rng):
        tree = merge_tree(decompose(random_spsd(np_rng, 7)))
        assert tree.n_roots == 1

    def test_live_labels_match_scaling_set(self, np_rng):
        d = decompose(random_spsd(np_rng, 10))
        tree = merge_tree(d)
        for k in range(d.stop_level + 1):
            live = set(range(10)) - {m.removed for m in tree.merges[:k]}
            assert sorted(live) == d.scaling_set(k)


class TestCut:
    def test_all_singletons(self, np_rng):
        tree = merge_tree(decompose(random_spsd(np_rng, 6)))
        labels = cut(tree, 6)
        assert list(labels.assignments) == list(range(6))

    def test_single_cluster(self, np_rng):
        tree = merge_tree(decompose(random_spsd(np_rng, 6)))
        labels = cut(tree, 1)
        assert labels.n_clusters == 1
        assert set(labels.assignments) == {0}

    def test_block_example_two_clusters(self):
        labels = cut(merge_tree(decompose(BLOCK4)), 2)
        assert groups(labels) == {frozenset({0, 1}), frozenset({2, 3})}

    def test_unreachable_cut_reports_minimum(self):
        tree = merge_tree(decompose(BLOCK4))  # stalls at 2 roots
        with pytest.raises(ValueError, match="minimum reachable cluster count is 2"):
            cut(tree, 1)

    def test_zero_clusters_is_refused_as_such(self, np_rng):
        tree = merge_tree(decompose(random_spsd(np_rng, 4)))
        assert tree.n_roots == 1
        with pytest.raises(ValueError, match="n_clusters must be >= 1"):
            cut(tree, 0)

    def test_too_many_clusters(self, np_rng):
        tree = merge_tree(decompose(random_spsd(np_rng, 4)))
        with pytest.raises(ValueError):
            cut(tree, 5)

    def test_cuts_are_nested(self, np_rng):
        """Moving from c to c+1 clusters splits exactly one cluster."""
        tree = merge_tree(decompose(random_spsd(np_rng, 12)))
        for c in range(1, 12):
            coarse = groups(cut(tree, c))
            fine = groups(cut(tree, c + 1))
            untouched = coarse & fine
            assert len(untouched) == c - 1
            split = (coarse - fine).pop()
            halves = fine - coarse
            assert len(halves) == 2
            assert frozenset().union(*halves) == split

    def test_deterministic(self, np_rng):
        tree = merge_tree(decompose(random_spsd(np_rng, 9)))
        a = cut(tree, 3)
        b = cut(tree, 3)
        assert np.array_equal(a.assignments, b.assignments)

    def test_ids_canonical_by_smallest_member(self, np_rng):
        tree = merge_tree(decompose(random_spsd(np_rng, 8)))
        labels = cut(tree, 3)
        firsts = [int(np.nonzero(labels.assignments == c)[0][0]) for c in range(3)]
        assert firsts == sorted(firsts)
        assert labels.assignments[0] == 0


class TestCutAtScore:
    def test_threshold_above_everything_keeps_singletons(self):
        tree = merge_tree(decompose(BLOCK4))
        labels = cut_at_score(tree, 0.95)
        assert labels.n_clusters == 4

    def test_threshold_between_merges(self):
        tree = merge_tree(decompose(BLOCK4))
        labels = cut_at_score(tree, 0.85)  # applies only the 0.9 merge
        assert groups(labels) == {frozenset({0, 1}), frozenset({2}), frozenset({3})}

    def test_threshold_zero_applies_all(self):
        tree = merge_tree(decompose(BLOCK4))
        assert cut_at_score(tree, 0.0).n_clusters == 2

    def test_nan_threshold_rejected_and_infinities_mean_every_merge_and_none(self):
        """A NaN compares false with every score, so it used to apply every merge."""
        tree = merge_tree(decompose([[2, 1, 0], [1, 2, 0.5], [0, 0.5, 2]]))
        with pytest.raises(ValueError, match="^threshold must not be NaN$"):
            cut_at_score(tree, math.nan)
        assert list(cut_at_score(tree, -math.inf).assignments) == [0, 0, 0]
        assert list(cut_at_score(tree, math.inf).assignments) == [0, 1, 2]


@settings(max_examples=200, deadline=None)
@given(forests(max_leaves=40), st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0]))
def test_cuts_equal_the_union_find_replay(tree, threshold):
    for n_clusters in range(tree.n_roots, tree.n_leaves + 1):
        assert cut(tree, n_clusters) == union_find_labels(tree, tree.n_leaves - n_clusters)
    leading = 0
    while leading < len(tree.merges) and tree.merges[leading].score >= threshold:
        leading += 1
    assert cut_at_score(tree, threshold) == union_find_labels(tree, leading)


@settings(max_examples=200, deadline=None)
@given(forests(), st.sampled_from([-1.0, 0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 2.0]))
def test_cut_at_score_is_cut_after_the_leading_merges_at_or_above_it(tree, threshold):
    leading = 0
    while leading < len(tree.merges) and tree.merges[leading].score >= threshold:
        leading += 1
    by_score, by_count = cut_at_score(tree, threshold), cut(tree, tree.n_leaves - leading)
    assert by_score.n_clusters == by_count.n_clusters
    assert np.array_equal(by_score.assignments, by_count.assignments)


@settings(max_examples=100, deadline=None)
@given(forests(), st.data())
def test_tree_json_round_trip(tmp_path_factory, tree, data):
    """Write a tree file as cluster does, read it as roc does, compare; any finite score survives."""
    scores = st.floats(allow_nan=False, allow_infinity=False)
    tree = Dendrogram(tree.n_leaves, tuple(Merge(m.step, m.removed, m.kept, data.draw(scores)) for m in tree.merges))
    f = tmp_path_factory.getbasetemp() / "prop_tree.json"
    f.write_text(tree.to_json() + "\n", encoding="utf-8")
    back = Dendrogram.from_json(f.read_text(encoding="utf-8"))
    assert back == tree
    assert back.to_json() == tree.to_json()


class TestJsonRoundTrip:
    def test_round_trip(self, np_rng):
        tree = merge_tree(decompose(random_spsd(np_rng, 6)))
        again = Dendrogram.from_json(tree.to_json())
        assert again == tree

    def test_schema(self):
        tree = Dendrogram(n_leaves=3, merges=(Merge(1, 0, 1, 0.5),))
        import json

        payload = json.loads(tree.to_json())
        assert payload == {"n_leaves": 3, "merges": [[1, 0, 1, 0.5]]}
