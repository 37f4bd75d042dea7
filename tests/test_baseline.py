import warnings

import numpy as np
import pytest

from treelets import Dataset, kmeans, matching_matrix, zscore_normalize
from treelets.datagen import Blobs
from treelets import generate


class TestKmeans:
    def test_k1_single_cluster(self, np_rng):
        data = Dataset(np_rng.normal(size=(10, 2)))
        labels = kmeans(data, 1, seed=0)
        assert labels.n_clusters == 1
        assert set(labels.assignments) == {0}

    def test_two_points_two_clusters(self):
        data = Dataset([[0.0, 0.0], [5.0, 5.0]])
        labels = kmeans(data, 2, seed=0)
        assert sorted(labels.assignments) == [0, 1]

    def test_recovers_separated_blobs(self):
        centers = ((0.0, 0.0), (20.0, 0.0), (0.0, 20.0))
        data, truth = generate(Blobs(centers=centers, stds=(1.0, 1.0, 1.0)), 60, seed=4)
        labels = kmeans(data, 3, seed=1)
        mm = matching_matrix(labels, truth.assignments)
        assert (mm.tp + mm.tn) / mm.total == 1.0

    def test_deterministic_given_seed(self, np_rng):
        data = Dataset(np_rng.normal(size=(40, 3)))
        a = kmeans(data, 4, seed=9)
        b = kmeans(data, 4, seed=9)
        assert np.array_equal(a.assignments, b.assignments)

    def test_objective_non_increasing(self, np_rng):
        """Lloyd's objective (squared distances to each cluster's mean) of the
        assignments after t iterations never rises with t."""
        for seed in range(5):
            data = Dataset(np_rng.normal(size=(50, 2)))
            objective = []
            for t in range(1, 21):
                labels = kmeans(data, 4, seed=seed, max_iters=t).assignments
                clusters = [data.values[labels == c] for c in np.unique(labels)]
                objective.append(sum(float(((x - x.mean(axis=0)) ** 2).sum()) for x in clusters))
            assert all(b <= a + 1e-9 for a, b in zip(objective, objective[1:]))

    def test_max_iters_below_one_refused(self):
        data = Dataset([[0.0, 0.0], [1.0, 1.0]])
        for max_iters in (0, -1):
            with pytest.raises(ValueError, match=f"^max_iters must be >= 1, not {max_iters}$"):
                kmeans(data, 2, max_iters=max_iters)

    def test_missing_data_refused(self):
        data = Dataset([[1.0, 2.0], [3.0, np.nan]], present=[[True, True], [True, False]])
        with pytest.raises(ValueError, match="complete data"):
            kmeans(data, 2)

    def test_values_whose_squared_distances_could_overflow_refused(self):
        bound = np.sqrt(np.finfo(float).max / (3 * 2)) / 2
        values = np.array([[bound, -bound], [-bound, bound], [0.0, 0.0]])
        kmeans(Dataset(values), 2)  # no overflow warned
        values[2, 1] = np.nextafter(-bound, -np.inf)
        with pytest.raises(ValueError, match=r"kmeans requires feature values within \+-sqrt\(float max / np\) / 2"):
            kmeans(Dataset(values), 2)

    def test_no_empty_clusters(self, np_rng):
        # more clusters than natural groups still yields k non-empty clusters
        data = Dataset(np.vstack([np.zeros((20, 2)), np.ones((2, 2)) * 50]))
        labels = kmeans(data, 5, seed=3)
        assert len(set(labels.assignments.tolist())) == 5


class TestZscoreNormalize:
    def test_two_value_column(self):
        out = zscore_normalize(Dataset([[1.0], [3.0]]))
        assert list(out.values[:, 0]) == [-1.0, 1.0]

    def test_idempotent_on_normalized_input(self, np_rng):
        data = Dataset(np_rng.normal(size=(50, 3)))
        once = zscore_normalize(data)
        twice = zscore_normalize(once)
        np.testing.assert_allclose(twice.values, once.values, atol=1e-12)

    def test_missing_entries_ignored_and_preserved(self):
        values = [[1.0, 5.0], [0.0, 6.0], [3.0, 7.0]]
        present = [[True, True], [False, True], [True, True]]
        out = zscore_normalize(Dataset(values, present))
        assert np.array_equal(out.present, present)
        # column 0 stats over the two present values: mean 2, population sd 1
        assert out.values[0, 0] == -1.0
        assert out.values[2, 0] == 1.0

    def test_population_sd(self, np_rng):
        col = np_rng.normal(2.0, 3.0, size=200)
        out = zscore_normalize(Dataset(col[:, None]))
        assert out.values[:, 0].mean() == pytest.approx(0.0, abs=1e-12)
        assert (out.values[:, 0] ** 2).mean() == pytest.approx(1.0, rel=1e-12)

    def test_constant_column_warns_and_zeroes(self):
        with pytest.warns(UserWarning, match="zero variance"):
            out = zscore_normalize(Dataset([[2.0, 1.0], [2.0, 3.0]]))
        assert list(out.values[:, 0]) == [0.0, 0.0]
        assert list(out.values[:, 1]) == [-1.0, 1.0]

    @pytest.mark.parametrize("column", [[1e308, -1e308, 1.0], [1.7e308, 1.7e308, 1.0]])  # the variance, the mean
    def test_column_whose_statistics_overflow_refused_before_any_warning(self, column):
        # column 0 has zero variance and column 1 one present value: both would warn
        values = np.array([[2.0] * 3, [5.0, 0.0, 0.0], column, [1.0, 2.0, 3.0]]).T
        present = np.ones_like(values, dtype=bool)
        present[1:, 1] = False
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^column 2 is too large to normalize: its mean or variance overflows$"):
                zscore_normalize(Dataset(values, present))

    def test_single_present_value_warns(self):
        values = [[1.0, 1.0], [0.0, 2.0]]
        present = [[True, True], [False, True]]
        with pytest.warns(UserWarning, match="fewer than 2"):
            out = zscore_normalize(Dataset(values, present))
        assert out.values[0, 0] == 0.0
