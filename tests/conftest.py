import numpy as np
import pytest
from hypothesis import strategies as st

from treelets import Dendrogram, SymMatrix
from treelets.hierarchy import Merge


def random_spsd(rng: np.random.Generator, p: int) -> SymMatrix:
    """Random SPSD matrix built as G Gt."""
    g = rng.normal(size=(p, p))
    return SymMatrix.from_dense(g @ g.T)


def random_symmetric(rng: np.random.Generator, p: int, lo=-1.0, hi=1.0) -> SymMatrix:
    d = rng.uniform(lo, hi, (p, p))
    return SymMatrix.from_dense((d + d.T) / 2.0)


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240811)


@st.composite
def forests(draw, max_leaves: int = 12) -> Dendrogram:
    """A merge forest: each merge joins two live leaves, scores tie often."""
    n = draw(st.integers(1, max_leaves))
    live = list(range(n))
    merges = []
    for step in range(1, draw(st.integers(0, n - 1)) + 1):
        removed = live.pop(draw(st.integers(0, len(live) - 1)))
        kept = live[draw(st.integers(0, len(live) - 1))]
        merges.append(Merge(step, removed, kept, draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))))
    return Dendrogram(n_leaves=n, merges=tuple(merges))
