from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import strategies as st

import treelets.core
from treelets import Dendrogram, decompose
from treelets.hierarchy import Merge


def lower_mirrored(a) -> np.ndarray:
    """A new array with a's lower triangle on both sides, picked, so a -0.0 stays -0.0."""
    a = np.asarray(a, dtype=float)
    return np.where(np.tri(len(a), dtype=bool), a, a.T)


def random_spsd(rng: np.random.Generator, p: int) -> np.ndarray:
    """Random SPSD matrix built as G Gt, its lower triangle mirrored."""
    g = rng.normal(size=(p, p))
    return lower_mirrored(g @ g.T)


def random_symmetric(rng: np.random.Generator, p: int, lo=-1.0, hi=1.0) -> np.ndarray:
    d = rng.uniform(lo, hi, (p, p))
    return lower_mirrored((d + d.T) / 2.0)


def working_copy(a) -> np.ndarray:
    """The array public decompose(a) hands its rotation loop, taken in place of running the loop."""
    seen = []
    with patch.object(treelets.core, "_decompose", lambda g, lam, stop_tol: seen.append(g)):
        decompose(a)
    return seen[0]


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
