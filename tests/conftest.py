import numpy as np
import pytest
from hypothesis import strategies as st

from qcolor.graphs import Graph, make_graph


def cycle(n: int) -> Graph:
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return make_graph(10, outer + spokes + inner)


def umbrella_gram() -> np.ndarray:
    """Gram matrix of the Lovasz umbrella: a rank-3 orthogonal
    representation of C5, with the edge entries set to exact zeros."""
    ct = np.cos(4 * np.pi / 5) / (np.cos(4 * np.pi / 5) - 1)
    st_ = np.sqrt(1 - ct)
    u = np.array([[st_ * np.cos(4 * np.pi * k / 5),
                   st_ * np.sin(4 * np.pi * k / 5),
                   np.sqrt(ct)] for k in range(5)])
    gram = u @ u.T
    gram[np.abs(gram) < 1e-12] = 0.0
    return gram.astype(complex)


def path_plus_triangle(n: int) -> Graph:
    """A path on n vertices and a disjoint triangle (chi = 3)."""
    edges = [(i, i + 1) for i in range(n - 1)]
    edges += [(n, n + 1), (n, n + 2), (n + 1, n + 2)]
    return make_graph(n + 3, edges)


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return make_graph(n, edges)


@st.composite
def graphs_st(draw, max_n: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(possible), unique=True)) if possible else []
    return make_graph(n, edges)


@pytest.fixture
def c5() -> Graph:
    return cycle(5)
