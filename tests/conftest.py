import base64
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from qcolor import game, linalg
from qcolor.graphs import Graph, _adjacency_mask, make_graph


def cycle(n: int) -> Graph:
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def adjacency(g: Graph) -> np.ndarray:
    """g's (n, n) boolean adjacency: adjacency(g)[u, v] iff u ~ v."""
    return _adjacency_mask(g)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return make_graph(10, outer + spokes + inner)


def as_tables(s: game.POVMStrategy) -> game.POVMStrategy:
    """s with both sides given as (n, c, d, d) tables, factored ones expanded."""
    return game.POVMStrategy(s.colors, s.dim_a, s.dim_b, s.state, s.alice, s.bob)


def text_pack(a, keep: int) -> list:
    """The text form of a complex array, as qcolor once wrote every file:
    nested lists of [re, im] pairs, the first keep axes kept and the rest
    one flat axis.  Set in place of io._pack, it makes a text-form writer."""
    a = np.asarray(a, dtype=complex)
    pairs = np.stack([a.real, a.imag], -1)
    return pairs.reshape(a.shape[:keep] + (math.prod(a.shape[keep:]), 2)).tolist()


def as_text(doc):
    """doc with each {"shape", "c16"} object spelled out as the text form's
    [re, im] pairs, read from its bytes (not through qcolor's decoder)."""
    if isinstance(doc, dict) and set(doc) == {"shape", "c16"}:
        pairs = np.frombuffer(base64.b64decode(doc["c16"]), "<f8")
        return pairs.reshape(doc["shape"] + [2]).tolist()
    if isinstance(doc, dict):
        return {key: as_text(value) for key, value in doc.items()}
    return [as_text(x) for x in doc] if isinstance(doc, list) else doc


def pair_block_rows(monkeypatch, n: int, rows: int) -> None:
    """Sets linalg.BLOCK_BYTES so that the pair kernel cuts the edges of a
    graph whose largest endpoint is n - 1 into blocks of this many rows."""
    monkeypatch.setattr(linalg, "BLOCK_BYTES", 16 * n * rows)
    assert linalg.PairBlocks(make_graph(n, [(0, n - 1)])).rows == rows


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
