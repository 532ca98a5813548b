import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (adjacency, cycle, graphs_st, path_plus_triangle, petersen,
                      random_graph)
from qcolor import coloring
from qcolor.graphs import complete_graph, make_graph


def brute_force_chromatic(g) -> int:
    for c in range(1, g.n + 1):
        for assign in itertools.product(range(c), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in g.edges()):
                return c
    return g.n


def brute_force_clique(g) -> int:
    best = 0
    for r in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), r):
            if all(adjacency(g)[u, v] for u, v in itertools.combinations(sub, 2)):
                return r
    return best


def test_verify_coloring_rejects_malformed():
    g = cycle(5)
    with pytest.raises(coloring.ColoringError):
        coloring.verify_coloring(g, coloring.ColoringCertificate(2, (0, 1)))
    with pytest.raises(coloring.ColoringError):
        coloring.verify_coloring(g, coloring.ColoringCertificate(2, (0, 1, 0, 1, 5)))


def test_verify_coloring_detects_improper():
    g = cycle(4)
    assert coloring.verify_coloring(g, coloring.ColoringCertificate(2, (0, 1, 0, 1)))
    assert not coloring.verify_coloring(g, coloring.ColoringCertificate(2, (0, 0, 1, 1)))


def test_verify_coloring_names_the_first_monochromatic_edge():
    """The verdict is truthy exactly when proper; a failure names the first
    edge of g.edge_array whose ends share a color, and that color."""
    g = cycle(6)  # edges (0,1), (0,5), (1,2), (2,3), (3,4), (4,5)
    ok = coloring.verify_coloring(g, coloring.ColoringCertificate(2, (0, 1, 0, 1, 0, 1)))
    assert ok and ok.where is None and ok.reason is None
    bad = coloring.verify_coloring(g, coloring.ColoringCertificate(3, (0, 1, 2, 2, 1, 1)))
    assert not bad and bad.where == (2, 3, 2)
    assert str(bad) == "ends share a color on edge (2, 3), color 2"
    assert coloring.verify_coloring(make_graph(3, []), coloring.ColoringCertificate(1, (0, 0, 0)))
    huge = coloring.verify_coloring(make_graph(2, [(0, 1)]),
                                    coloring.ColoringCertificate(2 ** 70, (2 ** 65, 2 ** 65)))
    assert not huge and huge.where == (0, 1, 2 ** 65)


@pytest.mark.parametrize("n", range(1, 7))
def test_chromatic_complete(n):
    res = coloring.chromatic_number(complete_graph(n))
    assert res.chi == n and res.status == "exact"


def test_chromatic_odd_even_cycles():
    assert coloring.chromatic_number(cycle(6)).chi == 2
    assert coloring.chromatic_number(cycle(7)).chi == 3


def test_chromatic_petersen():
    res = coloring.chromatic_number(petersen())
    assert res.chi == 3
    assert coloring.verify_coloring(petersen(), res.certificate)


def test_clique_petersen():
    assert coloring.clique_number(petersen()).omega == 2


def test_edgeless_graph():
    g = make_graph(4, [])
    assert coloring.chromatic_number(g).chi == 1
    assert coloring.clique_number(g).omega == 1


def test_is_c_colorable_exhaustive_no():
    res = coloring.is_c_colorable(cycle(5), 2)
    assert res.status == coloring.NO
    assert res.certificate is None


def test_huge_color_count():
    res = coloring.is_c_colorable(cycle(5), 10**12)
    assert res.status == coloring.YES and res.certificate.c == 10**12
    assert coloring.verify_coloring(cycle(5), res.certificate)


def test_budget_exceeded_reported():
    g = random_graph(20, 0.5, seed=1)
    res = coloring.is_c_colorable(g, 5, budget=3)
    assert res.status == coloring.BUDGET_EXCEEDED
    cl = coloring.clique_number(g, budget=1)  # omega is then a lower bound
    assert cl.status == coloring.BUDGET_EXCEEDED and len(cl.clique) == cl.omega
    assert all(adjacency(g)[u, v] for u, v in itertools.combinations(cl.clique, 2))


@pytest.mark.parametrize("seed", range(30))
def test_chromatic_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 8))
    g = random_graph(n, 0.5, seed=seed + 1000)
    res = coloring.chromatic_number(g)
    assert res.status == "exact"
    assert res.chi == brute_force_chromatic(g)
    assert coloring.verify_coloring(g, res.certificate)


@pytest.mark.parametrize("seed", range(20))
def test_clique_matches_brute_force(seed):
    rng = np.random.default_rng(seed + 500)
    n = int(rng.integers(1, 9))
    g = random_graph(n, 0.5, seed=seed + 2000)
    res = coloring.clique_number(g)
    assert res.status == "exact"
    assert res.omega == brute_force_clique(g)
    # returned clique really is one
    assert all(adjacency(g)[u, v]
               for u, v in itertools.combinations(res.clique, 2))


@given(graphs_st(max_n=7))
@settings(max_examples=60, deadline=None)
def test_bounds_and_certificates(g):
    res = coloring.chromatic_number(g)
    cl = coloring.clique_number(g)
    greedy = coloring.greedy_coloring(g)
    assert cl.omega <= res.chi <= greedy.c
    assert coloring.verify_coloring(g, res.certificate)
    assert coloring.verify_coloring(g, greedy)
    below = coloring.is_c_colorable(g, res.chi - 1) if res.chi > 1 else None
    if below is not None:
        assert below.status == coloring.NO


@given(graphs_st(max_n=7), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_colorable_decision_consistent(g, c):
    res = coloring.is_c_colorable(g, c)
    expected = brute_force_chromatic(g) <= c
    assert res.status == (coloring.YES if expected else coloring.NO)
    if expected:
        assert coloring.verify_coloring(g, res.certificate)


# -- deep and pinned searches --------------------------------------------------


def test_search_depth_is_not_bounded_by_recursion():
    # the greedy clique is an edge of the path, so c = 2 is refuted by a
    # search that goes 5000 deep
    g = path_plus_triangle(5000)
    assert coloring.is_c_colorable(g, 2).status == coloring.NO
    yes = coloring.is_c_colorable(g, 3)
    assert yes.status == coloring.YES
    assert coloring.verify_coloring(g, yes.certificate)
    res = coloring.chromatic_number(g)
    assert res.chi == 3 and res.status == "exact"
    assert coloring.clique_number(g).omega == 3


# (n, p, seed, chi, nodes at chi - 1, nodes at chi, certificate at chi,
#  greedy_coloring certificate); they pin the search's branching order, and
# were recorded before the search moved to bitsets and an explicit stack.
GOLDEN = [
    (30, 0.5, 1, 7, 22, 221,
     "200051143112234434663600220655",
     "122445775521732257563166107340"),
    (40, 0.3, 2, 6, 152, 36,
     "0212200331035324344412100551231420132433",
     "5101132321242314443501052500142314001534"),
    (45, 0.4, 3, 8, 2469, 74,
     "041005331021122053306447507365726561040574652",
     "502527164813714862350002675753214863606524461"),
    (50, 0.25, 4, 6, 2565, 46,
     "12040445412112512023231501003132330322104343424014",
     "04301521153053442043300130415023425042021125432342"),
    (60, 0.15, 5, 5, 104, 57,
     "132000020220020311120021231403213113321241001134341312413422",
     "022432013323300004123320144011101123121210430412030122342104"),
]


@pytest.mark.parametrize("n, p, seed, chi, nodes_no, nodes_yes, cert, greedy",
                         GOLDEN)
def test_golden_search_order(n, p, seed, chi, nodes_no, nodes_yes, cert, greedy):
    g = random_graph(n, p, seed)
    no = coloring.is_c_colorable(g, chi - 1)
    assert (no.status, no.nodes) == (coloring.NO, nodes_no)
    yes = coloring.is_c_colorable(g, chi)
    assert (yes.status, yes.nodes) == (coloring.YES, nodes_yes)
    assert yes.certificate.colors == tuple(int(x) for x in cert)
    assert coloring.greedy_coloring(g).colors == tuple(int(x) for x in greedy)


@pytest.mark.parametrize("n, p, seed", [row[:3] for row in GOLDEN])
def test_chromatic_number_decides_each_c_once(n, p, seed):
    g = random_graph(n, p, seed)
    res = coloring.chromatic_number(g)
    lower = len(coloring.greedy_clique(g))
    upper = coloring.greedy_coloring(g).c
    assert res.nodes == sum(coloring.is_c_colorable(g, c).nodes
                            for c in range(lower, min(res.chi + 1, upper)))
